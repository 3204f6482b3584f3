"""The question path: each question compiled once, answered untraced.

``answer_question`` evaluates a question's compiled form
(:attr:`~repro.workloads.supply_chain.Question.compiled`, made on first
use) under whatever tracer is active, and the engines report the stage
count themselves.  Pinned here:

* the stage-count contract: an answer made with no tracer installed
  equals the same call under a :class:`~repro.obs.Tracer` (rows,
  checksum, stages), and its stages are that tracer's ``ifp.stages``
  plus ``pfp.stages``, on both lanes;
* the untraced path is untraced: answering the inventory under the
  default tracer constructs no ``Tracer``, and over three rounds each
  ``.dl`` source is parsed and each CALC query built exactly once;
* genericity: renaming every atom of the instance except the question's
  own constants renames the answer, from the warm original instance to
  its cold renamed copy, with the same compiled question and the same
  stage count.  A compiled question that kept anything tied to an
  instance would fail it.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.workloads.supply_chain as supply_chain
from repro.core.builder import V, eq, exists, pfp, query, rel
from repro.core.range_restriction import derive_ranges
from repro.core.safety import evaluate_range_restricted
from repro.core.syntax import Query, constants_of
from repro.datalog import DConst, Literal, parse_program
from repro.objects import (
    Atom,
    CSet,
    CTuple,
    atom,
    cset,
    database_schema,
    instance,
)
from repro.obs import Tracer, get_tracer, rows_checksum, use_tracer
from repro.workloads import (
    GOLDEN_SCALES,
    GOLDEN_SEED,
    QUESTIONS,
    answer_question,
    question_by_name,
    supply_chain_instance,
)

#: The engine lanes: the naive oracle and the production engine.
LANES = ("naive", "seminaive")

DATALOG = [question for question in QUESTIONS if question.kind == "datalog"]
CALC = [question for question in QUESTIONS if question.kind == "calc"]


@pytest.fixture(scope="module")
def instances():
    """The pinned golden instances, built once per module (so each is
    warm after the first answer on it)."""
    return {scale: supply_chain_instance(scale, GOLDEN_SEED)
            for scale in GOLDEN_SCALES}


# ---------------------------------------------------------------------------
# The stage-count contract
# ---------------------------------------------------------------------------

def _assert_untraced_equals_traced(questions, inst, lane):
    assert not get_tracer().enabled
    for question in questions:
        untraced = answer_question(question, inst, strategy=lane)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = answer_question(question, inst, strategy=lane)
        assert untraced == traced, question.name
        assert untraced.stages == (tracer.counters.get("ifp.stages", 0)
                                   + tracer.counters.get("pfp.stages", 0)), \
            question.name


class TestStageContract:
    @pytest.mark.parametrize("lane", LANES)
    def test_scale1_every_question(self, instances, lane):
        _assert_untraced_equals_traced(QUESTIONS, instances[1], lane)

    @pytest.mark.parametrize("lane", LANES)
    def test_scale4_datalog_questions(self, instances, lane):
        _assert_untraced_equals_traced(DATALOG, instances[4], lane)

    def test_scale4_calc_questions(self, instances):
        _assert_untraced_equals_traced(CALC, instances[4], "seminaive")

    def test_range_derivation_stages_count(self, instances):
        """``calc-order-nest``'s rule-9' range evaluates its IFP term
        once per customer per round: 40 of the question's 60 stages at
        scale 1 (2 rounds x 10 customers x 2 stages), counted with no
        tracer installed."""
        question = question_by_name("calc-order-nest")
        assert derive_ranges(question.compiled, instances[1])[1] == 40
        assert evaluate_range_restricted(question.compiled,
                                         instances[1]).stages == 60

    def test_raising_rule9_binding_counts_its_stages(self):
        """The diverging PFP term of ``test_range_restriction``: for
        x = a it cycles after 2 stages and rule 9' leaves its value out,
        for x = b it converges in 2.  Both bindings run in each of the
        derivation's 2 rounds, and the raising one's stages count as a
        tracer counts them: 8 in all."""
        x, y, s = V("x", "U"), V("y", "U"), V("s", "{U}")
        y2 = V("y2", "U")
        term = pfp("Q", [y2], rel("P")(x, y2) & (~rel("Q")(y2) | rel("D")(x)))
        q = query([x, s], exists(y, rel("P")(x, y)) & eq(s, term.as_term()))
        inst = instance(database_schema(P=["U", "U"], D=["U"]),
                        P=[("a", "c"), ("b", "c")], D=[("b",)])
        tracer = Tracer()
        with use_tracer(tracer):
            traced = derive_ranges(q, inst)
        assert tracer.counters["pfp.stages"] == 8
        assert "ifp.stages" not in tracer.counters
        assert derive_ranges(q, inst) == traced
        assert traced[1] == 8
        assert traced[0]["s"] == [cset(atom("c"))]


def _stage_report(question, inst, lane):
    """The stage events of one traced answer, in emission order, and
    the stage counters and histograms the fixpoint loops report."""
    tracer = Tracer()
    with use_tracer(tracer):
        answer_question(question, inst, strategy=lane)
    spans, events = [tracer.root], []
    while spans:
        span = spans.pop()
        spans += span.children
        events += [event for event in span.events
                   if event.name in ("ifp.stage", "pfp.stage")]
    events.sort(key=lambda event: event.time)
    counters = {name: tracer.counters.get(name) for name in
                ("ifp.stages", "pfp.stages", "space.peak_fixpoint_rows")}
    histograms = {name: histogram.to_json()
                  for name, histogram in tracer.metrics.histograms()
                  if name in ("space.ifp.stage_rows", "space.pfp.stage_rows")}
    return [(event.name, event.attrs) for event in events], counters, \
        histograms


class TestLanesShareTheStageLoop:
    """Both lanes run their fixpoints through the loops of
    :mod:`repro.core.fixpoint`, so they report the same stages: event
    for event, with the same stage counters and row histograms.
    ``calc-order-nest``'s seminaive answer reads lifted runs, which
    credit each binding its stages without per-stage events, so it
    compares the counters only."""

    @pytest.mark.parametrize("question", QUESTIONS, ids=lambda q: q.name)
    def test_scale1(self, instances, question):
        naive = _stage_report(question, instances[1], "naive")
        seminaive = _stage_report(question, instances[1], "seminaive")
        assert naive[1] == seminaive[1]
        if question.name != "calc-order-nest":
            assert naive[0] == seminaive[0]
            assert naive[2] == seminaive[2]


# ---------------------------------------------------------------------------
# The untraced path
# ---------------------------------------------------------------------------

class TestCompiledOnce:
    def test_no_tracer_is_constructed(self, instances, monkeypatch):
        built = []
        construct = Tracer.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(Tracer, "__init__", counting)
        assert not get_tracer().enabled
        for question in QUESTIONS:
            answer_question(question, instances[1])
        assert built == []
        Tracer()
        assert len(built) == 1  # the count would have seen one

    def test_each_question_compiled_once(self, instances, monkeypatch):
        """Fresh question objects (a question's compiled form is kept on
        the object itself), three rounds of the inventory: each ``.dl``
        source is parsed once and each CALC query built once."""
        parsed: list[str] = []
        built: list[str] = []

        def parse(text):
            parsed.append(text)
            return parse_program(text)

        def builder(question):
            def build():
                built.append(question.name)
                return question.build()
            return build

        monkeypatch.setattr(supply_chain, "parse_program", parse)
        fresh = [dataclasses.replace(question) if question.kind == "datalog"
                 else dataclasses.replace(question, build=builder(question))
                 for question in QUESTIONS]
        for _ in range(3):
            for question in fresh:
                answer_question(question, instances[1])
        assert sorted(parsed) == sorted(q.source for q in DATALOG)
        assert sorted(built) == sorted(q.name for q in CALC)

    def test_compiled_form_belongs_to_the_question_not_its_name(
            self, instances):
        """Two questions may share a name; each answers its own text."""
        electronics = question_by_name("parts-electronics")
        tier1 = question_by_name("tier1-suppliers")
        impostor = dataclasses.replace(electronics, source=tier1.source)
        assert impostor.name == electronics.name
        inst = instances[1]
        assert answer_question(electronics, inst).rows != \
            answer_question(tier1, inst).rows
        assert answer_question(impostor, inst) == answer_question(tier1, inst)
        assert answer_question(electronics, inst).rows != \
            answer_question(impostor, inst).rows


# ---------------------------------------------------------------------------
# Genericity over the whole inventory
# ---------------------------------------------------------------------------

def _constants(question) -> set:
    """The constants of a question, read from its compiled form."""
    compiled = question.compiled
    if isinstance(compiled, Query):
        return set(constants_of(compiled.body))
    program, query = compiled
    literals = [query]
    for rule in program.rules:
        literals += [rule.head, *rule.body]
    return {term.value for literal in literals
            for term in (literal.terms if isinstance(literal, Literal)
                         else (literal.left, literal.right))
            if isinstance(term, DConst)}


def _renamed(value, mapping):
    if isinstance(value, Atom):
        return mapping.get(value, value)
    if isinstance(value, CTuple):
        return CTuple(_renamed(item, mapping) for item in value.items)
    assert isinstance(value, CSet)
    return CSet(_renamed(element, mapping) for element in value.elements)


def _assert_generic(question, inst, lane):
    fixed = set().union(*(value.atoms() for value in _constants(question)))
    mapping = {atom: Atom(f"renamed-{atom.label}")
               for atom in inst.atoms() if atom not in fixed}
    renamed_inst = inst.rename_atoms(mapping)
    compiled = question.compiled
    original = answer_question(question, inst, strategy=lane)
    renamed = answer_question(question, renamed_inst, strategy=lane)
    assert question.compiled is compiled
    expected = frozenset(tuple(_renamed(value, mapping) for value in row)
                         for row in original.rows)
    assert renamed.rows == expected, question.name
    assert renamed.checksum == rows_checksum(expected), question.name
    assert renamed.stages == original.stages, question.name


class TestGenericity:
    def test_question_constants_are_read_from_the_compiled_form(self):
        assert _constants(question_by_name("suppliers-of-part")) == \
            {Atom("p000013")}
        assert _constants(question_by_name("dual-cert")) == \
            {Atom("iso9001"), Atom("rohs")}
        assert _constants(question_by_name("calc-bom-tc")) == set()

    @pytest.mark.parametrize("lane", LANES)
    @pytest.mark.parametrize("question", QUESTIONS, ids=lambda q: q.name)
    def test_scale1_answers_commute_with_renaming(self, instances, lane,
                                                  question):
        _assert_generic(question, instances[1], lane)

    @pytest.mark.slow
    @pytest.mark.parametrize("question", DATALOG, ids=lambda q: q.name)
    def test_scale4_datalog_answers_commute_on_both_lanes(self, instances,
                                                          question):
        for lane in LANES:
            _assert_generic(question, instances[4], lane)

    @pytest.mark.slow
    @pytest.mark.parametrize("question", CALC, ids=lambda q: q.name)
    def test_scale4_calc_answers_commute(self, instances, question):
        _assert_generic(question, instances[4], "seminaive")
