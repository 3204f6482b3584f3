"""One interned encoding per instance, shared by the seminaive engines.

Every seminaive evaluation over an :class:`~repro.objects.Instance`
reads that instance's one encoding (its store, each relation's id rows
and the instance indexes) through its own view.  Four properties pin
the sharing down:

* a warm instance answers like a fresh one: answers, stage counts and
  every tracer counter, whatever ran on it before (in any order, errors
  included);
* the encoding is used: a second answer interns no row and builds no
  instance index;
* it dies with its instance (reference counting alone frees both), and
  an instance derived by ``with_relation`` or ``rename_atoms`` gets its
  own;
* an evaluation cut short by an exception inside a shared write leaves
  the encoding consistent: every later answer on the instance is right.
"""

from __future__ import annotations

import gc
import random
import sys
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.fixpoint as fixpoint
from tests.conftest import calc_queries, datalog_programs, flat_graph_instances
from repro.core.evaluation import EvalError, Evaluator
from repro.core.fixpoint import FixpointError, IndexPool, PFPDivergenceError
from repro.core.range_restriction import RangeComputationError
from repro.core.safety import evaluate_range_restricted
from repro.datalog import DatalogError, evaluate_inflationary, evaluate_partial
from repro.objects import Atom, Instance, InternedInstance, ValueStore
from repro.objects.domains import DomainTooLarge
from repro.objects.intern import InstanceEncoding
from repro.obs import Tracer, use_tracer
from repro.workloads import (
    GOLDEN_SEED,
    QUESTIONS,
    answer_question,
    load_golden,
    question_by_name,
    supply_chain_instance,
)

GOLDEN = load_golden()

DATALOG = [question for question in QUESTIONS if question.kind == "datalog"]
CALC = [question for question in QUESTIONS if question.kind == "calc"]


def _question_step(question):
    def step(inst):
        answer = answer_question(question, inst)
        return answer.rows, answer.stages
    return question.name, step


def _error_steps():
    """Calculus evaluations that raise part-way: a product cap hit after
    range derivation, and an active domain over its cap."""
    def product_cap(inst):
        evaluate_range_restricted(question_by_name("calc-order-nest").build(),
                                  inst, max_product=3)

    def domain_cap(inst):
        Evaluator(inst.schema, max_domain_size=2).evaluate(
            question_by_name("calc-bom-tc").build(), inst)

    return [("max_product=3", product_cap), ("max_domain_size=2", domain_cap)]


def _observe(step, inst):
    """What ``step`` returns or raises on ``inst``, with every counter
    of its tracer."""
    tracer = Tracer()
    with use_tracer(tracer):
        try:
            outcome = step(inst)
        except (EvalError, DomainTooLarge) as error:
            outcome = type(error).__name__
    return outcome, dict(tracer.counters)


def _orders(seed: int) -> list:
    """The 30 questions and the two failing evaluations, shuffled by
    ``seed``; seed 0 alternates Datalog and calculus questions while the
    calculus ones last, failing evaluations among them."""
    steps = [_question_step(question) for question in QUESTIONS]
    errors = _error_steps()
    if seed == 0:
        datalog = [_question_step(question) for question in DATALOG]
        calc = [_question_step(question) for question in CALC] + errors
        order = []
        while datalog or calc:
            for pool in (datalog, calc):
                if pool:
                    order.append(pool.pop(0))
        return order
    order = steps + errors
    random.Random(seed).shuffle(order)
    return order


@pytest.fixture(scope="module")
def fresh_observations():
    """Each step's outcome and counters on a fresh instance, per scale."""
    return {scale: {name: _observe(step, supply_chain_instance(scale,
                                                               GOLDEN_SEED))
                    for name, step in _orders(1)}
            for scale in (1, 4)}


class TestWarmInstanceAnswersLikeFresh:
    @pytest.mark.parametrize("scale,seed", [(1, 0), (1, 1), (1, 2), (1, 3),
                                            (4, 0), (4, 5)])
    def test_every_step_twice_in_shuffled_order(self, fresh_observations,
                                                scale, seed):
        inst = supply_chain_instance(scale, GOLDEN_SEED)
        fresh = fresh_observations[scale]
        for round_ in range(2):
            for name, step in _orders(seed + round_):
                assert _observe(step, inst) == fresh[name], (name, round_)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inst=flat_graph_instances(), jobs=st.lists(st.one_of(
        st.tuples(st.sampled_from(["active", "restricted"]),
                  st.one_of(calc_queries("ifp"), calc_queries("pfp")),
                  st.sampled_from([{}, {"max_product": 3},
                                   {"max_domain_size": 2}])),
        st.tuples(st.sampled_from(["inflationary", "partial"]),
                  datalog_programs(), st.just({}))), min_size=2, max_size=5))
    def test_random_queries_and_programs(self, inst, jobs):
        """Random CALC+IFP/PFP queries and Datalog programs, run one
        after another on one instance, twice, each as on a fresh copy:
        answer or error (PFP divergence with its period and stage)."""
        def step(job):
            kind, item, caps = job

            def run(target):
                try:
                    if kind == "active":
                        return Evaluator(target.schema, **caps).evaluate(
                            item, target)
                    if kind == "restricted":
                        return evaluate_range_restricted(
                            item, target, max_product=caps.get(
                                "max_product", 20_000_000)).answer
                    engine = (evaluate_inflationary if kind == "inflationary"
                              else evaluate_partial)
                    return engine(item, target)
                except PFPDivergenceError as error:
                    return "diverges", error.period, error.stage
                except (EvalError, DomainTooLarge, FixpointError,
                        DatalogError, RangeComputationError) as error:
                    return type(error).__name__
            return run

        fresh = [_observe(step(job), Instance(inst.schema, {
            relation.name: relation.tuples for relation in inst.relations()}))
            for job in jobs]
        for _ in range(2):
            for job, expected in zip(jobs, fresh):
                assert _observe(step(job), inst) == expected, job

    def test_store_stops_growing_after_the_first_round(self):
        inst = supply_chain_instance(1, GOLDEN_SEED)
        sizes = []
        for _ in range(3):
            for question in QUESTIONS:
                answer_question(question, inst)
            sizes.append(len(InternedInstance(inst).store))
        assert sizes[0] == sizes[1] == sizes[2] > 0


class TestEncodingIsUsed:
    @pytest.mark.parametrize("name,indexes", [("co-suppliers", True),
                                              ("calc-order-nest", False)])
    def test_second_answer_interns_no_row_and_builds_no_index(
            self, monkeypatch, name, indexes):
        """The first answer interns the rows it reads (and co-suppliers
        builds an index; calc-order-nest's lifted IFP term scans
        ``Order`` without one); the second interns and builds nothing."""
        calls = {"intern_row": 0, "_add_rows": 0}
        intern_row, add_rows = ValueStore.intern_row, fixpoint._add_rows

        def counting_intern_row(self, row):
            calls["intern_row"] += 1
            return intern_row(self, row)

        def counting_add_rows(*args):
            calls["_add_rows"] += 1
            return add_rows(*args)

        monkeypatch.setattr(ValueStore, "intern_row", counting_intern_row)
        monkeypatch.setattr(fixpoint, "_add_rows", counting_add_rows)
        inst = supply_chain_instance(1, GOLDEN_SEED)
        question = question_by_name(name)
        first = answer_question(question, inst)
        assert calls["intern_row"] > 0
        assert (calls["_add_rows"] > 0) == indexes
        calls.update(intern_row=0, _add_rows=0)
        assert answer_question(question, inst) == first
        assert calls == {"intern_row": 0, "_add_rows": 0}


class _Referenced(Instance):
    """An instance a weak reference can watch."""

    __slots__ = ("__weakref__",)


class TestEncodingLifetime:
    def test_instance_freed_by_reference_counting(self):
        base = supply_chain_instance(1, GOLDEN_SEED)
        inst = _Referenced(base.schema, {relation.name: relation.tuples
                                         for relation in base.relations()})
        for name in ("co-suppliers", "bom-closure", "calc-order-nest"):
            answer_question(question_by_name(name), inst)
        assert len(InternedInstance(inst).store) > 0
        watch = weakref.ref(inst)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del inst
            assert watch() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("name", ["bom-closure", "calc-bom-tc"])
    def test_renamed_instance_has_its_own_encoding(self, name):
        """Genericity on a renamed instance, after answering on the
        original: the question has no constants, so renaming every atom
        renames the answer."""
        inst = supply_chain_instance(1, GOLDEN_SEED)
        question = question_by_name(name)
        original = answer_question(question, inst)
        renaming = {atom: Atom(f"{atom.label}~") for atom in inst.atoms()}
        renamed = inst.rename_atoms(renaming)
        answer = answer_question(question, renamed)
        assert answer.rows == {tuple(renaming[value] for value in row)
                               for row in original.rows}
        assert answer.stages == original.stages
        assert (InternedInstance(renamed).store
                is not InternedInstance(inst).store)

    def test_with_relation_has_its_own_encoding(self):
        inst = supply_chain_instance(1, GOLDEN_SEED)
        question = question_by_name("bom-closure")
        before = answer_question(question, inst)
        assert before.rows
        trimmed = inst.with_relation("BOM", [])
        assert answer_question(question, trimmed).rows == frozenset()
        assert (InternedInstance(trimmed).store
                is not InternedInstance(inst).store)
        assert answer_question(question, inst) == before


def _offsets(function) -> list[int]:
    """The body lines of ``function`` that carry bytecode, counted from
    its ``def`` line (so the test ids survive edits elsewhere)."""
    code = function.__code__
    first = code.co_firstlineno
    return sorted({line - first for _, _, line in code.co_lines()
                   if line is not None and line > first})


#: The code that writes to an instance's shared encoding.
SHARED_WRITES = {
    "ValueStore._add": ValueStore._add,
    "InstanceEncoding.rows": InstanceEncoding.rows,
    "IndexPool.probe": IndexPool.probe,
}


class TestInterruptedSharedWrites:
    """An exception can land between any two statements (an interrupt,
    the stall watchdog's asynchronous abort, ``MemoryError``); the
    evaluation it cuts short must not corrupt the instance's encoding
    for the evaluations after it."""

    @staticmethod
    def _interrupt_once(code, line):
        """A trace function raising ``KeyboardInterrupt`` the first time
        ``code`` reaches ``line`` (a trace function that raises is
        uninstalled, so it fires once)."""
        fired = []

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno == line:
                fired.append(line)
                raise KeyboardInterrupt
            return local

        def trace(frame, event, arg):
            return local if frame.f_code is code and not fired else None

        return trace, fired

    @pytest.mark.parametrize("target,offset", [
        (name, offset) for name, function in SHARED_WRITES.items()
        for offset in _offsets(function)])
    def test_every_later_answer_is_right(self, target, offset):
        inst = supply_chain_instance(1, GOLDEN_SEED)
        code = SHARED_WRITES[target].__code__
        line = code.co_firstlineno + offset
        trace, fired = self._interrupt_once(code, line)
        previous = sys.gettrace()
        sys.settrace(trace)
        # Traced, so that the lines only a tracer reaches (the counting
        # in ``IndexPool.probe``) are interrupted too; the answers
        # checked below run untraced, as production answers do.
        try:
            with use_tracer(Tracer()):
                for question in QUESTIONS:
                    try:
                        answer_question(question, inst)
                    except KeyboardInterrupt:
                        break
        finally:
            sys.settrace(previous)
        assert fired == [line]
        golden = GOLDEN["scales"]["1"]["questions"]
        for question in QUESTIONS:
            answer = answer_question(question, inst)
            expected = golden[question.name]
            assert (len(answer.rows), answer.checksum) == \
                (expected["rows"], expected["checksum"]), question.name
            if question.recursive:
                assert answer.stages == expected["stages"], question.name

    def test_add_drops_what_a_broken_add_left(self):
        store = ValueStore()
        first = store.intern(Atom("a"))
        # What an _add cut short before publishing its id leaves behind.
        store._keys.append(("a", "orphan"))
        store._values.append(Atom("orphan"))
        second = store.intern(Atom("b"))
        assert (first, second) == (0, 1) and len(store) == 2
        assert store.value(second) == Atom("b")
        assert Atom("orphan") not in store
