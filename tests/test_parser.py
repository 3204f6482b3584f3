"""Tests for the textual syntax (parser <-> builder agreement)."""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.builder import V, exists, query, rel
from repro.core.evaluation import evaluate
from repro.core.parser import ParseError, parse_formula, parse_query, parse_term
from repro.core.syntax import (
    And,
    Const,
    Equals,
    Exists,
    FixpointPred,
    FixpointTerm,
    Forall,
    Iff,
    Implies,
    In,
    Not,
    Or,
    Proj,
    Subset,
    Var,
)
from repro.objects import atom, cset, database_schema, instance, parse_type


class TestTerms:
    def test_quoted_atom(self):
        t = parse_term("'a'")
        assert isinstance(t, Const)
        assert t.value == atom("a")

    def test_set_constant(self):
        t = parse_term("{'a', 'b'}")
        assert t.value == cset(atom("a"), atom("b"))

    def test_tuple_constant(self):
        t = parse_term("['a', {'b'}]")
        assert t.typ == parse_type("[U,{U}]")

    def test_empty_set_constant(self):
        assert parse_term("{}").value == cset()

    def test_annotated_variable(self):
        t = parse_term("x:{U}")
        assert isinstance(t, Var)
        assert t.typ == parse_type("{U}")

    def test_projection(self):
        t = parse_term("x:[U,U].2")
        assert isinstance(t, Proj)
        assert t.index == 2


class TestFormulas:
    def test_precedence_and_binds_tighter_than_or(self):
        f = parse_formula("P(x:U) and Q(x) or R(x)")
        assert isinstance(f, Or)
        assert isinstance(f.operands[0], And)

    def test_implies_right_assoc(self):
        f = parse_formula("P(x:U) -> Q(x) -> R(x)")
        assert isinstance(f, Implies)
        assert isinstance(f.consequent, Implies)

    def test_iff(self):
        f = parse_formula("P(x:U) <-> Q(x)")
        assert isinstance(f, Iff)

    def test_not(self):
        f = parse_formula("not P(x:U)")
        assert isinstance(f, Not)

    def test_quantifiers(self):
        f = parse_formula("exists x:U, y:U (P(x, y))")
        assert isinstance(f, Exists)
        assert isinstance(f.body, Exists)
        g = parse_formula("forall s:{U} (x:U in s)")
        assert isinstance(g, Forall)
        assert isinstance(g.body, In)

    def test_comparisons(self):
        assert isinstance(parse_formula("x:U = y:U"), Equals)
        assert isinstance(parse_formula("x:U in s:{U}"), In)
        assert isinstance(parse_formula("s:{U} sub t:{U}"), Subset)

    def test_parenthesised(self):
        f = parse_formula("(P(x:U) or Q(x)) and R(x)")
        assert isinstance(f, And)

    def test_variable_type_consistency(self):
        # Conflicting inline annotations are a parse-time error; purely
        # semantic type errors (x in x) are the type checker's job.
        with pytest.raises(ParseError):
            parse_formula("P(x:U) and Q(x:{U})")


class TestFixpointSyntax:
    def test_applied_fixpoint(self):
        f = parse_formula(
            "ifp[S(x:U, y:U)](G(x, y) or exists z:U (S(x,z) and G(z,y)))(x, y)"
        )
        assert isinstance(f, FixpointPred)
        assert f.fixpoint.kind == "IFP"
        assert f.fixpoint.arity == 2

    def test_pfp(self):
        f = parse_formula("pfp[S(x:U)](not S(x))(x)")
        assert f.fixpoint.kind == "PFP"

    def test_fixpoint_as_term(self):
        f = parse_formula("s:{U} = ifp[Q(y:U)](P(x:U, y) or Q(y))")
        assert isinstance(f, Equals)
        assert isinstance(f.right, FixpointTerm)


class TestQueries:
    def test_query_roundtrip_with_evaluation(self):
        schema = database_schema(P=["U", "U"])
        inst = instance(schema, P=[("a", "b"), ("b", "c")])
        parsed = parse_query("{[x:U, y:U] | exists z:U (P(x,z) and P(z,y))}")
        x, y, z = V("x", "U"), V("y", "U"), V("z", "U")
        built = query([x, y], exists(z, rel("P")(x, z) & rel("P")(z, y)))
        assert evaluate(parsed, inst) == evaluate(built, inst)

    def test_nest_query_text(self):
        schema = database_schema(P=["U", "U"])
        inst = instance(schema, P=[("a", "b"), ("a", "c")])
        q = parse_query(
            "{[x:U, s:{U}] | exists z:U (P(x,z)) "
            "and forall y:U (y in s <-> P(x, y))}"
        )
        answers = {str(t) for t in evaluate(q, inst)}
        assert answers == {"[a, {b, c}]"}

    def test_example_31_text(self):
        schema = database_schema(G=["{U}", "{U}"])
        a, b = cset(atom("a")), cset(atom("b"))
        inst = instance(schema, G=[(a, b)])
        q = parse_query(
            "{[x:{U}, y:{U}] | ifp[S(x:{U}, y:{U})]"
            "(G(x,y) or exists z:{U} (S(x,z) and G(z,y)))(x, y)}"
        )
        assert len(evaluate(q, inst)) == 1


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "",
        "P(",
        "exists x (P(x))",          # missing type
        "{[x:U] | }",
        "P(x:U) and",
        "x:U @ y:U",
        "{[x:U] | P(x)} trailing",
        "ifp[S(x:U)](S(x)",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_query(bad) if bad.startswith("{[") else parse_formula(bad)


class TestErrorsTheAstFinds:
    """Text that tokenises and parses but that an AST constructor
    rejects is a :class:`ParseError` located at the node's start."""

    @pytest.mark.parametrize("text,message", [
        ("{[x:{U}, y:{U}] | G(xo, y)}",
         "head variables ['x'] do not occur free in the body at position 0"),
        ("{[x:[U,{U}]] | G(x.3, x.1)}",
         "projection index 3 exceeds arity 2 at position 17"),
        ("{[x:U] | ifp[S(y:U)](P(y))(x, x)}",
         "fixpoint 'S' has arity 1, applied to 2 arguments at position 9"),
        ("{[x:U] | x in {'a', ['b']}}",
         "heterogeneous set: element types ['U', '[U]'] at position 14"),
    ])
    def test_located_parse_error(self, text, message):
        with pytest.raises(ParseError) as error:
            parse_query(text)
        assert str(error.value) == message


#: The seeds the never-crash test mutates: the example query files and
#: the module docstring's query and formula, with their bodies.
_EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "queries"
_QUERY_SEEDS = sorted(
    line.strip() for path in _EXAMPLES.glob("*.repro")
    for line in path.read_text().splitlines() if line.strip()) + [
    "{[x:[U,{U}], s:{U}] | G(x.2, s) and s = ifp[Q(y:U)](P(y) or Q(y))}",
]
_SEEDS = _QUERY_SEEDS + [text[text.index("|") + 1:-1] for text in _QUERY_SEEDS]
_PIECES = ["(", ")", "{", "}", "[", "]", ",", ".", ":", "=", "|", "0", "3",
           "x", "xo", "y", "s", "U", "{U}", "[U,U]", "'a'", "and", "or",
           "not", "in", "sub", "exists", "forall", "ifp", "pfp", "<->", "->",
           " ", "G", "P", "S"]


@st.composite
def _mutated(draw):
    """A seed with up to four pieces inserted, deleted or replaced."""
    text = draw(st.sampled_from(_SEEDS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        piece = draw(st.sampled_from(_PIECES + [""]))
        text = text[:at] + piece + text[at + cut:]
    return text


class TestNeverCrashes:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=_mutated())
    def test_only_parse_errors(self, text):
        for parse in (parse_query, parse_formula):
            try:
                parse(text)
            except ParseError:
                pass
