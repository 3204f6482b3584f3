"""The suite registry: declared sweeps (workload × size-series × strategy).

This replaces the loose one-off benchmark scripts with declarations: a
:class:`Suite` names a workload, a size series, the strategies to race,
and — the part the scripts never had — the *predicted* resource shapes:

* :class:`Expectation` — the fitted curve of a metric must be
  polynomial of bounded degree (``kind="poly"``), superpolynomial
  (``kind="superpoly"``), or within an explicit per-point bound
  ``coefficient * n**degree`` (``kind="bound"``, Theorem 5.1 style);
* :class:`SpeedupGate` — one strategy must beat another by a factor at
  the largest size (the PR 3 ``>=2x`` semi-naive gate lives on as a
  declaration);
* :class:`Tolerance` — a deterministic counter that must equal its value
  in a committed baseline.

Suites keep their ``run(n, strategy)`` callables tiny: build the
workload, evaluate, return a checksum.  All measurement (timing, space
counters, histograms) happens in :mod:`repro.bench.runner` around the
call, through the installed tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..obs import rows_checksum

__all__ = [
    "Expectation",
    "SpeedupGate",
    "Tolerance",
    "Suite",
    "SUITES",
    "GROUPS",
    "resolve_suites",
]


@dataclass(frozen=True)
class Expectation:
    """A predicted curve shape for one metric of one strategy's series.

    ``kind="bound"`` checks every point against
    ``coefficient * bound_base**n * n**degree``; with ``bound_base``
    unset the bound is purely polynomial (Theorem 5.1 style), with
    ``bound_base=2.0`` it is the paper's one-exponential ``P(hyper(1,k))``
    envelope (Theorem 6.1 style).
    """

    metric: str  # "seconds" or a tracer counter name
    kind: str  # "poly" | "superpoly" | "bound"
    strategy: str = "seminaive"
    max_degree: float | None = None  # poly: fitted slope must stay <=
    bound_degree: int | None = None  # bound: polynomial part's degree
    bound_coefficient: float = 1.0
    bound_base: float | None = None  # bound: exponential part's base
    note: str = ""


@dataclass(frozen=True)
class SpeedupGate:
    """The ``slow`` strategy's value over the ``fast`` strategy's value
    at the largest common size must be at least ``min_ratio``.

    ``metric`` defaults to wall ``"seconds"`` (a within-run ratio, so it
    is machine-independent enough to gate); a counter name instead makes
    the gate fully deterministic (e.g. the IFP-vs-PFP working-set ratio
    of Theorem 4.1(3))."""

    slow: str = "naive"
    fast: str = "seminaive"
    min_ratio: float = 2.0
    metric: str = "seconds"


@dataclass(frozen=True)
class Tolerance:
    """A deterministic counter gated against a committed baseline.

    Per size/strategy point, the new value must equal the baseline's: a
    rise and a fall both breach, and integers compare exactly.  Wall
    times are never diffed across runs (the speedup gates cover time,
    as within-run ratios).
    """

    metric: str


@dataclass(frozen=True)
class Suite:
    """One declared sweep."""

    name: str
    title: str
    sizes: tuple[int, ...]
    strategies: tuple[str, ...]
    run: Callable[[int, str], Mapping[str, Any]]
    expectations: tuple[Expectation, ...] = ()
    gates: tuple[SpeedupGate, ...] = ()
    tolerances: tuple[Tolerance, ...] = ()
    agree: bool = True  # checksums must match across strategies per size


# ---------------------------------------------------------------------------
# Workload runners (n, strategy) -> {"checksum": int, ...}
# ---------------------------------------------------------------------------

def _tc_program():
    """Datalog transitive closure over a flat (atom-node) graph."""
    from ..datalog import Literal, Program, Rule

    return Program(
        rules=[
            Rule(Literal("T", ["x", "y"]), [Literal("G", ["x", "y"])]),
            Rule(Literal("T", ["x", "y"]),
                 [Literal("T", ["x", "z"]), Literal("G", ["z", "y"])]),
        ],
        idb_types={"T": ["U", "U"]},
    )


def _chain_closure_rows(n: int) -> int:
    """|TC(chain_graph(n))| — all ordered pairs along the path."""
    return n * (n - 1) // 2


def _run_datalog_tc(n: int, strategy: str) -> dict[str, Any]:
    from ..datalog import evaluate_inflationary
    from ..workloads import chain_graph

    result = evaluate_inflationary(_tc_program(), chain_graph(n),
                                   strategy=strategy)
    rows = len(result["T"])
    expected = _chain_closure_rows(n)
    if rows != expected:
        raise AssertionError(
            f"datalog TC on chain({n}) produced {rows} rows, "
            f"expected {expected}"
        )
    return {"checksum": rows}


def _run_calc_ifp_tc(n: int, strategy: str) -> dict[str, Any]:
    from ..core.evaluation import evaluate
    from ..workloads import chain_graph, transitive_closure_query

    answer = evaluate(transitive_closure_query("U"), chain_graph(n),
                      strategy=strategy)
    return {"checksum": len(answer)}


def _run_loop_tc(n: int, strategy: str) -> dict[str, Any]:
    from ..algebra import tc_via_loop
    from ..workloads import chain_graph

    pairs = tc_via_loop(chain_graph(n), strategy=strategy)
    return {"checksum": len(pairs)}


def _run_rr_tc(n: int, strategy: str) -> dict[str, Any]:
    from ..core.safety import evaluate_range_restricted
    from ..workloads import chain_graph, transitive_closure_query

    report = evaluate_range_restricted(
        transitive_closure_query("U"), chain_graph(n), strategy=strategy)
    return {"checksum": len(report.answer)}


def _run_hyper_domain(n: int, strategy: str) -> dict[str, Any]:
    from ..workloads import full_domain_instance

    inst = full_domain_instance("{U}", n)
    return {"checksum": len(inst.relation("R").tuples)}


# -- absorbed from the legacy benchmarks/bench_*.py scripts -----------------

def _run_quantifier_tower(n: int, strategy: str) -> dict[str, Any]:
    """Theorem 4.2 (ex ``bench_hyper_scaling.py``): a universal
    quantifier one set level above the density boundary of a flat
    instance sweeps the full ``2**n`` subset domain — a tautological
    body prevents short-circuiting, so ``eval.quantifier_iterations``
    tracks ``|dom({U}, D)|`` exactly."""
    from ..core.builder import V, forall, member, query, rel
    from ..core.evaluation import evaluate
    from ..objects import database_schema, instance
    from ..workloads import atoms_universe

    atoms = atoms_universe(n)
    inst = instance(database_schema(P=["U"]), P=[(a,) for a in atoms])
    x = V("x", "U")
    s = V("s", "{U}")
    tautology = member(x, s).implies(member(x, s))
    answer = evaluate(query([x], rel("P")(x) & forall(s, tautology)), inst)
    if len(answer) != n:
        raise AssertionError(
            f"tower query on {n} atoms returned {len(answer)} rows")
    return {"checksum": len(answer)}


def _run_sparse_collapse(n: int, strategy: str) -> dict[str, Any]:
    """Proposition 5.2 (ex ``bench_sparse_collapse.py``): TC over a
    sparse chain of set-typed nodes, either directly over the nested
    objects (``direct``) or through the Q_T tuple-encoding
    (``encoded``).  Checksums are computed over the *decoded* answers,
    so the cross-strategy agreement check is exactly the proposition's
    RR ≡ RR+encoding claim; ``collapse.domain_values`` records each
    route's quantification space (``2**n`` sets vs ``n**m`` tuples)."""
    from ..analysis import SparseEncoding
    from ..core.safety import evaluate_range_restricted
    from ..obs import get_tracer
    from ..objects import domain_cardinality, parse_type
    from ..workloads import sparse_chain_family, transitive_closure_query

    inst = sparse_chain_family(n)
    if strategy == "direct":
        answer = evaluate_range_restricted(
            transitive_closure_query("{U}"), inst).answer
        space = domain_cardinality(parse_type("{U}"), n)
    elif strategy == "encoded":
        encoding = SparseEncoding(inst)
        flat = encoding.encode_instance()
        node_type = flat.schema["G"].column_types[0]
        encoded = evaluate_range_restricted(
            transitive_closure_query(node_type), flat).answer
        answer = encoding.decode_rows(encoded)
        space = domain_cardinality(node_type, n)
    else:
        raise AssertionError(f"unknown sparse-collapse route {strategy!r}")
    get_tracer().count("collapse.domain_values", space)
    return {"checksum": rows_checksum(answer)}


def _run_density_measures(n: int, strategy: str) -> dict[str, Any]:
    """Lemma 4.1 (ex ``bench_density_equivalence.py``): the four
    measures |I|, ||I||, |dom|, ||dom|| on a dense family (all subsets)
    and a sparse family (singleton chain) at the same ``n``.  The run
    asserts the lemma's facts (a)-(c) and records the dense family's
    measures so the declared expectations can pin their shapes."""
    import math

    from ..analysis import lemma41_witness
    from ..obs import get_tracer
    from ..workloads import all_subsets_instance, sparse_chain_family

    dense = lemma41_witness(all_subsets_instance(n), 1, 1)
    sparse = lemma41_witness(sparse_chain_family(n), 1, 1)
    for label, witness in (("dense", dense), ("sparse", sparse)):
        bad = [fact for fact, holds in witness.facts.items() if not holds]
        if bad:
            raise AssertionError(f"Lemma 4.1 facts failed ({label}): {bad}")
    if sparse.cardinality > 4 * math.log2(sparse.dom_cardinality):
        raise AssertionError("sparse family is not sparse w.r.t. <1,1>")
    tracer = get_tracer()
    tracer.count("lemma41.dense_dom_values", dense.dom_cardinality)
    tracer.count("lemma41.dense_dom_per_1000_rows",
                 int(1000 * dense.dom_cardinality / dense.cardinality))
    tracer.count("lemma41.sparse_rows", sparse.cardinality)
    return {"checksum": dense.cardinality}


#: Tape alphabet of the copy machine (ex ``bench_pfp_simulation.py``).
_TAPE_ALPHABET = frozenset("01#[]{}G:")


def _run_simulation(n: int, strategy: str) -> dict[str, Any]:
    """Theorem 4.1(3) (ex ``bench_pfp_simulation.py``): the same copy
    machine on an ``n``-edge chain, simulated via the timestamped IFP
    construction (``ifp``) or the current-configuration-only PFP one
    (``pfp``).  Checksum = CRC of the final tape, so the agreement check
    is tape equality; ``space.peak_fixpoint_rows`` feeds the
    deterministic no-timestamps gate."""
    import zlib

    from ..machines import copy_machine, simulate_query, simulate_query_pfp
    from ..objects import database_schema, instance
    from ..workloads import atoms_universe

    atoms = atoms_universe(n + 1)
    inst = instance(database_schema(G=["U", "U"]),
                    G=list(zip(atoms, atoms[1:])))
    machine = copy_machine(_TAPE_ALPHABET)
    simulate = simulate_query if strategy == "ifp" else simulate_query_pfp
    result = simulate(machine, inst, max_steps=500_000)
    if result.final_state != "done":
        raise AssertionError(f"copy machine halted in {result.final_state!r}")
    return {"checksum": zlib.crc32(result.final_tape.encode("utf-8"))}


def _run_flat_kernel(n: int, strategy: str) -> dict[str, Any]:
    """Theorem 6.1 (ex ``bench_flat_restriction.py``): the kernel query
    — flat-to-flat with one height-1 existential set variable — on odd
    cycles, where no kernel exists and the set quantifier cannot
    short-circuit.  Iterations grow superpolynomially but stay inside
    the single-exponential ``P(hyper(1,k))`` envelope."""
    from ..core.builder import V, exists, forall, member, proj, query, rel
    from ..core.evaluation import evaluate
    from ..workloads import cycle_graph

    if n % 2 == 0:
        raise AssertionError("flat-kernel sizes must be odd cycles")
    t = V("t", "[U,U]")
    X = V("X", "{U}")
    u, v = V("u", "U"), V("v", "U")
    w, z = V("w", "U"), V("z", "U")
    G = rel("G")
    independent = forall([u, v],
                         (member(u, X) & member(v, X)).implies(~G(u, v)))
    is_node = (exists(V("n1", "U"), G(w, V("n1", "U")))
               | exists(V("n2", "U"), G(V("n2", "U"), w)))
    dominated = member(w, X) | exists(z, member(z, X) & G(z, w))
    dominating = forall(w, is_node.implies(dominated))
    kernel = query([t], G(proj(t, 1), proj(t, 2))
                   & exists(X, independent & dominating))
    answer = evaluate(kernel, cycle_graph(n))
    if answer:  # odd cycles have no kernel: the full 2**n sweep happened
        raise AssertionError(f"odd cycle C{n} reported a kernel")
    return {"checksum": len(answer)}


def _set_tc_program():
    """Datalog transitive closure over a set-node graph (Example 3.1)."""
    from ..datalog import Literal, Program, Rule

    return Program(
        rules=[
            Rule(Literal("T", ["x", "y"]), [Literal("G", ["x", "y"])]),
            Rule(Literal("T", ["x", "y"]),
                 [Literal("T", ["x", "z"]), Literal("G", ["z", "y"])]),
        ],
        idb_types={"T": ["{U}", "{U}"]},
    )


def _run_tc_engines(n: int, strategy: str) -> dict[str, Any]:
    """E06 (ex ``bench_transitive_closure.py``): Example 3.1's one query,
    four evaluation routes — naive active-domain CALC+IFP (``calc``),
    range-restricted CALC+IFP (``rr``), inflationary Datalog
    (``datalog``), and the hand-rolled semi-naive loop (``loop``) — on
    the same seeded set-node random graph.  Checksums are taken over the
    canonical (source, target) pair sets, so the cross-strategy
    agreement check is the scripts' all-engines-agree assertion."""
    from ..workloads import set_random_graph, transitive_closure_query

    graph = set_random_graph(3, n, p=0.35, seed=41)
    if strategy == "calc":
        from ..core.evaluation import evaluate

        answer = evaluate(transitive_closure_query(), graph)
        pairs = frozenset((row.component(1), row.component(2))
                          for row in answer)
    elif strategy == "rr":
        from ..core.safety import evaluate_range_restricted

        report = evaluate_range_restricted(transitive_closure_query(), graph)
        pairs = frozenset((row.component(1), row.component(2))
                          for row in report.answer)
    elif strategy == "datalog":
        from ..datalog import evaluate_inflationary

        result = evaluate_inflationary(_set_tc_program(), graph)
        pairs = frozenset(tuple(pair) for pair in result["T"])
    elif strategy == "loop":
        from ..algebra import tc_via_loop

        pairs = frozenset(tuple(pair) for pair in tc_via_loop(graph))
    else:
        raise AssertionError(f"unknown tc-engines route {strategy!r}")
    return {"checksum": rows_checksum(pairs)}


def _run_datalog_translation(n: int, strategy: str) -> dict[str, Any]:
    """E19 (ex ``bench_datalog.py``): the Section 3 Datalog connection —
    the same TC program evaluated by the Datalog join planner
    (``datalog``) and, translated through ``program_to_query``, by the
    calculus evaluator (``calc``).  Checksums over the canonical row
    sets make the agreement check the scripts' translation-correctness
    assertion; the seconds gate keeps the planner's advantage."""
    from ..workloads import set_random_graph

    graph = set_random_graph(3, n, p=0.3, seed=77)
    program = _set_tc_program()
    if strategy == "datalog":
        from ..datalog import evaluate_inflationary

        rows = evaluate_inflationary(program, graph)["T"]
        canonical = frozenset(tuple(row) for row in rows)
    elif strategy == "calc":
        from ..core.evaluation import evaluate
        from ..datalog import program_to_query

        query = program_to_query(program, graph.schema)
        answer = evaluate(query, graph)
        canonical = frozenset(tuple(row.items) for row in answer)
    else:
        raise AssertionError(
            f"unknown datalog-translation route {strategy!r}")
    return {"checksum": rows_checksum(canonical)}


def _run_dense_fixpoint(n: int, strategy: str) -> dict[str, Any]:
    """Theorem 4.1(2) (ex ``bench_dense_fixpoint.py``): TC over the
    dense all-subsets graph, where the instance fills its node domain.
    The closure cardinality is exactly ``3**n - 2**n`` (strict-superset
    pairs) — asserted, and used as the checksum.  The run records
    ``dense.instance_size`` and the normalised
    ``dense.checks_per_sq_size_x1000`` = ``1000 * eval.formula_checks /
    ||I||**2``, whose declared degree-0 bound *is* the theorem's claim:
    evaluation cost polynomial in the instance, not the (here equal)
    domain."""
    from ..core.evaluation import evaluate
    from ..obs import get_tracer
    from ..objects import instance_size
    from ..workloads import dense_subset_graph, transitive_closure_query

    inst = dense_subset_graph(n)
    answer = evaluate(transitive_closure_query(), inst, strategy=strategy)
    expected = 3 ** n - 2 ** n
    if len(answer) != expected:
        raise AssertionError(
            f"dense subset graph n={n}: closure has {len(answer)} rows, "
            f"expected {expected}")
    size = instance_size(inst)
    tracer = get_tracer()
    tracer.count("dense.instance_size", size)
    if tracer.enabled:
        checks = tracer.counters.get("eval.formula_checks", 0)
        tracer.count("dense.checks_per_sq_size_x1000",
                     1000 * checks // (size * size))
    return {"checksum": expected}


def _run_nest_routes(n: int, strategy: str) -> dict[str, Any]:
    """Examples 5.1/5.3 (ex ``bench_nest.py``): three routes to the nest
    operation on the key × value grid — the rule-9 calculus form
    (``rule9``), the IFP-term form (``ifp-term``), both RR-evaluated,
    and the algebra's Nest operator (``algebra``, the [AB86] baseline).
    Every route must produce one row per key; checksums over the
    canonical rows make the agreement check the scripts' all-three-agree
    assertion."""
    from ..obs import get_tracer
    from ..workloads import keyed_pairs_instance, nest_query, nest_query_ifp

    inst = keyed_pairs_instance(n, values_per_key=4)
    if strategy == "rule9":
        from ..core.safety import evaluate_range_restricted

        answer = evaluate_range_restricted(nest_query(), inst).answer
        canonical = frozenset(tuple(row.items) for row in answer)
    elif strategy == "ifp-term":
        from ..core.safety import evaluate_range_restricted

        answer = evaluate_range_restricted(nest_query_ifp(), inst).answer
        canonical = frozenset(tuple(row.items) for row in answer)
    elif strategy == "algebra":
        from ..algebra import BaseRel, Nest

        rows = Nest(BaseRel("P"), [1], [2]).evaluate(inst)
        canonical = frozenset(tuple(row) for row in rows)
    else:
        raise AssertionError(f"unknown nest route {strategy!r}")
    if len(canonical) != n:
        raise AssertionError(
            f"nest over {n} keys produced {len(canonical)} rows")
    get_tracer().count("nest.answer_rows", len(canonical))
    return {"checksum": rows_checksum(canonical)}


def _run_algebra_fixpoint(n: int, strategy: str) -> dict[str, Any]:
    """E20 (ex ``bench_algebra_vs_fixpoint.py``): the conclusion's first
    bullet — fixpoints are tractable recursion, the powerset operator is
    not.  TC on a chain via powerset enumeration (``powerset``),
    range-restricted CALC+IFP (``rr``), and the native loop (``loop``).
    ``algebra.powerset_subsets`` counts the subsets the powerset route
    examines (superpolynomial in the non-edge count); at the smallest
    size the run also asserts the script's wall: chain(6) under a
    ``10**6``-subset cap must raise ``AlgebraError`` while the fixpoint
    route sails through."""
    from ..algebra import AlgebraError, tc_via_loop, tc_via_powerset
    from ..workloads import chain_graph, transitive_closure_query

    inst = chain_graph(n)
    if strategy == "powerset":
        pairs = tc_via_powerset(inst)
        if n == 3:  # the powerset wall, once per sweep
            try:
                tc_via_powerset(chain_graph(6), max_subsets=10 ** 6)
            except AlgebraError:
                pass
            else:
                raise AssertionError(
                    "powerset TC on chain(6) should exceed a 10**6 cap")
    elif strategy == "rr":
        from ..core.safety import evaluate_range_restricted

        report = evaluate_range_restricted(
            transitive_closure_query("U"), inst)
        pairs = frozenset((row.component(1), row.component(2))
                          for row in report.answer)
    elif strategy == "loop":
        pairs = tc_via_loop(inst)
    else:
        raise AssertionError(f"unknown algebra-fixpoint route {strategy!r}")
    if len(pairs) != _chain_closure_rows(n):
        raise AssertionError(
            f"{strategy} TC on chain({n}) produced {len(pairs)} pairs")
    return {"checksum": rows_checksum(pairs)}


def _run_code_relations(n: int, strategy: str) -> dict[str, Any]:
    """Lemma 4.4 (ex ``bench_code_relations.py``): CODE_T dictionary
    construction over ``n`` atoms — the successor-rule CODE_U table
    (``u-table``) and the CODE_{U} set-type relation (``set-type``).
    Every word the dictionary spells must equal the standard encoding,
    and ``code.rows`` must equal the total encoded symbol count
    (``domain_encoding_size``): polynomial for U, superpolynomial for
    the set type.  The smallest size also spot-checks a nested
    ``{[U,{U}]}`` dictionary."""
    from ..machines.code_relations import code_relation, code_u_table
    from ..objects import (
        AtomOrder,
        encode_value,
        materialize_domain,
        parse_type,
    )
    from ..objects.encoding import domain_encoding_size
    from ..obs import get_tracer

    order = AtomOrder.from_labels("abcdefghijklmnop"[:n])
    if strategy == "u-table":
        rows = code_u_table(order)
        expected = sum(len(format(i, "b")) for i in range(n))
        if len(rows) != expected:
            raise AssertionError(
                f"CODE_U over {n} atoms has {len(rows)} rows, "
                f"expected {expected}")
        count = len(rows)
    elif strategy == "set-type":
        typ = parse_type("{U}")
        relation = code_relation(typ, order)
        for value in materialize_domain(typ, order.atoms):
            if relation.word_of(value) != encode_value(value, order):
                raise AssertionError(
                    f"CODE_{{U}} misspells {value!r} over {n} atoms")
        if len(relation.rows) != domain_encoding_size(typ, n):
            raise AssertionError(
                f"CODE_{{U}} row count {len(relation.rows)} != total "
                f"encoded symbols {domain_encoding_size(typ, n)}")
        if n == 2:  # nested dictionary spot-check, once per sweep
            nested_type = parse_type("{[U,{U}]}")
            nested = code_relation(nested_type, order)
            domain = materialize_domain(nested_type, order.atoms)
            if nested.word_of(domain[-1]) != encode_value(domain[-1], order):
                raise AssertionError("CODE_{[U,{U}]} misspells a word")
        count = len(relation.rows)
    else:
        raise AssertionError(f"unknown code-relations route {strategy!r}")
    get_tracer().count("code.rows", count)
    return {"checksum": count}


#: Types of the Proposition 2.1 ladder (ex ``bench_domain_encoding.py``).
_ENCODING_TYPES = ("{U}", "[U,{U}]", "{[U,U]}", "{{U}}")


def _run_domain_encoding(n: int, strategy: str) -> dict[str, Any]:
    """Proposition 2.1 (ex ``bench_domain_encoding.py``): the encoded
    domain size ``||dom(T,D)||`` stays within ``|dom| * P(log|dom|)``
    with ``P(x) = 8x^3 + 8`` — asserted per type — computed either by
    the analytic recurrence (``analytic``) or by materialising every
    value and summing its encoding length (``bruteforce``).  Both
    strategies apply the same cardinality cap, so their per-point totals
    (the checksum) must agree exactly; the gate pins the recurrence's
    advantage over enumeration."""
    import math

    from ..objects.domains import domain_cardinality, materialize_domain
    from ..objects.encoding import domain_encoding_size, value_size
    from ..objects.types import parse_type
    from ..objects.values import Atom
    from ..obs import get_tracer

    domain_encoding_size.cache_clear()  # the timing race must be honest
    atoms = [Atom(f"x{index}") for index in range(n)]
    total = 0
    included = 0
    for text in _ENCODING_TYPES:
        typ = parse_type(text)
        cardinality = domain_cardinality(typ, n)
        if cardinality > 2 ** 16:  # same cap both strategies: agreement
            continue
        included += 1
        if strategy == "analytic":
            size = domain_encoding_size(typ, n)
        elif strategy == "bruteforce":
            size = sum(value_size(value, n)
                       for value in materialize_domain(typ, atoms))
        else:
            raise AssertionError(f"unknown encoding route {strategy!r}")
        log = max(1.0, math.log2(cardinality))
        if size > cardinality * (8 * log ** 3 + 8):
            raise AssertionError(
                f"||dom({text}, {n})|| = {size} exceeds the "
                f"Proposition 2.1 bound")
        total += size
    tracer = get_tracer()
    tracer.count("encoding.types_included", included)
    tracer.gauge("encoding.total_symbols", total)
    return {"checksum": total}


def _rr_pairs_instance(n: int):
    """The double-ring P relation of ex ``bench_range_restricted_eval``:
    each atom points one and two steps ahead (mod n)."""
    from ..objects import database_schema, instance
    from ..workloads import atoms_universe

    atoms = atoms_universe(n)
    rows = [(atoms[index], atoms[(index + 1) % n]) for index in range(n)]
    rows += [(atoms[index], atoms[(index + 2) % n]) for index in range(n)]
    return instance(database_schema(P=["U", "U"]), P=rows)


def _run_rr_vs_active(n: int, strategy: str) -> dict[str, Any]:
    """Theorem 5.1's headline race (ex ``bench_range_restricted_eval``):
    Example 5.1's nest query under active-domain semantics (the set
    variable sweeps all ``2**n`` subsets) vs derived-range semantics
    (ranges stay linear in the instance).  Checksums over the answers
    make the agreement check the theorem's RR ≡ active equivalence."""
    if strategy == "active":
        from ..core.evaluation import evaluate
        from ..workloads import nest_query

        answer = evaluate(nest_query(), _rr_pairs_instance(n))
    elif strategy == "rr":
        from ..core.safety import evaluate_range_restricted
        from ..workloads import nest_query

        answer = evaluate_range_restricted(
            nest_query(), _rr_pairs_instance(n)).answer
    else:
        raise AssertionError(f"unknown rr-vs-active route {strategy!r}")
    if len(answer) != n:
        raise AssertionError(
            f"nest over {n} atoms produced {len(answer)} rows")
    return {"checksum": rows_checksum(answer)}


def _run_sorted_density(n: int, strategy: str) -> dict[str, Any]:
    """Remark 4.1 (ex ``bench_sorted_density.py``): the schedule
    database is dense w.r.t. day-sets (at most ``2**7`` exist) and
    sparse w.r.t. employee-sets (``2**n`` possible) — the ``analysis``
    strategy asserts both verdicts; ``day-quantifier`` actually sweeps a
    universal day-set quantifier over the whole sorted domain, whose
    iteration count stays linear in the employees — the 'no prohibitive
    cost' claim, measured."""
    from ..analysis import (
        SortAssignment,
        is_dense_for_sorted_type,
        is_sparse_for_sorted_type,
        log2_sorted_domain_cardinality,
        parse_sorted_type,
        sorted_subobjects,
    )
    from ..obs import get_tracer
    from ..workloads import schedule_instance

    inst = schedule_instance(n, n_days=7, n_teams=3)
    sorts = SortAssignment.by_prefix({"e": "emp", "d": "day"}, inst.atoms())
    day_sets = parse_sorted_type("{U@day}")
    emp_sets = parse_sorted_type("{U@emp}")
    tracer = get_tracer()
    if strategy == "analysis":
        if not is_dense_for_sorted_type(inst, day_sets, sorts,
                                        degree=1, coefficient=2):
            raise AssertionError(f"day-sets not dense at {n} employees")
        if not is_sparse_for_sorted_type(inst, emp_sets, sorts,
                                         degree=1, coefficient=2):
            raise AssertionError(f"emp-sets not sparse at {n} employees")
        used = len(sorted_subobjects(inst, day_sets, sorts))
        tracer.gauge("density.day_used", used)
        tracer.gauge("density.emp_log_dom", int(
            log2_sorted_domain_cardinality(emp_sets, sorts.counts())))
        return {"checksum": used}
    if strategy != "day-quantifier":
        raise AssertionError(f"unknown sorted-density route {strategy!r}")
    from ..core.builder import V, exists, forall, query, rel, subset
    from ..core.evaluation import Evaluator
    from ..objects import materialize_domain, parse_type

    s = V("s", "{U}")
    e = V("e", "U")
    # Tautological universal day-set quantifier: cannot short-circuit,
    # sweeps the whole sorted domain per head candidate.
    sweep = query(
        [("e", "U")],
        exists(s, rel("Schedule")(e, s))
        & forall(V("s2", "{U}"), subset(V("s2", "{U}"), V("s2", "{U}"))),
    )
    day_atoms = sorted(sorts.atoms_of("day"), key=lambda a: str(a.label))
    evaluator = Evaluator(
        inst.schema,
        variable_ranges={
            "s2": materialize_domain(parse_type("{U}"), day_atoms),
            "s": [row.component(2) for row in inst.relation("Schedule")],
            "e": sorted(sorts.atoms_of("emp"), key=lambda a: str(a.label)),
        },
        max_product=10 ** 8,
    )
    answer = evaluator.evaluate(sweep, inst)
    if len(answer) != n:
        raise AssertionError(
            f"day-set sweep over {n} employees returned {len(answer)} rows")
    return {"checksum": len(answer)}


def _run_tm_simulation(n: int, strategy: str) -> dict[str, Any]:
    """Theorem 4.1's constructive proof (ex ``bench_tm_simulation.py``):
    the copy machine on an ``n``-edge chain run natively (``native``) or
    through the inflationary ``R_M`` construction (``relational``).
    Checksum = CRC of the final tape, so agreement is simulation
    correctness; ``sim.rows_per_step`` pins the timestamping price —
    ``R_M`` accumulates one configuration per step, ~tape-length rows
    each."""
    import zlib

    from ..machines import copy_machine, simulate_query
    from ..objects import database_schema, encode_instance, instance
    from ..obs import get_tracer
    from ..workloads import atoms_universe

    atoms = atoms_universe(n + 1)
    inst = instance(database_schema(G=["U", "U"]),
                    G=list(zip(atoms, atoms[1:])))
    machine = copy_machine(_TAPE_ALPHABET)
    tracer = get_tracer()
    if strategy == "native":
        native = machine.run(encode_instance(inst), 500_000)
        tracer.gauge("sim.steps", native.steps)
        tape = native.output
    elif strategy == "relational":
        result = simulate_query(machine, inst, max_steps=500_000)
        native = machine.run(encode_instance(inst), 500_000)
        if result.rm_cardinality < native.steps:
            raise AssertionError(
                f"R_M has {result.rm_cardinality} rows for a "
                f"{native.steps}-step run: missing timestamps")
        tracer.gauge("sim.steps", native.steps)
        tracer.gauge("sim.rm_rows", result.rm_cardinality)
        tracer.gauge("sim.rows_per_step",
                     result.rm_cardinality // native.steps)
        tape = result.final_tape
    else:
        raise AssertionError(f"unknown tm-simulation route {strategy!r}")
    return {"checksum": zlib.crc32(tape.encode("utf-8"))}


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

def _wide_analysis_program(n: int):
    """n independent nonrecursive predicates feeding one collector Q."""
    from ..datalog import Literal, Program, Rule

    rules = []
    idb_types: dict[str, list[str]] = {"Q": ["U", "U"]}
    for i in range(1, n + 1):
        name = f"P{i}"
        idb_types[name] = ["U", "U"]
        rules.append(Rule(Literal(name, ["x", "y"]),
                          [Literal("G", ["x", "y"])]))
        rules.append(Rule(Literal("Q", ["x", "y"]),
                          [Literal(name, ["x", "y"])]))
    return Program(rules, idb_types)


def _deep_analysis_program(n: int):
    """One n-predicate linearly recursive SCC (a dependency cycle
    P1 <- P2 <- ... <- Pn <- P1)."""
    from ..datalog import Literal, Program, Rule

    idb_types = {f"P{i}": ["U", "U"] for i in range(1, n + 1)}
    rules = [
        Rule(Literal("P1", ["x", "y"]), [Literal("G", ["x", "y"])]),
        Rule(Literal("P1", ["x", "y"]), [Literal(f"P{n}", ["x", "y"])]),
    ]
    for i in range(2, n + 1):
        rules.append(Rule(
            Literal(f"P{i}", ["x", "y"]),
            [Literal(f"P{i - 1}", ["x", "z"]), Literal("G", ["z", "y"])],
        ))
    return Program(rules, idb_types)


def _run_lint_program(n: int, strategy: str) -> dict[str, Any]:
    """Program-analysis cost on generated programs: ``wide`` fans n
    nonrecursive predicates into a collector, ``deep`` closes one
    n-predicate linearly recursive SCC.  Both have Theta(n) edges, so
    ``lint.program.edges`` is the linearity pin; the in-run asserts are
    the routing pass's theorem-shaped claims."""
    from ..lint import analyze_program
    from ..objects import database_schema

    schema = database_schema(G=["U", "U"])
    if strategy == "wide":
        program = _wide_analysis_program(n)
        analysis = analyze_program(program, schema, query="Q")
        if any(v.recursion != "none" for v in analysis.routing):
            raise AssertionError("wide program misclassified as recursive")
    else:
        program = _deep_analysis_program(n)
        analysis = analyze_program(program, schema, query=f"P{n}")
        big = [v for v in analysis.routing if len(v.scc) == n]
        if len(big) != 1 or big[0].recursion != "linear":
            raise AssertionError(
                f"deep program should form one linear {n}-SCC: "
                f"{analysis.routing}")
    if not analysis.stratified or analysis.dead_rules:
        raise AssertionError("generated programs are stratified and live")
    return {"checksum": len(analysis.edges) * 1000 + len(analysis.sccs)}


def _run_domain_cardinality(n: int, strategy: str) -> dict[str, Any]:
    """Section 2's hyper(i,k) table (ex ``bench_domain_cardinality.py``):
    exact big-int domain cardinalities, checked against the
    ``|dom(T, D)| <= hyper(i, k)(n)`` bound over every normalised
    <i,k>-type, with the definition's spot values pinned."""
    from ..objects.domains import (
        all_ik_types,
        dom_ik_cardinality,
        domain_cardinality,
        hyper,
    )
    from ..obs import get_tracer

    if hyper(0, 2, 3) != 9 or hyper(1, 2, 3) != 2 ** 18 \
            or hyper(2, 1, 2) != 2 ** 4:
        raise AssertionError("hyper(i,k) spot values moved")
    for i, k in ((0, 2), (1, 1), (1, 2)):
        bound = hyper(i, k, n)
        for typ in all_ik_types(i, k):
            cardinality = domain_cardinality(typ, n)
            if cardinality > bound:
                raise AssertionError(
                    f"|dom({typ!r}, {n})| = {cardinality} exceeds "
                    f"hyper({i},{k})({n}) = {bound}")
    value = dom_ik_cardinality(1, 2, n)
    tracer = get_tracer()
    tracer.count("domain.dom12_cardinality", value)
    tracer.count("domain.dom12_bits", value.bit_length())
    return {"checksum": value.bit_length()}


def _run_induced_order(n: int, strategy: str) -> dict[str, Any]:
    """Lemma 4.3 (ex ``bench_induced_order.py``): the induced order on
    ``dom({U}, n atoms)`` via four routes — native comparator, sort
    keys, arithmetic ranks, and the formula-defined ``<`` of the lemma.
    Every route must count the same ``C(|D|, 2)`` less-than pairs; the
    formula route exists to witness definability and pays for it
    (pinned by the speedup gate)."""
    import itertools

    from ..objects import (
        AtomOrder,
        Instance,
        compare,
        database_schema,
        materialize_domain,
        parse_type,
        rank,
        sorted_values,
        unrank,
    )
    from ..obs import get_tracer

    typ = parse_type("{U}")
    labels = "abcdefghijklmnop"[:n]
    order = AtomOrder.from_labels(labels)
    domain = materialize_domain(typ, order.atoms)
    expected = len(domain) * (len(domain) - 1) // 2

    if strategy == "comparator":
        count = sum(
            1 for left, right in itertools.product(domain, repeat=2)
            if compare(left, right, order) < 0)
    elif strategy == "sortkeys":
        ordered = sorted_values(domain, order)
        for left, right in zip(ordered, ordered[1:]):
            if compare(left, right, order) >= 0:
                raise AssertionError("sort keys disagree with comparator")
        count = len(ordered) * (len(ordered) - 1) // 2
    elif strategy == "ranks":
        ranks = {value: rank(value, typ, order) for value in domain}
        for value, r in ranks.items():
            if unrank(r, typ, order) != value:
                raise AssertionError("rank/unrank roundtrip broken")
        count = sum(
            1 for left, right in itertools.product(domain, repeat=2)
            if ranks[left] < ranks[right])
    else:  # formula
        from ..core.evaluation import Evaluator
        from ..core.order_formulas import (
            less_than_formula,
            with_order_relation,
        )
        from ..core.syntax import Var

        base = database_schema(Seed=["U"])
        inst = with_order_relation(
            Instance(base, {"Seed": [(a,) for a in order.atoms]}), order)
        phi = less_than_formula(typ)(Var("x", typ), Var("y", typ))
        evaluator = Evaluator(inst.schema, max_domain_size=10 ** 6)
        count = sum(
            1 for left, right in itertools.product(domain, repeat=2)
            if evaluator.evaluate_formula(
                phi, inst, {"x": left, "y": right},
                free_variable_types={"x": typ, "y": typ}))
    if count != expected:
        raise AssertionError(
            f"{strategy} counted {count} less-than pairs on "
            f"|dom| = {len(domain)}, expected {expected}")
    get_tracer().count("order.lt_pairs", count)
    return {"checksum": count}


def _run_supply_chain_build(n: int, strategy: str) -> dict[str, Any]:
    """Generate the supply-chain instance at scale ``n`` and hold it to
    the documented row formulas (ISSUE 10 / ROADMAP item 4).  The
    checksum is the ledger's order-independent instance checksum, so a
    generator drift breaks the baseline loudly."""
    from ..obs import get_tracer, instance_checksum
    from ..workloads import supply_chain_instance, supply_chain_rows

    inst = supply_chain_instance(n)
    formulas = supply_chain_rows(n)
    total = 0
    for name in inst.schema.relation_names:
        rows = len(inst.relation(name))
        if rows != formulas[name]:
            raise AssertionError(
                f"supply chain scale {n}: {name} has {rows} rows, "
                f"formula says {formulas[name]}")
        total += rows
    get_tracer().gauge("sc.rows", total)
    return {"checksum": instance_checksum(inst)}


def _run_supply_chain_bom(n: int, strategy: str) -> dict[str, Any]:
    """The headline YELLOW fixpoint — full BOM ancestor closure — raced
    across the two engine lanes.  The ternary-tree blocks make the
    closure exactly ``102 * n`` rows at a pinned stage count, so both
    are asserted per point, not just regress-gated."""
    from ..workloads import (answer_question, bom_closure_rows,
                             question_by_name, supply_chain_instance)

    answer = answer_question(question_by_name("bom-closure"),
                             supply_chain_instance(n), strategy=strategy)
    if len(answer.rows) != bom_closure_rows(n):
        raise AssertionError(
            f"{strategy} BOM closure at scale {n} produced "
            f"{len(answer.rows)} rows, expected {bom_closure_rows(n)}")
    return {"checksum": answer.checksum}


def _run_supply_chain_questions(n: int, strategy: str) -> dict[str, Any]:
    """The whole golden inventory (~30 GREEN/YELLOW/RED questions) under
    one lane; the checksum rolls up every per-question answer checksum,
    so the two lanes agreeing here means they agree on every answer."""
    from ..obs import get_tracer
    from ..workloads import QUESTIONS, answer_question, supply_chain_instance

    inst = supply_chain_instance(n)
    tracer = get_tracer()
    rollup = []
    total_rows = 0
    for question in QUESTIONS:
        answer = answer_question(question, inst, strategy=strategy)
        rollup.append((question.name, answer.checksum))
        total_rows += len(answer.rows)
    tracer.count("sc.questions", len(rollup))
    tracer.count("sc.question_rows", total_rows)
    return {"checksum": rows_checksum(rollup)}


def _run_supply_chain_scale(n: int, strategy: str) -> dict[str, Any]:
    """The acceptance point: 100K+ rows generated and the headline BOM
    fixpoint answered inside the bench timeout (semi-naive lane only —
    the naive oracle is measured at smaller scales by
    ``supply-chain-bom``).  The semi-naive engine interns only ``BOM``,
    the one relation the question reads, so the point costs generation
    plus a closure over ``BOM``'s values, not an interning pass over
    all 10 relations' 106,240 rows."""
    from ..obs import get_tracer

    result = _run_supply_chain_build(n, strategy)
    bom = _run_supply_chain_bom(n, strategy)
    get_tracer().gauge("sc.bom_checksum", bom["checksum"])
    return result


SUITES: dict[str, Suite] = {}


def _register(suite: Suite) -> Suite:
    SUITES[suite.name] = suite
    return suite


_register(Suite(
    name="seminaive-smoke",
    title="Datalog TC on chains: naive oracle vs the semi-naive engine "
          "over interned ids",
    sizes=(8, 16, 32, 64),
    strategies=("naive", "seminaive"),
    run=_run_datalog_tc,
    expectations=(
        Expectation(metric="datalog.rows_derived", kind="poly",
                    strategy="seminaive", max_degree=2.5,
                    note="semi-naive derives each closure row once-ish"),
        Expectation(metric="eval.index_probes", kind="poly",
                    strategy="seminaive", max_degree=2.5,
                    note="one probe per derived closure row: Theta(n^2) "
                         "on a chain, never the n^3-ish scan product"),
        Expectation(metric="space.interned_values", kind="bound",
                    strategy="seminaive", bound_degree=1,
                    bound_coefficient=2.0,
                    note="the store holds the n atoms and nothing else"),
    ),
    gates=(SpeedupGate(slow="naive", fast="seminaive", min_ratio=5.0),),
    tolerances=(
        Tolerance(metric="datalog.rows_derived"),
        Tolerance(metric="ifp.stages"),
    ),
))

_register(Suite(
    name="tc-seminaive-dense",
    title="Dense PTIME curve: semi-naive Datalog TC, larger chains",
    sizes=(16, 32, 64, 128),
    strategies=("seminaive",),
    run=_run_datalog_tc,
    expectations=(
        Expectation(metric="seconds", kind="poly", strategy="seminaive",
                    max_degree=3.2,
                    note="Theorem 4.1 PTIME side: cubic-or-better"),
        Expectation(metric="datalog.rows_derived", kind="poly",
                    strategy="seminaive", max_degree=2.5),
    ),
    agree=False,  # single strategy
))

_register(Suite(
    name="hyper-domain",
    title="hyper(i,k) domain materialisation: the superpolynomial wall",
    sizes=(6, 8, 10, 12, 14),
    strategies=("seminaive",),
    run=_run_hyper_domain,
    expectations=(
        Expectation(metric="space.domain_values", kind="superpoly",
                    strategy="seminaive",
                    note="|dom({U}, D)| = 2**n — Section 2's bound"),
        Expectation(metric="space.domain_nodes", kind="superpoly",
                    strategy="seminaive"),
    ),
    agree=False,
))

_register(Suite(
    name="rr-space-chain",
    title="Range-restricted TC: space within the Theorem 5.1 bound",
    sizes=(8, 12, 16, 24),
    strategies=("seminaive",),
    run=_run_rr_tc,
    expectations=(
        Expectation(metric="space.peak_range", kind="bound",
                    strategy="seminaive", bound_degree=1,
                    bound_coefficient=2.0,
                    note="ranges stay linear in the chain length"),
        Expectation(metric="space.peak_fixpoint_rows", kind="bound",
                    strategy="seminaive", bound_degree=2,
                    bound_coefficient=1.0,
                    note="working set bounded by |TC| <= n^2"),
    ),
    agree=False,
))

_register(Suite(
    name="calc-ifp-dense",
    title="CALC+IFP TC on chains: naive vs semi-naive evaluator",
    sizes=(6, 8, 10, 12),
    strategies=("naive", "seminaive"),
    run=_run_calc_ifp_tc,
    tolerances=(
        Tolerance(metric="ifp.stages"),
        Tolerance(metric="eval.delta_rows"),
    ),
))

_register(Suite(
    name="algebra-loop",
    title="Native TC loop: frontier semi-naive vs full recomposition",
    sizes=(32, 64, 128),
    strategies=("naive", "seminaive"),
    run=_run_loop_tc,
    expectations=(
        Expectation(metric="space.peak_loop_rows", kind="poly",
                    strategy="seminaive", max_degree=2.2,
                    note="closure cardinality is Theta(n^2) on a chain"),
    ),
))


_register(Suite(
    name="quantifier-tower",
    title="Theorem 4.2: one set level above density costs one exponential",
    sizes=(4, 6, 8, 10, 12),
    strategies=("seminaive",),
    run=_run_quantifier_tower,
    expectations=(
        Expectation(metric="eval.quantifier_iterations", kind="superpoly",
                    strategy="seminaive",
                    note="the {U} quantifier sweeps all 2**n subsets"),
        Expectation(metric="eval.quantifier_iterations", kind="bound",
                    strategy="seminaive", bound_degree=1,
                    bound_coefficient=2.0, bound_base=2.0,
                    note="...but only one exponential: <= 2 * n * 2**n"),
    ),
    agree=False,
))

_register(Suite(
    name="sparse-collapse",
    title="Proposition 5.2: tuple-encoding collapses the sparse "
          "quantification space",
    sizes=(5, 6, 7, 8),
    strategies=("direct", "encoded"),
    run=_run_sparse_collapse,
    expectations=(
        Expectation(metric="collapse.domain_values", kind="superpoly",
                    strategy="direct",
                    note="nested route quantifies over 2**n sets"),
        Expectation(metric="collapse.domain_values", kind="bound",
                    strategy="encoded", bound_degree=1,
                    bound_coefficient=1.0,
                    note="encoded route quantifies over n atom tuples"),
    ),
    tolerances=(Tolerance(metric="collapse.domain_values"),),
    agree=True,  # decoded answers must match: RR == RR+encoding
))

_register(Suite(
    name="density-measures",
    title="Lemma 4.1: cardinality- and size-based measures move together",
    sizes=(3, 4, 5, 6, 7),
    strategies=("seminaive",),
    run=_run_density_measures,
    expectations=(
        Expectation(metric="lemma41.dense_dom_values", kind="superpoly",
                    strategy="seminaive",
                    note="|dom(1,1)| of the all-subsets family is ~2**n"),
        Expectation(metric="lemma41.dense_dom_per_1000_rows", kind="bound",
                    strategy="seminaive", bound_degree=0,
                    bound_coefficient=4000.0,
                    note="...yet |dom| <= 4|I|: dense in both measures"),
        Expectation(metric="lemma41.sparse_rows", kind="bound",
                    strategy="seminaive", bound_degree=1,
                    bound_coefficient=1.0,
                    note="sparse family stays |I| = n - 1"),
    ),
    tolerances=(
        Tolerance(metric="lemma41.dense_dom_values"),
        Tolerance(metric="lemma41.sparse_rows"),
    ),
    agree=False,
))

_register(Suite(
    name="pfp-vs-ifp",
    title="Theorem 4.1(3): PFP simulation needs no timestamps",
    sizes=(1, 2),
    strategies=("ifp", "pfp"),
    run=_run_simulation,
    gates=(
        SpeedupGate(slow="ifp", fast="pfp",
                    metric="space.peak_fixpoint_rows", min_ratio=10.0),
    ),
    tolerances=(
        Tolerance(metric="space.peak_fixpoint_rows"),
        Tolerance(metric="ifp.stages"),
    ),
    agree=True,  # both simulations must leave the same final tape
))

_register(Suite(
    name="flat-kernel",
    title="Theorem 6.1: flat-to-flat kernel query, one exponential "
          "and no more",
    sizes=(3, 5, 7, 9),
    strategies=("seminaive",),
    run=_run_flat_kernel,
    expectations=(
        Expectation(metric="eval.quantifier_iterations", kind="superpoly",
                    strategy="seminaive",
                    note="the height-1 set variable doubles cost per node"),
        Expectation(metric="eval.quantifier_iterations", kind="bound",
                    strategy="seminaive", bound_degree=2,
                    bound_coefficient=2.0, bound_base=2.0,
                    note="the P(hyper(1,k)) envelope: <= 2 * n**2 * 2**n"),
    ),
    tolerances=(
        Tolerance(metric="eval.quantifier_iterations"),
    ),
    agree=False,
))


_register(Suite(
    name="tc-engines",
    title="Example 3.1: one TC query, four engines (naive/RR/Datalog/loop)",
    sizes=(4, 5, 6),
    strategies=("calc", "rr", "datalog", "loop"),
    run=_run_tc_engines,
    expectations=(
        Expectation(metric="space.peak_fixpoint_rows", kind="bound",
                    strategy="rr", bound_degree=2, bound_coefficient=1.0,
                    note="working set bounded by |TC| <= n^2 nodes"),
    ),
    gates=(
        SpeedupGate(slow="calc", fast="loop", min_ratio=2.0),
    ),
    tolerances=(Tolerance(metric="ifp.stages"),),
    agree=True,  # all four engines must return the same closure
))

_register(Suite(
    name="datalog-translation",
    title="Section 3: inf-Datalog vs its CALC+IFP translation",
    sizes=(4, 5, 6),
    strategies=("datalog", "calc"),
    run=_run_datalog_translation,
    expectations=(
        Expectation(metric="datalog.rows_derived", kind="bound",
                    strategy="datalog", bound_degree=2,
                    bound_coefficient=3.0,
                    note="derivations stay quadratic in the node count"),
    ),
    gates=(
        SpeedupGate(slow="calc", fast="datalog", min_ratio=2.0),
    ),
    tolerances=(
        Tolerance(metric="datalog.rows_derived"),
        Tolerance(metric="ifp.stages"),
    ),
    agree=True,  # translation correctness: planner == calculus
))

_register(Suite(
    name="dense-fixpoint",
    title="Theorem 4.1(2): naive fixpoint cost is polynomial in a "
          "dense instance",
    sizes=(2, 3, 4),
    strategies=("naive", "seminaive"),
    run=_run_dense_fixpoint,
    expectations=(
        Expectation(metric="dense.checks_per_sq_size_x1000", kind="bound",
                    strategy="naive", bound_degree=0,
                    bound_coefficient=400.0,
                    note="formula checks <= 0.4 * ||I||^2: polynomial "
                         "in the instance even for the naive evaluator"),
    ),
    tolerances=(
        Tolerance(metric="dense.instance_size"),
        Tolerance(metric="eval.formula_checks"),
    ),
    agree=True,  # naive and semi-naive closures coincide
))

_register(Suite(
    name="nest-routes",
    title="Examples 5.1/5.3: three routes to nest (rule 9 / IFP term / "
          "algebra)",
    sizes=(2, 4, 6),
    strategies=("rule9", "ifp-term", "algebra"),
    run=_run_nest_routes,
    expectations=(
        Expectation(metric="nest.answer_rows", kind="bound",
                    strategy="rule9", bound_degree=1,
                    bound_coefficient=1.0,
                    note="nest yields exactly one row per key"),
    ),
    tolerances=(Tolerance(metric="nest.answer_rows"),),
    agree=True,  # all three routes must produce the same nested rows
))


_register(Suite(
    name="lint-program",
    title="Program analysis cost: wide fan-in vs one deep recursive SCC",
    sizes=(8, 16, 32, 64),
    strategies=("wide", "deep"),
    run=_run_lint_program,
    expectations=(
        Expectation(metric="lint.program.edges", kind="bound",
                    strategy="wide", bound_degree=1, bound_coefficient=3.0,
                    note="the dependency graph stays linear in the rules"),
        Expectation(metric="lint.program.edges", kind="bound",
                    strategy="deep", bound_degree=1, bound_coefficient=3.0),
    ),
    tolerances=(
        Tolerance(metric="lint.program.edges"),
        Tolerance(metric="lint.program.sccs"),
        Tolerance(metric="lint.program.adornments"),
    ),
    agree=False,  # wide and deep are different programs by design
))

_register(Suite(
    name="domain-cardinality",
    title="Section 2: |dom(T,D)| <= hyper(i,k)(n), exact big-int table",
    sizes=(2, 3, 4, 5, 6),
    strategies=("exact",),
    run=_run_domain_cardinality,
    expectations=(
        Expectation(metric="domain.dom12_cardinality", kind="superpoly",
                    strategy="exact",
                    note="|dom(1,2,n)| is exponential in n**2"),
        Expectation(metric="domain.dom12_bits", kind="poly",
                    strategy="exact", max_degree=2.5,
                    note="...so its bit length is ~quadratic: exactly "
                         "one exponential level (Section 2)"),
    ),
    tolerances=(
        Tolerance(metric="domain.dom12_cardinality"),
        Tolerance(metric="domain.dom12_bits"),
    ),
    agree=False,
))

_register(Suite(
    name="induced-order",
    title="Lemma 4.3: induced order — native routes vs the defining "
          "formula",
    sizes=(2, 3, 4),
    strategies=("comparator", "sortkeys", "ranks", "formula"),
    run=_run_induced_order,
    expectations=(
        Expectation(metric="order.lt_pairs", kind="superpoly",
                    strategy="comparator",
                    note="C(2**n, 2) comparable pairs over dom({U}, n)"),
    ),
    gates=(
        SpeedupGate(slow="formula", fast="comparator", min_ratio=5.0),
    ),
    tolerances=(Tolerance(metric="order.lt_pairs"),),
    agree=True,  # all four routes count the same less-than pairs
))


_register(Suite(
    name="algebra-fixpoint",
    title="E20: TC via powerset algebra vs IFP vs native loop",
    sizes=(3, 4, 5),
    strategies=("powerset", "rr", "loop"),
    run=_run_algebra_fixpoint,
    expectations=(
        Expectation(metric="algebra.powerset_subsets", kind="superpoly",
                    strategy="powerset",
                    note="subsets examined blow up with the non-edge "
                         "count: the conclusion's intractable recursion"),
    ),
    gates=(
        SpeedupGate(slow="powerset", fast="loop", min_ratio=5.0),
    ),
    tolerances=(
        Tolerance(metric="algebra.powerset_subsets"),
        Tolerance(metric="ifp.stages"),
    ),
    agree=True,  # all three routes must return the same closure
))

_register(Suite(
    name="code-relations",
    title="Lemma 4.4: CODE_T dictionaries spell the standard encodings",
    sizes=(2, 3, 4, 5),
    strategies=("u-table", "set-type"),
    run=_run_code_relations,
    expectations=(
        Expectation(metric="code.rows", kind="bound",
                    strategy="u-table", bound_degree=2,
                    bound_coefficient=1.0,
                    note="CODE_U: sum of binary lengths of 0..n-1 <= n^2"),
        Expectation(metric="code.rows", kind="bound",
                    strategy="set-type", bound_degree=1,
                    bound_coefficient=2.5, bound_base=2.0,
                    note="CODE_{U}: one row per positioned symbol of "
                         "all 2**n set encodings — inside the "
                         "one-exponential envelope 2.5 * n * 2**n"),
    ),
    gates=(
        SpeedupGate(slow="set-type", fast="u-table",
                    metric="code.rows", min_ratio=20.0),
    ),
    tolerances=(Tolerance(metric="code.rows"),),
    agree=False,  # the two dictionaries encode different types
))


_register(Suite(
    name="domain-encoding",
    title="Proposition 2.1: ||dom|| <= |dom| * P(log|dom|), analytic vs "
          "brute force",
    sizes=(2, 3, 4),
    strategies=("analytic", "bruteforce"),
    run=_run_domain_encoding,
    expectations=(
        Expectation(metric="encoding.total_symbols", kind="superpoly",
                    strategy="analytic",
                    note="total encoded symbols track the set-type "
                         "domains: superpolynomial in the universe"),
    ),
    gates=(
        SpeedupGate(slow="bruteforce", fast="analytic", min_ratio=10.0),
    ),
    tolerances=(Tolerance(metric="encoding.total_symbols"),),
    agree=True,  # recurrence == enumeration, per point
))

_register(Suite(
    name="rr-vs-active",
    title="Theorem 5.1: range-restricted vs active-domain nest query",
    sizes=(4, 6, 8, 10),
    strategies=("active", "rr"),
    run=_run_rr_vs_active,
    expectations=(
        Expectation(metric="eval.quantifier_iterations", kind="superpoly",
                    strategy="active",
                    note="the set variable sweeps all 2**n subsets"),
        Expectation(metric="space.peak_range", kind="bound",
                    strategy="rr", bound_degree=1, bound_coefficient=1.5,
                    note="derived ranges stay linear in the instance"),
        Expectation(metric="eval.quantifier_iterations", kind="bound",
                    strategy="rr", bound_degree=2, bound_coefficient=6.0,
                    note="RR iteration count stays polynomial"),
    ),
    gates=(SpeedupGate(slow="active", fast="rr", min_ratio=4.0),),
    tolerances=(
        Tolerance(metric="eval.quantifier_iterations"),
        Tolerance(metric="space.peak_range"),
    ),
    agree=True,  # Theorem 5.1: RR evaluation == active-domain evaluation
))

_register(Suite(
    name="sorted-density",
    title="Remark 4.1: multi-sorted density — day-sets cheap, "
          "employee-sets ruled out",
    sizes=(64, 96, 130),
    strategies=("analysis", "day-quantifier"),
    run=_run_sorted_density,
    expectations=(
        Expectation(metric="density.day_used", kind="bound",
                    strategy="analysis", bound_degree=0,
                    bound_coefficient=128.0,
                    note="at most 2**7 day-sets exist: dense sort"),
        Expectation(metric="density.emp_log_dom", kind="bound",
                    strategy="analysis", bound_degree=1,
                    bound_coefficient=1.1,
                    note="log2 |emp-set domain| = n: the 2**n wall the "
                         "analysis rules out"),
        Expectation(metric="eval.quantifier_iterations", kind="bound",
                    strategy="day-quantifier", bound_degree=1,
                    bound_coefficient=80.0,
                    note="a full day-set sweep stays linear in the "
                         "employees: no prohibitive cost"),
    ),
    tolerances=(
        Tolerance(metric="density.day_used"),
        Tolerance(metric="eval.quantifier_iterations"),
    ),
    agree=False,  # the strategies measure different quantities
))

_register(Suite(
    name="tm-simulation",
    title="Theorem 4.1: relational TM simulation vs the native run",
    sizes=(1, 2),
    strategies=("native", "relational"),
    run=_run_tm_simulation,
    expectations=(
        Expectation(metric="sim.rows_per_step", kind="bound",
                    strategy="relational", bound_degree=1,
                    bound_coefficient=16.0,
                    note="R_M keeps ~tape-length rows per timestamp: "
                         "the quadratic-ish price of inflationary "
                         "semantics"),
    ),
    gates=(
        SpeedupGate(slow="relational", fast="native", min_ratio=100.0),
    ),
    tolerances=(
        Tolerance(metric="sim.rm_rows"),
        Tolerance(metric="sim.steps"),
    ),
    agree=True,  # both routes must leave the same final tape
))


_register(Suite(
    name="supply-chain-build",
    title="ISSUE 10: supply-chain generator — formula-checked rows, "
          "checksum-pinned instances",
    sizes=(1, 4, 16, 64),
    strategies=("build",),
    run=_run_supply_chain_build,
    expectations=(
        Expectation(metric="sc.rows", kind="bound", strategy="build",
                    bound_degree=1, bound_coefficient=415.0,
                    note="total rows = 415*scale once scale>=2 "
                         "(413 at scale 1): linear by construction"),
        Expectation(metric="seconds", kind="poly", strategy="build",
                    max_degree=1.8,
                    note="generation is linear in the scale"),
    ),
    tolerances=(Tolerance(metric="sc.rows"),),
    agree=False,  # single strategy
))

_register(Suite(
    name="supply-chain-bom",
    title="BOM ancestor closure: the naive oracle vs the semi-naive "
          "engine",
    sizes=(4, 8, 16),
    strategies=("naive", "seminaive"),
    run=_run_supply_chain_bom,
    expectations=(
        Expectation(metric="datalog.rows_derived", kind="poly",
                    strategy="seminaive", max_degree=1.5,
                    note="closure is exactly 102*scale rows: linear, "
                         "never quadratic (depth-3 ternary blocks)"),
        Expectation(metric="space.interned_values", kind="bound",
                    strategy="seminaive", bound_degree=1,
                    bound_coefficient=40.0,
                    note="bom-closure reads only BOM, so only its "
                         "40*scale parts get ids, not the whole "
                         "10-relation instance"),
    ),
    gates=(SpeedupGate(slow="naive", fast="seminaive", min_ratio=3.0),),
    tolerances=(
        Tolerance(metric="datalog.rows_derived"),
        Tolerance(metric="ifp.stages"),
    ),
    agree=True,  # both lanes must return the same closure
))

_register(Suite(
    name="supply-chain-questions",
    title="ISSUE 10: the golden question inventory, every lane answering "
          "every question",
    sizes=(1, 2),
    strategies=("naive", "seminaive"),
    run=_run_supply_chain_questions,
    tolerances=(
        Tolerance(metric="sc.questions"),
        Tolerance(metric="sc.question_rows"),
        Tolerance(metric="ifp.stages"),
    ),
    agree=True,  # rollup checksum: per-question answers must coincide
))

_register(Suite(
    name="supply-chain-scale",
    title="ISSUE 10: 100K+ rows generated and the headline BOM fixpoint "
          "answered by the semi-naive engine",
    sizes=(256,),
    strategies=("seminaive",),
    run=_run_supply_chain_scale,
    tolerances=(
        Tolerance(metric="sc.rows"),
        Tolerance(metric="ifp.stages"),
        Tolerance(metric="datalog.rows_derived"),
    ),
    agree=False,  # single lane; the checksums pin generator + closure
))


#: Named groups accepted by ``repro bench --suite``.  ``tc``/``space``/
#: ``theorems``/``analysis`` partition the registry for CI's job matrix;
#: ``smoke`` keeps its PR 4 meaning (the original six suites).
GROUPS: dict[str, tuple[str, ...]] = {
    "tc": ("seminaive-smoke", "tc-seminaive-dense", "calc-ifp-dense",
           "algebra-loop", "tc-engines", "datalog-translation",
           "algebra-fixpoint"),
    "space": ("hyper-domain", "rr-space-chain"),
    "theorems": ("quantifier-tower", "sparse-collapse", "density-measures",
                 "pfp-vs-ifp", "flat-kernel", "dense-fixpoint",
                 "nest-routes", "domain-cardinality", "induced-order",
                 "code-relations", "domain-encoding", "rr-vs-active",
                 "sorted-density", "tm-simulation"),
    "analysis": ("lint-program",),
    "workloads": ("supply-chain-build", "supply-chain-bom",
                  "supply-chain-questions", "supply-chain-scale"),
    "supply-chain": ("supply-chain-build", "supply-chain-bom",
                     "supply-chain-questions", "supply-chain-scale"),
    "smoke": ("seminaive-smoke", "tc-seminaive-dense", "hyper-domain",
              "rr-space-chain", "calc-ifp-dense", "algebra-loop"),
    "all": tuple(SUITES),
}


def resolve_suites(names: list[str] | None) -> list[Suite]:
    """Expand suite and group names into Suite objects (order-preserving,
    deduplicated).  Unknown names raise ``KeyError`` with the candidates.
    """
    if not names:
        names = ["smoke"]
    resolved: list[Suite] = []
    seen: set[str] = set()
    for name in names:
        expanded = GROUPS.get(name, (name,))
        for suite_name in expanded:
            if suite_name not in SUITES:
                known = sorted(set(SUITES) | set(GROUPS))
                raise KeyError(
                    f"unknown suite {suite_name!r}; known: {', '.join(known)}"
                )
            if suite_name not in seen:
                seen.add(suite_name)
                resolved.append(SUITES[suite_name])
    return resolved
