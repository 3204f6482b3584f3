"""Fixpoint iteration engines (Definition 3.1).

The two operators differ only in how the stage formula is iterated:

* **IFP** (inflationary): ``J_0 = {}``, ``J_i = phi(J_{i-1}) ∪ J_{i-1}``.
  The sequence is increasing over a finite space, so it always converges;
  the limit is reached after at most ``|space|`` stages.
* **PFP** (partial): ``J_0 = {}``, ``J_i = phi(J_{i-1})``.  The sequence
  converges iff it reaches an actual fixed point; otherwise it enters a
  cycle of period > 1 and the fixpoint is *undefined* — signalled here by
  :class:`PFPDivergenceError`.

Each operator has one loop here (:func:`ifp_loop` and the PFP loop of
:func:`iterate_pfp`); the calculus evaluator, the Datalog engine and
the TM simulation supply only their stage.  A loop owns the stage count,
the per-stage heartbeat, PFP cycle detection and the ``max_stages``
guard (at most ``max_stages`` stage applications run before
:class:`FixpointError`), and reports every stage to the active
:mod:`repro.obs` tracer: IFP stages carry the stage number, the current
size and the delta vs the previous stage; PFP stages additionally carry
the size of the state history kept for cycle detection.
:func:`iterate_ifp` unions the rows its stage function returns into the
state itself, so a semi-naive stage function may return only the rows
new at its stage: the sequence of states ``J_i`` (and hence the stage
count) is the naive one's.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, FrozenSet, Iterable, Iterator, Tuple

from ..obs import NullTracer, Tracer, get_tracer

Row = Tuple  # a tuple of values
Rows = FrozenSet[Row]
StageFn = Callable[[Rows], Rows]

#: Recognised evaluation strategies of both engines (the calculus
#: evaluator and the Datalog engine): the object oracle and the interned
#: production engine.
STRATEGIES = ("naive", "seminaive")


def check_strategy(strategy: str) -> None:
    """Reject a strategy name outside :data:`STRATEGIES`."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown evaluation strategy {strategy!r}; "
            f"expected one of {STRATEGIES}"
        )


class FixpointError(Exception):
    """Raised when a fixpoint iteration cannot complete."""


class PFPDivergenceError(FixpointError):
    """Raised when a PFP iteration cycles without reaching a fixed point.

    Carries the cycle's period and the stage at which the repetition was
    detected, for diagnostics.
    """

    def __init__(self, period: int, stage: int):
        super().__init__(
            f"PFP iteration entered a cycle of period {period} at stage {stage}; "
            "the partial fixpoint is undefined"
        )
        self.period = period
        self.stage = stage


#: The stage guard of the calculus evaluator and the Datalog engine.
MAX_STAGES = 100_000

#: An IFP stage run in place: it turns the state ``J_{i-1}`` it holds
#: into ``J_i`` and returns ``|J_i|`` and ``|J_i ∖ J_{i-1}|``.
Step = Callable[[], Tuple[int, int]]


def ifp_loop(step: Step, max_stages: int | None,
             tracer: Tracer | NullTracer) -> Iterator[int]:
    """The IFP loop: run ``step`` until a stage adds no row.  Yields each
    stage's number before running it, so the last number yielded is the
    number of stages run."""
    count = 0
    while True:
        yield count + 1
        if max_stages is not None and count >= max_stages:
            raise FixpointError(
                f"IFP did not converge within {max_stages} stages"
            )
        tracer.heartbeat()
        size, added = step()
        count += 1
        if tracer.enabled:
            tracer.event("ifp.stage", stage=count, size=size, delta=added)
            tracer.count("ifp.stages")
            tracer.observe("space.ifp.stage_rows", size)
            tracer.gauge_max("space.peak_fixpoint_rows", size)
        if not added:
            return


def _pfp_loop(stage: StageFn, max_stages: int | None,
              tracer: Tracer | NullTracer) -> Iterator[Rows]:
    """The PFP loop: yield the state before each stage, stop at a fixed
    point, raise :class:`PFPDivergenceError` when a state repeats."""
    current: Rows = frozenset()
    seen: dict[Rows, int] = {current: 0}
    count = history_rows = 0
    while True:
        yield current
        if max_stages is not None and count >= max_stages:
            raise FixpointError(
                f"PFP did not converge within {max_stages} stages"
            )
        tracer.heartbeat()
        new = frozenset(stage(current))
        count += 1
        history_rows += len(new)
        if tracer.enabled:
            tracer.event("pfp.stage", stage=count, size=len(new),
                         history=len(seen))
            tracer.count("pfp.stages")
            tracer.observe("space.pfp.stage_rows", len(new))
            tracer.gauge_max("space.peak_fixpoint_rows", len(new))
            tracer.gauge_max("space.pfp.history_rows", history_rows)
        if new == current:
            return
        if new in seen:
            raise PFPDivergenceError(period=count - seen[new], stage=count)
        seen[new] = count
        current = new


class _Union:
    """The :data:`Step` ``J_i = stage(J_{i-1}) ∪ J_{i-1}`` over row sets."""

    def __init__(self, stage: StageFn):
        self.stage = stage
        self.rows: Rows = frozenset()

    def __call__(self) -> Tuple[int, int]:
        new = frozenset(self.stage(self.rows)) | self.rows
        added = len(new) - len(self.rows)
        if added:
            self.rows = new
        return len(new), added


def iterate_ifp(
    stage: StageFn,
    max_stages: int | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> Rows:
    """Run an inflationary fixpoint to convergence.

    ``stage(J)`` computes ``phi(J)``; the loop adds the union with J.
    ``max_stages`` guards against runaway stage functions (the theory
    guarantees convergence, but a buggy stage function might not
    shrink).
    """
    step = _Union(stage)
    for _ in ifp_loop(step, max_stages,
                      get_tracer() if tracer is None else tracer):
        pass
    return step.rows


def ifp_stages(stage: StageFn) -> Iterator[Rows]:
    """Yield the successive stages ``J_0, J_1, ...`` of an IFP iteration,
    ending with the limit (yielded once)."""
    step = _Union(stage)
    for _ in ifp_loop(step, None, get_tracer()):
        yield step.rows


def iterate_pfp(
    stage: StageFn,
    max_stages: int | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> Rows:
    """Run a partial fixpoint; raise :class:`PFPDivergenceError` on cycles.

    The space of states is finite, so the sequence eventually repeats;
    every state seen is recorded and the period reported when a repeat
    that is not a fixed point occurs.
    """
    for rows in _pfp_loop(stage, max_stages,
                          get_tracer() if tracer is None else tracer):
        pass
    return rows


def pfp_stages(stage: StageFn, max_stages: int | None = None) -> Iterator[Rows]:
    """Yield successive PFP stages; stops at the fixed point or raises on
    a cycle (after yielding the states on the way).  ``max_stages``
    bounds stage applications exactly like :func:`iterate_pfp`."""
    yield from _pfp_loop(stage, max_stages, get_tracer())


class IndexPool:
    """Lazy hash indexes over row sets, keyed on bound positions.

    ``probe(source_key, rows, positions, count)`` returns the index
    ``{projection: [rows]}`` of ``rows`` on ``positions`` for a batch of
    ``count`` lookups, building it for ``(source_key, positions)`` on
    first use; a one-position index files each row under the bare id.
    An index describes the row collection it was built from, so a pool
    must never outlive the row sets its ``source_key``s name unless
    every change to them is reported:

    * a row set that only *grows* keeps its indexes when each batch of
      rows added to it is passed to :meth:`append` before the next
      probe (the inflationary Datalog IDB: one pool per evaluation);
    * a row set that is *replaced* needs a fresh pool — constructing a
      new pool is how its indexes are invalidated (delta views, PFP
      stages, the calculus engine's fixpoint relations).

    An instance's relations never change, so their indexes outlive the
    evaluation: each evaluation's instance pool is given the instance
    encoding's dict as ``built`` (see :mod:`repro.objects.intern`),
    takes an index from it when another evaluation built it already,
    and stores an index there only once it is complete.  Such a pool
    never takes :meth:`append`.

    The first lookup of an index in a pool bumps the
    ``eval.index_builds`` counter, whether the pool builds the index or
    takes it from ``built``, so the counter is the number of distinct
    indexes an evaluation probes, whatever ran before it.  Each batch
    adds its ``count`` to ``eval.index_probes``, one per binding looked
    up.  Together they make the scan-vs-probe tradeoff visible to the
    bench observatory.
    """

    __slots__ = ("_indexes", "_built", "_tracer")

    def __init__(self, tracer: Tracer | NullTracer | None = None,
                 built: dict[tuple, dict] | None = None):
        self._indexes: dict[tuple, dict] = {}
        self._built = self._indexes if built is None else built
        self._tracer = get_tracer() if tracer is None else tracer

    def probe(
        self,
        source_key: str,
        rows: Iterable[Row],
        positions: Tuple[int, ...],
        count: int,
    ) -> dict:
        """The index of ``rows`` on ``positions``, for ``count`` lookups.

        ``rows`` must be the same collection on every probe for a given
        ``source_key`` (the index is built from the first one seen).
        """
        index_key = (source_key, positions)
        index = self._indexes.get(index_key)
        if index is None:
            index = self._built.get(index_key)
            if index is None:
                index = {}
                _add_rows(index, rows, positions)
                self._built[index_key] = index
            self._indexes[index_key] = index
            if self._tracer.enabled:
                self._tracer.count("eval.index_builds")
        if self._tracer.enabled:
            self._tracer.count("eval.index_probes", count)
        return index

    def append(self, source_key: str, rows: Iterable[Row]) -> None:
        """Add ``rows``, just added to the collection named
        ``source_key``, to every index already built over it.  Indexes
        built later read the grown collection itself."""
        for (key, positions), index in self._indexes.items():
            if key == source_key:
                _add_rows(index, rows, positions)


def _add_rows(index: dict, rows: Iterable[Row],
              positions: Tuple[int, ...]) -> None:
    """File each row under its projection onto ``positions``: the id
    itself at one position, the tuple of ids at several."""
    project = itemgetter(*positions)
    for row in rows:
        projection = project(row)
        bucket = index.get(projection)
        if bucket is None:
            index[projection] = [row]
        else:
            bucket.append(row)
