"""repro.obs — zero-dependency tracing, counters, and EXPLAIN profiling.

The observability layer for the evaluation stack: every engine
(calculus evaluator, IFP/PFP iteration, range-restricted safety
evaluation, Datalog, nested algebra) reports the paper's cost drivers —
materialised domain cardinalities, quantifier product sizes, fixpoint
stage counts and per-stage deltas, derived range sizes, dedup hits —
through the active tracer: one flat table of monotonic counters and
gauges, plus log-bucketed histograms for the distributions (per-stage
rows, range sizes) the benchmark observatory summarises per point.
The default tracer is a no-op; install a live one with::

    from repro.obs import Tracer, use_tracer, render_tree, summary_table

    tracer = Tracer()
    with use_tracer(tracer):
        answer = evaluate(query, inst)
    print(render_tree(tracer))
    print(summary_table(tracer))

or use ``repro profile`` / ``repro query --trace`` / ``repro bench``
from the CLI.
"""

from .export import (
    ExportError,
    chrome_trace,
    collapsed_stacks,
    tracer_from_document,
)
from .memory import (
    MemoryAttributor,
    attribution_report,
    format_bytes,
)
from .metrics import (
    Histogram,
    MetricsRegistry,
    metrics_from_json,
    metrics_to_json,
    value_node_count,
)
from .ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_SCHEMA,
    LedgerError,
    RunRecorder,
    aggregate_records,
    append_record,
    default_ledger_path,
    diff_records,
    find_record,
    headline_counters,
    instance_checksum,
    peak_rss_bytes,
    query_hash,
    read_ledger,
    rows_checksum,
)
from .render import (
    aggregate_table,
    align_table,
    history_table,
    memory_table,
    metrics_table,
    render_tree,
    sparkline,
    summary_table,
    titled_table,
    trace_from_json,
    trace_to_json,
)
from .stream import (
    STREAM_SCHEMA,
    StallError,
    StreamError,
    StreamWriter,
    Watchdog,
    read_segments,
    replay_stream,
)
from .trace import (
    NULL_TRACER,
    Event,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Event",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "align_table",
    "render_tree",
    "summary_table",
    "metrics_table",
    "memory_table",
    "sparkline",
    "titled_table",
    "trace_to_json",
    "trace_from_json",
    "ExportError",
    "chrome_trace",
    "collapsed_stacks",
    "tracer_from_document",
    "MemoryAttributor",
    "attribution_report",
    "format_bytes",
    "Histogram",
    "MetricsRegistry",
    "metrics_to_json",
    "metrics_from_json",
    "value_node_count",
    "DEFAULT_LEDGER_PATH",
    "LEDGER_SCHEMA",
    "LedgerError",
    "RunRecorder",
    "aggregate_records",
    "aggregate_table",
    "append_record",
    "default_ledger_path",
    "diff_records",
    "find_record",
    "headline_counters",
    "history_table",
    "instance_checksum",
    "peak_rss_bytes",
    "query_hash",
    "read_ledger",
    "rows_checksum",
    "STREAM_SCHEMA",
    "StallError",
    "StreamError",
    "StreamWriter",
    "Watchdog",
    "read_segments",
    "replay_stream",
]
