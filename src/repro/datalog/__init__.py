"""Complex-object Datalog with inflationary semantics (inf-Datalog)."""

from .syntax import (
    BuiltinLiteral,
    DatalogError,
    DConst,
    DepEdge,
    DTerm,
    DVar,
    Literal,
    Program,
    Rule,
)
from .engine import (
    STRATEGIES,
    evaluate_inflationary,
    evaluate_partial,
    inflationary_answer,
    inflationary_stages,
)
from .parser import DatalogParseError, parse_program
from .translation import program_to_query

__all__ = [
    "BuiltinLiteral", "DatalogError", "DatalogParseError", "DConst",
    "DepEdge", "DTerm", "DVar", "Literal",
    "Program", "Rule", "STRATEGIES",
    "evaluate_inflationary", "evaluate_partial", "inflationary_answer",
    "inflationary_stages",
    "parse_program", "program_to_query",
]
