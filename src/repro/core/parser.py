"""Textual syntax for CALC / CALC+IFP / CALC+PFP formulas and queries.

Grammar (precedence from loosest to tightest)::

    query    := '{' '[' var ':' type (',' var ':' type)* ']' '|' formula '}'
    formula  := iff
    iff      := implies ('<->' implies)*
    implies  := or ('->' implies)?                 (right associative)
    or       := and ('or' and)*
    and      := unary ('and' unary)*
    unary    := 'not' unary | quantifier | '(' formula ')' | atom
    quantifier := ('exists' | 'forall') bindings '(' formula ')'
    bindings := var ':' type (',' var ':' type)*
    atom     := fixpoint application? | relname '(' term* ')' | term op term
    op       := '=' | 'in' | 'sub'
    fixpoint := ('ifp' | 'pfp') '[' relname '(' bindings ')' ']' '(' formula ')'
    term     := constant | var ('.' INT)? | var ':' type | fixpoint
    constant := "'" label "'" | '{' constants '}' | '[' constants ']'
    type     := 'U' | '{' type '}' | '[' type (',' type)* ']'

Examples::

    parse_query("{[x:{U}, y:{U}] | ifp[S(x:{U}, y:{U})](G(x,y) or "
                "exists z:{U} (S(x,z) and G(z,y)))(x, y)}")

    parse_formula("forall y:U (y in s <-> P(x:U, y))")

Variable types are inferred from their binding occurrence (quantifier,
fixpoint column, query head, or inline ``x:T`` annotation at first use).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..objects.types import Type, parse_type
from ..objects.values import Atom, CSet, CTuple, Value, ValueError_
from .syntax import (
    And,
    Const,
    Equals,
    Exists,
    Fixpoint,
    FixpointPred,
    FixpointTerm,
    Forall,
    Formula,
    Iff,
    Implies,
    In,
    Not,
    Or,
    Proj,
    Query,
    RelAtom,
    Subset,
    SyntaxError_,
    Term,
    Var,
)

__all__ = [
    "ParseError",
    "SourceMap",
    "Span",
    "parse_formula",
    "parse_formula_with_source",
    "parse_query",
    "parse_query_with_source",
    "parse_term",
]

KEYWORDS = {"exists", "forall", "not", "and", "or", "in", "sub", "ifp", "pfp"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow2><->)
  | (?P<arrow>->)
  | (?P<quoted>'[^']*')
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[{}\[\](),=.:|])
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    """Raised on malformed formula/query text."""


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


class Span(NamedTuple):
    """Half-open character range ``[start, end)`` into the source text."""

    start: int
    end: int


class SourceMap:
    """Maps AST nodes back to spans of the text they were parsed from.

    AST nodes are immutable and compare structurally, so the map keys on
    node *identity*; it keeps references to the recorded nodes alive so
    ids stay valid for the map's lifetime.
    """

    def __init__(self, text: str):
        self.text = text
        self._spans: dict[int, Span] = {}
        self._nodes: list[object] = []

    def record(self, node: object, start: int, end: int) -> None:
        if id(node) not in self._spans:
            self._nodes.append(node)
        self._spans[id(node)] = Span(start, end)

    def span(self, node: object) -> Span | None:
        """The recorded span of ``node``, or None for synthesised nodes."""
        return self._spans.get(id(node))

    def snippet(self, node: object, max_length: int = 60) -> str | None:
        """The source text of ``node``, elided in the middle if long."""
        span = self.span(node)
        if span is None:
            return None
        text = self.text[span.start:span.end]
        if len(text) > max_length:
            half = (max_length - 3) // 2
            text = text[:half] + "..." + text[-half:]
        return text

    def line_col(self, offset: int) -> tuple[int, int]:
        """1-based (line, column) of a character offset."""
        prefix = self.text[:offset]
        line = prefix.count("\n") + 1
        column = offset - (prefix.rfind("\n") + 1) + 1
        return line, column


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r} at {pos}")
        pos = match.end()
        kind = match.lastgroup
        assert kind is not None
        if kind == "ws":
            continue
        tokens.append(_Token(kind, match.group(), match.start()))
    return tokens


class _Parser:
    def __init__(self, text: str, source_map: SourceMap | None = None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.source_map = source_map
        #: End offset of the most recently consumed token.
        self.last_end = 0
        #: Variable name -> declared type (flat; the paper renames apart).
        self.var_types: dict[str, Type] = {}

    # -- token helpers -----------------------------------------------------

    def _peek(self, offset: int = 0) -> _Token | None:
        index = self.pos + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError(f"unexpected end of input in {self.text!r}")
        self.pos += 1
        self.last_end = token.pos + len(token.text)
        return token

    def _start(self) -> int:
        """Offset where the next node's span will start."""
        token = self._peek()
        return token.pos if token is not None else self.last_end

    def _record(self, node, start: int):
        """Record ``node`` as spanning [start, last consumed token end)."""
        if self.source_map is not None:
            self.source_map.record(node, start, self.last_end)
        return node

    def _node(self, start: int, cls, *args):
        """``cls(*args)``, recorded from ``start``.  An AST constructor's
        :class:`SyntaxError_` (or a constant's ``ValueError_``) is the
        text's fault, so it becomes a :class:`ParseError` located at
        ``start``."""
        try:
            node = cls(*args)
        except (SyntaxError_, ValueError_) as exc:
            raise ParseError(f"{exc} at position {start}") from exc
        return self._record(node, start)

    def _expect(self, text: str) -> _Token:
        token = self._next()
        if token.text != text:
            raise ParseError(
                f"expected {text!r} at position {token.pos}, got {token.text!r}"
            )
        return token

    def _at(self, text: str, offset: int = 0) -> bool:
        token = self._peek(offset)
        return token is not None and token.text == text

    # -- types ---------------------------------------------------------------

    def parse_type_expr(self) -> Type:
        """Consume a balanced type expression and delegate to parse_type.

        A type is ``U`` (one token) or starts with ``{``/``[`` and runs to
        the matching closer.
        """
        start = self._peek()
        if start is None:
            raise ParseError("expected a type")
        if start.text == "U":
            self._next()
            return parse_type("U")
        if start.text not in ("{", "["):
            raise ParseError(f"expected a type at position {start.pos}")
        depth = 0
        end = self.pos
        while end < len(self.tokens):
            text = self.tokens[end].text
            if text in ("{", "["):
                depth += 1
            elif text in ("}", "]"):
                depth -= 1
            end += 1
            if depth == 0:
                break
        if depth != 0:
            raise ParseError(f"unbalanced type starting at {start.pos}")
        last = self.tokens[end - 1]
        snippet = self.text[start.pos:last.pos + len(last.text)]
        self.pos = end
        try:
            return parse_type(snippet)
        except Exception as exc:  # noqa: BLE001
            raise ParseError(f"bad type {snippet!r}: {exc}") from exc

    # -- bindings ------------------------------------------------------------

    def parse_binding(self) -> tuple[str, Type]:
        name_token = self._next()
        if name_token.kind != "name" or name_token.text in KEYWORDS:
            raise ParseError(f"expected variable name at {name_token.pos}")
        self._expect(":")
        typ = self.parse_type_expr()
        self._declare(name_token.text, typ)
        return name_token.text, typ

    def _declare(self, name: str, typ: Type) -> None:
        existing = self.var_types.get(name)
        if existing is not None and existing != typ:
            raise ParseError(
                f"variable {name!r} redeclared with type {typ!r} "
                f"(was {existing!r})"
            )
        self.var_types[name] = typ

    def parse_bindings(self) -> list[tuple[str, Type]]:
        bindings = [self.parse_binding()]
        while self._at(","):
            self._next()
            bindings.append(self.parse_binding())
        return bindings

    # -- terms --------------------------------------------------------------

    def parse_term(self) -> Term:
        token = self._peek()
        if token is None:
            raise ParseError("expected a term")
        start = token.pos
        if token.kind == "quoted":
            self._next()
            return self._node(start, Const, Atom(token.text[1:-1]))
        if token.text in ("{", "["):
            return self._node(start, Const, self._parse_value())
        if token.text in ("ifp", "pfp"):
            return self._node(start, FixpointTerm, self.parse_fixpoint())
        if token.kind == "name" and token.text not in KEYWORDS:
            self._next()
            name = token.text
            if self._at(":"):
                self._next()
                typ = self.parse_type_expr()
                self._declare(name, typ)
            var = Var(name, self.var_types.get(name))
            if self._at("."):
                self._record(var, start)
                self._next()
                index_token = self._next()
                if index_token.kind != "int":
                    raise ParseError(
                        f"expected projection index at {index_token.pos}"
                    )
                return self._node(start, Proj, var, int(index_token.text))
            return self._record(var, start)
        raise ParseError(f"cannot parse term at {token.pos}: {token.text!r}")

    def _parse_value(self) -> Value:
        token = self._next()
        if token.kind == "quoted":
            return Atom(token.text[1:-1])
        if token.text == "{":
            elements: list[Value] = []
            if not self._at("}"):
                elements.append(self._parse_value())
                while self._at(","):
                    self._next()
                    elements.append(self._parse_value())
            self._expect("}")
            return CSet(elements)
        if token.text == "[":
            items = [self._parse_value()]
            while self._at(","):
                self._next()
                items.append(self._parse_value())
            self._expect("]")
            return CTuple(items)
        raise ParseError(f"cannot parse constant at {token.pos}: {token.text!r}")

    # -- fixpoints -------------------------------------------------------------

    def parse_fixpoint(self) -> Fixpoint:
        kind_token = self._next()
        start = kind_token.pos
        kind = {"ifp": "IFP", "pfp": "PFP"}[kind_token.text]
        self._expect("[")
        name_token = self._next()
        if name_token.kind != "name":
            raise ParseError(f"expected fixpoint relation name at {name_token.pos}")
        self._expect("(")
        columns = self.parse_bindings()
        self._expect(")")
        self._expect("]")
        self._expect("(")
        body = self.parse_formula()
        self._expect(")")
        return self._node(start, Fixpoint, kind, name_token.text, columns,
                          body)

    # -- formulas -----------------------------------------------------------------

    def parse_formula(self) -> Formula:
        return self._parse_iff()

    def _parse_iff(self) -> Formula:
        start = self._start()
        left = self._parse_implies()
        while self._at("<->"):
            self._next()
            right = self._parse_implies()
            left = self._node(start, Iff, left, right)
        return left

    def _parse_implies(self) -> Formula:
        start = self._start()
        left = self._parse_or()
        if self._at("->"):
            self._next()
            return self._node(start, Implies, left,
                              self._parse_implies())
        return left

    def _parse_or(self) -> Formula:
        start = self._start()
        operands = [self._parse_and()]
        while self._at("or"):
            self._next()
            operands.append(self._parse_and())
        if len(operands) == 1:
            return operands[0]
        return self._node(start, Or, operands)

    def _parse_and(self) -> Formula:
        start = self._start()
        operands = [self._parse_unary()]
        while self._at("and"):
            self._next()
            operands.append(self._parse_unary())
        if len(operands) == 1:
            return operands[0]
        return self._node(start, And, operands)

    def _parse_unary(self) -> Formula:
        token = self._peek()
        if token is None:
            raise ParseError("expected a formula")
        start = token.pos
        if token.text == "not":
            self._next()
            return self._node(start, Not, self._parse_unary())
        if token.text in ("exists", "forall"):
            self._next()
            bindings = self.parse_bindings()
            self._expect("(")
            body = self.parse_formula()
            self._expect(")")
            for name, typ in reversed(bindings):
                cls = Exists if token.text == "exists" else Forall
                body = self._node(start, cls, Var(name, typ), body)
            return body
        if token.text == "(":
            # Could be a parenthesised formula; try it, fall back to atom.
            saved = self.pos
            try:
                self._next()
                inner = self.parse_formula()
                self._expect(")")
                return inner
            except ParseError:
                self.pos = saved
        return self._parse_atom()

    def _parse_atom(self) -> Formula:
        token = self._peek()
        if token is None:
            raise ParseError("expected an atomic formula")
        start = token.pos
        if token.text in ("ifp", "pfp"):
            fixpoint = self.parse_fixpoint()
            if self._at("("):
                self._next()
                args = [self.parse_term()]
                while self._at(","):
                    self._next()
                    args.append(self.parse_term())
                self._expect(")")
                return self._node(start, FixpointPred, fixpoint, args)
            # A bare fixpoint must be part of a comparison, e.g. s = ifp[...]
            left: Term = self._node(start, FixpointTerm, fixpoint)
            return self._parse_comparison(left, start)
        # Relation atom: NAME '(' ... ')' where NAME is not a declared var.
        if (token.kind == "name" and token.text not in KEYWORDS
                and self._at("(", 1) and token.text not in self.var_types):
            self._next()
            self._next()  # '('
            args = [self.parse_term()]
            while self._at(","):
                self._next()
                args.append(self.parse_term())
            self._expect(")")
            return self._node(start, RelAtom, token.text, args)
        left = self.parse_term()
        return self._parse_comparison(left, start)

    def _parse_comparison(self, left: Term, start: int) -> Formula:
        op = self._next()
        if op.text == "=":
            return self._node(start, Equals, left, self.parse_term())
        if op.text == "in":
            return self._node(start, In, left, self.parse_term())
        if op.text == "sub":
            return self._node(start, Subset, left, self.parse_term())
        raise ParseError(
            f"expected '=', 'in' or 'sub' at {op.pos}, got {op.text!r}"
        )

    # -- queries -------------------------------------------------------------

    def parse_query(self) -> Query:
        start = self._start()
        self._expect("{")
        self._expect("[")
        head = self.parse_bindings()
        self._expect("]")
        self._expect("|")
        body = self.parse_formula()
        self._expect("}")
        return self._node(start, Query, head, body)

    def finish(self) -> None:
        if self.pos != len(self.tokens):
            token = self.tokens[self.pos]
            raise ParseError(
                f"trailing input at position {token.pos}: {token.text!r}"
            )


def parse_formula(text: str) -> Formula:
    """Parse a formula; variable types come from binding occurrences or
    inline ``x:T`` annotations."""
    parser = _Parser(text)
    result = parser.parse_formula()
    parser.finish()
    return result


def parse_formula_with_source(text: str) -> tuple[Formula, SourceMap]:
    """Like :func:`parse_formula`, also returning a :class:`SourceMap`
    that locates every parsed subformula and term in ``text``."""
    source_map = SourceMap(text)
    parser = _Parser(text, source_map=source_map)
    result = parser.parse_formula()
    parser.finish()
    return result, source_map


def parse_query(text: str) -> Query:
    """Parse a query ``{[x:T, ...] | formula}``."""
    parser = _Parser(text)
    result = parser.parse_query()
    parser.finish()
    return result


def parse_query_with_source(text: str) -> tuple[Query, SourceMap]:
    """Like :func:`parse_query`, also returning a :class:`SourceMap`."""
    source_map = SourceMap(text)
    parser = _Parser(text, source_map=source_map)
    result = parser.parse_query()
    parser.finish()
    return result, source_map


def parse_term(text: str) -> Term:
    """Parse a single term (mostly useful for constants in tests)."""
    parser = _Parser(text)
    result = parser.parse_term()
    parser.finish()
    return result
