"""Translation between Datalog programs and CALC+IFP (Section 3).

"The connection between fixpoint calculi and Datalog-like languages for
complex objects is similar to that in the flat case": an inflationary
Datalog program with a single IDB predicate S translates to the
``CALC_i^k + IFP`` query whose fixpoint body is the disjunction of the
rule bodies (variables other than the head's existentially quantified).

:func:`program_to_query` implements that translation for single-IDB
programs (multi-IDB simultaneous induction can always be reduced to this
case by padding/tagging; we keep the translation minimal and test the
languages' agreement through the engine instead).
"""

from __future__ import annotations

from ..core.builder import ifp, query
from ..core.syntax import (
    And,
    Const,
    Equals,
    Exists,
    Formula,
    In,
    Not,
    Or,
    Query,
    RelAtom,
    Subset,
    Var,
)
from ..objects.schema import DatabaseSchema
from ..objects.types import Type
from .syntax import BuiltinLiteral, DatalogError, DConst, DVar, Literal, Program

__all__ = ["program_to_query"]


def _infer_variable_types(program: Program, schema: DatabaseSchema,
                          rule) -> dict[str, Type]:
    """Assign types to a rule's variables from predicate signatures."""
    types: dict[str, Type] = {}

    def note(name: str, typ: Type, where: str) -> None:
        existing = types.get(name)
        if existing is not None and existing != typ:
            raise DatalogError(
                f"variable {name!r} used at types {existing!r} and {typ!r} "
                f"({where})"
            )
        types[name] = typ

    def predicate_types(predicate: str) -> tuple[Type, ...]:
        if predicate in program.idb_types:
            return program.idb_types[predicate]
        return schema[predicate].column_types

    for literal in (rule.head, *rule.body):
        if isinstance(literal, Literal):
            signature = predicate_types(literal.predicate)
            for term, typ in zip(literal.terms, signature):
                if isinstance(term, DVar):
                    note(term.name, typ, repr(literal))
    # Built-ins can type remaining variables from the other side.
    changed = True
    while changed:
        changed = False
        for literal in rule.body:
            if not isinstance(literal, BuiltinLiteral):
                continue
            left, right = literal.left, literal.right
            left_t = (types.get(left.name) if isinstance(left, DVar)
                      else left.value.infer_type())
            right_t = (types.get(right.name) if isinstance(right, DVar)
                       else right.value.infer_type())
            if literal.op == "=":
                if left_t and not right_t and isinstance(right, DVar):
                    note(right.name, left_t, repr(literal))
                    changed = True
                if right_t and not left_t and isinstance(left, DVar):
                    note(left.name, right_t, repr(literal))
                    changed = True
            elif literal.op == "in":
                from ..objects.types import SetType

                if right_t and isinstance(right_t, SetType) \
                        and not left_t and isinstance(left, DVar):
                    note(left.name, right_t.element, repr(literal))
                    changed = True
    missing = rule.variables() - set(types)
    if missing:
        raise DatalogError(
            f"cannot type variables {sorted(missing)} in {rule!r}"
        )
    return types


def program_to_query(program: Program, schema: DatabaseSchema) -> Query:
    """Translate a single-IDB inflationary program to a CALC+IFP query.

    The query's answer equals the program's IDB relation under
    inflationary semantics (tested in ``tests/test_datalog.py``).
    """
    idb_names = sorted(program.idb_types)
    if len(idb_names) != 1:
        raise DatalogError(
            "translation supports single-IDB programs; "
            f"got {idb_names}"
        )
    name = idb_names[0]
    column_types = program.idb_types[name]
    column_vars = [Var(f"_c{index}", typ)
                   for index, typ in enumerate(column_types, start=1)]

    disjuncts: list[Formula] = []
    for rule_index, rule in enumerate(program.rules):
        types = _infer_variable_types(program, schema, rule)
        # Rename the rule apart and equate head terms with column vars.
        renamed = {
            var_name: Var(f"_r{rule_index}_{var_name}", types[var_name])
            for var_name in rule.variables()
        }

        def rename_term(term):
            if isinstance(term, DConst):
                return Const(term.value)
            return renamed[term.name]

        conjuncts: list[Formula] = []
        for column_var, head_term in zip(column_vars, rule.head.terms):
            conjuncts.append(Equals(column_var, rename_term(head_term)))
        for literal in rule.body:
            if isinstance(literal, Literal):
                atom = RelAtom(
                    literal.predicate,
                    [rename_term(t) for t in literal.terms],
                )
                conjuncts.append(atom if literal.positive else Not(atom))
            else:
                left = rename_term(literal.left)
                right = rename_term(literal.right)
                if literal.op == "=":
                    formula: Formula = Equals(left, right)
                elif literal.op == "in":
                    formula = In(left, right)
                else:
                    formula = Subset(left, right)
                conjuncts.append(formula if literal.positive else Not(formula))
        body: Formula = (conjuncts[0] if len(conjuncts) == 1
                         else And(conjuncts))
        for var in sorted(renamed.values(), key=lambda v: v.name,
                          reverse=True):
            body = Exists(var, body)
        disjuncts.append(body)

    fixpoint_body: Formula = (disjuncts[0] if len(disjuncts) == 1
                              else Or(disjuncts))
    fixpoint = ifp(name, [(v.name, v.typ) for v in column_vars],
                   fixpoint_body)
    return query([(v.name, v.typ) for v in column_vars],
                 fixpoint(*column_vars))
