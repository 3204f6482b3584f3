"""JSON serialisation of complex objects, schemas and instances.

A tagged, unambiguous wire format so instances survive round trips:

* atoms: ``{"a": <label>}`` (label is a string or int);
* tuples: ``{"t": [v1, ..., vn]}``;
* sets: ``{"s": [v1, ..., vn]}`` (order irrelevant, duplicates merged);
* types: their textual form, e.g. ``"{[U,{U}]}"``;
* schemas: ``{"relations": [{"name": ..., "columns": [...]}, ...]}``;
* instances: ``{"schema": ..., "data": {"R": [[row values]], ...}}``.

Example document::

    {
      "schema": {"relations": [{"name": "G",
                                "columns": ["{U}", "{U}"]}]},
      "data": {"G": [[{"s": [{"a": "a"}]}, {"s": [{"a": "b"}]}]]}
    }

An instance document decodes in one pass driven by its schema: each
column decodes by its declared type, so the decode is the type check.
A malformed document raises :class:`SerializationError` naming the JSON
path of the bad node, e.g. ``data.G[0][1]``.

Used by the command-line interface (``python -m repro``).
"""

from __future__ import annotations

import json
import reprlib
from itertools import repeat
from typing import Any, Callable, Iterable, Sequence

from .instance import Instance, Relation
from .schema import DatabaseSchema, RelationSchema, SchemaError
from .types import AtomType, SetType, TupleType, Type, TypeError_, U, as_type
from .values import Atom, AtomLabel, CSet, CTuple, Value

__all__ = [
    "SerializationError",
    "value_to_json",
    "value_from_json",
    "schema_to_json",
    "schema_from_json",
    "instance_to_json",
    "instance_from_json",
    "dump_instance",
    "load_instance",
]


class SerializationError(Exception):
    """Raised on malformed JSON documents; an instance or schema
    document's message starts with the JSON path of the bad node."""


def value_to_json(value: Value) -> Any:
    """Convert a complex object to the tagged JSON form."""
    if isinstance(value, Atom):
        return {"a": value.label}
    if isinstance(value, CTuple):
        return {"t": [value_to_json(item) for item in value.items]}
    if isinstance(value, CSet):
        elements = sorted(
            (value_to_json(element) for element in value.elements),
            key=json.dumps,
        )
        return {"s": elements}
    raise SerializationError(f"unknown value {value!r}")


def value_from_json(document: Any) -> Value:
    """Parse the tagged JSON form back to a complex object.  An untyped
    value has no declared type to decode by, so each node is decoded by
    its tag."""
    if not isinstance(document, dict) or len(document) != 1:
        raise SerializationError(
            f"expected a one-key tagged object, got {document!r}"
        )
    (tag, payload), = document.items()
    if tag == "a":
        if not isinstance(payload, (str, int)) or isinstance(payload, bool):
            raise SerializationError(f"bad atom label {payload!r}")
        return Atom(payload)
    if tag == "t":
        if not isinstance(payload, list) or not payload:
            raise SerializationError(f"bad tuple payload {payload!r}")
        return CTuple(value_from_json(item) for item in payload)
    if tag == "s":
        if not isinstance(payload, list):
            raise SerializationError(f"bad set payload {payload!r}")
        return CSet(value_from_json(element) for element in payload)
    raise SerializationError(f"unknown tag {tag!r}")


def schema_to_json(schema: DatabaseSchema) -> Any:
    return {
        "relations": [
            {"name": rel.name,
             "columns": [repr(t) for t in rel.column_types]}
            for rel in schema
        ]
    }


def schema_from_json(document: Any) -> DatabaseSchema:
    """Parse a schema document.  Every fault is a
    :class:`SerializationError` naming the JSON path of the bad node,
    e.g. ``schema.relations[0].columns[1]``."""
    if not isinstance(document, dict) or "relations" not in document:
        raise SerializationError(
            "schema: expected an object with a 'relations' list, got "
            + _show(document))
    relations = document["relations"]
    if not isinstance(relations, list):
        raise SerializationError(
            f"schema.relations: expected a list, got {_show(relations)}")
    built = []
    for index, entry in enumerate(relations):
        path = f"schema.relations[{index}]"
        if not (isinstance(entry, dict) and "name" in entry
                and "columns" in entry):
            raise SerializationError(
                f"{path}: expected an object with a 'name' and 'columns', "
                f"got {_show(entry)}")
        columns = entry["columns"]
        if not isinstance(columns, list):
            raise SerializationError(
                f"{path}.columns: expected a list of types, got "
                + _show(columns))
        types = []
        for column, text in enumerate(columns):
            try:
                types.append(as_type(text))
            except (TypeError_, RecursionError) as error:
                raise SerializationError(
                    f"{path}.columns[{column}]: {error}") from None
        try:
            built.append(RelationSchema(entry["name"], types))
        except SchemaError as error:
            raise SerializationError(f"{path}: {error}") from None
    try:
        return DatabaseSchema(built)
    except SchemaError as error:
        raise SerializationError(f"schema.relations: {error}") from None


def instance_to_json(inst: Instance) -> Any:
    return {
        "schema": schema_to_json(inst.schema),
        "data": {
            rel.name: sorted(
                ([value_to_json(item) for item in row.items]
                 for row in rel.tuples),
                key=json.dumps,
            )
            for rel in inst.relations()
        },
    }


def instance_from_json(document: Any) -> Instance:
    """Decode an instance document in one pass driven by its schema.

    Each column decodes by its declared type, so decoding a node is its
    type check, and the values, relations and instance are built from
    the checked parts without checking them again.  A relation missing
    from ``"data"``, or an absent ``"data"``, is empty.  Every fault is
    a :class:`SerializationError` naming the JSON path of the bad node,
    e.g. ``data.G[0][1]``.
    """
    if not isinstance(document, dict) or "schema" not in document:
        raise SerializationError(
            "instance document: expected an object with a 'schema' and "
            f"'data', got {_show(document)}")
    schema = schema_from_json(document["schema"])
    data = document.get("data", {})
    if not isinstance(data, dict):
        raise SerializationError(
            f"data: expected an object of relation rows, got {_show(data)}")
    for name in data:
        if name not in schema:
            raise SerializationError(
                f"data.{name}: no relation {name!r} in the schema")
    atoms: dict[AtomLabel, Atom] = {}
    relations = {
        rel.name: Relation._trusted(
            rel, _decode_rows(rel, data.get(rel.name, []), atoms))
        for rel in schema
    }
    return Instance._trusted(schema, relations)


# Type-directed decoding.  Decoders are built per column type once per
# load; each returns its node's value, built without re-validation, or
# raises ``_Reject``.  The success path tracks no JSON path: each list
# loop a reject passes through adds the index it had reached, so a path
# is only built for the one bad node.

_Decoder = Callable[[Any], Value]
_NodesDecoder = Callable[[Sequence[Any]], list[Value]]


class _Reject(Exception):
    """A node is not a value of its type; ``path`` holds the steps from
    the node out to its row, innermost first."""

    def __init__(self, message: str):
        super().__init__(message)
        self.path: list[str] = []


def _decode_rows(rel: RelationSchema, rows: Any,
                 atoms: dict[AtomLabel, Atom]) -> frozenset[CTuple]:
    """Decode ``rel``'s rows a column at a time: each column is a list of
    nodes of one declared type, decoded by that type's list decoder.  A
    fault names the first bad node of the first column that has one."""
    where = f"data.{rel.name}"
    if not isinstance(rows, list):
        raise SerializationError(
            f"{where}: expected a list of rows, got {_show(rows)}")
    arity = rel.arity
    if set(map(type, rows)) - {list} or set(map(len, rows)) - {arity}:
        for index, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != arity:
                raise SerializationError(
                    f"{where}[{index}]: expected a row of {arity} values, "
                    f"got {_show(row)}")
    columns: list[list[Value]] = []
    for column, (typ, nodes) in enumerate(
            zip(rel.column_types, zip(*rows))):
        try:
            columns.append(_nodes_decoder(typ, atoms)(nodes))
        except _Reject as reject:
            # The column's list decoder added the bad node's row index.
            row_step = reject.path.pop()
            inner = "".join(reversed(reject.path))
            raise SerializationError(
                f"{where}{row_step}[{column}]{inner}: {reject}") from None
        except RecursionError as error:
            raise SerializationError(
                f"{where}: column {column}: {error}") from None
    return frozenset(map(CTuple._trusted, zip(*columns)))


def _nodes_decoder(typ: Type,
                   atoms: dict[AtomLabel, Atom]) -> _NodesDecoder:
    """Decode nodes that all have type ``typ``: a set's elements or a
    relation's column."""
    if isinstance(typ, AtomType):
        return _atoms_decoder(atoms)
    # ``zip`` with an endless repeat pairs every node with the decoder.
    return _each(repeat(_decoder(typ, atoms)))


def _each(decoders: Iterable[_Decoder]) -> _NodesDecoder:
    """Decode a list of nodes, the i-th by the i-th of ``decoders``."""

    def decode_each(nodes: Sequence[Any]) -> list[Value]:
        values: list[Value] = []
        try:
            for decode, node in zip(decoders, nodes):
                values.append(decode(node))
        except _Reject as reject:
            reject.path.append(f"[{len(values)}]")
            raise
        return values

    return decode_each


def _atoms_decoder(atoms: dict[AtomLabel, Atom]) -> _NodesDecoder:
    """Decode a list of atom nodes.  Atoms are most of an instance's
    nodes, so the common one, ``{"a": label}`` with a str or int label
    already in ``atoms``, decodes inline; :func:`_atom` takes the rest.
    """

    def decode_atoms(nodes: Sequence[Any]) -> list[Value]:
        values: list[Value] = []
        append = values.append
        try:
            for node in nodes:
                if type(node) is dict and len(node) == 1:
                    label = node.get("a")
                    # The label's type is checked before the lookup:
                    # True == 1 and 1.0 == 1 would find the atom of 1.
                    if type(label) is str or type(label) is int:
                        atom = atoms.get(label)
                        if atom is None:
                            atom = atoms[label] = Atom(label)
                        append(atom)
                        continue
                append(_atom(node, atoms))
        except _Reject as reject:
            reject.path.append(f"[{len(values)}]")
            raise
        return values

    return decode_atoms


def _atom(node: Any, atoms: dict[AtomLabel, Atom]) -> Atom:
    """Decode one atom node, building one :class:`Atom` per label."""
    label = _payload(node, U)
    atom = atoms.get(label)
    if atom is None:
        atom = atoms[label] = Atom(label)
    return atom


def _decoder(typ: Type, atoms: dict[AtomLabel, Atom]) -> _Decoder:
    """The decoder of one node of type ``typ``."""
    if isinstance(typ, AtomType):
        return lambda node: _atom(node, atoms)
    parts: _NodesDecoder
    collect: Callable[[list[Value]], Any]
    make: Callable[[Any], Value]
    if isinstance(typ, SetType):
        parts = _nodes_decoder(typ.element, atoms)
        collect, make, step = frozenset, CSet._trusted, ".s"
    else:
        # ``_payload`` checks the number of components.
        parts = _each([_decoder(t, atoms) for t in typ.components])
        collect, make, step = tuple, CTuple._trusted, ".t"

    def decode(node: Any) -> Value:
        payload = _payload(node, typ)
        try:
            return make(collect(parts(payload)))
        except _Reject as reject:
            reject.path.append(step)
            raise

    return decode


_TAGS = {AtomType: "a", SetType: "s", TupleType: "t"}
_KINDS = {"a": "atom", "s": "set", "t": "tuple"}


def _payload(node: Any, typ: Type) -> Any:
    """The payload of ``node`` if it is a well-formed node of ``typ``: a
    str or int label, a list of elements, or a list of ``typ.arity``
    components.  Otherwise raises :class:`_Reject` saying why."""
    if not isinstance(node, dict) or len(node) != 1:
        raise _Reject(f"expected a one-key tagged object, got {_show(node)}")
    (tag, payload), = node.items()
    if tag not in _KINDS:
        raise _Reject(f"unknown tag {tag!r}")
    if tag != _TAGS[type(typ)]:
        raise _Reject(f"expected a value of type {typ!r}, got {_show(node)}")
    if tag == "a":
        if not isinstance(payload, (str, int)) or isinstance(payload, bool):
            raise _Reject(f"bad atom label {_show(payload)}")
    elif not isinstance(payload, list):
        raise _Reject(f"bad {_KINDS[tag]} payload {_show(payload)}")
    elif isinstance(typ, TupleType) and len(payload) != typ.arity:
        raise _Reject(f"expected {typ.arity} components for type {typ!r}, "
                      f"got {len(payload)}")
    return payload


#: ``repr``, cut short in length and depth: a bad node may be a whole
#: relation.
_show = reprlib.repr


def dump_instance(inst: Instance, path: str, indent: int = 2) -> None:
    """Write an instance to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(instance_to_json(inst), handle, indent=indent)
        handle.write("\n")


def load_instance(path: str) -> Instance:
    """Read an instance from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except RecursionError as error:
            raise SerializationError(f"instance document: {error}") from None
    return instance_from_json(document)
