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

Used by the command-line interface (``python -m repro``).
"""

from __future__ import annotations

import json
from typing import Any

from .instance import Instance
from .schema import DatabaseSchema, RelationSchema
from .values import Atom, CSet, CTuple, Value

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
    """Raised on malformed JSON documents."""


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
    """Parse the tagged JSON form back to a complex object."""
    return _decode(document, {})


def _decode(document: Any, atoms: dict[str | int, Atom]) -> Value:
    """:func:`value_from_json`, building one :class:`Atom` per label in
    ``atoms``: an instance document names each atom many times."""
    if not isinstance(document, dict) or len(document) != 1:
        raise SerializationError(
            f"expected a one-key tagged object, got {document!r}"
        )
    (tag, payload), = document.items()
    if tag == "a":
        if not isinstance(payload, (str, int)) or isinstance(payload, bool):
            raise SerializationError(f"bad atom label {payload!r}")
        atom = atoms.get(payload)
        if atom is None:
            atom = atoms[payload] = Atom(payload)
        return atom
    if tag == "t":
        if not isinstance(payload, list) or not payload:
            raise SerializationError(f"bad tuple payload {payload!r}")
        return CTuple(_decode(item, atoms) for item in payload)
    if tag == "s":
        if not isinstance(payload, list):
            raise SerializationError(f"bad set payload {payload!r}")
        return CSet(_decode(element, atoms) for element in payload)
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
    try:
        relations = document["relations"]
    except (TypeError, KeyError):
        raise SerializationError(
            "schema document needs a 'relations' list"
        ) from None
    built = []
    for entry in relations:
        try:
            built.append(RelationSchema(entry["name"], entry["columns"]))
        except (TypeError, KeyError) as exc:
            raise SerializationError(f"bad relation entry {entry!r}") from exc
    return DatabaseSchema(built)


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
    try:
        schema = schema_from_json(document["schema"])
        data = document.get("data", {})
    except (TypeError, KeyError):
        raise SerializationError(
            "instance document needs 'schema' and 'data'"
        ) from None
    rows: dict[str, list] = {}
    atoms: dict[str | int, Atom] = {}
    for name, encoded_rows in data.items():
        rows[name] = [
            CTuple(_decode(item, atoms) for item in encoded_row)
            for encoded_row in encoded_rows
        ]
    return Instance(schema, rows)


def dump_instance(inst: Instance, path: str, indent: int = 2) -> None:
    """Write an instance to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(instance_to_json(inst), handle, indent=indent)
        handle.write("\n")


def load_instance(path: str) -> Instance:
    """Read an instance from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        return instance_from_json(json.load(handle))
