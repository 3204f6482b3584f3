"""Complex object substrate: types, values, domains, orderings, encodings.

This package implements Section 2 of Grumbach & Vianu: the recursive type
system (atomic ``U``, sets, tuples), immutable hashable nested values,
finite domains ``dom(T, D)`` with exact cardinality arithmetic, database
schemas and instances, the induced order ``<_T`` of Definition 4.2, and
the standard Turing-machine tape encoding of Figure 2.
"""

from .types import (
    AtomType,
    SetType,
    TupleType,
    Type,
    TypeError_,
    U,
    as_type,
    format_type_tree,
    parse_type,
    set_of,
    tuple_of,
)
from .values import (
    Atom,
    CSet,
    CTuple,
    Value,
    ValueError_,
    atom,
    cset,
    ctuple,
    make_value,
    value_sort_key,
)
from .domains import (
    DomainTooLarge,
    all_ik_types,
    dom_ik_cardinality,
    domain_cardinality,
    enumerate_domain,
    hyper,
    hyper_log2,
    materialize_domain,
)
from .schema import (
    DatabaseSchema,
    RelationSchema,
    SchemaError,
    database_schema,
    relation,
)
from .instance import Instance, InstanceError, Relation, instance
from .ordering import (
    AtomOrder,
    OrderError,
    all_atom_orders,
    compare,
    less_than,
    maximum,
    minimum,
    ordered_domain,
    rank,
    sort_key,
    sorted_values,
    successor,
    tuple_rank,
    tuple_unrank,
    unrank,
)
from .io import (
    SerializationError,
    dump_instance,
    instance_from_json,
    instance_to_json,
    load_instance,
    schema_from_json,
    schema_to_json,
    value_from_json,
    value_to_json,
)
from .intern import (
    InternError,
    InternedInstance,
    ValueStore,
    intern_instance,
    type_depth,
)
from .encoding import (
    EncodingError,
    atom_bits,
    decode_instance,
    decode_value,
    domain_encoding_size,
    encode_atom,
    encode_instance,
    encode_relation,
    encode_value,
    instance_size,
    value_size,
)

__all__ = [
    # types
    "AtomType", "SetType", "TupleType", "Type", "TypeError_", "U",
    "as_type", "format_type_tree", "parse_type", "set_of", "tuple_of",
    # values
    "Atom", "CSet", "CTuple", "Value", "ValueError_",
    "atom", "cset", "ctuple", "make_value", "value_sort_key",
    # domains
    "DomainTooLarge", "all_ik_types", "dom_ik_cardinality",
    "domain_cardinality", "enumerate_domain", "hyper", "hyper_log2",
    "materialize_domain",
    # schema / instance
    "DatabaseSchema", "RelationSchema", "SchemaError",
    "database_schema", "relation",
    "Instance", "InstanceError", "Relation", "instance",
    # ordering
    "AtomOrder", "OrderError", "all_atom_orders", "compare", "less_than",
    "maximum", "minimum", "ordered_domain", "rank", "sort_key",
    "sorted_values", "successor", "tuple_rank", "tuple_unrank", "unrank",
    # io
    "SerializationError", "dump_instance", "instance_from_json",
    "instance_to_json", "load_instance", "schema_from_json",
    "schema_to_json", "value_from_json", "value_to_json",
    # intern
    "InternError", "InternedInstance", "ValueStore", "intern_instance",
    "type_depth",
    # encoding
    "EncodingError", "atom_bits", "decode_instance", "decode_value",
    "domain_encoding_size", "encode_atom", "encode_instance",
    "encode_relation", "encode_value", "instance_size", "value_size",
]
