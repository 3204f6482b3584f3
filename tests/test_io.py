"""Tests for JSON serialisation and the command-line interface."""

import copy
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.objects import (
    Atom,
    Instance,
    InstanceError,
    SchemaError,
    SerializationError,
    ValueError_,
    atom,
    cset,
    ctuple,
    database_schema,
    dump_instance,
    instance,
    instance_from_json,
    instance_to_json,
    load_instance,
    schema_from_json,
    schema_to_json,
    value_from_json,
    value_to_json,
)
from repro.obs.ledger import instance_checksum
from repro.workloads import supply_chain_instance

from .conftest import small_types, supply_chain_instances, values_of_type


class TestValueRoundtrip:
    def test_atom(self):
        assert value_from_json(value_to_json(atom("a"))) == atom("a")
        assert value_from_json(value_to_json(atom(7))) == atom(7)

    def test_nested(self):
        value = ctuple(atom("a"), cset(cset(atom("b")), cset()))
        assert value_from_json(value_to_json(value)) == value

    @given(small_types().flatmap(values_of_type))
    @settings(max_examples=60)
    def test_roundtrip_property(self, value):
        document = value_to_json(value)
        json.dumps(document)  # must be JSON-serialisable
        assert value_from_json(document) == value

    def test_set_json_is_canonical(self):
        v1 = cset(atom("a"), atom("b"))
        v2 = cset(atom("b"), atom("a"))
        assert json.dumps(value_to_json(v1)) == json.dumps(value_to_json(v2))

    @pytest.mark.parametrize("bad", [
        {"x": 1}, {"a": True}, {"t": []}, {"s": "nope"}, [], "raw",
        {"a": 1, "t": []},
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(SerializationError):
            value_from_json(bad)


class TestSchemaAndInstance:
    def test_schema_roundtrip(self):
        schema = database_schema(G=["{U}", "{U}"], R=["[U,{U}]"])
        assert schema_from_json(schema_to_json(schema)) == schema

    def test_instance_roundtrip(self, figure1_instance):
        document = instance_to_json(figure1_instance)
        json.dumps(document)
        assert instance_from_json(document) == figure1_instance

    def test_file_roundtrip(self, tmp_path, figure1_instance):
        path = tmp_path / "inst.json"
        dump_instance(figure1_instance, str(path))
        assert load_instance(str(path)) == figure1_instance

    def test_missing_schema_rejected(self):
        with pytest.raises(SerializationError):
            instance_from_json({"data": {}})

    def test_decoding_builds_one_atom_per_label(self):
        """An instance document names each atom many times; decoding
        builds one object per label, shared by every row and set."""
        schema = database_schema(R=["U", "{U}"], S=["U"])
        a, b = atom("a"), atom("b")
        document = instance_to_json(instance(
            schema, R=[(a, cset(a, b)), (b, cset(a))], S=[(a,)]))
        occurrences = _atom_occurrences(instance_from_json(document))
        assert len(occurrences) == 6
        assert len({id(value) for value in occurrences}) == 2

    @pytest.mark.parametrize("scale", [1, 8])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_loads_the_generated_supply_chain(self, tmp_path, scale, seed):
        """The loader against the generator, not against itself: the
        benchmark's own answer checks read through this loader."""
        generated = supply_chain_instance(scale, seed)
        path = tmp_path / "supply-chain.json"
        dump_instance(generated, str(path))
        loaded = load_instance(str(path))
        assert loaded == generated
        assert instance_checksum(loaded) == instance_checksum(generated)
        occurrences = _atom_occurrences(loaded)
        assert len({id(value) for value in occurrences}) == len(
            {value.label for value in occurrences})

    def test_loading_neither_decodes_untyped_nor_rechecks_rows(
            self, monkeypatch, figure1_instance):
        def forbidden(*args):
            raise AssertionError("the old instance path was taken")

        # ``repro.objects.instance`` names the shorthand function, so
        # the module is looked up by its import name.
        monkeypatch.setattr(sys.modules["repro.objects.io"],
                            "value_from_json", forbidden)
        monkeypatch.setattr(sys.modules["repro.objects.instance"],
                            "_coerce_row", forbidden)
        document = instance_to_json(figure1_instance)
        assert instance_from_json(document) == figure1_instance


_R_U = {"relations": [{"name": "R", "columns": ["U"]}]}


def _atom_occurrences(inst):
    return [value for rel in inst.relations() for row in rel
            for value in row.subobjects() if isinstance(value, Atom)]


class TestInstanceDecoding:
    """What the type-directed loader accepts, builds and rejects."""

    def test_int_and_str_labels_are_different_atoms(self):
        inst = instance_from_json(
            {"schema": _R_U, "data": {"R": [[{"a": 1}], [{"a": "1"}]]}})
        assert {row.items[0] for row in inst["R"]} == {atom(1), atom("1")}

    @pytest.mark.parametrize("label", [True, 1.0])
    def test_label_equal_to_a_seen_int_is_still_rejected(self, label):
        """``True == 1`` and ``1.0 == 1``: the label's type is checked
        before the atom table is asked."""
        document = {"schema": _R_U,
                    "data": {"R": [[{"a": 1}], [{"a": label}]]}}
        with pytest.raises(SerializationError, match=r"^data\.R\[1\]\[0\]: "):
            instance_from_json(document)

    def test_duplicate_rows_and_elements_merge(self):
        schema = {"relations": [{"name": "R", "columns": ["{U}"]}]}
        row = [{"s": [{"a": "a"}, {"a": "a"}]}]
        inst = instance_from_json({"schema": schema,
                                   "data": {"R": [row, row]}})
        assert [row.items[0] for row in inst["R"]] == [cset(atom("a"))]

    @pytest.mark.parametrize("text", ["{U}", "{{U}}", "{[U,{U}]}"])
    def test_empty_set_conforms_to_every_set_type(self, text):
        schema = {"relations": [{"name": "R", "columns": [text]}]}
        inst = instance_from_json({"schema": schema,
                                   "data": {"R": [[{"s": []}]]}})
        assert [row.items[0] for row in inst["R"]] == [cset()]

    def test_missing_relation_and_absent_data_are_empty(self):
        schema = {"relations": [{"name": "R", "columns": ["U"]},
                                {"name": "S", "columns": ["U"]}]}
        partial = instance_from_json(
            {"schema": schema, "data": {"R": [[{"a": "a"}]]}})
        assert partial["R"].cardinality == 1
        assert partial["S"].cardinality == 0
        assert instance_from_json({"schema": schema}).cardinality == 0

    def test_relation_not_in_schema_is_rejected(self):
        with pytest.raises(SerializationError, match=r"^data\.S: "):
            instance_from_json({"schema": _R_U, "data": {"S": []}})

    @pytest.mark.parametrize("document,path", [
        ({"schema": {"relations": [{"name": "R", "columns": ["[U,{U}]"]}]},
          "data": {"R": [[{"t": [{"a": "a"}, {"s": [{"t": []}]}]}]]}},
         "data.R[0][0].t[1].s[0]"),
        ({"schema": {"relations": [{"name": "R", "columns": ["[U,U]"]}]},
          "data": {"R": [[{"t": [{"a": "a"}]}]]}},
         "data.R[0][0]"),
        ({"schema": {"relations": [{"name": "R", "columns": []}]}},
         "schema.relations[0]"),
        ({"schema": {"relations": [{"name": "", "columns": ["U"]}]}},
         "schema.relations[0]"),
        ({"schema": {"relations": [_R_U["relations"][0],
                                   _R_U["relations"][0]]}},
         "schema.relations"),
        ({"schema": {"relations": [["R", ["U"]]]}}, "schema.relations[0]"),
        ({"schema": {"relations": [{"name": "R", "columns": [3]}]}},
         "schema.relations[0].columns[0]"),
        ({"schema": []}, "schema"),
        ({"data": {}}, "instance document"),
        ({"schema": {"relations": [
            {"name": "R", "columns": ["{" * 600 + "U" + "}" * 600]}]},
          "data": {"R": [[{"s": []}]]}},
         "data.R"),
    ])
    def test_errors_name_the_json_path(self, document, path):
        with pytest.raises(SerializationError) as excinfo:
            instance_from_json(document)
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_public_constructors_keep_validating(self):
        schema = database_schema(R=["{U}"])
        with pytest.raises(InstanceError):
            Instance(schema, {"R": [(atom("a"),)]})


# ---------------------------------------------------------------------------
# The loader fuzz: mutated documents against a validating oracle
# ---------------------------------------------------------------------------

#: Replacement nodes: well-formed nodes of each kind, malformed ones, and
#: JSON scalars and containers that are no node at all.
_JUNK = [None, True, 0, 1, 1.5, "1", [], {}, [[]],
         {"a": "a"}, {"a": 1}, {"a": True}, {"a": 1.0}, {"a": None},
         {"a": ["a"]}, {"s": []}, {"s": [{"a": "a"}]}, {"s": {}},
         {"t": []}, {"t": [{"a": "a"}]}, {"t": [{"a": "a"}, {"s": []}]},
         {"a": "a", "s": []}, {"x": 1}]
_LABELS = ["a", "b", 1, "1", 0, True, False, 1.0, 2.5, None, [], ["a"], {}]
_TAGS = ["a", "t", "s", "x"]
_OPERATIONS = ["replace", "drop", "retag", "relabel", "resize", "unknown"]
_ORACLE_REJECTS = (SerializationError, InstanceError, SchemaError,
                   ValueError_)


def _slots(node, found):
    """Every (container, key) below ``node``, parents before children."""
    if isinstance(node, (list, dict)):
        keys = range(len(node)) if isinstance(node, list) else list(node)
        for key in keys:
            found.append((node, key))
            _slots(node[key], found)
    return found


@st.composite
def _documents(draw):
    """An instance document: a miniature supply chain, or one relation
    whose columns are drawn from the small types."""
    if draw(st.booleans()):
        return instance_to_json(draw(supply_chain_instances(max_parts=3)))
    types = draw(st.lists(small_types(), min_size=1, max_size=2))
    rows = draw(st.lists(st.tuples(*map(values_of_type, types)),
                         max_size=3))
    schema = database_schema(R=types)
    return instance_to_json(instance(schema, R=rows))


def _mutate(draw, document):
    """Apply one random edit to the ``data`` part of ``document``."""
    data = document["data"]
    operation = draw(st.sampled_from(_OPERATIONS))
    if operation == "unknown":
        data["Q"] = []
        return
    slots = _slots(data, [])
    if operation == "retag":
        slots = [(c, k) for c, k in slots
                 if isinstance(c[k], dict) and len(c[k]) == 1]
    elif operation == "relabel":
        slots = [(c, k) for c, k in slots
                 if isinstance(c, dict) and k == "a"]
    elif operation == "resize":
        slots = [(c, k) for c, k in slots if isinstance(c[k], list)]
    if not slots:
        return
    container, key = draw(st.sampled_from(slots))
    if operation == "replace":
        container[key] = copy.deepcopy(draw(st.sampled_from(_JUNK)))
    elif operation == "drop":
        del container[key]
    elif operation == "retag":
        (payload,) = container[key].values()
        container[key] = {draw(st.sampled_from(_TAGS)): payload}
    elif operation == "relabel":
        container[key] = copy.deepcopy(draw(st.sampled_from(_LABELS)))
    elif container[key] and draw(st.booleans()):
        container[key].pop()
    else:
        grown = draw(st.sampled_from(container[key] + _JUNK))
        container[key].append(copy.deepcopy(grown))


def _oracle(document):
    """The validating path: decode each cell untyped, then let
    ``Instance`` typecheck every row."""
    schema = schema_from_json(document["schema"])
    return Instance(schema, {
        name: [[value_from_json(cell) for cell in row] for row in rows]
        for name, rows in document["data"].items()
    })


class TestLoaderFuzz:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_documents_load_as_the_oracle_or_fail_located(
            self, data):
        document = copy.deepcopy(data.draw(_documents()))
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(data.draw, document)
        rows_are_lists = all(
            isinstance(rows, list) and all(isinstance(row, list)
                                           for row in rows)
            for rows in document["data"].values())
        expected = None
        if rows_are_lists:
            try:
                expected = _oracle(document)
            except _ORACLE_REJECTS:
                pass
        if expected is None:
            with pytest.raises(SerializationError, match=r"^data\."):
                instance_from_json(document)
        else:
            assert instance_from_json(document) == expected


class TestCLI:
    @pytest.fixture
    def instance_file(self, tmp_path):
        schema = database_schema(G=["{U}", "{U}"])
        a, b, c = cset(atom("a")), cset(atom("b")), cset(atom("c"))
        sample = instance(schema, G=[(a, b), (b, c)])
        path = tmp_path / "graph.json"
        dump_instance(sample, str(path))
        return str(path)

    def test_encode(self, instance_file, capsys):
        assert main(["encode", instance_file]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "G[{00}#{01}][{01}#{10}]"

    def test_query_rr(self, instance_file, capsys):
        code = main([
            "query", instance_file,
            "{[x:{U}, y:{U}] | ifp[S(x:{U}, y:{U})]"
            "(G(x,y) or exists z:{U} (S(x,z) and G(z,y)))(x, y)}",
            "--mode", "rr",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # the three closure pairs

    def test_query_active(self, instance_file, capsys):
        code = main(["query", instance_file,
                     "{[x:{U}] | exists y:{U} (G(x, y))}",
                     "--mode", "active"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_query_rr_rejects_unsafe(self, instance_file, capsys):
        # Not-RR is a *finding* (exit 1), not a usage error (exit 2).
        code = main(["query", instance_file,
                     "{[x:{U}] | not G(x, x)}", "--mode", "rr"])
        assert code == 1

    def test_analyze(self, instance_file, capsys):
        code = main(["analyze", instance_file,
                     "{[x:{U}] | exists y:{U} (G(x, y))}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "range-restricted: True" in out

    def test_analyze_non_rr(self, instance_file, capsys):
        code = main(["analyze", instance_file,
                     "{[x:{U}] | not G(x, x)}"])
        assert code == 1
        assert "violation" in capsys.readouterr().out

    def test_density(self, instance_file, capsys):
        code = main(["density", instance_file, "--i", "1", "--k", "2",
                     "--degree", "1", "--coefficient", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sparse" in out

    def test_example_emits_loadable_instance(self, capsys, tmp_path):
        assert main(["example"]) == 0
        document = json.loads(capsys.readouterr().out)
        inst = instance_from_json(document)
        assert inst.relation("G").cardinality == 2
