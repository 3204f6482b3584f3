"""Tests for JSON serialisation and the command-line interface."""

import json

import pytest
from hypothesis import given, settings

from repro.cli import main
from repro.objects import (
    SerializationError,
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

from .conftest import small_types, values_of_type


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
        decoded = instance_from_json(document)
        occurrences = [value for rel in decoded.relations()
                       for row in rel for value in row.subobjects()
                       if value.atoms() == frozenset({value})]
        assert len(occurrences) == 6
        assert len({id(value) for value in occurrences}) == 2


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
