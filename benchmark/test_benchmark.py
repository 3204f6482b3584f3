"""Tests of the benchmark itself (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmark -q
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import pytest

import compare
import run as bench


@pytest.fixture(scope="module")
def spec():
    return bench.benchmark_spec()


def test_percentile_known_samples():
    samples = [float(x) for x in range(10, 0, -1)]
    assert bench.percentile(samples, 0) == 1.0
    assert bench.percentile(samples, 50) == 5.5
    assert bench.percentile(samples, 90) == pytest.approx(9.1)
    assert bench.percentile(samples, 100) == 10.0
    assert bench.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        bench.percentile([], 50)


def test_speedometer_scales_by_the_loop_times_around_the_work(monkeypatch):
    ref = bench.REFERENCE_S
    ticks = iter([0.0, 2 * ref, 10.0, 10.0 + 4 * ref])
    monkeypatch.setattr(bench.time, "perf_counter", lambda: next(ticks))
    speed = bench.Speedometer()
    assert speed.lap() == pytest.approx(1 / 3)
    assert speed.slowdown() == pytest.approx(3)


def test_workloads_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_smoke_prints_every_metric_with_unit(name, spec):
    result = bench.run_workload(name, seed=0, seconds=1, trace=True, scale=1)
    assert result["oracle"] == "expected.json"
    assert result["failed"] == 0 and result["rounds"] >= 2
    out = io.StringIO()
    with redirect_stdout(out):
        bench.report(result, spec)
    lines = out.getvalue().splitlines()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[2] == metric["unit"] for line in lines), \
            metric["name"]


def test_tampered_checksum_counts_as_failed():
    questions = bench.mix_questions("calc")
    expected = {q.name: 0 for q in questions[:1]}
    expected.update(bench.load_expected(
        1, 0, _instance_checksum(1, 0), questions[1:]))
    result = bench.run_workload("calc-rr", seed=0, seconds=1, trace=True,
                                expected=expected)
    rounds = result["rounds"] + bench.TRACED_ROUNDS + 1
    assert result["failed"] == rounds
    assert result["attempted"] == rounds * len(questions)


def test_other_seed_uses_oracle_and_another_instance():
    result = bench.run_workload("calc-rr", seed=1, seconds=1, trace=False)
    assert result["oracle"] == "naive"
    assert result["failed"] == 0
    assert result["instance_checksum"] != _instance_checksum(1, 0)


def test_counter_round_repeats_exactly():
    from repro.workloads.supply_chain import supply_chain_instance

    inst = supply_chain_instance(1, 0)
    for mix in ("GREEN", "YELLOW", "calc"):
        questions = bench.mix_questions(mix)
        expected = bench.load_expected(1, 0, _instance_checksum(1, 0),
                                       questions)
        tally = bench.Tally()
        first = bench.counter_round(questions, inst, expected, tally)
        assert first == bench.counter_round(questions, inst, expected, tally)
        assert tally.failed == 0
        assert tally.attempted == 2 * len(questions)


def test_exceptions_count_as_failed_in_every_round(monkeypatch, tmp_path):
    """A question that raises is a failed answer in the timed window, the
    traced rounds and the counter round alike; the run goes on."""
    import repro.workloads.supply_chain as supply_chain
    from repro.objects.io import dump_instance

    inst = supply_chain.supply_chain_instance(1, 0)
    path = str(tmp_path / "instance.json")
    dump_instance(inst, path)
    questions = bench.mix_questions("GREEN")[:3]
    expected = bench.load_expected(1, 0, _instance_checksum(1, 0), questions)
    broken = questions[1].name
    answer_question = supply_chain.answer_question

    def flaky(question, *args, **kwargs):
        if question.name == broken:
            raise RuntimeError("boom")
        return answer_question(question, *args, **kwargs)

    def flaky_layers(question, *args):
        if question.name == broken:
            raise RuntimeError("boom")
        return layered_answer(question, *args)

    layered_answer = bench.layered_answer
    monkeypatch.setattr(supply_chain, "answer_question", flaky)
    monkeypatch.setattr(bench, "layered_answer", flaky_layers)

    tally = bench.Tally()
    window = bench.timed_window(questions, inst, path, False, expected, 0,
                                tally)
    assert tally.failed == len(window["rounds"]) == 2
    assert window["latencies"][broken] == []

    for cold in (False, True):
        tally = bench.Tally()
        log = bench.traced_round(questions, path, cold, expected, tally,
                                 bench.Speedometer())
        assert (tally.attempted, tally.failed) == (3, 1)
        layers = bench.layer_metrics(log, 1.0)
        assert sum(v for k, v in layers.items() if k.endswith(".ms")) == \
            pytest.approx(bench.traced_round_ms(log))

    tally = bench.Tally()
    bench.counter_round(questions, inst, expected, tally)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.errors == [f"{broken}: RuntimeError('boom')"]


def test_command_line_prints_the_result_line(spec, capsys):
    assert bench.main(["--workload", "calc-rr", "--seed", "0",
                       "--seconds", "1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_expected_covers_workloads_and_matches_goldens():
    from repro.workloads.supply_chain import load_golden

    with open(bench.EXPECTED_JSON, encoding="utf-8") as handle:
        expected = json.load(handle)
    golden = load_golden()
    assert expected["seed"] == golden["seed"]
    ones = expected["scales"]["1"]
    assert ones["instance_checksum"] == golden["scales"]["1"]["instance_checksum"]
    assert {name: answer["checksum"]
            for name, answer in ones["questions"].items()} == {
        name: answer["checksum"]
        for name, answer in golden["scales"]["1"]["questions"].items()}
    for workload in bench.WORKLOADS.values():
        entry = expected["scales"][str(workload.scale)]["questions"]
        assert {q.name for q in bench.mix_questions(workload.mix)} <= set(entry)


def test_compare_verdicts(spec):
    def doc(qps, probes):
        result = {
            "end_to_end": {m["name"]: 1.0 for m in spec["end_to_end"]},
            "per_layer": {m["name"]: 1 for m in spec["per_layer"]}}
        result["end_to_end"]["qps"] = qps
        result["per_layer"]["index.probes"] = probes
        return {"workloads": {"calc-rr": result}}

    def verdicts(base, new):
        lines, failed = compare.compare(base, new, spec)
        return {line.split()[1]: line.split()[-1] for line in lines[1:]}, failed

    rows, failed = verdicts([doc(10.0, 5)], [doc(11.0, 5)])
    assert not failed and rows["qps"] == "ok" and rows["index.probes"] == "same"
    rows, failed = verdicts([doc(10.0, 5)], [doc(7.0, 5)])
    assert failed and rows["qps"] == "worse"
    rows, failed = verdicts([doc(10.0, 5)], [doc(13.0, 5)])
    assert not failed and rows["qps"] == "better"
    rows, failed = verdicts([doc(10.0, 5)], [doc(10.0, 6)])
    assert failed and rows["index.probes"] == "differs"
    rows, _ = verdicts([doc(10.0, 5), doc(16.0, 5)], [doc(10.0, 5)])
    assert rows["qps"] == "unresolved"


def test_compare_refuses_another_window(spec, tmp_path):
    paths = []
    for seconds in (spec["run_seconds"], 1):
        path = tmp_path / f"run-{seconds}.json"
        path.write_text(json.dumps({"seconds": seconds, "workloads": {}}))
        paths.append(str(path))
    assert compare.main(["--base", paths[0], "--new", paths[0]]) == 0
    assert compare.main(["--base", paths[0], "--new", paths[1]]) == 2


def _instance_checksum(scale: int, seed: int) -> int:
    from repro.obs import instance_checksum
    from repro.workloads.supply_chain import supply_chain_instance

    return instance_checksum(supply_chain_instance(scale, seed))
