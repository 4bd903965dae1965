"""`scripts/bench_record.py` alternates the parent's and the change's runs;
the perfbench runs themselves (minutes each) are replaced by a stub here."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


def load_recorder():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_alternate_and_switch_which_side_goes_first(tmp_path, monkeypatch):
    recorder = load_recorder()
    change, parent = tmp_path / "change", tmp_path / "parent"
    change.mkdir()
    parent.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7, "workloads": [{"name": "a"}, {"name": "b"}]}))
    calls = []

    def run_one(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, workload, trace))
        assert (seed, seconds) == (1, 7)
        return {"workload": workload, "seed": seed, "trace": trace,
                "environment": {"env": {"git_revision": f"rev-{checkout.name}"}},
                "result": {}}

    monkeypatch.setattr(recorder, "ROOT", change)
    monkeypatch.setattr(recorder, "run_one", run_one)
    assert recorder.main(["3", "--parent", str(parent)]) == 0
    assert calls == [
        ("parent", "a", 0), ("change", "a", 0),
        ("change", "a", 1), ("parent", "a", 1),
        ("parent", "b", 0), ("change", "b", 0),
        ("change", "b", 1), ("parent", "b", 1),
    ]
    bench = json.loads((change / "BENCH_3.json").read_text())
    assert bench["bench"] == 3
    assert [run["label"] for run in bench["runs"]] == ["parent", "change"]
    for run in bench["runs"]:
        assert run["git_revision"] == f"rev-{run['label']}"
        assert run["seconds"] == 7
        assert [(r["workload"], r["trace"]) for r in run["records"]] == [
            ("a", 0), ("a", 1), ("b", 0), ("b", 1)]


def test_a_failed_run_is_recorded_and_exits_1(tmp_path, monkeypatch):
    recorder = load_recorder()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "a"}]}))

    def run_one(checkout, workload, seed, seconds, trace):
        if trace:
            return {"workload": workload, "seed": seed, "trace": trace, "error": "exit 1"}
        return {"workload": workload, "seed": seed, "trace": trace,
                "environment": {"env": {"git_revision": None}}, "result": {}}

    monkeypatch.setattr(recorder, "ROOT", tmp_path)
    monkeypatch.setattr(recorder, "run_one", run_one)
    assert recorder.main(["4", "--parent", str(tmp_path)]) == 1
    bench = json.loads((tmp_path / "BENCH_4.json").read_text())
    assert all(run["records"][1]["error"] == "exit 1" for run in bench["runs"])
