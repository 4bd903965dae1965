"""`scripts/digest_guard.py --against REV` compares instance lines; the guard
runs themselves (minutes per checkout) are replaced by fixed lines here."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "digest_guard.py"


def load_guard():
    spec = importlib.util.spec_from_file_location("digest_guard", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lines(digests):
    return [{"workload": "wide_grid", "instance": i, "digest": d, "errors": {},
             "check_failures": {}} for i, d in enumerate(digests)]


def test_against_reports_the_instances_that_differ(monkeypatch, capsys):
    guard = load_guard()
    monkeypatch.setattr(guard, "guard_lines_at", lambda rev: lines(["a", "b", "c"]))
    monkeypatch.setattr(guard, "guard_lines", lambda root: iter(lines(["a", "x", "c"])))
    assert guard.main(["--against", "REV"]) == 1
    out, err = capsys.readouterr()
    (row,) = [json.loads(line) for line in out.splitlines()]
    assert (row["instance"], row["REV"]["digest"], row["here"]["digest"]) == (1, "b", "x")
    assert "2 of 3 instances equal" in err


def test_against_passes_when_every_line_is_equal(monkeypatch, capsys):
    guard = load_guard()
    monkeypatch.setattr(guard, "guard_lines_at", lambda rev: lines(["a", "b"]))
    monkeypatch.setattr(guard, "guard_lines", lambda root: iter(lines(["a", "b"])))
    assert guard.main(["--against", "REV"]) == 0
    out, err = capsys.readouterr()
    assert out == "" and "2 of 2 instances equal" in err
