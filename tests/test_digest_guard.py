"""`scripts/digest_guard.py --against REV` and `--against-tree DIR` compare
instance lines; the guard runs themselves (minutes per checkout) are
replaced by fixed lines here."""

import importlib.util
import json
from pathlib import Path

import pytest

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


def test_against_tree_compares_with_the_checkout_in_a_directory(monkeypatch, capsys, tmp_path):
    guard = load_guard()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "worker.py").write_text("")
    runs = {tmp_path.resolve(): ["a", "b", "c"], guard.ROOT: ["a", "b", "x"]}
    monkeypatch.setattr(guard, "guard_lines", lambda root: iter(lines(runs[root])))

    def no_worktree(rev):
        raise AssertionError("--against-tree made a worktree")

    monkeypatch.setattr(guard, "guard_lines_at", no_worktree)
    assert guard.main(["--against-tree", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    (row,) = [json.loads(line) for line in out.splitlines()]
    assert (row["instance"], row[str(tmp_path)]["digest"], row["here"]["digest"]) == (2, "c", "x")
    assert "2 of 3 instances equal" in err
    runs[guard.ROOT] = ["a", "b", "c"]
    assert guard.main(["--against-tree", str(tmp_path)]) == 0
    assert "3 of 3 instances equal" in capsys.readouterr().err


def test_against_tree_refuses_a_directory_without_a_checkout(tmp_path, capsys):
    guard = load_guard()
    with pytest.raises(SystemExit):
        guard.main(["--against-tree", str(tmp_path)])
    assert "perfbench/worker.py" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        guard.main(["--against", "REV", "--against-tree", str(tmp_path)])
