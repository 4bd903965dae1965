import json
import math

import pytest

from optswap import bench
from optswap.bench import (
    BenchError,
    BenchSpec,
    CSV_COLUMNS,
    builtin_circuit,
    estimate_fidelity,
    load_bench_spec,
    rows_to_csv,
    run_bench,
)
from optswap.circuit import Circuit
from optswap.cli import main
from optswap.gates import Gate, GateKind
from optswap.qasm import parse_qasm_file, serialize_qasm
from optswap.routing import NASSC, SABRE, RouterConfig
from optswap.topology import MissingEdgeData, NoiseProfile, linear_map

FIG1_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
crx(pi/3) q[1],q[2];
crx(pi/5) q[0],q[1];
crx(pi/7) q[0],q[2];
"""


MID_MEASURE_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[1];
measure q[0] -> c[0];
cx q[0],q[1];
"""


def cx(a, b):
    return Gate(GateKind.CX, (a, b))


def without_wall_time(rows):
    return [{k: v for k, v in vars(r).items() if k != "wall_time_s"} for r in rows]


def test_builtin_circuits_present():
    for name in ("grover_n4", "vqe_n8", "bv_n19", "adder_n10"):
        c = builtin_circuit(name)
        assert c.num_qubits >= 4


def test_estimate_fidelity():
    cmap = linear_map(3)
    prof = NoiseProfile.uniform(cmap, cx_error=0.01)
    assert estimate_fidelity(Circuit(3, ()), prof) == 1.0
    two = Circuit(3, (cx(0, 1), cx(0, 1)))
    assert math.isclose(estimate_fidelity(two, prof), 0.9801)
    off_edge = Circuit(3, (cx(0, 2),))
    with pytest.raises(MissingEdgeData):
        estimate_fidelity(off_edge, prof)


def _tiny_spec(tmp_path, trials=2):
    qasm = tmp_path / "fig1.qasm"
    qasm.write_text(FIG1_QASM)
    return BenchSpec(
        circuits=[str(qasm)],
        topology="linear(3)",
        routers=(RouterConfig(algorithm=SABRE), RouterConfig(algorithm=NASSC)),
        trials=trials,
    )


def test_run_bench_row_structure(tmp_path):
    rows = run_bench(_tiny_spec(tmp_path))
    assert len(rows) == 3  # sabre, nassc, geomean summary
    sabre, nassc, summary = rows
    assert sabre.router == "sabre" and nassc.router == "nassc"
    assert sabre.delta_cnot_add is None
    assert nassc.delta_cnot_add is not None
    assert summary.name == "geomean"
    # summary recomputable from the row data
    ratio = nassc.cnot_add / sabre.cnot_add
    assert summary.delta_cnot_add == pytest.approx(1 - ratio)


def test_run_bench_deterministic(tmp_path):
    rows_a = run_bench(_tiny_spec(tmp_path))
    rows_b = run_bench(_tiny_spec(tmp_path))
    assert without_wall_time(rows_a) == without_wall_time(rows_b)


def test_run_bench_process_pool_matches_serial():
    spec = BenchSpec(circuits=["grover_n4", "bv_n19"], topology="montreal", trials=2)
    wall = CSV_COLUMNS.index("wall_time_s")

    def csv_without_wall_time(rows):
        return [line.split(",")[:wall] + line.split(",")[wall + 1:]
                for line in rows_to_csv(rows).splitlines()]

    assert csv_without_wall_time(run_bench(spec, jobs=2)) == csv_without_wall_time(run_bench(spec))


def test_run_bench_error_rows_keep_the_exception_type(tmp_path):
    bad = tmp_path / "mid_measure.qasm"
    bad.write_text(MID_MEASURE_QASM)

    def bench(circuits):
        return run_bench(BenchSpec(circuits=circuits, topology="linear(5)", trials=1))

    rows, good = bench(["grover_n4", str(bad)]), bench(["grover_n4"])
    assert [(r.name, r.error) for r in rows[2:4]] == [
        (str(bad), "RoutingError: mid-circuit measurement is not supported")
    ] * 2
    assert without_wall_time(rows[:2] + rows[4:]) == without_wall_time(good)


def test_csv_columns_fixed(tmp_path):
    rows = run_bench(_tiny_spec(tmp_path))
    text = rows_to_csv(rows)
    header = text.splitlines()[0].split(",")
    assert header == CSV_COLUMNS
    assert len(text.splitlines()) == len(rows) + 1


def test_bench_spec_loader(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        json.dumps(
            {
                "circuits": ["grover_n4"],
                "topology": "linear(5)",
                "trials": 3,
                "routers": [
                    {"algorithm": "sabre"},
                    {"algorithm": "nassc", "b_commute2": False, "seed": 5},
                ],
                "large_circuits": ["vqe_n8"],
            }
        )
    )
    spec = load_bench_spec(spec_file)
    assert spec.circuits == ["grover_n4"]
    assert spec.trials == 3
    assert spec.routers[1].b_commute2 is False
    with_large = load_bench_spec(spec_file, include_large=True)
    assert with_large.circuits == ["grover_n4", "vqe_n8"]


@pytest.mark.parametrize("entry", [
    {"traversals": 2.5}, {"seed": -1},
    # "false" used to run with the predictor on, tagged plain "nassc"
    {"b_2q": "false"}, {"b_commute1": 0}, {"b_commute2": None},
    {"extended_weight": "0.5"}, {"extended_weight": True},
])
def test_bench_spec_rejects_bad_router_values(tmp_path, entry):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"circuits": ["grover_n4"],
                                     "routers": [{"algorithm": "nassc", **entry}]}))
    with pytest.raises(ValueError, match=next(iter(entry))):
        load_bench_spec(spec_file)


@pytest.mark.parametrize("data, field", [
    ({"circuits": ["grover_n4"], "trials": 2.5}, "trials"),
    ({"circuits": ["grover_n4"], "trials": True}, "trials"),
    ({"circuits": ["grover_n4"], "trials": "x"}, "trials"),
    ({"circuits": "grover_n4"}, "circuits"),
    ({"trials": 2}, "circuits"),
    (["grover_n4"], "JSON object"),
    ({"circuits": ["grover_n4"], "large_circuits": [8]}, "large_circuits"),
    ({"circuits": ["grover_n4"], "topology": ["linear(5)"]}, "topology"),
    ({"circuits": ["grover_n4"], "routers": {"algorithm": "nassc"}}, "routers"),
    # an int output would be opened as a file descriptor
    ({"circuits": ["grover_n4"], "output": 1}, "output"),
    ({"circuits": ["grover_n4"], "noise_profile": ["noise.json"]}, "noise_profile"),
])
def test_bench_spec_rejects_bad_fields(tmp_path, data, field):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(data))
    with pytest.raises(BenchError, match=field):
        load_bench_spec(spec_file)


def test_router_tag_marks_disabled_flags(tmp_path):
    spec = BenchSpec(
        circuits=["grover_n4"],
        topology="linear(4)",
        routers=(
            RouterConfig(algorithm=SABRE),
            RouterConfig(algorithm=NASSC, b_2q=False),
        ),
        trials=1,
    )
    rows = run_bench(spec)
    assert rows[1].router == "nassc[011]"


# -- CLI ------------------------------------------------------------------------


def test_cli_route_and_verify(tmp_path):
    src = tmp_path / "fig1.qasm"
    src.write_text(FIG1_QASM)
    out = tmp_path / "routed.qasm"
    stats = tmp_path / "stats.json"
    code = main([
        "route", "--in", str(src), "--coupling", "linear(3)",
        "--router", "nassc", "--seed", "0",
        "--out", str(out), "--stats", str(stats),
    ])
    assert code == 0
    data = json.loads(stats.read_text())
    assert data["cnot_add"] == 1
    assert sorted(data["final_mapping"]) == [0, 1, 2]
    routed = parse_qasm_file(out)
    assert all(g.kind in (GateKind.CX, GateKind.U3) for g in routed.gates)

    assert main(["verify", "--a", str(src), "--b", str(out),
                 "--perm", str(stats)]) == 0

    # a wrong permutation must fail verification
    bad = tmp_path / "bad.json"
    perm = data["final_mapping"]
    bad.write_text(json.dumps({"final_mapping": [perm[1], perm[0], perm[2]],
                               "initial_mapping": data["initial_mapping"]}))
    assert main(["verify", "--a", str(src), "--b", str(out),
                 "--perm", str(bad)]) == 1


def test_cli_route_compliant_inserts_nothing(tmp_path):
    src = tmp_path / "bell.qasm"
    src.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n")
    out = tmp_path / "routed.qasm"
    stats = tmp_path / "stats.json"
    assert main(["route", "--in", str(src), "--coupling", "linear(2)",
                 "--router", "sabre", "--out", str(out),
                 "--stats", str(stats)]) == 0
    assert json.loads(stats.read_text())["swaps_inserted"] == 0


def test_cli_disable_opt_flags(tmp_path):
    src = tmp_path / "fig1.qasm"
    src.write_text(FIG1_QASM)
    out = tmp_path / "routed.qasm"
    assert main(["route", "--in", str(src), "--coupling", "linear(3)",
                 "--disable-opt", "2q,commute1,commute2",
                 "--out", str(out)]) == 0
    assert main(["route", "--in", str(src), "--coupling", "linear(3)",
                 "--disable-opt", "teleport", "--out", str(out)]) == 2


def test_cli_bench(tmp_path):
    qasm = tmp_path / "fig1.qasm"
    qasm.write_text(FIG1_QASM)
    csv_out = tmp_path / "bench.csv"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "circuits": [str(qasm)],
        "topology": "linear(3)",
        "trials": 2,
        "output": str(csv_out),
    }))
    assert main(["bench", "--spec", str(spec)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0].split(",") == CSV_COLUMNS
    assert len(lines) == 4


class RecordingPool:
    """A stand-in for ProcessPoolExecutor that records its size and maps in
    this process, so no worker process is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, routers, pool_sizes", [
    (10**6, (RouterConfig(algorithm=SABRE), RouterConfig(algorithm=NASSC)), [2]),
    (2, (RouterConfig(algorithm=SABRE), RouterConfig(algorithm=NASSC)), [2]),
    (10**6, (RouterConfig(algorithm=NASSC),), []),
    (1, (RouterConfig(algorithm=SABRE), RouterConfig(algorithm=NASSC)), []),
])
def test_bench_starts_no_more_workers_than_cells(tmp_path, monkeypatch, jobs, routers,
                                                 pool_sizes):
    # the fork start method launched all `jobs` workers even for two cells
    monkeypatch.setattr(bench, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    qasm = tmp_path / "fig1.qasm"
    qasm.write_text(FIG1_QASM)
    spec = BenchSpec(circuits=[str(qasm)], topology="linear(3)", routers=routers, trials=1)
    rows = run_bench(spec, jobs=jobs)
    assert RecordingPool.sizes == pool_sizes
    assert [row.router for row in rows[:len(routers)]] == [cfg.algorithm for cfg in routers]
    assert not any(row.error for row in rows)


@pytest.mark.parametrize("jobs", [0, -3, True, 2.5, "2"])
def test_bench_rejects_bad_jobs(jobs):
    # zero and negative counts ran serially without a word
    with pytest.raises(BenchError, match="jobs"):
        run_bench(BenchSpec(circuits=["grover_n4"]), jobs=jobs)


def test_cli_bench_rejects_zero_jobs(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"circuits": ["grover_n4"], "topology": "linear(4)"}))
    assert main(["bench", "--spec", str(spec), "--jobs", "0"]) == 2
    assert "error: BenchError: jobs must be an integer >= 1" in capsys.readouterr().err


def test_cli_rejects_nan_extended_weight(tmp_path, capsys):
    src = tmp_path / "in.qasm"
    src.write_text(serialize_qasm(Circuit(5, (Gate(GateKind.CX, (0, 4)),))))
    assert main(["route", "--in", str(src), "--coupling", "linear(5)",
                 "--out", str(tmp_path / "x.qasm"), "--extended-weight", "nan"]) == 2
    assert "error: ValueError: extended_weight" in capsys.readouterr().err


def test_cli_errors_are_exit_codes(tmp_path, capsys):
    missing = tmp_path / "missing.qasm"
    assert main(["route", "--in", str(missing), "--coupling", "linear(3)",
                 "--out", str(tmp_path / "x.qasm")]) == 2
    assert "error: FileNotFoundError: " in capsys.readouterr().err
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0; qreg q[2]; frobnicate q[0];")
    assert main(["route", "--in", str(bad), "--coupling", "linear(3)",
                 "--out", str(tmp_path / "x.qasm")]) == 2
    assert "error: UnsupportedGate: line 1: " in capsys.readouterr().err
    bad.write_text("OPENQASM 2.0; qreg q[2];\nrz(pi/0) q[0];")
    assert main(["route", "--in", str(bad), "--coupling", "linear(3)",
                 "--out", str(tmp_path / "x.qasm")]) == 2
    assert "error: ParseError: line 2: " in capsys.readouterr().err


_GOOD_MAP = {"n": 3, "edges": [[0, 1], [1, 2]]}
_GOOD_EDGE = {"a": 0, "b": 1, "cx_error": 0.01, "swap_time": 1.0}


@pytest.mark.parametrize("option, data, field", [
    ("--coupling", {"n": 3}, "'edges'"),
    ("--coupling", {"edges": [[0, 1]]}, "'n'"),
    ("--coupling", {"n": "3", "edges": [[0, 1]]}, "'n'"),
    ("--coupling", {"n": 3, "edges": [[0, 1], [1]]}, "'edges[1]'"),
    ("--coupling", {"n": 3, "edges": [0, 1]}, "'edges[0]'"),
    ("--coupling", {"n": 3, "edges": {"0": 1}}, "'edges'"),
    ("--coupling", [[0, 1]], "JSON object"),
    ("--noise", {"edges": [{"a": 0, "b": 1, "cx_error": 0.01}]}, "'swap_time'"),
    ("--noise", {"edges": [_GOOD_EDGE, {"b": 2, "cx_error": 0.01, "swap_time": 1}]},
     "edges[1]: missing field 'a'"),
    ("--noise", {"edges": [dict(_GOOD_EDGE, cx_error="high")]}, "'cx_error'"),
    ("--noise", {"edges": [[0, 1]]}, "edges[0]"),
    ("--noise", {"edges": [_GOOD_EDGE], "alphas": [0.5, 0.5]}, "'alphas'"),
    ("--noise", {"edges": [_GOOD_EDGE], "alphas": [0.5, True, 0.5]}, "'alphas'"),
    ("--noise", {"alphas": [0.5, 0.0, 0.5]}, "'edges'"),
])
def test_cli_rejects_malformed_device_files(tmp_path, capsys, option, data, field):
    src = tmp_path / "fig1.qasm"
    src.write_text(FIG1_QASM)
    good_map = tmp_path / "map.json"
    good_map.write_text(json.dumps(_GOOD_MAP))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    files = {"--coupling": str(good_map), "--noise": None, option: str(bad)}
    argv = ["route", "--in", str(src), "--coupling", files["--coupling"],
            "--out", str(tmp_path / "x.qasm")]
    if files["--noise"]:
        argv += ["--noise", files["--noise"]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: TopologyError: ") and field in err, err


def test_cli_routes_with_well_formed_device_files(tmp_path):
    src = tmp_path / "fig1.qasm"
    src.write_text(FIG1_QASM)
    cmap, noise = tmp_path / "map.json", tmp_path / "noise.json"
    cmap.write_text(json.dumps(_GOOD_MAP))
    noise.write_text(json.dumps({"edges": [_GOOD_EDGE, dict(_GOOD_EDGE, a=2)],
                                 "alphas": [0.5, 0, 0.5]}))
    assert main(["route", "--in", str(src), "--coupling", str(cmap), "--noise", str(noise),
                 "--out", str(tmp_path / "x.qasm")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["route", "--in", str(src), "--coupling", str(bad),
                 "--out", str(tmp_path / "x.qasm")]) == 2


def test_cli_debug_reraises_with_the_traceback(tmp_path, capsys):
    missing = str(tmp_path / "missing.qasm")
    commands = [
        ["route", "--in", missing, "--coupling", "linear(3)", "--out", str(tmp_path / "x.qasm")],
        ["verify", "--a", missing, "--b", missing, "--perm", missing],
        ["bench", "--spec", missing],
    ]
    for argv in commands:
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: FileNotFoundError: ")
        with pytest.raises(FileNotFoundError) as raised:
            main(argv + ["--debug"])
        # raised where the file was opened, not re-made by the CLI
        assert "cli.py" not in str(raised.traceback[-1].path)
        assert capsys.readouterr().err == ""
