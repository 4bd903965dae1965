"""The benchmark's tracer (perfbench/tracer.py) rebinds public functions of
the routing, synthesis and commutation modules by name and wraps
``CircuitDag.__init__``; a traced compile must keep working as those modules
change."""

from pathlib import Path

from optswap import routing
from optswap.bench import builtin_circuit
from optswap.circuit import Circuit
from optswap.gates import Gate, GateKind
from optswap.topology import grid_map

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def traced_summary(monkeypatch, *circuits):
    """The tracer's summary over NASSC compiles of `circuits` on grid(2, 3)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    untraced = routing.full_pipeline
    tracer = Tracer()
    tracer.install()
    try:
        cfg = routing.RouterConfig(algorithm=routing.NASSC, seed=0)
        for circuit in circuits:
            routing.full_pipeline(circuit, grid_map(2, 3), cfg)
    finally:
        tracer.uninstall()
    assert routing.full_pipeline is untraced
    return tracer.summary()


def test_tracer_covers_a_routed_compile(monkeypatch):
    # cz and crx blocks are always re-synthesized into cx form
    rewrites = Circuit(3, (Gate(GateKind.CZ, (0, 1)),
                           Gate(GateKind.CRX, (1, 2), (0.4,)),
                           Gate(GateKind.CZ, (0, 2))))
    summary = traced_summary(monkeypatch, builtin_circuit("grover_n4"), rewrites)
    assert summary["trace.coverage_min"] >= 0.95
    assert summary["dag.builds"] > 0
    assert summary["routing.route_iterations"] > 0
    # resynthesize_blocks spans under the post-routing optimize_circuit
    assert summary["routing.postopt_rounds"] > 0
    # these count calls made through the module globals the tracer rebinds
    assert summary["commutation.gates_commute_calls"] > 0
    assert summary["synthesis.min_cnot_count_calls"] > 0
    # a memo miss still synthesizes through routing.kak_synthesize
    assert summary["synthesis.kak_synthesize_calls"] > 0


def test_tracer_counts_cancelled_gates(monkeypatch):
    # the two cx(0, 1) commute past cx(0, 2) and cancel; the count is read
    # off the DAGs commutative_cancellation takes and returns
    cancels = Circuit(3, (Gate(GateKind.CX, (0, 1)), Gate(GateKind.CX, (0, 2)),
                          Gate(GateKind.CX, (0, 1))))
    summary = traced_summary(monkeypatch, cancels)
    assert summary["commutation.cancelled_gates"] == 2
    assert summary["routing.postopt_rounds"] > 0
