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


def test_tracer_covers_a_routed_compile(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    untraced = routing.full_pipeline
    tracer = Tracer()
    tracer.install()
    try:
        cfg = routing.RouterConfig(algorithm=routing.NASSC, seed=0)
        routing.full_pipeline(builtin_circuit("grover_n4"), grid_map(2, 3), cfg)
        # cz and crx blocks are always re-synthesized into cx form
        rewrites = Circuit(3, (Gate(GateKind.CZ, (0, 1)),
                               Gate(GateKind.CRX, (1, 2), (0.4,)),
                               Gate(GateKind.CZ, (0, 2))))
        routing.full_pipeline(rewrites, grid_map(2, 3), cfg)
    finally:
        tracer.uninstall()
    assert routing.full_pipeline is untraced
    summary = tracer.summary()
    assert summary["trace.coverage_min"] >= 0.95
    assert summary["dag.builds"] > 0
    assert summary["routing.route_iterations"] > 0
    # these count calls made through the module globals the tracer rebinds
    assert summary["commutation.gates_commute_calls"] > 0
    assert summary["synthesis.min_cnot_count_calls"] > 0
    # a memo miss still synthesizes through routing.kak_synthesize
    assert summary["synthesis.kak_synthesize_calls"] > 0
