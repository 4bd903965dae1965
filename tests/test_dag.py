from optswap.circuit import Circuit, metrics
from optswap.dag import build_dag
from optswap.gates import Gate, GateKind


def cx(a, b):
    return Gate(GateKind.CX, (a, b))


def crx(t, a, b):
    return Gate(GateKind.CRX, (a, b), (t,))


def test_shared_qubit_dependency():
    dag = build_dag(Circuit(3, (cx(0, 1), cx(1, 2))))
    n0, n1 = dag.order
    assert dag.successors(n0) == [n1]
    assert dag.predecessors(n1) == [n0]


def test_disjoint_gates_have_no_edge():
    dag = build_dag(Circuit(2, (Gate(GateKind.X, (0,)), Gate(GateKind.X, (1,)))))
    n0, n1 = dag.order
    assert dag.successors(n0) == []
    assert dag.predecessors(n1) == []


def test_nodes_are_the_gates_in_source_order():
    c = Circuit(3, (cx(0, 1), cx(1, 2)))
    dag = build_dag(c)
    assert dag.order == range(len(c.gates))
    assert [dag.gates[nid] for nid in dag.order] == list(c.gates)
    first, last = dag.order
    assert dag.predecessors(first) == [] and dag.successors(last) == []


def test_front_layer_of_layered_example():
    # resolved prefix: CX(2,1), CRX(0,1), CX(2,3); the next ready gate is the
    # long-range CX(0,2), and the two gates after it wait on its output
    circ = Circuit(
        4,
        (
            cx(2, 1),
            crx(0.4, 0, 1),
            cx(2, 3),
            cx(0, 2),
            crx(0.4, 1, 2),
            cx(0, 1),
        ),
    )
    dag = build_dag(circ)
    resolved = set(dag.order[:3])
    front = [
        nid
        for nid in dag.order
        if nid not in resolved
        and all(p in resolved for p in dag.predecessors(nid))
    ]
    assert front == [dag.order[3]]
    assert dag.gates[dag.order[3]] == cx(0, 2)


def test_linearization_preserves_metrics():
    circ = Circuit(
        3,
        (
            Gate(GateKind.H, (0,)),
            cx(0, 1),
            Gate(GateKind.RZ, (1,), (0.3,)),
            cx(1, 2),
            cx(0, 1),
        ),
    )
    dag = build_dag(circ)
    assert dag.circuit is circ and dag.gates == circ.gates
    rebuilt = dag.with_gates(reversed(circ.gates))
    assert rebuilt.circuit == circ.with_gates(reversed(circ.gates))
    assert metrics(rebuilt.circuit) == metrics(circ)


def test_wire_navigation():
    circ = Circuit(2, (cx(0, 1), Gate(GateKind.H, (1,)), cx(0, 1)))
    dag = build_dag(circ)
    g0, g1, g2 = dag.order
    assert dag.wires == [[g0, g2], [g0, g1, g2]]
    assert dag.predecessors(g2) == [g0, g1]
    assert dag.successors(g0) == [g1, g2]
