import json

import numpy as np
import pytest

from optswap.circuit import Circuit
from optswap.gates import Gate, GateKind
from optswap.routing import RouterConfig, full_pipeline
from optswap.topology import (
    CouplingMap,
    DisconnectedGraph,
    InvalidEdgeWeight,
    InvalidSize,
    MissingEdgeData,
    NoiseProfile,
    TopologyError,
    all_pairs_distance,
    builtin_map,
    grid_map,
    linear_map,
    load_coupling_map,
    load_noise_profile,
    montreal_map,
    noise_distance,
)

from distance_reference import array_bfs_distance, array_noise_distance


def test_linear_edges():
    assert linear_map(3).edges == frozenset({(0, 1), (1, 2)})


def test_grid_2x2():
    assert len(grid_map(2, 2).edges) == 4


def test_montreal_shape():
    m = montreal_map()
    assert m.num_physical_qubits == 27
    assert len(m.edges) == 28
    degrees = [len(m.neighbors(q)) for q in range(27)]
    assert max(degrees) == 3
    assert degrees.count(3) == 8  # heavy-hex junction count
    all_pairs_distance(m)  # connected


def test_builtin_names():
    assert builtin_map("montreal_heavy_hex_27").edges == montreal_map().edges
    assert builtin_map("linear(4)").num_physical_qubits == 4
    assert builtin_map("grid(2,3)").num_physical_qubits == 6
    with pytest.raises(TopologyError):
        builtin_map("torus(3)")


def test_invalid_sizes():
    with pytest.raises(InvalidSize):
        linear_map(1)
    with pytest.raises(InvalidSize):
        grid_map(1, 1)


def test_distances_linear():
    d = all_pairs_distance(linear_map(3))
    assert d[0, 2] == 2
    d25 = all_pairs_distance(linear_map(25))
    assert d25[0, 24] == 24


def test_distances_grid_diagonal():
    d = all_pairs_distance(grid_map(2, 2))
    assert d[0, 3] == 2


def test_distance_symmetry_and_triangle():
    d = all_pairs_distance(montreal_map())
    assert np.allclose(d, d.T)
    n = d.shape[0]
    for i in range(0, n, 5):
        for j in range(0, n, 5):
            for k in range(0, n, 5):
                assert d[i, j] <= d[i, k] + d[k, j]


def test_disconnected_graph_detected():
    broken = CouplingMap.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraph):
        all_pairs_distance(broken)
    with pytest.raises(DisconnectedGraph):
        noise_distance(broken, NoiseProfile.uniform(broken))


def random_connected_map(rng, n: int) -> CouplingMap:
    """A random spanning tree plus a few random extra edges."""
    order = [int(q) for q in rng.permutation(n)]
    edges = {(order[i], order[int(rng.integers(i))]) for i in range(1, n)}
    for _ in range(int(rng.integers(n))):
        a, b = (int(q) for q in rng.choice(n, 2, replace=False))
        edges.add((a, b))
    return CouplingMap.from_edges(n, edges)


def distance_test_maps():
    rng = np.random.default_rng(7)
    return ([linear_map(2), linear_map(25), grid_map(2, 5), grid_map(8, 8), montreal_map()]
            + [random_connected_map(rng, int(rng.integers(2, 40))) for _ in range(12)])


def test_distances_equal_the_array_reference():
    rng = np.random.default_rng(8)
    for cmap in distance_test_maps():
        assert np.array_equal(all_pairs_distance(cmap), array_bfs_distance(cmap))
        edges = cmap.sorted_edges()
        profile = NoiseProfile(
            {e: float(rng.uniform(0.005, 0.04)) for e in edges},
            {e: float(rng.uniform(0.5, 3.0)) for e in edges},
            (0.5, float(rng.uniform(0.0, 0.3)), 0.5),
        )
        got = noise_distance(cmap, profile)
        assert got.shape == (cmap.num_physical_qubits,) * 2
        assert np.array_equal(got, array_noise_distance(cmap, profile))


def test_noise_distance_uniform_zero_error():
    cmap = linear_map(3)
    prof = NoiseProfile.uniform(cmap, cx_error=0.0, alphas=(0.5, 0.0, 0.5))
    d = noise_distance(cmap, prof)
    assert np.isclose(d[0, 2], 1.0)  # two edges at weight 0.5 each


def test_noise_distance_degenerate_weights_match_hops():
    cmap = grid_map(3, 3)
    prof = NoiseProfile.uniform(cmap, cx_error=0.37, alphas=(0.0, 0.0, 1.0))
    assert np.allclose(noise_distance(cmap, prof), all_pairs_distance(cmap))


def test_noise_distance_hand_computed():
    cmap = linear_map(3)
    prof = NoiseProfile(
        cx_error={(0, 1): 0.1, (1, 2): 0.3},
        swap_time={(0, 1): 1.0, (1, 2): 1.0},
        alphas=(0.5, 0.0, 0.5),
    )
    d = noise_distance(cmap, prof)
    assert np.isclose(d[0, 1], 0.55)
    assert np.isclose(d[1, 2], 0.65)
    assert np.isclose(d[0, 2], 1.20)


def test_uniform_noise_is_scaled_hops():
    """Uniform profiles scale every distance equally, so SWAP rankings under
    the noise-aware matrix match the plain matrix."""
    cmap = montreal_map()
    prof = NoiseProfile.uniform(cmap, cx_error=0.02, alphas=(0.5, 0.0, 0.5))
    dn = noise_distance(cmap, prof)
    dh = all_pairs_distance(cmap)
    factor = 0.5 * 0.02 + 0.5
    assert np.allclose(dn, factor * dh)


def test_noise_prefers_cheap_detour():
    # direct edge is terrible, the two-hop path is cheap
    cmap = CouplingMap.from_edges(3, [(0, 2), (0, 1), (1, 2)])
    prof = NoiseProfile(
        cx_error={(0, 2): 1.0, (0, 1): 0.0, (1, 2): 0.0},
        swap_time={e: 0.0 for e in cmap.edges},
        alphas=(10.0, 0.0, 0.5),
    )
    d = noise_distance(cmap, prof)
    assert np.isclose(d[0, 2], 1.0)  # via qubit 1, not the noisy edge


@pytest.mark.parametrize("cx_error, alphas", [
    (0.0, (1.0, 0.0, 0.0)),  # zero weight
    (-0.2, (1.0, 0.0, 0.1)),  # negative weight
    (float("inf"), (0.5, 0.0, 0.5)),
    (float("nan"), (0.5, 0.0, 0.5)),
])
def test_noise_distance_rejects_nonpositive_or_nonfinite_weights(cx_error, alphas):
    cmap = linear_map(5)
    prof = NoiseProfile.uniform(cmap, cx_error=cx_error, alphas=alphas)
    with pytest.raises(InvalidEdgeWeight):
        noise_distance(cmap, prof)


def test_zero_weight_noise_fails_typed_before_routing():
    # with every distance 0 the stall fallback found no closer neighbour and
    # failed with an untyped ValueError from min() (this circuit, seed 3)
    cmap = linear_map(5)
    ring = Circuit(5, tuple(Gate(GateKind.CX, (i, (i + 2) % 5)) for i in range(5)))
    prof = NoiseProfile.uniform(cmap, cx_error=0.0, alphas=(1.0, 0.0, 0.0))
    with pytest.raises(InvalidEdgeWeight):
        full_pipeline(ring, cmap, RouterConfig(seed=3, noise_profile=prof))


def test_missing_edge_data():
    cmap = linear_map(3)
    prof = NoiseProfile(cx_error={(0, 1): 0.1}, swap_time={(0, 1): 1.0})
    with pytest.raises(MissingEdgeData):
        noise_distance(cmap, prof)


def test_json_loaders(tmp_path):
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    cmap = load_coupling_map(map_file)
    assert cmap.edges == linear_map(3).edges

    prof_file = tmp_path / "noise.json"
    prof_file.write_text(
        json.dumps(
            {
                "edges": [
                    {"a": 0, "b": 1, "cx_error": 0.1, "swap_time": 1.5},
                    {"a": 2, "b": 1, "cx_error": 0.2, "swap_time": 2.5},
                ],
                "alphas": [0.5, 0.0, 0.5],
            }
        )
    )
    prof = load_noise_profile(prof_file)
    assert prof.edge_error(1, 0) == 0.1
    assert prof.edge_time(1, 2) == 2.5
    assert prof.alphas == (0.5, 0.0, 0.5)
