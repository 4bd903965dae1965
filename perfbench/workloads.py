"""Seeded inputs for the benchmark workloads.

An instance of a workload is 10 circuits x {sabre, nassc} = 20 compiles on
one device, with the instance seed as layout seed.  The generators here only
write OpenQASM text and noise tables; the program under test receives them
through its public parser and data classes, so it never sees the seed itself.

- paper_montreal: the 10 committed fixtures of ``optswap.bench.SUITE`` on
  ibmq_montreal, the paper's device and circuit set.  Post-optimization
  dominates and the fixtures repeat angles, so commutation lookups mostly hit
  the program's cache.
- wide_grid: random CX-only circuits (64 qubits, 80 CX) on grid(8,8).  Wide
  fronts and long distances make layout and routing dominate.
- small_noisy: random-angle circuits (10 qubits, 150 gates) on grid(2,5) with
  a random noise profile passed to the router.  Random angles make most
  commutation lookups miss the cache, and every output fits the statevector
  oracle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from importlib import resources

from optswap import bench, qasm
from optswap.circuit import Circuit
from optswap.topology import CouplingMap, NoiseProfile, builtin_map

CIRCUITS_PER_WORKLOAD = 10

_ONE_QUBIT = ("rz", "u3")
_TWO_QUBIT = ("cx", "cz", "crx")


def _header(num_qubits: int) -> list[str]:
    return ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{num_qubits}];"]


def _pair(rng: random.Random, num_qubits: int) -> tuple[int, int]:
    a = rng.randrange(num_qubits)
    b = rng.randrange(num_qubits - 1)
    return a, b + (b >= a)


def _angle(rng: random.Random) -> str:
    return repr(rng.uniform(0.0, 2.0 * math.pi))


def random_cx_qasm(rng: random.Random, num_qubits: int, num_cx: int) -> str:
    """CX-only circuit on uniformly random distinct qubit pairs."""
    lines = _header(num_qubits)
    for _ in range(num_cx):
        a, b = _pair(rng, num_qubits)
        lines.append(f"cx q[{a}],q[{b}];")
    return "\n".join(lines) + "\n"


def random_angle_qasm(rng: random.Random, num_qubits: int, num_gates: int) -> str:
    """Half rz/u3, half cx/cz/crx; every rotation angle is drawn fresh."""
    lines = _header(num_qubits)
    for _ in range(num_gates):
        if rng.random() < 0.5:
            kind = rng.choice(_ONE_QUBIT)
            q = rng.randrange(num_qubits)
            arity = 1 if kind == "rz" else 3
            params = ",".join(_angle(rng) for _ in range(arity))
            lines.append(f"{kind}({params}) q[{q}];")
        else:
            kind = rng.choice(_TWO_QUBIT)
            a, b = _pair(rng, num_qubits)
            params = f"({_angle(rng)})" if kind == "crx" else ""
            lines.append(f"{kind}{params} q[{a}],q[{b}];")
    return "\n".join(lines) + "\n"


def random_noise_table(
    rng: random.Random, edges: list[tuple[int, int]]
) -> dict[tuple[int, int], tuple[float, float]]:
    """Per-edge (cx_error, swap_time): evenly spaced values from 0.5% to 4%
    error and 0.5 to 2.0 time units, shuffled onto the edges.  The seed picks
    which edges are bad; the device as a whole stays equally noisy, so the
    estimated fidelity compares across seeds."""
    m = len(edges)
    errors = [0.005 + 0.035 * i / (m - 1) for i in range(m)]
    times = [0.5 + 1.5 * i / (m - 1) for i in range(m)]
    rng.shuffle(errors)
    rng.shuffle(times)
    return {e: (err, t) for e, err, t in zip(edges, errors, times)}


def workload_sources(
    name: str, seed: int
) -> tuple[str, list[tuple[str, str]], dict | None]:
    """(topology, [(circuit name, qasm text)], noise table or None) for a seed."""
    rng = random.Random(f"{name}/{seed}")
    if name == "paper_montreal":
        fixtures = resources.files("optswap.benchmarks")
        sources = [
            (c, fixtures.joinpath(f"{c}.qasm").read_text(encoding="utf-8"))
            for c in bench.SUITE
        ]
        return "montreal", sources, None
    if name == "wide_grid":
        sources = [
            (f"rcx64_{i}", random_cx_qasm(rng, 64, 80))
            for i in range(CIRCUITS_PER_WORKLOAD)
        ]
        return "grid(8,8)", sources, None
    if name == "small_noisy":
        sources = [
            (f"rang10_{i}", random_angle_qasm(rng, 10, 150))
            for i in range(CIRCUITS_PER_WORKLOAD)
        ]
        edges = builtin_map("grid(2,5)").sorted_edges()
        return "grid(2,5)", sources, random_noise_table(rng, edges)
    raise ValueError(f"unknown workload '{name}'")


@dataclass(frozen=True)
class Inputs:
    """A workload as the program sees it, plus the parse measurements."""

    cmap: CouplingMap
    circuits: list[tuple[str, Circuit]]
    router_noise: NoiseProfile | None  # passed to RouterConfig.noise_profile
    fidelity_noise: NoiseProfile  # scores est_cx_errors_nassc
    parse_s: float
    gates_parsed: int


def load_inputs(name: str, seed: int, clock) -> Inputs:
    topology, sources, noise = workload_sources(name, seed)
    cmap = builtin_map(topology)
    circuits = []
    parse_s = 0.0
    for circuit_name, text in sources:
        t0 = clock()
        circuit = qasm.parse_qasm(text)
        parse_s += clock() - t0
        circuits.append((circuit_name, circuit))
    router_noise = None
    if noise is not None:
        router_noise = NoiseProfile(
            {e: err for e, (err, _) in noise.items()},
            {e: t for e, (_, t) in noise.items()},
        )
    return Inputs(
        cmap=cmap,
        circuits=circuits,
        router_noise=router_noise,
        fidelity_noise=router_noise or NoiseProfile.uniform(cmap),
        parse_s=parse_s,
        gates_parsed=sum(len(c.gates) for _, c in circuits),
    )
