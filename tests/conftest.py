from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
import yaml

from posflow import (
    Absorption,
    MetricGraph,
    Quadrature,
    ScatteringKernel,
    StateField,
    TransportSystem,
)


def make_loop(
    n_nodes: int = 1,
    v_lo: float = 0.5,
    v_hi: float = 1.5,
    q: float = 0.0,
    kernel: ScatteringKernel | None = None,
    length: float = 1.0,
    space_samples: int = 201,
    control: np.ndarray | None = None,
) -> TransportSystem:
    """Single vertex, single loop edge with weight 1.

    The default velocity window [0.5, 1.5] with one midpoint node puts the
    single speed exactly at v = 1.
    """
    graph = MetricGraph(
        1, [0], [0], [length], [1.0],
        control if control is not None else np.ones((1, 1)),
    )
    vgrid = Quadrature.midpoint(v_lo, v_hi, n_nodes)
    absorption = Absorption.constant(q, graph.lengths, vgrid.n)
    return TransportSystem(
        graph, vgrid, absorption, kernel or ScatteringKernel.identity(), space_samples
    )


def make_two_cycle(
    n_nodes: int = 3,
    v_lo: float = 0.8,
    v_hi: float = 1.4,
    q=0.0,
    kernel: ScatteringKernel | None = None,
    lengths=(1.0, 0.7),
    space_samples: int = 161,
) -> TransportSystem:
    """Two vertices joined by a directed 2-cycle, one outgoing edge each."""
    graph = MetricGraph(2, [0, 1], [1, 0], list(lengths), [1.0, 1.0], np.eye(2))
    vgrid = Quadrature.midpoint(v_lo, v_hi, n_nodes)
    absorption = Absorption.constant(q, graph.lengths, vgrid.n)
    return TransportSystem(
        graph, vgrid, absorption, kernel or ScatteringKernel.identity(), space_samples
    )


def random_network(
    rng: np.random.Generator,
    max_vertices: int = 4,
    max_edges: int = 6,
    max_nodes: int = 8,
    q_range=(-0.5, 0.0),
    kernel_scale: float = 0.8,
    space_samples: int = 81,
) -> TransportSystem:
    """Random small network satisfying A2 (outgoing edge per vertex) and A3
    (normalized weights), with a nonnegative constant scattering kernel."""
    n = int(rng.integers(1, max_vertices + 1))
    m = int(rng.integers(n, max_edges + 1))
    tails = np.concatenate([np.arange(n), rng.integers(0, n, m - n)])
    heads = rng.integers(0, n, m)
    lengths = rng.uniform(0.5, 1.5, m)
    weights = np.zeros(m)
    for v in range(n):
        out = np.flatnonzero(tails == v)
        raw = rng.uniform(0.2, 1.0, out.size)
        weights[out] = raw / raw.sum()
    k = int(rng.integers(2, max_nodes + 1))
    vgrid = Quadrature.midpoint(0.5, 1.5, k)
    qs = [rng.uniform(*q_range) for _ in range(m)]
    absorption = Absorption.constant(qs, lengths, k)
    c = kernel_scale / (vgrid.hi - vgrid.lo)
    kernel = ScatteringKernel.constant(c * float(rng.uniform(0.3, 1.0)), m, k)
    graph = MetricGraph(n, tails, heads, lengths, weights, np.ones((n, 1)))
    return TransportSystem(graph, vgrid, absorption, kernel, space_samples)


def random_field(rng: np.random.Generator, system: TransportSystem, n_x: int | None = None) -> StateField:
    values = [
        rng.uniform(0.0, 1.0, (system.n_nodes, n_x or system.space_samples))
        for _ in range(system.n_edges)
    ]
    if n_x is None:
        return StateField.from_samples(system, values)
    return StateField(system, np.linspace(0.0, system.graph.lengths, n_x, axis=1), values)


def ladder_yaml(path: Path, n: int, nodes: int, rng, cycle: bool = False) -> Path:
    """A Kirchhoff network with two out-edges per vertex to random heads, or
    with both out-edges to the next vertex of one long directed cycle."""
    edges = [
        {"tail": i + 1, "head": (i + 1) % n + 1 if cycle else int(h) + 1,
         "length": float(l), "weight": 0.5}
        for i in range(n)
        for h, l in zip(rng.integers(0, n, 2), rng.uniform(0.5, 1.5, 2))
    ]
    doc = {
        "graph": {"vertices": n, "edges": edges},
        "velocity": {"v_min": 0.5, "v_max": 1.5, "nodes": nodes, "rule": "midpoint"},
        "kernel": {"mode": "flux_preserving"},
        "space_samples": 9,
    }
    path.write_text(yaml.safe_dump(doc))
    return path


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
