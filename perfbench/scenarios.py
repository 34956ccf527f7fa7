"""Seeded scenario generator for the network ladder.

Every rung is a Kirchhoff network: each vertex gets ``deg`` out-edges to
uniformly random heads, every edge carries weight 1/deg, the velocity rule
is a K-node midpoint rule on [0.5, 1.5], the scattering kernel is flux
preserving, absorption is zero, the initial state is constant 1 and a
constant-1 input enters at vertex 1.

Edge lengths follow U(0.5, 1.5) by stratification: the M lengths are the
midpoints of the M equal-probability strata, dealt to the edges in a seeded
random order.  The seed therefore changes the topology and which edge is
long, but never the multiset of transit delays, so the event closure (and
with it the amount of solver work) is the same for every seed.  Drawing the
lengths independently made the stamp count, and the run time, differ by
seed far more than the benchmark's bounds allow.

Only the YAML files written here reach the program.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import yaml

V_MIN, V_MAX = 0.5, 1.5

# One entry per generated scenario file.  ``snapshots`` counts evenly spaced
# snapshot times on [0, horizon], both ends included.
LADDER = {
    "sweep": dict(vertices=6, deg=2, nodes=3, horizon=2.0, space_samples=33,
                  snapshots=3, probes=12),
    "read": dict(vertices=2, deg=1, nodes=4, horizon=2.0, space_samples=401,
                 snapshots=61, probes=12),
    "adm": dict(vertices=3, deg=2, nodes=3, horizon=2.0, space_samples=33,
                snapshots=2, probes=12),
    # N*K = 512: the largest boundary space the dense spectral path accepts
    "spectral": dict(vertices=128, deg=2, nodes=4, horizon=1.0, space_samples=17,
                     snapshots=2, probes=8),
    "feedback": dict(vertices=8, deg=2, nodes=4, horizon=1.0, space_samples=33,
                     snapshots=2, probes=16),
}

# Generated per workload; the keys name the files the workload's operations use.
WORKLOAD_FILES = {
    "sim": ["sweep", "read"],
    "verify": ["adm", "spectral", "feedback"],
}


def midpoint_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node midpoint rule on [V_MIN, V_MAX]."""
    h = (V_MAX - V_MIN) / n
    return V_MIN + h * (np.arange(n) + 0.5), np.full(n, h)


def ladder_scenario(name: str, rng: np.random.Generator, seed: int) -> dict:
    """The scenario document for one ladder rung, drawn from ``rng``."""
    p = LADDER[name]
    n, deg = p["vertices"], p["deg"]
    m = n * deg
    tails = np.repeat(np.arange(n), deg)
    heads = rng.integers(0, n, m)
    lengths = 0.5 + (rng.permutation(m) + 0.5) / m
    control = [[1.0] if i == 0 else [0.0] for i in range(n)]
    edges = [
        {"tail": int(t) + 1, "head": int(h) + 1, "length": float(l), "weight": 1.0 / deg}
        for t, h, l in zip(tails, heads, lengths)
    ]
    horizon = p["horizon"]
    return {
        "schema_version": 1,
        "name": f"ladder-{name}",
        "seed": seed,
        "graph": {"vertices": n, "edges": edges, "control_matrix": control},
        "velocity": {"v_min": V_MIN, "v_max": V_MAX, "nodes": p["nodes"], "rule": "midpoint"},
        "absorption": {"constant": 0.0},
        "kernel": {"mode": "flux_preserving"},
        "initial_state": {"constant": 1.0},
        "inputs": [{"steps": {"times": [0.0], "values": [1.0]}}],
        "horizon": horizon,
        "snapshots": [float(t) for t in np.linspace(0.0, horizon, p["snapshots"])],
        "space_samples": p["space_samples"],
        "tolerances": {"positivity": 1.0e-9},
        "probes": {"count": p["probes"], "p": 2.0},
    }


def write_workload(workload: str, seed: int, outdir: Path) -> dict[str, Path]:
    """Write the workload's scenario files for ``seed``; returns name -> path."""
    rng = np.random.default_rng([seed, sorted(WORKLOAD_FILES).index(workload)])
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in WORKLOAD_FILES[workload]:
        doc = ladder_scenario(name, rng, seed)
        path = outdir / f"{name}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        paths[name] = path
    return paths
