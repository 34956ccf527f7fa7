"""Spans and counters recorded around the program's entry points.

The tracer wraps module and class attributes of ``posflow`` from outside the
program: each span-kind target records (name, start, end, parent) and each
counter-kind target only counts calls.  Spans stay in memory; a pass's
per-layer numbers are derived from them when the pass ends.  A layer's self
time is its span's duration minus the durations of its direct child spans,
so the self times of all spans in a pass, plus the self time of the pass's
root span (reported as ``other_s``), add up to the pass's wall time.

Names imported with ``from .x import y`` are separate bindings, so every
module that imports an entry point has its own target below.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import posflow.cli
import posflow.lattice
import posflow.poslti
import posflow.scenario
import posflow.solver
import posflow.transport
import posflow.wellposed

ROOT = "other_s"


def _solve_result(counts, bound, result):
    counts["solver.stamps"] += result.stamp_count
    counts["solver.ledger_bytes"] += result.ledger.values.nbytes
    counts["solver.solves"] += 1
    counts["solver.complete_solves"] += int(result.events_complete)


def _eig_call(counts, bound, result):
    counts["lattice.eig_calls"] += 1
    dim = len(bound.arguments["matrix"])
    counts["lattice.eig_dim"] = max(counts["lattice.eig_dim"], dim)


def _power_result(counts, bound, result):
    counts["lattice.power_iterations"] += result.iterations


def _transfer_call(counts, bound, result):
    counts["transport.transfer_operator_calls"] += 1


def _rk4_call(counts, bound, result):
    steps = len(bound.arguments["tgrid"]) - 1
    counts["poslti.rk4_steps"] += steps * bound.arguments["substeps"]


# (owner, attribute, span metric or None for a pure counter, counter, hook).
# A span target's metric receives the span's self time in seconds; a counter
# target adds one to ``counter`` per call.  ``hook`` sees the bound arguments
# and the result of a span target.
TARGETS = [
    (posflow.cli, "parse_scenario", "scenario.parse_s", None, None),
    (posflow.scenario, "parse_scenario", "scenario.parse_s", None, None),
    (posflow.solver, "_event_stamps", "solver.closure_s", None, None),
    (posflow.cli, "closed_loop_solve", "solver.sweep_s", None, _solve_result),
    (posflow.solver.ClosedLoopSolution, "snapshot", "solver.snapshot_s", None, None),
    (posflow.solver.ClosedLoopSolution, "total_mass", "solver.mass_s", None, None),
    (posflow.solver.ClosedLoopSolution, "eval_edge", None, "solver.eval_edge_calls", None),
    (posflow.cli.COMMANDS, "simulate", "cli.csv_s", None, None),
    (posflow.wellposed.TransportHandle, "observation_lp", "wellposed.observation_lp_s",
     None, None),
    (posflow.wellposed.TransportHandle, "_flow_trace", None, "wellposed.flow_trace_calls",
     None),
    (posflow.cli, "control_admissibility", "wellposed.control_admissibility_s", None, None),
    (posflow.wellposed, "control_admissibility", "wellposed.control_admissibility_s",
     None, None),
    (posflow.wellposed.TransportHandle, "input_map_norm", None,
     "wellposed.input_map_norm_calls", None),
    (posflow.wellposed, "io_matrix", "wellposed.io_matrix_s", None, None),
    (posflow.wellposed, "io_map", None, "transport.io_map_calls", None),
    (posflow.wellposed, "feedback_admissibility", "wellposed.feedback_s", None, None),
    (posflow.cli, "transfer_operator", "transport.transfer_operator_s", None, _transfer_call),
    (posflow.wellposed, "transfer_operator", "transport.transfer_operator_s", None,
     _transfer_call),
    (posflow.transport, "transfer_operator", "transport.transfer_operator_s", None,
     _transfer_call),
    (posflow.cli, "semigroup_apply", "transport.spot_checks_s", None, None),
    (posflow.cli, "dirichlet_apply", "transport.spot_checks_s", None, None),
    (posflow.cli, "resolvent_apply", "transport.spot_checks_s", None, None),
    (posflow.lattice, "dense_spectral_radius", "lattice.eig_s", None, _eig_call),
    (posflow.transport, "dense_spectral_radius", "lattice.eig_s", None, _eig_call),
    (posflow.wellposed, "dense_spectral_radius", "lattice.eig_s", None, _eig_call),
    (posflow.poslti, "dense_spectral_radius", "lattice.eig_s", None, _eig_call),
    (posflow.wellposed, "spectral_radius", "lattice.power_iter_s", None, _power_result),
    (posflow.poslti, "simulate_interconnection", "poslti.rk4_s", None, _rk4_call),
    (posflow.poslti, "simulate_mild", "poslti.mild_s", None, None),
]

# every metric a span target reports, for callers that need the full list
SPAN_METRICS = sorted({t[2] for t in TARGETS if t[2]})


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Installs wrappers on enter and restores the originals on exit.

    ``spans`` holds [name, start, end, parent index] lists in start order;
    ``counts`` holds the call counters and hook counters.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, metric, counter, hook in self.targets:
            original = _get(owner, attr)
            self._saved.append((owner, attr, original))
            if metric is None:
                _set(owner, attr, self._counted(counter, original))
            else:
                _set(owner, attr, self._spanned(metric, original, hook))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            _set(owner, attr, original)

    def _counted(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _spanned(self, metric, fn, hook):
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(metric):
                result = fn(*args, **kwargs)
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, bound, result)
            return result

        return wrapped

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent])
        tr._stack.append(self.index)

    def __exit__(self, *exc):
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.index][2] = time.perf_counter()


def self_times(spans: list[list]) -> dict[str, float]:
    """Sum of self time per span name: duration minus direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, start, end, _), children in zip(spans, child_time):
        totals[name] += (end - start) - children
    return dict(totals)
