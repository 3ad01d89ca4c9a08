"""Spans and counters recorded around calls into thermolight's layers.

The wrappers are installed from the benchmark's side, at the attribute each
caller looks the function up through (``mcfield.envelope_batch`` is the name
``estimate_g2_mix`` resolves, not ``pulsekit.envelope_batch``).  Every wrapper
passes arguments and results through unchanged, so a traced call returns the
same bits as an untraced one.

A span's self time is its duration minus the time covered by the spans nested
inside it, so ``estimate_g2_mix`` does not absorb a table build it triggers.
"""

from __future__ import annotations

import inspect
import time
import weakref
from collections import defaultdict

import numpy as np

from thermolight import cli, fockdis, mcfield, mixturekit, pulsekit, svgplot, thermal


class Tracer:
    """In-memory span self times, call counts and named counters."""

    def __init__(self):
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._tables = weakref.WeakValueDictionary()

    def call(self, name, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span and return its result.

        name is a string, or a callable that names the span from the result.
        """
        rec = [0.0]                              # time covered by children
        self.stack.append(rec)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._close(name if isinstance(name, str) else "error", rec, t0)
            raise
        self._close(name if isinstance(name, str) else name(self, out), rec, t0)
        return out

    def _close(self, name: str, rec: list, t0: float) -> None:
        dur = time.perf_counter() - t0
        self.stack.pop()
        self.self_s[name] += dur - rec[0]
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][0] += dur

    def seen_table(self, table) -> bool:
        """True if this EnvelopeTable object was returned before."""
        key = id(table)
        if self._tables.get(key) is table:
            return True
        self._tables[key] = table
        return False

    def take(self) -> dict:
        """Return the totals so far and start new ones; tables stay known."""
        out = {"self_s": dict(self.self_s), "calls": dict(self.calls),
               "counts": dict(self.counts)}
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return out


# -- counters, each given (tracer, bound arguments, result) -------------------


def _table_span(tr, out):
    """Name a PulseFamily.table call by whether its table object is new."""
    if tr.seen_table(out):
        tr.counts["pulsekit.table.hits"] += 1
        return "pulsekit.table.hit"
    tr.counts["pulsekit.table.builds"] += 1
    tr.counts["pulsekit.table.cells"] += out.Ty.size
    tr.counts["pulsekit.table.mb"] += (out.P_grid.nbytes + out.Z_grid.nbytes
                                       + out.Ty.nbytes + out.Tz.nbytes) / 2**20
    return "pulsekit.table.build"


def _count_lookup(tr, args, out):
    tab, P, Z = args["self"], np.asarray(args["P"]), np.asarray(args["Z"])
    inside = (P <= tab.P_grid[-1]) & (Z >= tab.Z_grid[0]) & (Z <= tab.Z_grid[-1])
    tr.counts["pulsekit.lookup.points"] += inside.size
    tr.counts["pulsekit.lookup.outside"] += inside.size - int(inside.sum())


def _count_envelope_batch(tr, args, out):
    tr.counts["pulsekit.envelope_batch.points"] += len(args["deltas"])


def _count_transforms(tr, args, out):
    if args.get("nx") is not None and args.get("nmu") is not None:
        tr.counts["pulsekit.transforms_direct.nodes"] += args["nx"] * args["nmu"]


def _count_draws(tr, args, out):
    tr.counts["mcfield.draws"] += args["n"]


def _count_g2_points(tr, args, out):
    tr.counts["thermal.g2_curve.points"] += len(args["R_values"])


def _count_pulses(tr, args, out):
    tr.counts["fockdis.build_rho_mixture.pulses"] += len(args["pulses"])


# (owner, attribute, span name or namer, counter or None).  An owner appears once per
# lookup site; one function reached through two sites gets two entries.
SITES = [
    (pulsekit.PulseFamily, "table", _table_span, None),
    (pulsekit.EnvelopeTable, "lookup", "pulsekit.lookup", _count_lookup),
    (pulsekit, "radial_intensity_profile", "pulsekit.radial_intensity_profile", None),
    (pulsekit, "transforms_direct", "pulsekit.transforms_direct", _count_transforms),
    (mcfield, "transforms_direct", "pulsekit.transforms_direct", _count_transforms),
    (mcfield, "envelope_batch", "pulsekit.envelope_batch", _count_envelope_batch),
    (mcfield, "estimate_g1_mix", "mcfield.estimate_g1_mix", _count_draws),
    (mcfield, "estimate_g2_mix", "mcfield.estimate_g2_mix", _count_draws),
    (mcfield, "draw_batch", "mcfield.draw_batch", None),
    (mixturekit, "simulation_residual", "mixturekit.simulation_residual", None),
    (mixturekit, "solve_gaussian_weights", "mixturekit.solve_gaussian_weights", None),
    (mixturekit, "bose_moment", "specfun.bose_moment", None),
    (mixturekit, "g1_temporal", "thermal.g1_temporal", None),
    (thermal, "bose_moment", "specfun.bose_moment", None),
    (thermal, "g2_curve", "thermal.g2_curve", _count_g2_points),
    (thermal, "coherence_time", "thermal.coherence_time", None),
    (fockdis, "build_rho_mixture", "fockdis.build_rho_mixture", _count_pulses),
    (fockdis, "free_phase_ensemble", "fockdis.free_phase_ensemble", None),
    (fockdis, "linear_phase_ensemble", "fockdis.linear_phase_ensemble", None),
    (fockdis, "thermal_rho_dis", "fockdis.thermal_rho_dis", None),
    (cli, "main", "cli.runner", None),
    (cli.Reporter, "write_csv", "cli.io", None),
    (cli.Reporter, "write_report", "cli.io", None),
    (svgplot, "write_svg", "cli.io", None),
    (cli, "_git_describe", "cli.io", None),
]


def _wrapper(tracer: Tracer, fn, name, counter):
    sig = inspect.signature(fn) if counter else None

    def traced(*args, **kwargs):
        out = tracer.call(name, fn, args, kwargs)
        if counter:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            counter(tracer, bound.arguments, out)
        return out

    return traced


class Installed:
    """Context manager that swaps the wrappers in and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.originals = [(owner, attr, getattr(owner, attr))
                          for owner, attr, _, _ in SITES]
        self.wrappers = [_wrapper(tracer, fn, name, counter)
                         for (_, _, fn), (_, _, name, counter)
                         in zip(self.originals, SITES)]

    def __enter__(self):
        for (owner, attr, _), w in zip(self.originals, self.wrappers):
            setattr(owner, attr, w)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in self.originals:
            setattr(owner, attr, fn)
        return False
