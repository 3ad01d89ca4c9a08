"""One fresh workload process: set-up, then a closed loop of timed passes.

    python3 perfbench/child.py '<json spec>'

run.py starts this script and reads the JSON object it prints as its last
line.  The spec names the workload, seed, child index, time budget, trace
flag, output directory, and the CLOCK_MONOTONIC time at which the parent
started the process, so set-up time counts interpreter start and imports.

Untraced, passes repeat until the budget is spent, at least one.  Traced, an
untimed warm-up pass comes first; then each pass runs twice on the same
inputs, once with the layer wrappers installed and once without, in
alternating order.  The two outputs must match bit for bit, and their time
difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time

import common

common.pin_threads()
common.use_checkout_source()

import workloads  # noqa: E402
from tracing import Installed, Tracer  # noqa: E402

# per-layer metric -> (kind, span or counter); kind "s" is self time, "calls"
# a call count, "count" a counter
LAYER_METRICS = {
    "pulsekit.transforms_direct.s": ("s", "pulsekit.transforms_direct"),
    "pulsekit.transforms_direct.calls": ("calls", "pulsekit.transforms_direct"),
    "pulsekit.transforms_direct.nodes": ("count", "pulsekit.transforms_direct.nodes"),
    "pulsekit.table.builds": ("count", "pulsekit.table.builds"),
    "pulsekit.table.hits": ("count", "pulsekit.table.hits"),
    "pulsekit.table.build_s": ("s", "pulsekit.table.build"),
    "pulsekit.table.cells": ("count", "pulsekit.table.cells"),
    "pulsekit.table.mb": ("count", "pulsekit.table.mb"),
    "pulsekit.lookup.s": ("s", "pulsekit.lookup"),
    "pulsekit.lookup.points": ("count", "pulsekit.lookup.points"),
    "pulsekit.envelope_batch.s": ("s", "pulsekit.envelope_batch"),
    "pulsekit.envelope_batch.points": ("count", "pulsekit.envelope_batch.points"),
    "pulsekit.radial_intensity_profile.s": ("s", "pulsekit.radial_intensity_profile"),
    "mcfield.estimate_g1_mix.s": ("s", "mcfield.estimate_g1_mix"),
    "mcfield.estimate_g2_mix.s": ("s", "mcfield.estimate_g2_mix"),
    "mcfield.draw_batch.s": ("s", "mcfield.draw_batch"),
    "mcfield.draws": ("count", "mcfield.draws"),
    "mixturekit.simulation_residual.s": ("s", "mixturekit.simulation_residual"),
    "mixturekit.solve_gaussian_weights.s": ("s", "mixturekit.solve_gaussian_weights"),
    "fockdis.build_rho_mixture.s": ("s", "fockdis.build_rho_mixture"),
    "fockdis.build_rho_mixture.pulses": ("count", "fockdis.build_rho_mixture.pulses"),
    "fockdis.free_phase_ensemble.s": ("s", "fockdis.free_phase_ensemble"),
    "fockdis.linear_phase_ensemble.s": ("s", "fockdis.linear_phase_ensemble"),
    "fockdis.thermal_rho_dis.s": ("s", "fockdis.thermal_rho_dis"),
    "specfun.bose_moment.s": ("s", "specfun.bose_moment"),
    "specfun.bose_moment.calls": ("calls", "specfun.bose_moment"),
    "thermal.g2_curve.s": ("s", "thermal.g2_curve"),
    "thermal.g2_curve.points": ("count", "thermal.g2_curve.points"),
    "thermal.coherence_time.s": ("s", "thermal.coherence_time"),
    "cli.runner.s": ("s", "cli.runner"),
    "cli.io.s": ("s", "cli.io"),
}


def time_to_1pct(ops: list, name: str) -> float:
    """Estimator time x (relative std error / 1%)^2, pooled over calls.

    For m calls at equal n, the pooled estimate has relative variance
    mean(rse^2)/m and costs m * mean(t), so the time to 1% is
    mean(t) * mean(rse^2) / 1e-4.
    """
    sel = [op for op in ops if op.name == name]
    if not sel:
        return 0.0
    t = statistics.fmean(op.seconds for op in sel)
    v = statistics.fmean(op.rse**2 for op in sel)
    return t * v / 1e-4


def layer_metrics(setup: dict, timed: dict, passes: int) -> dict:
    """Per-layer values for one set-up plus one timed pass."""
    out = {}
    for metric, (kind, key) in LAYER_METRICS.items():
        table = {"s": "self_s", "calls": "calls", "count": "counts"}[kind]
        out[metric] = setup[table].get(key, 0) + timed[table].get(key, 0) / passes
    points = out["pulsekit.lookup.points"]
    outside = (setup["counts"].get("pulsekit.lookup.outside", 0)
               + timed["counts"].get("pulsekit.lookup.outside", 0) / passes)
    out["pulsekit.lookup.outside_share"] = outside / points if points else 0.0
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    ref = json.loads(common.REFERENCE.read_text())[spec["workload"]]
    make = workloads.WORKLOADS[spec["workload"]]
    args = (spec["seed"], spec["child"], spec["out_dir"], ref)
    trace = bool(spec["trace"])

    tracer = Tracer()
    installed = Installed(tracer)
    with installed if trace else contextlib.nullcontext():
        wl = make(*args)
    t_ready = time.monotonic()
    setup_s = t_ready - spec["t_spawn"]
    setup_spans = tracer.take()

    plain, traced, overhead, mismatches = [], [], [], 0
    pass_s = []
    if trace:
        wl.run_pass(-1)
        t_ready = time.monotonic()
    i = 0
    while i == 0 or time.monotonic() - t_ready < spec["seconds"]:
        if not trace:
            ops = wl.run_pass(i)
            plain += ops
            pass_s.append(sum(op.seconds for op in ops))
        else:
            runs = {}
            for mode in ((False, True) if i % 2 == 0 else (True, False)):
                with installed if mode else contextlib.nullcontext():
                    runs[mode] = wl.run_pass(i)
            plain += runs[False]
            traced += runs[True]
            t_plain = sum(op.seconds for op in runs[False])
            t_traced = sum(op.seconds for op in runs[True])
            pass_s.append(t_traced)
            overhead.append(t_traced - t_plain)
            mismatches += sum(a.output != b.output
                              for a, b in zip(runs[False], runs[True]))
        i += 1

    ops = plain + traced
    result = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "ops": {},               # operation name -> [attempted, failed]
        "failures": sorted({f"{op.name}: {op.note}" for op in ops if not op.ok}),
        "notes": [f"{op.name}: {op.note}" for op in plain[:2] if op.note],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "g1_time_to_1pct_s": time_to_1pct(plain, "estimate_g1_mix"),
        "g2_time_to_1pct_s": time_to_1pct(plain, "estimate_g2_mix"),
        "mismatches": mismatches,
        "estimates": {},
    }
    for op in ops:
        counts = result["ops"].setdefault(op.name, [0, 0])
        counts[0] += 1
        counts[1] += not op.ok
    for op in plain:
        if op.estimate is not None:
            result["estimates"].setdefault(op.name, []).append(op.estimate)
    if trace:
        timed = tracer.take()
        layers = layer_metrics(setup_spans, timed, i)
        layers["mcfield.g1_time_to_1pct_s"] = result["g1_time_to_1pct_s"]
        layers["mcfield.g2_time_to_1pct_s"] = result["g2_time_to_1pct_s"]
        named = sum(v for k, v in timed["self_s"].items() if k != "cli.runner")
        layers["trace.attributed_share"] = named / sum(pass_s)
        layers["trace.overhead_s"] = statistics.median(overhead)
        result["layers"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    main()
