"""Record the correctness reference the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Run it on the commit whose outputs define "correct"; it rewrites
perfbench/reference.json.  For the table-free experiments it stores exit
codes, every check verdict (including the two that fail by design) and each
check value that does not depend on the seed, with the check's tolerance and,
for a value formed by cancellation, an absolute tolerance of its own.
For mc-sampling it stores a large-n G2 estimate; for tail-quadrature the
transforms on the far ring.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys

import common

common.pin_threads()
common.use_checkout_source()

import numpy as np  # noqa: E402
from thermolight import cli, mcfield, pulsekit  # noqa: E402

import workloads  # noqa: E402

G2_N = 20_000_000
G2_SEED = 14091926
# check values the program forms as 1 minus a product of sums near 1: a
# reordering of those sums moves them by a few ulps of 1, so they are held
# to an absolute tolerance of 64 ulps on top of the relative one
ONE_MINUS = {("fock-demo", "thermal_truncation_mass")}
ONE_MINUS_ABS_TOL = 64 * sys.float_info.epsilon


def table_free() -> dict:
    out = {}
    for exp in workloads.TableFree.experiments:
        runs = []
        for seed in (1, 2):
            d = common.OUT / "reference" / f"{exp}-{seed}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([exp, "--out", str(d), "--seed", str(seed)])
            report = json.loads((d / "report.json").read_text())
            runs.append((code, {c["name"]: c for c in report["checks"]}))
        (code, a), (code2, b) = runs
        assert code == code2 and a.keys() == b.keys(), exp
        checks = {}
        for name, c in a.items():
            assert c["passed"] == b[name]["passed"], (exp, name)
            entry = {"passed": c["passed"]}
            if c["value"] == b[name]["value"]:
                entry["value"] = c["value"]
                if isinstance(c["tolerance"], (int, float)):
                    entry["tolerance"] = c["tolerance"]
                if (exp, name) in ONE_MINUS:
                    entry["abs_tol"] = ONE_MINUS_ABS_TOL
            checks[name] = entry
        out[exp] = {"exit_code": code, "checks": checks}
    return out


def mc_sampling() -> dict:
    wl = workloads.McSampling(0, 0, "", {})
    est = mcfield.estimate_g2_mix(wl.family, wl.weights, wl.omega_g2, wl.R,
                                  G2_N, G2_SEED, n_strata=wl.n_strata,
                                  reach=wl.reach)
    return {"g2_over_asymptote": est.mean / wl.asymptote,
            "std_error": est.std_error / wl.asymptote,
            "n": G2_N, "seed": G2_SEED}


def tail_quadrature() -> dict:
    """The ring of mcfield.tail_intensity_bound's calibration."""
    family = pulsekit.make_thermal_family(workloads.make_context(workloads.T_KELVIN))
    points = []
    for d in (18.0, 25.0, 32.0):
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            zz = d * frac
            pp = math.sqrt(max(d * d - zz * zz, 0.0))
            ty, tz = pulsekit.transforms_direct(
                family, pp, zz, nx=workloads.TailQuadrature.nx,
                nmu=workloads.TailQuadrature.nmu)
            points.append([pp, zz, ty.real, ty.imag, tz.real, tz.imag])
    return {"points": points}


def main() -> None:
    ref = {"thermolight_source_sha256": common.source_digest(),
           "numpy": np.__version__,
           "table-free": table_free(),
           "mc-sampling": mc_sampling(),
           "tail-quadrature": tail_quadrature()}
    shutil.rmtree(common.OUT, ignore_errors=True)
    common.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {common.REFERENCE}")


if __name__ == "__main__":
    main()
