"""The benchmark's workloads: set-up, one timed pass, and output checks.

Constructing a workload is its set-up.  ``run_pass(i)`` performs pass i of
the closed loop and returns one ``Op`` per program call (an experiment or an
estimator call), each timed around the call alone, so output checks are not
counted as program time.  Every input of pass i derives from the benchmark
seed, the child process index and i.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass

import numpy as np

from thermolight import cli, mcfield, mixturekit, pulsekit, thermal
from thermolight.units import make_context

T_KELVIN = 5777.0
# how many combined standard errors an MC estimate may sit from its reference
MC_SIGMAS = 5.0
# A stored value must agree to REL_TOL relative, plus CHECK_SHARE of the
# tolerance of the check that reports it, plus the value's own "abs_tol" in
# the reference: values at rounding level (residuals near 1e-13, 1 minus a
# sum near 1) may move with the order of arithmetic, headline values may not.
REL_TOL = 1e-9
CHECK_SHARE = 1e-4


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool
    output: str                   # repr of what the program returned
    note: str = ""
    rse: float = 0.0              # relative std error of an MC estimate
    estimate: tuple | None = None  # (value, std error) on the check's scale


def sub_seed(seed: int, child: int, i: int) -> int:
    """Nonnegative 63-bit seed for pass i of a child process."""
    h = hashlib.blake2b(f"{seed}/{child}/{i}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big") >> 1


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _close(value: float, ref: float, check_tol: float = 0.0,
           abs_tol: float = 0.0) -> bool:
    return (abs(value - ref)
            <= REL_TOL * abs(ref) + CHECK_SHARE * check_tol + abs_tol)


class McSampling:
    """Library-level G1 and G2 estimators on the thermal family at 5777 K.

    Set-up builds the default envelope table (inside ``pulse_extent``) and
    the radial profile.  A pass is one ``estimate_g1_mix`` call at tau = 0
    and one ``estimate_g2_mix`` call with the detectors one pulse extent
    apart and reach 16, so both reuse the set-up table.  The sample counts
    are a tenth of a full-accuracy run so that set-up plus several passes
    fit in each process of a run.

    Each call is checked on its own, and run.py runs ``check`` again on the
    G2 estimates of all calls of a run pooled, which resolves finer errors.
    G1 is not pooled: the estimator drops the draws beyond its support ball,
    which puts it about 0.2% below the analytic ``g1_zero``, so a pooled
    check against that value would fail on the truncation and not on a fault.
    """

    pooled = ("estimate_g2_mix",)
    n_g1 = 200_000
    n_g2 = 400_000
    n_strata = 64
    reach = 16.0

    def __init__(self, seed: int, child: int, out_dir: str, ref: dict):
        self.seed, self.child, self.ref = seed, child, ref
        ctx = make_context(T_KELVIN)
        self.family = pulsekit.make_thermal_family(ctx)
        self.weights = mixturekit.make_matched_improper_weights(ctx)
        self.R = pulsekit.pulse_extent(self.family, 0.99)
        self.g1_zero = thermal.g1_zero(ctx)
        self.asymptote = thermal.g2_asymptote(ctx)
        self.omega_g1 = (36.0 * ctx.length_scale) ** 3
        side = 2.0 * (self.R / 2.0 + (self.reach + 1.0) * ctx.length_scale)
        self.omega_g2 = side**3

    def run_pass(self, i: int) -> list[Op]:
        s = sub_seed(self.seed, self.child, i)
        g1, t1 = _timed(mcfield.estimate_g1_mix, self.family, self.weights,
                        self.omega_g1, np.zeros(3), 0.0, self.n_g1, s)
        g2, t2 = _timed(mcfield.estimate_g2_mix, self.family, self.weights,
                        self.omega_g2, self.R, self.n_g2, s,
                        n_strata=self.n_strata, reach=self.reach)
        return [self._op("estimate_g1_mix", g1, g1.mean.real, self.g1_zero, t1),
                self._op("estimate_g2_mix", g2, g2.mean, self.asymptote, t2)]

    def _op(self, name: str, est, mean: float, scale: float,
            seconds: float) -> Op:
        estimate = (mean / scale, est.std_error / scale)
        ok, note = self.check(name, [estimate], self.ref)
        rse = estimate[1] / estimate[0] if estimate[0] else math.inf
        return Op(name, seconds, ok, repr((est.mean, est.std_error)), note,
                  rse=rse, estimate=estimate if name in self.pooled else None)

    @classmethod
    def check(cls, name: str, estimates: list, ref: dict) -> tuple[bool, str]:
        """Check the mean of equal-n estimates against the reference.

        G1 is on the scale of ``thermal.g1_zero`` and must be 1 within
        MC_SIGMAS standard errors.  G2 is on the scale of the thermal
        asymptote and must match the large-n reference within MC_SIGMAS
        combined standard errors, and stay below 1% (the paper's claim: the
        mixture G2 stays far below the thermal value).
        """
        m = len(estimates)
        x = math.fsum(e for e, _ in estimates) / m
        se = math.sqrt(math.fsum(s * s for _, s in estimates)) / m
        if not (math.isfinite(x) and math.isfinite(se) and se > 0.0):
            return False, f"{name}: estimate {x!r} +- {se!r}"
        if name == "estimate_g1_mix":
            dev = abs(x - 1.0) / se
            return (dev <= MC_SIGMAS,
                    f"G1/g1_zero = {x:.6f} +- {se:.1e} over {m} calls "
                    f"({dev:.2f} std errors from 1)")
        want, want_se = ref["g2_over_asymptote"], ref["std_error"]
        # The samples are heavy-tailed: calls that miss the rare large ones
        # report a mean and a std error that are both too small, so the
        # error bar is at least what the reference run implies for m calls.
        floor = want_se * math.sqrt(ref["n"] / (m * cls.n_g2))
        tol = MC_SIGMAS * math.hypot(max(se, floor), want_se)
        ok = abs(x - want) <= tol and x + 2.0 * se < 0.01
        return ok, (f"G2/asymptote = {x:.4e} +- {se:.1e} over {m} calls "
                    f"(reference {want:.4e}; resolves +-{tol / want:.0%} of it)")


class TableFree:
    """The five experiments that never build an envelope table, via cli.main.

    Each runs at its default configuration with the pass seed as ``--seed``.
    Exit codes, check verdicts and seed-independent check values must match
    the reference, including the two checks that fail by design.
    """

    experiments = ("fig1", "coherence-time", "gaussian-scan",
                   "simcond-thermal", "fock-demo")

    def __init__(self, seed: int, child: int, out_dir: str, ref: dict):
        self.seed, self.child, self.ref, self.out_dir = seed, child, ref, out_dir

    def run_pass(self, i: int) -> list[Op]:
        s = sub_seed(self.seed, self.child, i)
        ops = []
        for exp in self.experiments:
            out = os.path.join(self.out_dir, exp)
            argv = [exp, "--out", out, "--seed", str(s)]
            with contextlib.redirect_stdout(io.StringIO()):
                code, seconds = _timed(cli.main, argv)
            ops.append(self._check(exp, code, out, seconds))
        return ops

    def _check(self, exp: str, code: int, out: str, seconds: float) -> Op:
        ref = self.ref[exp]
        files = sorted(os.listdir(out))
        blobs = []
        for name in files:
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                blobs.append(fh.read())
        report = json.loads(blobs[files.index("report.json")])
        bad = [] if code == ref["exit_code"] else [f"exit {code} != {ref['exit_code']}"]
        got = {c["name"]: c for c in report["checks"]}
        for name, want in ref["checks"].items():
            c = got.get(name)
            if c is None or c["passed"] != want["passed"]:
                bad.append(f"{name}: verdict {c and c['passed']} != {want['passed']}")
            elif "value" in want and not _same_value(c["value"], want):
                bad.append(f"{name}: value {c['value']!r} != {want['value']!r}")
        output = hashlib.sha256("\0".join(files + blobs).encode()).hexdigest()
        return Op(exp, seconds, not bad, f"{code}:{output}", "; ".join(bad))


def _same_value(value, want: dict) -> bool:
    ref = want["value"]
    if not isinstance(ref, float):
        return value == ref
    return (isinstance(value, (int, float))
            and _close(float(value), ref, want.get("tolerance", 0.0),
                       want.get("abs_tol", 0.0)))


class TailQuadrature:
    """Direct 2D quadrature of the envelope transforms on the far ring.

    ``mcfield.tail_intensity_bound`` calibrates the G2 truncation bound of
    the g2-contrast experiment with 15 ``transforms_direct`` calls at
    nx = 1200, nmu = 3000 on these ring points; a pass is one of those
    calls, in an order drawn from the seed.
    """

    nx, nmu = 1200, 3000

    def __init__(self, seed: int, child: int, out_dir: str, ref: dict):
        self.ref = ref["points"]
        self.family = pulsekit.make_thermal_family(make_context(T_KELVIN))
        order = list(range(len(self.ref)))
        random.Random(seed).shuffle(order)
        self.order = order[5 * child:] + order[:5 * child]

    def run_pass(self, i: int) -> list[Op]:
        P, Z, *want = self.ref[self.order[i % len(self.order)]]
        (ty, tz), seconds = _timed(pulsekit.transforms_direct, self.family, P, Z,
                                   nx=self.nx, nmu=self.nmu)
        ok = all(abs(got - complex(re, im)) <= REL_TOL * abs(complex(re, im))
                 for got, re, im in ((ty, *want[:2]), (tz, *want[2:])))
        return [Op("transforms_direct", seconds, ok, repr((ty, tz)),
                   "" if ok else f"(P, Z) = ({P}, {Z}): {(ty, tz)} != {want}")]


WORKLOADS = {"mc-sampling": McSampling, "table-free": TableFree,
             "tail-quadrature": TailQuadrature}
