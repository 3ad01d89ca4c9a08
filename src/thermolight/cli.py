"""Command-line entry point: run experiments, write CSV/SVG/JSON artifacts.

Usage:
    thermolight <experiment> [--config PATH] [--T KELVIN] [--seed N]
                [--out DIR] [experiment flags]

Experiments: fig1, simcond-thermal, gaussian-scan, scaling, g2-contrast,
fock-demo, coherence-time.  Each run writes <experiment>.csv (UTF-8,
comma-separated, '#'-prefixed metadata lines), an SVG plot when the result
is a curve, and report.json containing every computed number, its expected
value when one exists, and a pass/fail verdict.

Exit codes: 0 all checks passed; 1 at least one check failed; 2 invalid
configuration; 3 numerical accuracy failure in the computation itself.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import subprocess
import sys

import numpy as np

from . import fockdis, mcfield, mixturekit, pulsekit, svgplot, thermal
from .specfun import AccuracyError
from .units import check_seed, make_context

# One table per experiment, plus the global one: key -> (default, help).  The
# default's type is the setting's type, in INI files and on the command line.
# A setting with a help string is also the flag --key (with "-" for "_");
# the others are set from an INI file only.
_SETTINGS: dict[str, dict[str, tuple]] = {
    "global": {"T": (5777.0, "temperature in kelvin"),
               "seed": (12345, "RNG seed"),
               "out": ("out", "output directory")},
    "fig1": {"rmax_um": (2.0, "maximum separation in micrometers"),
             "n_points": (200, "number of separations"),
             "flat_from_um": (0.4, None),
             "tol_flat": (0.01, None),
             "tol_start": (1e-6, None),
             "orientation": ("parallel", "detector-component orientation "
                                         "relative to R")},
    "simcond-thermal": {"n_tau": (50, "tau-grid size"),
                        "tau_max_fs": (10.0, "tau-grid upper end [fs]"),
                        "tol": (1e-6, None)},
    "gaussian-scan": {"durations": ("10fs,100fs,1ps,10ps",
                                    "comma list like 10fs,1ps"),
                      "feasible_tol": (1e-3, None),
                      "infeasible_level": (0.1, None)},
    "scaling": {"extent_lo": (10.0, None),
                "extent_hi": (100.0, None),
                "n_omega": (7, "number of volumes"),
                "tol_slope": (0.01, None),
                "tol_flat": (0.01, None)},
    "g2-contrast": {"n": (100000, "MC samples for G2"),
                    "n_g1": (200000, "MC samples for the G1 match"),
                    "n_strata": (64, "strata along the detector axis"),
                    "r_factor": (5.0, "detector separation in pulse extents"),
                    "tol_frac": (0.01, None),
                    "g1_tol": (0.05, None)},
    "fock-demo": {"cutoff": (3, "photons per mode"),
                  "alpha_abs": (0.8, "|alpha| of the pulses"),
                  "n_free": (10000, "free-phase MC ensemble size"),
                  "side_um": (2.0, None),
                  "tol_exact": (1e-10, None)},
    "coherence-time": {"lo_fs": (1.0, None),
                       "hi_fs": (1.6, None)},
}

_DURATION_UNITS = {"fs": 1e-15, "ps": 1e-12, "ns": 1e-9, "us": 1e-6,
                   "ms": 1e-3, "s": 1.0}


class ConfigError(ValueError):
    pass


def _parse_duration(token: str) -> float:
    """Seconds in a token like '10fs'; positive and finite, or ConfigError."""
    token = token.strip()
    for suffix in sorted(_DURATION_UNITS, key=len, reverse=True):
        if token.endswith(suffix):
            try:
                value = float(token[: -len(suffix)]) * _DURATION_UNITS[suffix]
            except ValueError:
                break
            if 0.0 < value < math.inf:
                return value
            raise ConfigError(f"duration {token!r} must be positive and finite")
    raise ConfigError(f"cannot parse duration {token!r}")


@functools.cache
def _git_describe() -> str:
    """The checkout's git describe, asked once per process: a process runs
    the code it imported, so the first answer stays true."""
    try:
        here = os.path.dirname(os.path.abspath(__file__))
        out = subprocess.run(["git", "-C", here, "describe", "--always",
                              "--dirty"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


class Reporter:
    """Accumulates checks and tables; writes the CSV/JSON artifacts."""

    def __init__(self, experiment: str, cfg: dict, out_dir: str):
        self.experiment = experiment
        self.cfg = cfg
        self.out_dir = out_dir
        self.checks: list[dict] = []
        self.tables: dict[str, dict] = {}
        self.artifacts: list[str] = []

    def check(self, name: str, value, expected, tolerance, passed: bool,
              source: str, comparison: str = "abs") -> None:
        self.checks.append({
            "name": name, "value": value, "expected": expected,
            "tolerance": tolerance, "comparison": comparison,
            "passed": bool(passed), "expected_source": source})

    def info(self, name: str, value) -> None:
        self.checks.append({"name": name, "value": value, "expected": None,
                            "tolerance": None, "comparison": "none",
                            "passed": True, "expected_source": "none"})

    def table(self, name: str, columns: list[str], rows: list[list]) -> None:
        self.tables[name] = {"columns": columns, "rows": rows}

    def write_csv(self, name: str, meta: dict) -> str:
        tab = self.tables[name]
        path = os.path.join(self.out_dir, f"{name}.csv")
        lines = [f"# {k} = {_fmt_value(v)}" for k, v in meta.items()]
        lines.append(",".join(tab["columns"]))
        for row in tab["rows"]:
            lines.append(",".join(_fmt_value(v) for v in row))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.artifacts.append(path)
        return path

    def add_artifact(self, path: str) -> None:
        self.artifacts.append(path)

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def write_report(self) -> str:
        path = os.path.join(self.out_dir, "report.json")
        payload = {
            "experiment": self.experiment,
            "config": {k: self.cfg[k] for k in sorted(self.cfg)},
            "checks": self.checks,
            "tables": self.tables,
            "artifacts": [os.path.basename(a) for a in self.artifacts],
            "all_passed": self.all_passed,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _base_meta(cfg: dict, extra: dict | None = None) -> dict:
    meta = {"temperature_K": cfg["T"], "seed": cfg["seed"],
            "git": _git_describe()}
    if extra:
        meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# experiments


def run_fig1(cfg: dict, rep: Reporter) -> None:
    ctx = make_context(cfg["T"])
    n = cfg["n_points"]
    rs = np.linspace(0.0, cfg["rmax_um"] * 1e-6, n)
    asym = thermal.g2_asymptote(ctx)
    ratios = {o: thermal.g2_curve(ctx, rs, orientation=o)
              for o in ("parallel", "perpendicular")}
    main = ratios[cfg["orientation"]]
    rows = [[float(r), float(q * asym), float(q)] for r, q in zip(rs, main)]
    rep.table("fig1", ["R_m", "G2", "G2_over_asymptote"], rows)
    rep.write_csv("fig1", _base_meta(cfg, {
        "orientation": cfg["orientation"], "tol_flat": cfg["tol_flat"],
        "tol_start": cfg["tol_start"], "asymptote": asym}))

    svg = os.path.join(rep.out_dir, "fig1.svg")
    svgplot.write_svg(svg, [(rs * 1e6, ratios["parallel"], "parallel"),
                            (rs * 1e6, ratios["perpendicular"], "perpendicular")],
                      "R [um]", "G2 / asymptote",
                      title="Equal-time second-order coherence")
    rep.add_artifact(svg)

    start = float(main[0])
    rep.check("start_ratio", start, 2.0, cfg["tol_start"],
              abs(start - 2.0) <= cfg["tol_start"], "analytic")
    sel = rs >= cfg["flat_from_um"] * 1e-6
    dev = float(np.max(np.abs(main[sel] - 1.0)))
    rep.check("max_deviation_beyond_0p4um", dev, 0.0, cfg["tol_flat"],
              dev <= cfg["tol_flat"], "reference", comparison="upper")
    for o in ("parallel", "perpendicular"):
        q = ratios[o]
        bad = np.abs(q - 1.0) > cfg["tol_flat"]
        flat_from = 0.0 if not bad.any() else float(rs[np.max(np.nonzero(bad))])
        rep.info(f"flat_radius_m_{o}", flat_from)


def run_simcond_thermal(cfg: dict, rep: Reporter) -> None:
    ctx = make_context(cfg["T"])
    taus = np.linspace(0.0, cfg["tau_max_fs"] * 1e-15, cfg["n_tau"])
    weights = mixturekit.make_matched_improper_weights(ctx)
    reports = {}
    for label, kind, param in (("exp", "exp", 20.0), ("power", "power", 40.0)):
        fam = pulsekit.make_thermal_family(ctx, upsilon_kind=kind,
                                           upsilon_param=param)
        reports[label] = mixturekit.simulation_residual(fam, weights, taus)
    re_ = reports["exp"]
    rp = reports["power"]
    rows = [[float(t), g.real, g.imag, h.real, h.imag, th.real, th.imag]
            for t, g, h, th in zip(taus, re_.g1_imp, rp.g1_imp, re_.g1_th)]
    rep.table("simcond-thermal",
              ["tau_s", "g1_imp_exp_re", "g1_imp_exp_im", "g1_imp_power_re",
               "g1_imp_power_im", "g1_th_re", "g1_th_im"], rows)
    rep.write_csv("simcond-thermal", _base_meta(cfg, {"tol": cfg["tol"]}))
    svg = os.path.join(rep.out_dir, "simcond-thermal.svg")
    svgplot.write_svg(svg, [(taus * 1e15, np.abs(re_.g1_imp), "mixture"),
                            (taus * 1e15, np.abs(re_.g1_th), "blackbody")],
                      "tau [fs]", "|G1| [V^2/m^2]",
                      title="Simulation condition, occupation-matched family")
    rep.add_artifact(svg)
    agree = float(np.linalg.norm(re_.g1_imp - rp.g1_imp)
                  / np.linalg.norm(re_.g1_th))
    tol = cfg["tol"]
    rep.check("residual_exp", re_.residual, 0.0, tol,
              re_.residual < tol, "analytic", comparison="upper")
    rep.check("residual_power", rp.residual, 0.0, tol,
              rp.residual < tol, "analytic", comparison="upper")
    rep.check("upsilon_kinds_agree", agree, 0.0, tol,
              agree < tol, "oracle", comparison="upper")


def run_gaussian_scan(cfg: dict, rep: Reporter) -> None:
    ctx = make_context(cfg["T"])
    durations = sorted(_parse_duration(t)
                       for t in cfg["durations"].split(","))
    rows = []
    residuals = {}
    for dur in durations:
        sigma = 1.0 / (ctx.c * dur)
        fit = mixturekit.solve_gaussian_weights(ctx, sigma)
        residuals[dur] = fit.residual
        rows.append([dur, sigma, fit.residual,
                     fit.residual < cfg["feasible_tol"]])
    rep.table("gaussian-scan",
              ["duration_s", "sigma_per_m", "residual", "feasible"], rows)
    rep.write_csv("gaussian-scan", _base_meta(cfg, {
        "feasible_tol": cfg["feasible_tol"],
        "infeasible_level": cfg["infeasible_level"]}))
    svg = os.path.join(rep.out_dir, "gaussian-scan.svg")
    svgplot.write_svg(svg, [(np.array(durations),
                             np.array([residuals[d] for d in durations]),
                             "residual")],
                      "pulse duration [s]", "relative residual",
                      logx=True, logy=True,
                      title="Weight-solver residual vs pulse duration")
    rep.add_artifact(svg)

    longest = durations[-1]
    rep.check("residual_longest_duration", residuals[longest], 0.0,
              cfg["feasible_tol"],
              residuals[longest] < cfg["feasible_tol"], "reference",
              comparison="upper")
    vals = [residuals[d] for d in durations]
    monotone = all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    rep.check("residual_monotone_in_duration", monotone, True, 0,
              monotone, "oracle", comparison="exact")
    short = [d for d in durations if d <= 10e-15 * (1.0 + 1e-9)]
    if short:
        worst = max(residuals[d] for d in short)
        rep.check("residual_10fs_infeasible", worst, cfg["infeasible_level"],
                  0.0, worst > cfg["infeasible_level"], "reference",
                  comparison="lower")
    infeas = [d for d in durations if residuals[d] > cfg["infeasible_level"]]
    feas = [d for d in durations if residuals[d] < cfg["feasible_tol"]]
    rep.info("longest_infeasible_duration_s", max(infeas) if infeas else 0.0)
    rep.info("shortest_feasible_duration_s", min(feas) if feas else 0.0)


def run_scaling(cfg: dict, rep: Reporter) -> None:
    ctx = make_context(cfg["T"])
    fam = pulsekit.make_thermal_family(ctx)
    extent = pulsekit.pulse_extent(fam, 0.99)
    sides = np.geomspace(cfg["extent_lo"], cfg["extent_hi"],
                         cfg["n_omega"]) * extent
    omegas = sides**3
    curve = mixturekit.unit_trace_scaling(fam, omegas)
    rows = [[float(o), float(s / extent), float(g), float(c)]
            for o, s, g, c in zip(omegas, sides, curve.g1,
                                  curve.g1_compensated)]
    rep.table("scaling", ["omega_m3", "side_over_extent", "g1",
                          "g1_compensated"], rows)
    rep.write_csv("scaling", _base_meta(cfg, {
        "pulse_extent_m": extent, "tol_slope": cfg["tol_slope"],
        "tol_flat": cfg["tol_flat"]}))
    svg = os.path.join(rep.out_dir, "scaling.svg")
    svgplot.write_svg(svg, [(omegas, curve.g1, "fixed amplitude"),
                            (omegas, curve.g1_compensated, "amplitude ~ Omega")],
                      "Omega [m^3]", "G1(0,0) [V^2/m^2]", logx=True, logy=True,
                      title="Proper-mixture scaling with quantization volume")
    rep.add_artifact(svg)
    slope = curve.loglog_slope()
    rep.check("loglog_slope", slope, -1.0, cfg["tol_slope"],
              abs(slope + 1.0) <= cfg["tol_slope"], "analytic")
    spread = float(np.max(curve.g1_compensated)
                   / np.min(curve.g1_compensated) - 1.0)
    rep.check("compensated_spread", spread, 0.0, cfg["tol_flat"],
              spread <= cfg["tol_flat"], "reference", comparison="upper")


def run_g2_contrast(cfg: dict, rep: Reporter) -> None:
    ctx = make_context(cfg["T"])
    fam = pulsekit.make_thermal_family(ctx)
    weights = mixturekit.make_matched_improper_weights(ctx)
    mcfield.check_sample_counts(cfg["n_g1"])
    mcfield.check_sample_counts(cfg["n"], cfg["n_strata"])
    extent = pulsekit.pulse_extent(fam, 0.99)
    R = cfg["r_factor"] * extent
    g1_th = thermal.g1_zero(ctx)
    asym = thermal.g2_asymptote(ctx)
    r_units = R / ctx.length_scale
    reach = r_units / 2.0 + 1.0
    # A table too large to build, or an R too short for the reach (which
    # needs only the analytic G1), fails here, before either Monte Carlo
    # estimate.
    try:
        pulsekit.check_reach(reach)
    except ValueError as exc:
        raise ConfigError(f"r_factor = {cfg['r_factor']} puts the "
                          f"detectors {r_units:.4g} envelope units apart: "
                          f"{exc}") from None
    bias = mcfield.g2_truncation_bias_bound(fam, R, reach, g1_th)

    side_g1 = 36.0 * ctx.length_scale
    est1 = mcfield.estimate_g1_mix(fam, weights, side_g1**3, np.zeros(3),
                                   0.0, cfg["n_g1"], cfg["seed"])
    g1_rel = abs(est1.mean.real / g1_th - 1.0)
    rep.check("g1_matches_thermal", g1_rel, 0.0, cfg["g1_tol"],
              g1_rel <= cfg["g1_tol"], "analytic", comparison="upper")
    rep.info("g1_mc", est1.mean.real)
    rep.info("g1_mc_std_error", est1.std_error)

    side = 2.0 * (R / 2.0 + (reach + 1.0) * ctx.length_scale)
    est2 = mcfield.estimate_g2_mix(fam, weights, side**3, R, cfg["n"],
                                   cfg["seed"], n_strata=cfg["n_strata"],
                                   reach=reach)
    bound = (est2.mean + 2.0 * est2.std_error + bias) / asym
    rows = [[R, est2.mean, est2.std_error, bias, asym, float(bound)]]
    rep.table("g2-contrast", ["R_m", "g2_estimate", "std_error",
                              "bias_bound", "thermal_asymptote",
                              "upper_bound_over_asymptote"], rows)
    rep.write_csv("g2-contrast", _base_meta(cfg, {
        "pulse_extent_m": extent, "n": cfg["n"], "n_strata": cfg["n_strata"],
        "tol_frac": cfg["tol_frac"]}))
    rep.check("g2_below_percent_of_asymptote", float(bound), 0.0,
              cfg["tol_frac"], bound < cfg["tol_frac"], "reference",
              comparison="upper")


# With free phases, rho_nm sums n_free terms of one magnitude b_sum/n_free
# and uniform phase, so it is close to a circular complex gaussian with
# E|rho_nm|^2 = sigma^2 = b_sum^2/n_free and P(|rho_nm| > z sigma) = e^{-z^2}.
# This z puts that false-alarm rate at 1e-9.
_FREE_PHASE_Z = math.sqrt(math.log(1e9))


def run_fock_demo(cfg: dict, rep: Reporter) -> None:
    ctx = make_context(cfg["T"])
    vol = (cfg["side_um"] * 1e-6) ** 3
    modes = fockdis.three_mode_example(vol, cutoff=cfg["cutoff"])
    mags = (1.0, 1.0, 1.0)
    tol = cfg["tol_exact"]
    n_tuple, m_tuple = (1, 0, 1), (0, 2, 0)

    linear = fockdis.linear_phase_ensemble(modes, mags, cfg["alpha_abs"])
    rho = fockdis.build_rho_mixture(linear)
    elem = rho.element(n_tuple, m_tuple)
    bsum = fockdis.b_coefficient_sum(linear, n_tuple, m_tuple)
    summary = fockdis.linear_phase_selection_rules(linear, rho)
    rows = [["survivor_element_re", elem.real, bsum, True],
            ["survivor_element_im", elem.imag, 0.0, True],
            ["b_sum", bsum, bsum, True]]
    rep.check("survivor_equals_b_sum", abs(elem - bsum), 0.0, tol,
              abs(elem - bsum) <= tol, "analytic", comparison="upper")
    rep.check("survivor_positive", bsum, 0.0, 0.0, bsum > 0.0, "analytic",
              comparison="lower")
    rep.check("selection_rules_clean", summary.all_clean, True, 0,
              summary.all_clean, "analytic", comparison="exact")
    rep.info("n_satisfying_elements", len(summary.satisfying))

    free = fockdis.free_phase_ensemble(modes, mags, cfg["alpha_abs"],
                                       cfg["n_free"], cfg["seed"])
    rho_free = fockdis.build_rho_mixture(free)
    free_elem = abs(rho_free.element(n_tuple, m_tuple))
    limit = _FREE_PHASE_Z * bsum / math.sqrt(cfg["n_free"])
    rows.append(["free_phase_element", free_elem, 0.0, free_elem < limit])
    rep.check("free_phase_suppressed", free_elem, 0.0, limit,
              free_elem < limit, "oracle", comparison="upper")

    rho_th = fockdis.thermal_rho_dis(modes, ctx, cutoff=14)
    scan = fockdis.coherence_scan(rho_th, 1e-14)
    rows.append(["thermal_coherences", len(scan), 0, not scan])
    rep.check("thermal_scan_empty", len(scan), 0, 0, not scan, "analytic",
              comparison="exact")
    rep.info("mixture_truncation_mass", rho.truncation_mass)
    rep.info("thermal_truncation_mass", rho_th.truncation_mass)
    rep.table("fock-demo", ["quantity", "value", "expected", "passed"], rows)
    rep.write_csv("fock-demo", _base_meta(cfg, {
        "alpha_abs": cfg["alpha_abs"], "cutoff": cfg["cutoff"],
        "quant_volume_m3": vol, "tol_exact": tol}))


def run_coherence_time(cfg: dict, rep: Reporter) -> None:
    ctx = make_context(cfg["T"])
    tau_c = thermal.coherence_time(ctx)
    rows = [[cfg["T"], tau_c, tau_c * 1e15]]
    rep.table("coherence-time", ["T_K", "tau_c_s", "tau_c_fs"], rows)
    rep.write_csv("coherence-time", _base_meta(cfg, {
        "lo_fs": cfg["lo_fs"], "hi_fs": cfg["hi_fs"]}))
    fs = tau_c * 1e15
    ok = cfg["lo_fs"] <= fs <= cfg["hi_fs"]
    rep.check("coherence_time_fs", fs, 1.3, (cfg["hi_fs"] - cfg["lo_fs"]) / 2,
              ok, "reference", comparison="range")
    rep.info("kappa_c_dimensionless", tau_c / ctx.time_scale)


_RUNNERS = {
    "fig1": run_fig1,
    "simcond-thermal": run_simcond_thermal,
    "gaussian-scan": run_gaussian_scan,
    "scaling": run_scaling,
    "g2-contrast": run_g2_contrast,
    "fock-demo": run_fock_demo,
    "coherence-time": run_coherence_time,
}

EXPERIMENTS = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# configuration plumbing


def load_config(experiment: str, args: argparse.Namespace) -> dict:
    """The experiment's settings: defaults, then the INI file, then flags."""
    sections = ("global", experiment)
    cfg = {key: default for section in sections
           for key, (default, _) in _SETTINGS[section].items()}
    if args.config:
        parser = configparser.ConfigParser()
        parser.optionxform = str                      # keys keep their case: T
        if not parser.read(args.config):
            raise ConfigError(f"cannot read config file {args.config}")
        for section in sections:
            if parser.has_section(section):
                for key, raw in parser.items(section):
                    if key not in cfg:
                        raise ConfigError(
                            f"unknown key {key!r} in section [{section}]")
                    cfg[key] = type(cfg[key])(raw)
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    _validate_config(experiment, cfg)
    return cfg


def _validate_config(experiment: str, cfg: dict) -> None:
    """The checks no library call makes; the library rejects the rest."""
    check_seed(cfg["seed"])
    for key, val in cfg.items():
        if (key.startswith("tol") or key.endswith("_tol")
                or key.endswith("_level")) and not val > 0.0:
            raise ConfigError(f"tolerance {key} must be positive")
    if experiment == "fig1":
        if cfg["orientation"] not in ("parallel", "perpendicular"):
            raise ConfigError("orientation must be parallel or perpendicular")
        if cfg["n_points"] < 2:
            raise ConfigError("fig1 grid must have n_points >= 2")
        if not 0.0 < cfg["rmax_um"] < math.inf:
            raise ConfigError(f"rmax_um must be positive and finite, got "
                              f"{cfg['rmax_um']}")
    if experiment == "gaussian-scan":
        for token in cfg["durations"].split(","):
            _parse_duration(token)
    tau_max = cfg.get("tau_max_fs", 0.0)        # simcond-thermal only
    if not math.isfinite(tau_max):
        raise ConfigError(f"tau_max_fs must be finite, got {tau_max}")
    if experiment == "scaling":
        if cfg["n_omega"] < 2:
            raise ConfigError("the log-log slope needs n_omega >= 2 volumes")
        if not 0.0 < cfg["extent_lo"] < cfg["extent_hi"] < math.inf:
            raise ConfigError("scaling needs 0 < extent_lo < extent_hi < inf")
    # pulse_extent lies inside the default table, so R is below r_factor *
    # _DEFAULT_REACH envelope units, and reach = R/2 + 1 < R needs R > 2
    lowest = 2.0 / pulsekit._DEFAULT_REACH
    if experiment == "g2-contrast" and not lowest < cfg["r_factor"] < math.inf:
        raise ConfigError(f"r_factor must be finite and above {lowest}: a "
                          f"smaller one leaves no table reach below R")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="thermolight",
        description="Numerical experiments on thermal light as a mixture "
                    "of coherent pulses.")
    p.add_argument("experiment", choices=EXPERIMENTS)
    p.add_argument("--config", help="INI config file ([global] + per-experiment)")
    for section, settings in _SETTINGS.items():
        prefix = "" if section == "global" else f"{section}: "
        for key, (default, text) in settings.items():
            if text is not None:
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               type=type(default), help=prefix + text)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.experiment, args)
        os.makedirs(cfg["out"], exist_ok=True)
        rep = Reporter(args.experiment, cfg, cfg["out"])
        _RUNNERS[args.experiment](cfg, rep)
    except (AccuracyError, ArithmeticError) as exc:
        # ArithmeticError covers FloatingPointError, and the ZeroDivisionError
        # and OverflowError of a value that leaves float range mid-run
        print(f"numerical accuracy failure: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        # the library raises ValueError for every value it cannot work with
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    rep.write_report()
    for c in rep.checks:
        if c["expected_source"] == "none":
            status = "INFO"
        else:
            status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']} = {c['value']}")
    print(f"artifacts in {cfg['out']}; all_passed={rep.all_passed}")
    return 0 if rep.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
