import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thermolight import cli
from thermolight.specfun import AccuracyError

# The subprocesses import thermolight from this checkout's src/, installed or not.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "thermolight.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                          env=_ENV)


def _exit_code(argv: list[str]) -> int:
    """cli.main(argv)'s exit code, or that of the SystemExit argparse raises
    on arguments it rejects."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _csv_numbers(path: Path) -> list[float]:
    out = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line:
            continue
        for tok in line.split(","):
            try:
                out.append(float(tok))
            except ValueError:
                pass
    return out


@pytest.mark.parametrize("module", ["scipy.ndimage", "scipy.integrate",
                                    "scipy.optimize", "scipy.sparse",
                                    "scipy.fft", "scipy.linalg"])
def test_library_import_leaves_out_scipy(module):
    """Importing every thermolight module loads none of these.  The tests
    use scipy.ndimage and scipy.integrate as oracles (scipy.integrate
    brings scipy.optimize and scipy.sparse, about 0.15 s and 19 MB); only
    mixturekit.solve_gaussian_weights imports scipy.optimize, when called,
    and pulsekit._legendre_nodes scipy.linalg, for rules above 256 nodes."""
    code = ("import importlib, pkgutil, sys, thermolight\n"
            "for m in pkgutil.iter_modules(thermolight.__path__):\n"
            "    importlib.import_module('thermolight.' + m.name)\n"
            f"print({module!r} in sys.modules)")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True,
                        text=True, timeout=300, env=_ENV)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "False", cp.stdout


def test_fig1_and_fock_demo_run_without_integrate_or_optimize(tmp_path: Path):
    """fig1, fock-demo, coherence-time and simcond-thermal call no solver
    and no quadrature, so none loads scipy.integrate or scipy.optimize."""
    code = ("import json, sys\n"
            "from thermolight import cli\n"
            f"codes = [cli.main([e, '--out', {str(tmp_path)!r} + '/' + e])\n"
            "         for e in ('fig1', 'fock-demo', 'coherence-time',\n"
            "                   'simcond-thermal')]\n"
            "print(json.dumps([codes, [m for m in ('scipy.integrate',\n"
            "    'scipy.optimize') if m in sys.modules]]))")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True,
                        text=True, timeout=300, env=_ENV)
    assert cp.returncode == 0, cp.stderr
    # fig1 exits 1 by design (test_fig1_reports_known_deviation)
    assert json.loads(cp.stdout.splitlines()[-1]) == [[1, 0, 0, 0], []], \
        cp.stdout


def test_table_path_runs_without_integrate_optimize_or_sparse():
    """The table path normalizes its family in closed form, transforms with
    numpy's FFT and builds its rules with leggauss: a pulse extent and both
    estimators load none of the modules scipy.integrate brings, nor
    scipy.fft or scipy.linalg.  A subprocess, as pytest's own
    filterwarnings loads scipy.integrate."""
    code = ("import sys\n"
            "import numpy as np\n"
            "from thermolight import mcfield, mixturekit, pulsekit\n"
            "from thermolight.units import make_context\n"
            "ctx = make_context(5777.0)\n"
            "fam = pulsekit.make_thermal_family(ctx)\n"
            "w = mixturekit.make_matched_improper_weights(ctx)\n"
            "R = pulsekit.pulse_extent(fam, 0.99)\n"
            "om = (40.0 * ctx.length_scale) ** 3\n"
            "mcfield.estimate_g1_mix(fam, w, om, np.zeros(3), 0.0, 2000, seed=1)\n"
            "mcfield.estimate_g2_mix(fam, w, om, R, 2000, 1)\n"
            "print([m for m in ('scipy.integrate', 'scipy.optimize',\n"
            "    'scipy.sparse', 'scipy.fft', 'scipy.linalg')\n"
            "    if m in sys.modules])")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True,
                        text=True, timeout=300, env=_ENV)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines()[-1] == "[]", cp.stdout


def test_help_exits_zero():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    assert "coherence-time" in cp.stdout


def test_pkg_main_entry():
    cp = subprocess.run([sys.executable, "-m", "thermolight", "--help"],
                        capture_output=True, text=True, timeout=60, env=_ENV)
    assert cp.returncode == 0, cp.stderr


def test_coherence_time_run_and_determinism(tmp_path: Path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    cp = run_cli("coherence-time", "--out", str(d1))
    assert cp.returncode == 0, cp.stderr
    assert "[PASS] coherence_time_fs" in cp.stdout

    report = json.loads((d1 / "report.json").read_text())
    assert report["all_passed"] is True
    assert report["experiment"] == "coherence-time"
    names = {c["name"] for c in report["checks"]}
    assert {"coherence_time_fs", "kappa_c_dimensionless"} <= names

    csv = d1 / "coherence-time.csv"
    header = csv.read_text().splitlines()
    assert any(line.startswith("# temperature_K = 5777") for line in header)
    assert any(line.startswith("# seed = ") for line in header)

    cp2 = run_cli("coherence-time", "--out", str(d2))
    assert cp2.returncode == 0
    assert csv.read_bytes() == (d2 / "coherence-time.csv").read_bytes()


def _run_in_process(capsys, *args: str) -> tuple[int, str, str]:
    """cli.main's exit code for args, with its stdout and stderr."""
    code = _exit_code(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_fig1_reports_known_deviation(tmp_path: Path, capsys):
    """The ratio curve starts at 2 but is not yet flat at the micron scale,
    so the experiment must report the failed flatness check and exit 1."""
    out = tmp_path / "fig1"
    code, stdout, stderr = _run_in_process(
        capsys, "fig1", "--out", str(out), "--n-points", "60",
        "--rmax-um", "1.5")
    assert code == 1, stdout + stderr
    assert "[FAIL] max_deviation_beyond_0p4um" in stdout
    assert "[PASS] start_ratio" in stdout

    csv = out / "fig1.csv"
    lines = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "R_m,G2,G2_over_asymptote"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[2]) - 2.0) <= 1e-6
    assert (out / "fig1.svg").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"] is False

    # every number in the CSV must also live in the structured report
    in_tables = set()
    for tab in report["tables"].values():
        for row in tab["rows"]:
            for v in row:
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    in_tables.add(float(v))
    missing = [x for x in _csv_numbers(csv) if x not in in_tables]
    assert not missing, missing[:5]


def test_gaussian_scan_feasible_subset(tmp_path: Path, capsys):
    out = tmp_path / "scan"
    code, stdout, stderr = _run_in_process(
        capsys, "gaussian-scan", "--out", str(out), "--durations", "1ps,10ps")
    assert code == 0, stdout + stderr
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"] is True


def test_gaussian_scan_short_pulse_infeasible(tmp_path: Path, capsys):
    out = tmp_path / "scan10"
    code, stdout, stderr = _run_in_process(
        capsys, "gaussian-scan", "--out", str(out), "--durations", "10fs,1ps")
    assert code == 1, stdout + stderr
    assert "[FAIL] residual_10fs_infeasible" in stdout
    report = json.loads((out / "report.json").read_text())
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == {"residual_10fs_infeasible"}


def test_simcond_thermal_passes(tmp_path: Path, capsys):
    out = tmp_path / "sim"
    code, stdout, stderr = _run_in_process(
        capsys, "simcond-thermal", "--out", str(out), "--n-tau", "20")
    assert code == 0, stdout + stderr
    report = json.loads((out / "report.json").read_text())
    byname = {c["name"]: c for c in report["checks"]}
    assert byname["residual_exp"]["value"] < 1e-6
    assert byname["upsilon_kinds_agree"]["value"] < 1e-6
    assert (out / "simcond-thermal.svg").exists()


def test_fock_demo_passes(tmp_path: Path, capsys):
    out = tmp_path / "fock"
    code, stdout, stderr = _run_in_process(
        capsys, "fock-demo", "--out", str(out), "--n-free", "2000")
    assert code == 0, stdout + stderr
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "survivor_equals_b_sum" in names
    assert "free_phase_suppressed" in names
    assert "mixture_truncation_mass" in names


def _fock_checks(out: Path) -> dict:
    report = json.loads((out / "report.json").read_text())
    return {c["name"]: c for c in report["checks"]}


def test_git_describe_spawned_once_per_process(tmp_path: Path, monkeypatch):
    """Every run's CSV names the checkout, but a process asks git once."""
    spawned = []
    run = subprocess.run

    def counted(cmd, *args, **kwargs):
        spawned.append(cmd[0])
        return run(cmd, *args, **kwargs)

    monkeypatch.setattr(cli.subprocess, "run", counted)
    cli._git_describe.cache_clear()
    for name in ("a", "b"):
        assert cli.main(["coherence-time", "--out", str(tmp_path / name)]) == 0
    assert spawned == ["git"]
    csv_a, csv_b = ((tmp_path / name / "coherence-time.csv").read_text()
                    for name in ("a", "b"))
    assert csv_a == csv_b and "# git = " in csv_a


def test_fock_demo_free_phase_seed_at_3_sigma_passes(tmp_path: Path):
    """This seed's free-phase element sits 3.09 sigma out, which is a
    chance of e^-9.5 on correct code, not a surviving coherence."""
    out = tmp_path / "fock"
    assert cli.main(["fock-demo", "--seed", "4944246525788589698",
                     "--out", str(out)]) == 0
    assert _fock_checks(out)["free_phase_suppressed"]["passed"] is True


def test_fock_demo_catches_unsuppressed_coherence(tmp_path: Path,
                                                  monkeypatch):
    """Linear phases in place of free ones leave the survivor b_sum, 100
    sigma at the default n_free, and the check fails."""
    def linear_instead(modes, mags, alpha_abs, n_samples, seed):
        return cli.fockdis.linear_phase_ensemble(modes, mags, alpha_abs)

    monkeypatch.setattr(cli.fockdis, "free_phase_ensemble", linear_instead)
    out = tmp_path / "fock"
    assert cli.main(["fock-demo", "--out", str(out)]) == 1
    assert _fock_checks(out)["free_phase_suppressed"]["passed"] is False


def test_fock_demo_builds_each_density_matrix_once(tmp_path: Path,
                                                   monkeypatch):
    """The selection rules read the linear mixture's rho; nothing builds it
    a second time."""
    build = cli.fockdis.build_rho_mixture
    sizes = []

    def counted(*args):
        sizes.append(len(args[-1]))
        return build(*args)

    monkeypatch.setattr(cli.fockdis, "build_rho_mixture", counted)
    assert cli.main(["fock-demo", "--out", str(tmp_path / "fock")]) == 0
    assert sizes == [1024, 10000]


@pytest.mark.parametrize("args", [
    ("fig1", "--T", "-10"),
    ("fig1", "--n-points", "1"),
    ("fig1", "--orientation", "diagonal"),
    ("gaussian-scan", "--durations", "10parsecs"),
    ("bogus-experiment",),
    ("coherence-time", "--T", "inf"),
    ("fock-demo", "--cutoff", "0"),
    ("fock-demo", "--n-free", "0"),
    ("fock-demo", "--alpha-abs=-0.8"),
    ("simcond-thermal", "--n-tau", "0"),
    ("gaussian-scan", "--durations", "0fs"),
    ("scaling", "--n-omega", "1"),
    ("g2-contrast", "--n", "50"),
    ("g2-contrast", "--n-strata", "0"),
    ("g2-contrast", "--r-factor", "0"),
    ("g2-contrast", "--r-factor", "-2"),
    ("g2-contrast", "--r-factor", "nan"),
    ("scaling", "--config", "[scaling]\nextent_lo = 0\n"),
    ("scaling", "--config", "[scaling]\nextent_lo = -5\n"),
    ("scaling", "--config", "[scaling]\nextent_lo = 100\n"),
    ("scaling", "--config", "[scaling]\nextent_hi = inf\n"),
    ("fock-demo", "--seed", str(2**64)),
    ("fig1", "--rmax-um", "inf"),
    ("fig1", "--rmax-um", "nan"),
    ("simcond-thermal", "--tau-max-fs", "inf"),
    ("simcond-thermal", "--tau-max-fs", "nan"),
    ("fig1", "--T", "1e-40"),
    ("coherence-time", "--T", "1e-300"),
    ("simcond-thermal", "--T", "1e-60"),
    ("fig1", "--T", "1e40"),
    ("simcond-thermal", "--T", "1e40"),
    ("fock-demo", "--T", "1e30"),
    ("scaling", "--T", "1e-300"),
])
def test_bad_configuration_exits_two(tmp_path: Path, capsys, args):
    """A --config argument here is the INI text; it is written to a file.
    In-process: an exception that escapes cli.main fails the test, as a
    traceback from a subprocess would, and so does a RuntimeWarning.  A
    range check on a setting names it in its message.  A temperature
    outside make_context's range gave NaN checks, an overflow, warnings or
    LAPACK's text on stderr."""
    if "--config" in args:
        at = args.index("--config") + 1
        ini = tmp_path / "bad.ini"
        ini.write_text(args[at])
        args = (*args[:at], str(ini), *args[at + 1:])
    code = _exit_code([*args, "--out", str(tmp_path / "x")])
    out, err = capsys.readouterr()
    assert code == 2, (args, out, err)
    if args[0] in cli.EXPERIMENTS:
        assert err.count("configuration error:") == 1, err
    for flag in ("--rmax-um", "--tau-max-fs"):
        if flag in args:
            assert flag[2:].replace("-", "_") in err, err
    if "--T" in args:
        assert "temperature T" in err, err


# Every flag's dest and help text, and each experiment's settings at their
# defaults, written out literally so that no edit of cli._SETTINGS moves them
# unnoticed.
_FLAGS = {
    "--config": ("config", "INI config file ([global] + per-experiment)"),
    "--T": ("T", "temperature in kelvin"),
    "--seed": ("seed", "RNG seed"),
    "--out": ("out", "output directory"),
    "--rmax-um": ("rmax_um", "fig1: maximum separation in micrometers"),
    "--n-points": ("n_points", "fig1: number of separations"),
    "--orientation": ("orientation",
                      "fig1: detector-component orientation relative to R"),
    "--n-tau": ("n_tau", "simcond-thermal: tau-grid size"),
    "--tau-max-fs": ("tau_max_fs", "simcond-thermal: tau-grid upper end [fs]"),
    "--durations": ("durations", "gaussian-scan: comma list like 10fs,1ps"),
    "--n-omega": ("n_omega", "scaling: number of volumes"),
    "--n": ("n", "g2-contrast: MC samples for G2"),
    "--n-g1": ("n_g1", "g2-contrast: MC samples for the G1 match"),
    "--n-strata": ("n_strata", "g2-contrast: strata along the detector axis"),
    "--r-factor": ("r_factor",
                   "g2-contrast: detector separation in pulse extents"),
    "--cutoff": ("cutoff", "fock-demo: photons per mode"),
    "--alpha-abs": ("alpha_abs", "fock-demo: |alpha| of the pulses"),
    "--n-free": ("n_free", "fock-demo: free-phase MC ensemble size"),
}

_DEFAULT_CONFIGS = {
    "fig1": {"rmax_um": 2.0, "n_points": 200, "flat_from_um": 0.4,
             "tol_flat": 0.01, "tol_start": 1e-06, "orientation": "parallel"},
    "simcond-thermal": {"n_tau": 50, "tau_max_fs": 10.0, "tol": 1e-06},
    "gaussian-scan": {"durations": "10fs,100fs,1ps,10ps",
                      "feasible_tol": 0.001, "infeasible_level": 0.1},
    "scaling": {"extent_lo": 10.0, "extent_hi": 100.0, "n_omega": 7,
                "tol_slope": 0.01, "tol_flat": 0.01},
    "g2-contrast": {"n": 100000, "n_g1": 200000, "n_strata": 64,
                    "r_factor": 5.0, "tol_frac": 0.01, "g1_tol": 0.05},
    "fock-demo": {"alpha_abs": 0.8, "cutoff": 3, "n_free": 10000,
                  "side_um": 2.0, "tol_exact": 1e-10},
    "coherence-time": {"lo_fs": 1.0, "hi_fs": 1.6},
}


def _typed(cfg: dict) -> list:
    return sorted((k, type(v).__name__, v) for k, v in cfg.items())


def test_flags_keep_names_dests_and_help():
    parser = cli.build_parser()
    got = {a.option_strings[0]: (a.dest, a.help)
           for a in parser._actions if a.option_strings and a.dest != "help"}
    assert got == _FLAGS


def test_default_configs_pinned():
    parser = cli.build_parser()
    assert set(cli.EXPERIMENTS) == set(_DEFAULT_CONFIGS)
    for exp, want in _DEFAULT_CONFIGS.items():
        cfg = cli.load_config(exp, parser.parse_args([exp]))
        full = {"T": 5777.0, "seed": 12345, "out": "out", **want}
        assert _typed(cfg) == _typed(full), exp


def test_config_layers_merge_in_order(tmp_path: Path):
    """Defaults, then the INI file (keys as documented, T included), then
    flags."""
    ini = tmp_path / "layers.ini"
    ini.write_text("[global]\nT = 300\nseed = 5\n"
                   "[fig1]\nn_points = 30\ntol_flat = 0.02\n")
    args = cli.build_parser().parse_args(
        ["fig1", "--config", str(ini), "--seed", "9"])
    cfg = cli.load_config("fig1", args)
    assert (cfg["T"], cfg["seed"], cfg["n_points"]) == (300.0, 9, 30)
    assert (cfg["tol_flat"], cfg["rmax_um"]) == (0.02, 2.0)


def test_unknown_config_key_exits_two(tmp_path: Path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[fig1]\nwibble = 3\n")
    code, _, stderr = _run_in_process(
        capsys, "fig1", "--config", str(ini), "--out", str(tmp_path / "y"))
    assert code == 2
    assert "wibble" in stderr


def test_zero_tolerance_exits_two(tmp_path: Path, capsys):
    ini = tmp_path / "tol.ini"
    ini.write_text("[fig1]\ntol_start = 0\n")
    code, _, stderr = _run_in_process(
        capsys, "fig1", "--config", str(ini), "--out", str(tmp_path / "z"))
    assert code == 2
    assert "tol_start" in stderr


def test_missing_config_file_exits_two(tmp_path: Path, capsys):
    code, _, _ = _run_in_process(
        capsys, "fig1", "--config", str(tmp_path / "nope.ini"),
        "--out", str(tmp_path / "w"))
    assert code == 2


def test_g2_contrast_counts_checked_before_table(tmp_path: Path, monkeypatch):
    """Bad sample counts exit 2 before pulse_extent builds the table, also
    n = 100 over 64 strata, which leaves some with one draw."""
    def no_table(*args, **kwargs):
        raise AssertionError("table work before the sample counts were checked")

    monkeypatch.setattr(cli.pulsekit, "pulse_extent", no_table)
    for flags in (("--n", "50"), ("--n-g1", "50"),
                  ("--n", "100", "--n-strata", "101"),
                  ("--n", "100", "--n-strata", "64")):
        assert cli.main(["g2-contrast", *flags, "--out", str(tmp_path / "g")]) == 2


def test_extents_and_r_factor_checked_before_table(tmp_path: Path,
                                                   monkeypatch):
    """Bad scaling extents and g2-contrast r_factor exit 2 before
    pulse_extent builds the table.  The extent lies inside the default
    table, so r_factor <= 2 / _DEFAULT_REACH can never give R > 2 units."""
    def no_table(*args, **kwargs):
        raise AssertionError("table work before the geometry was checked")

    monkeypatch.setattr(cli.pulsekit, "pulse_extent", no_table)
    ini = tmp_path / "extents.ini"
    for body in ("extent_lo = 0", "extent_lo = -1", "extent_lo = 100",
                 "extent_hi = nan", "extent_hi = inf"):
        ini.write_text(f"[scaling]\n{body}\n")
        assert cli.main(["scaling", "--config", str(ini),
                         "--out", str(tmp_path / "s")]) == 2, body
    for value in ("0", "-1", "nan", "inf", "0.1"):
        assert cli.main(["g2-contrast", "--r-factor", value,
                         "--out", str(tmp_path / "g")]) == 2, value


def test_g2_contrast_short_r_rejected_before_monte_carlo(tmp_path: Path,
                                                        monkeypatch):
    """An R shorter than twice the envelope unit leaves no reach below R, so
    r_factor 0.2 of the mocked 8.01-unit extent exits 2 before either
    estimator runs."""
    def no_estimate(*args, **kwargs):
        raise AssertionError("Monte Carlo before the reach was checked")

    monkeypatch.setattr(cli.pulsekit, "pulse_extent",
                        lambda *args, **kwargs: 3.17677e-6)
    monkeypatch.setattr(cli.mcfield, "estimate_g1_mix", no_estimate)
    monkeypatch.setattr(cli.mcfield, "estimate_g2_mix", no_estimate)
    assert cli.main(["g2-contrast", "--r-factor", "0.2",
                     "--out", str(tmp_path / "g")]) == 2


@pytest.mark.parametrize("r_factor, shown", [("100", "100.0"),
                                              ("1e300", "1e+300")])
def test_g2_contrast_huge_table_rejected_before_monte_carlo(
        tmp_path: Path, monkeypatch, capsys, r_factor, shown):
    """r_factor 100 of the mocked 8.01-unit extent asks for a table reaching
    401.7 units, tens of GB of coefficients: check_reach turns it down
    right after the reach is known, and the run exits 2 naming r_factor
    before either estimator runs.  At 1e300 the tail bound used to
    overflow first and the run exited 3."""
    def no_estimate(*args, **kwargs):
        raise AssertionError("Monte Carlo before the reach was checked")

    monkeypatch.setattr(cli.pulsekit, "pulse_extent",
                        lambda *args, **kwargs: 3.17677e-6)
    monkeypatch.setattr(cli.mcfield, "estimate_g1_mix", no_estimate)
    monkeypatch.setattr(cli.mcfield, "estimate_g2_mix", no_estimate)
    assert cli.main(["g2-contrast", "--r-factor", r_factor,
                     "--out", str(tmp_path / "g")]) == 2
    err = capsys.readouterr().err
    assert f"r_factor = {shown}" in err and "above the limit" in err, err


def test_gaussian_scan_too_long_duration_exits_two(tmp_path: Path, capsys):
    """At 1e9 s the lineshape is so narrow that some carrier's kernel
    column vanishes on every fit node: the weight solve refuses it with a
    message naming sigma and the duration, and no warning, instead of
    scipy's "array must not contain infs or NaNs" after a 0/0."""
    assert cli.main(["gaussian-scan", "--durations", "1e9s",
                     "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert "sigma = 3.33564e-18 1/m" in err and "1e+09 s" in err, err


def test_numerical_failure_exits_three(tmp_path: Path, monkeypatch):
    def blow_up(cfg, rep):
        raise AccuracyError("tail not converged", value=0.0)

    monkeypatch.setitem(cli._RUNNERS, "coherence-time", blow_up)
    rc = cli.main(["coherence-time", "--out", str(tmp_path / "n")])
    assert rc == 3

    def diverge(cfg, rep):
        raise RuntimeError("quantile beyond table reach")

    monkeypatch.setitem(cli._RUNNERS, "coherence-time", diverge)
    assert cli.main(["coherence-time", "--out", str(tmp_path / "n")]) == 3


def test_arithmetic_error_exits_three(tmp_path: Path, monkeypatch, capsys):
    """A ZeroDivisionError mid-run, such as fig1 raised at T = 1e300 K
    before make_context refused that temperature, exits 3 with one line on
    stderr, not a traceback and not the 1 of a by-design FAIL."""
    def divide(cfg, rep):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setitem(cli._RUNNERS, "fig1", divide)
    assert cli.main(["fig1", "--out", str(tmp_path / "f")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert err.startswith("numerical accuracy failure:"), err
