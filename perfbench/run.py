"""thermolight benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it imports thermolight from ``src/`` of the checkout that
holds this directory and writes only to ``.perfbench_out/`` there, which it
removes again.  Workloads and metrics are listed in BENCHMARK.json and
perfbench/README.md.

With ``--trace 0`` the workload runs in PROCESSES fresh processes one after
the other.  Each does its own set-up and then a closed loop of passes for
--seconds / PROCESSES, at least one pass.  Printed are wall_s (mean pass
time, with the sample count, the median and the tail percentile when there
are enough samples), setup_s (median over the processes), peak_rss_mb
(median ru_maxrss) and the share of operations whose output check failed.
With ``--trace 1`` one fresh process runs each pass with and without the
layer wrappers of tracing.py and prints per-layer metrics for one set-up
plus one pass.  MC estimates are checked per call in the workload
processes, and G2 once more pooled over all calls of the run.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when that line was
printed; without the program's source or a child that exits cleanly it is
nonzero and no such line is printed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common

CHILD = Path(__file__).resolve().parent / "child.py"
PROCESSES = 3
DEADLINE_S = 170.0          # the whole run, all child processes included


class ChildFailed(RuntimeError):
    pass


def git_commit() -> str:
    if not (common.ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        head = subprocess.run(["git", "-C", str(common.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "-C", str(common.ROOT), "status",
                                "--porcelain", "--", "src"],
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if head.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_env": common.THREAD_ENV,
        "git_commit": git_commit(),
        "thermolight_source_sha256": common.source_digest(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


def spawn(spec: dict, deadline: float) -> dict:
    """Run one child to completion and return the JSON it printed last."""
    env = dict(os.environ, **common.THREAD_ENV)
    spec = dict(spec, t_spawn=time.monotonic())
    proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)],
                            stdout=subprocess.PIPE, text=True, env=env,
                            cwd=str(common.ROOT))
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"child {spec['child']} exceeded the run deadline")
    if proc.returncode != 0:
        raise ChildFailed(f"child {spec['child']} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n - 10 <= n / 2:
        return f"none beyond the median (n = {n}, needs > 20)"
    return f"p{100.0 * (n - 10) / n:.0f} = {sorted(samples)[n - 11]:.6g} s"


def run(args, out_dir: str) -> list[dict]:
    """Spawn fresh workload processes one after another, as the mode asks."""
    deadline = time.monotonic() + DEADLINE_S
    base = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "out_dir": out_dir}
    if args.trace:
        return [spawn(dict(base, child=0, seconds=args.seconds), deadline)]
    return [spawn(dict(base, child=k, seconds=args.seconds / PROCESSES), deadline)
            for k in range(PROCESSES)]


def count_ops(args, children: list[dict]) -> tuple[int, int]:
    """Operations attempted and failed over the run.

    An estimator whose calls fail the check pooled over the whole run counts
    every one of its calls as failed.
    """
    ops: dict[str, list] = {}
    estimates: dict[str, list] = {}
    for c in children:
        for name, (n, bad) in c["ops"].items():
            ops.setdefault(name, [0, 0])
            ops[name][0] += n
            ops[name][1] += bad
        for name, ests in c["estimates"].items():
            estimates.setdefault(name, []).extend(ests)
    if estimates:
        # thermolight is imported here, after the workload processes ended
        common.use_checkout_source()
        import workloads
        ref = json.loads(common.REFERENCE.read_text())[args.workload]
        for name, ests in sorted(estimates.items()):
            ok, note = workloads.WORKLOADS[args.workload].check(name, ests, ref)
            print(f"  pooled {'ok    ' if ok else 'FAILED'} {name}: {note}")
            if not ok:
                ops[name][1] = ops[name][0]
    return sum(n for n, _ in ops.values()), sum(bad for _, bad in ops.values())


def report(args, children: list[dict], layer_units: dict) -> dict:
    attempted, failed = count_ops(args, children)
    mismatches = sum(c["mismatches"] for c in children)
    passes = [t for c in children for t in c["pass_s"]]
    print(f"failed_share     {failed}/{attempted} = {failed / attempted:.6g} "
          "(operations whose output check failed)")
    for c in children:
        for line in c["failures"]:
            print(f"  FAILED {line}")
    for line in children[0]["notes"]:
        print(f"  note   {line}")
    if args.trace:
        layers = children[0]["layers"]
        print(f"traced passes    {len(passes)} (each also run untraced); "
              f"output mismatches {mismatches}")
        for name in sorted(layers):
            print(f"  {name:40s} {layers[name]:.6g}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in layer_units.items()}
    else:
        # Other tenants of a shared host slow the CPU itself (CPU time tracks
        # wall time) for seconds to minutes at a time.  The mean uses every
        # pass of the run; over seven runs it spread less than the median of
        # the few passes a run holds.
        wall = math.fsum(passes) / len(passes)
        setup = statistics.median(c["setup_s"] for c in children)
        rss = statistics.median(c["rss_mb"] for c in children)
        print(f"wall_s           {wall:.6g} s  mean of {len(passes)} passes; "
              f"median {statistics.median(passes):.6g} s, tail {tail(passes)}, "
              f"min {min(passes):.6g} s, max {max(passes):.6g} s")
        each = ", ".join(f"{c['setup_s']:.4g}" for c in children)
        print(f"setup_s          {setup:.6g} s  median of {len(children)} "
              f"processes ({each})")
        print(f"peak_rss_mb      {rss:.6g} MB  median of {len(children)} processes")
        for key in ("g1_time_to_1pct_s", "g2_time_to_1pct_s"):
            vals = [c[key] for c in children if c[key]]
            if vals:
                print(f"{key}  {statistics.median(vals):.6g} s  (per-layer metric "
                      f"mcfield.{key} in the traced run)")
        metrics = {"wall_s": {"value": wall, "unit": "s"},
                   "setup_s": {"value": setup, "unit": "s"},
                   "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"correct": failed == 0 and mismatches == 0 and attempted > 0,
            "attempted": attempted, "failed": failed + mismatches,
            "metrics": metrics}


def main() -> int:
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        p.error("need --seed >= 0 and --seconds > 0")
    if not (common.SRC / "thermolight" / "__init__.py").is_file():
        print(f"run.py: no thermolight source under {common.SRC}", file=sys.stderr)
        return 2
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    out_dir = common.OUT / str(os.getpid())
    try:
        children = run(args, str(out_dir))
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if common.OUT.is_dir() and not any(common.OUT.iterdir()):
            common.OUT.rmdir()
    print(json.dumps(report(args, children, layer_units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
