"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

For each workload of BENCHMARK.json it makes two traced runs
(``run.py --trace 1``) of SECONDS seconds with seed SEED and checks that

* each run is correct, which includes every traced pass returning the same
  bits as the same pass untraced (the wrappers are pass-through);
* every per-layer metric that is not a time or a seed-dependent share
  (``.nodes``, ``.cells``, ``.points``, ``mcfield.draws``, ...) repeats
  exactly between the two runs.

It prints the tracing overhead of each run, traced minus untraced pass time.
Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SECONDS = 2.0
SEED = 7


def traced_run(workload: str) -> dict:
    cp = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                         "--seed", str(SEED), "--seconds", str(SECONDS),
                         "--trace", "1"], capture_output=True, text=True,
                        timeout=200)
    if cp.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {cp.returncode}\n{cp.stderr}")
    return json.loads(cp.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    exact = [m["name"] for m in bench["per_layer"]
             if m["unit"] in ("count", "MB")]

    ok = True
    for wl in (w["name"] for w in bench["workloads"]):
        a, b = (traced_run(wl) for _ in range(2))
        same = [m for m in exact
                if a["metrics"][m]["value"] != b["metrics"][m]["value"]]
        good = a["correct"] and b["correct"] and not same
        ok &= good
        overhead = [r["metrics"]["trace.overhead_s"]["value"] for r in (a, b)]
        print(f"{'PASS' if good else 'FAIL'} {wl}: traced outputs equal untraced "
              f"({a['correct'] and b['correct']}); counts repeat "
              f"({'all' if not same else 'not ' + ', '.join(same)}); tracing "
              f"overhead per pass {overhead[0]:.4g} s, {overhead[1]:.4g} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
