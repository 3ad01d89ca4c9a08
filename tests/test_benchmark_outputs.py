import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["mc-sampling", "table-free",
                                  "tail-quadrature"])
def test_workload_pass_matches_benchmark_reference(tmp_path: Path,
                                                   monkeypatch, name):
    """One pass of a benchmark workload (seed 7, child 0, pass 0), checked
    against perfbench/reference.json: an output drift, or a library call
    the workload makes that no longer works, fails here before it fails
    the benchmark."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", _PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    ref = json.loads((_PERFBENCH / "reference.json").read_text())
    ops = workloads.WORKLOADS[name](7, 0, str(tmp_path), ref[name]).run_pass(0)
    assert ops
    if name == "table-free":
        assert [op.name for op in ops] == list(workloads.TableFree.experiments)
    bad = [(op.name, op.note) for op in ops if not op.ok]
    assert not bad, bad
