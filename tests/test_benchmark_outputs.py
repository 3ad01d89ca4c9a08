import importlib.util
import json
import sys
from pathlib import Path

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_table_free_pass_matches_benchmark_reference(tmp_path: Path,
                                                    monkeypatch):
    """One pass of the benchmark's table-free workload, checked against
    perfbench/reference.json: an output drift in any of its five
    experiments fails here before it fails the benchmark."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", _PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    ref = json.loads((_PERFBENCH / "reference.json").read_text())
    ops = workloads.TableFree(7, 0, str(tmp_path), ref["table-free"]).run_pass(0)
    assert [op.name for op in ops] == list(workloads.TableFree.experiments)
    bad = [(op.name, op.note) for op in ops if not op.ok]
    assert not bad, bad
