import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_benchmark_trace_sites_resolve():
    """The benchmark's trace mode wraps each (owner, attribute) listed in
    perfbench/tracing.py's SITES, so a library rename would break it
    there; every entry must name a callable."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(owner, attr) for owner, attr, _, _ in tracing.SITES
               if not callable(getattr(owner, attr, None))]
    assert len(tracing.SITES) >= 20 and not missing, missing
