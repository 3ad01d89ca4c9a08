"""Paths and environment shared by the benchmark's entry points."""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# BLAS and OpenMP pools pinned to one thread, as in the ROADMAP baseline
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class MissingSource(RuntimeError):
    pass


def use_checkout_source() -> None:
    """Import thermolight from this checkout's src/ and nowhere else."""
    if not (SRC / "thermolight" / "__init__.py").is_file():
        raise MissingSource(f"no thermolight package under {SRC}")
    sys.path.insert(0, str(SRC))
    import thermolight
    if Path(thermolight.__file__).resolve().parent != SRC / "thermolight":
        raise MissingSource(f"thermolight imported from {thermolight.__file__}")


def source_digest() -> str:
    """sha256 over the thermolight sources, standing in for a git commit."""
    h = hashlib.sha256()
    for path in sorted((SRC / "thermolight").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def pin_threads() -> None:
    """Set the thread variables; call before numpy is imported."""
    os.environ.update(THREAD_ENV)
