"""Process set-up shared by the benchmark entry point and its tests.

Nothing here imports numpy at module level: `pin_blas_threads` must run
before numpy is first imported, or OpenBLAS has already sized its pool.
"""
from __future__ import annotations

import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

# One BLAS thread: every workload is a single process on one core, so the
# timings do not depend on how many cores the machine happens to have.
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SourceMissing(RuntimeError):
    """The checkout holds no borngen source tree to benchmark."""


def pin_blas_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for name in _BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    # keep `git describe` (ours and the report writer's) inside the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)


def use_checkout_source():
    """Import borngen from this checkout's `src/`, never from elsewhere."""
    package = SOURCE / "borngen" / "__init__.py"
    if not package.is_file():
        raise SourceMissing(f"no borngen source tree at {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import borngen

    if Path(borngen.__file__).resolve() != package.resolve():
        raise SourceMissing(f"borngen imported from {borngen.__file__}, not {SOURCE}")
    return borngen


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads_in_use():
    """Thread count OpenBLAS reports, read back through its own API."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    for lib in libs:
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        return get()
    return None


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "not a git checkout"


def _os_threads() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def environment() -> dict:
    """Where a result was measured: hardware, versions, BLAS and threads."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "process_threads": _os_threads(),
        "git_describe": _git_describe(),
    }
