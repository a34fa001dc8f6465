"""Paths, thread pinning and provenance shared by the benchmark scripts.

Importing this module pins the BLAS and OpenMP thread pools to one thread
in ``os.environ``, so it must be imported before NumPy.  Child processes
inherit the pinned environment through :func:`child_env`.
"""

import importlib.metadata
import os
import platform
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
os.environ.update({var: "1" for var in THREAD_VARS})

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# run records, span dumps and generated state files; listed in .gitignore
OUT = ROOT / ".bench_out"


class MissingProgram(RuntimeError):
    """The checkout holds no qcorr sources to benchmark."""


def use_checkout_sources():
    """Put the checkout's ``src`` first on ``sys.path`` and import qcorr.

    Raises ``MissingProgram`` when the sources are absent or the imported
    package is not the one under ``src``.
    """
    if not (SRC / "qcorr" / "__init__.py").is_file():
        raise MissingProgram(f"no qcorr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcorr

    if Path(qcorr.__file__).resolve().parent != SRC / "qcorr":
        raise MissingProgram(f"imported qcorr from {qcorr.__file__}, not {SRC}")
    return qcorr


def child_env():
    """Environment for child interpreters: pinned threads, checkout sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(qcorr):
    """What the numbers depend on besides the code under test."""
    import numpy

    try:
        # metadata only: importing scipy here would add to the peak RSS
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    backend = getattr(qcorr, "backend_name", None)
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "qcorr_backend": backend() if callable(backend) else "absent",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
