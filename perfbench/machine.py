"""The machine block printed with every result."""

import ctypes
import hashlib
import os
import platform
import subprocess

import numpy as np

BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads():
    """Thread count of the BLAS numpy loaded, read from the library itself.

    A GEMM-form product would start using these threads, so the count is
    part of every result.  None where the library is not OpenBLAS or its
    mapping cannot be read.
    """
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _numba_imports():
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def _git_sha(root):
    if not (root / ".git").exists():
        return None  # plain checkout
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest(root):
    """sha256 of the package sources: identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "modstab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_block(root):
    import modstab

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "modstab_backend": modstab.ACTIVE_BACKEND,
        "numba_imports": _numba_imports(),
        "git_sha": _git_sha(root),
        "src_sha256": _src_digest(root),
    }
