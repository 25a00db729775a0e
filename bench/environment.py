"""BLAS thread pinning and the environment block of a benchmark run.

The benchmark measures single-threaded BLAS only. On a small machine the
default OpenBLAS threading makes the 128x128 factorizations many times slower
and changes LSQR iteration counts, so neither times nor counts would repeat.
That slowdown is outside what this benchmark sees.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = 1


def pin_thread_env() -> None:
    """Ask every BLAS in this process for one thread.

    Takes effect only for libraries loaded afterwards, so call it before
    numpy or scipy is imported; :func:`pin_loaded_openblas` covers the rest.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _openblas_libraries() -> list[ctypes.CDLL]:
    """The OpenBLAS copies bundled with the numpy and scipy wheels, if any."""
    import numpy
    import scipy

    libs = []
    for package in (numpy, scipy):
        libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            libs.append(ctypes.CDLL(path))
    return libs


def _symbol(lib: ctypes.CDLL, stem: str):
    for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}",
                 f"openblas_{stem}64_", f"openblas_{stem}"):
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def pin_loaded_openblas() -> list[dict]:
    """Set every loaded OpenBLAS to one thread and read back its setting."""
    report = []
    for lib in _openblas_libraries():
        setter = _symbol(lib, "set_num_threads")
        getter = _symbol(lib, "get_num_threads")
        config = _symbol(lib, "get_config")
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(BLAS_THREADS)
        entry = {"library": Path(lib._name).name}
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            entry["threads"] = int(getter())
        if config is not None:
            config.argtypes = []
            config.restype = ctypes.c_char_p
            entry["config"] = config().decode(errors="replace").strip()
        report.append(entry)
    return report


def blas_threads_pinned(report: list[dict]) -> bool:
    """Whether every OpenBLAS that could be queried runs one thread."""
    return all(entry.get("threads", BLAS_THREADS) == BLAS_THREADS for entry in report)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_block(workload: str, seed: int, blas_report: list[dict]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_pinned": BLAS_THREADS,
        "openblas_runtime": blas_report,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": sys.platform,
        "workload": workload,
        "seed": seed,
    }
