"""The machine and library record printed with every benchmark result."""

import ctypes
import glob
import os
import platform


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches():
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(f"{index}/{k}") for k in ("level", "type", "size"))
        if level and size:
            out[f"L{level}{'' if kind == 'Unified' else (kind or '')[0].lower()}"] = size
    return out


def _blas_threads():
    """Thread count each loaded OpenBLAS reports through its own API."""
    libs = sorted({line.split()[-1] for line in (_read("/proc/self/maps") or "").splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = fn()
                break
    return out


def environment():
    import numpy
    import scipy
    import voctrl

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "VOC_THREADS": os.environ.get("VOC_THREADS"),
        "voctrl_backend": voctrl.DEFAULT_BACKEND,
    }
