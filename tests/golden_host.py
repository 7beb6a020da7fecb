"""The host fingerprint that decides whether the pinned goldens can hold.

The params digests in ``test_goldens.py`` are bit-exact, and the bits depend
on which OpenBLAS kernels and which numpy SIMD loops the host runs.
``golden_host.json`` records the fingerprint the goldens were pinned on.
Run this file to print this host's fingerprint as JSON:

    python tests/golden_host.py
"""

import ctypes
import glob
import json
import os
import platform

import numpy as np

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

PINNED_PATH = os.path.join(os.path.dirname(__file__), "golden_host.json")
# Fields a golden mismatch can follow from; the rest is printed only.
COMPARED = ("numpy", "simd_baseline", "simd_dispatch", "openblas_core")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas_info():
    """(core, config) of the OpenBLAS that numpy's wheel bundles, asked at
    run time, or (None, None) when no such library is found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        lib = ctypes.CDLL(path)
        core, config = lib.scipy_openblas_get_corename64_, lib.scipy_openblas_get_config64_
        core.argtypes = config.argtypes = []
        core.restype = config.restype = ctypes.c_char_p
        return core().decode(), config().decode()
    return None, None


def fingerprint() -> dict:
    """Python and numpy versions, numpy's baseline and enabled dispatch
    targets, the OpenBLAS runtime core and config, and the BLAS thread
    variables (None when unset)."""
    core, config = _openblas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_baseline": list(_umath.__cpu_baseline__),
        "simd_dispatch": [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)],
        "openblas_core": core,
        "openblas_config": config,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def mismatch_section(pinned_on: dict, running: dict) -> str | None:
    """A "pinned on / this host runs" report for the compared fields that
    differ, or None when they all agree."""
    differing = [key for key in COMPARED if pinned_on.get(key) != running.get(key)]
    if not differing:
        return None
    lines = ["The goldens hold only on a host like the one they were pinned on."]
    lines += [f"{key}: pinned on {pinned_on.get(key)!r}, this host runs {running.get(key)!r}"
              for key in differing]
    lines.append(f"BLAS threads (not compared): {running.get('threads')}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(json.dumps(fingerprint(), indent=2))
