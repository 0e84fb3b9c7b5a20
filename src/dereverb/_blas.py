"""Lookup of the OpenBLAS that numpy's wheel bundles, shared by the CLI's
thread pin and the solver's choice of worker count."""

import ctypes
import os
from pathlib import Path

import numpy as np


def numpy_openblas():
    """The thread-count getter and setter of the OpenBLAS numpy has loaded.

    Only the copy bundled in numpy's wheel is looked up, and it is opened
    with RTLD_NOLOAD, so no second copy is ever loaded. Returns None when
    numpy uses another BLAS (MKL, Accelerate, a system OpenBLAS).
    """
    if not hasattr(os, "RTLD_NOLOAD"):
        return None
    libs_dir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs_dir.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None
