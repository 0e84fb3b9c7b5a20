"""Lookup of the OpenBLAS that numpy's wheel bundles: its thread count, for
the CLI's thread pin and the solver's choice of worker count, and the
per-bin kernels the solver calls on it.

The kernels are called through ``ctypes.CDLL``, which releases the GIL for
the duration of every call, so the solver's bin workers run them in
parallel. scipy's f2py BLAS/LAPACK wrappers hold the GIL and run on a
second OpenBLAS copy, so ``convpred`` does not use them.
"""

import ctypes
import functools
import os
from pathlib import Path

import numpy as np

_ROW_MAJOR, _NO_TRANS, _CONJ_TRANS = 101, 111, 113
_ONE = np.array([1.0, 0.0])
_ZERO = np.array([0.0, 0.0])


def _check(shapes, which=()):
    """Check what the kernels get pointers to: C-contiguous complex128
    arrays of the given shapes, and indices into their first axis."""
    for a, shape in shapes:
        if (a.dtype != np.complex128 or not a.flags.c_contiguous
                or a.shape != shape):
            raise ValueError(f"expected a C-contiguous complex128 array of "
                             f"shape {shape}; got {a.dtype} {a.shape}")
    if len(which) and not 0 <= min(which) <= max(which) < shapes[0][1][0]:
        raise ValueError("index out of range")


@functools.cache
def _numpy_openblas_lib():
    """numpy's bundled ILP64 OpenBLAS, opened with RTLD_NOLOAD so no second
    copy is ever loaded; None when numpy uses another BLAS (MKL,
    Accelerate, a system OpenBLAS)."""
    if not hasattr(os, "RTLD_NOLOAD"):
        return None
    libs_dir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs_dir.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        return lib
    return None


@functools.cache
def numpy_openblas():
    """The thread-count getter and setter of the OpenBLAS numpy has loaded,
    or None without it."""
    lib = _numpy_openblas_lib()
    if lib is None:
        return None
    get_threads = lib.scipy_openblas_get_num_threads64_
    set_threads = lib.scipy_openblas_set_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


class Kernels:
    """Per-matrix zgemm, zpotrf and zpotrs of numpy's OpenBLAS.

    Each method loops over the leading axis of C-contiguous complex128
    arrays and makes one call per matrix.
    """

    def __init__(self, lib):
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        self._zgemm = lib.scipy_cblas_zgemm64_
        self._zgemm.argtypes = [ctypes.c_int] * 3 + [i64] * 3 + [
            ptr, ptr, i64, ptr, i64, ptr, ptr, i64]
        self._zgemm.restype = None
        # Fortran LAPACK: every argument by reference, then the hidden
        # length of the character argument.
        self._zpotrf = lib.scipy_zpotrf_64_
        self._zpotrf.argtypes = [ctypes.c_char_p] + [ptr] * 4 + [ctypes.c_size_t]
        self._zpotrf.restype = None
        self._zpotrs = lib.scipy_zpotrs_64_
        self._zpotrs.argtypes = [ctypes.c_char_p] + [ptr] * 7 + [ctypes.c_size_t]
        self._zpotrs.restype = None

    def gram(self, m, out):
        """out[i] = m[i] @ m[i]^H for m of shape (b, n, t), out (b, n, n)."""
        b, n, t = m.shape
        _check([(m, (b, n, t)), (out, (b, n, n))])
        m_ptr, m_step = m.ctypes.data, m.strides[0]
        out_ptr, out_step = out.ctypes.data, out.strides[0]
        one, zero = _ONE.ctypes.data, _ZERO.ctypes.data
        for i in range(b):
            a = m_ptr + i * m_step
            self._zgemm(_ROW_MAJOR, _NO_TRANS, _CONJ_TRANS, n, n, t, one,
                        a, t, a, t, zero, out_ptr + i * out_step, n)

    def cholesky(self, a, which):
        """Factor a[i] in place for each i in ``which``, a of shape
        (b, n, n); returns a bool array over ``which``, False where a[i] is
        not positive definite.

        LAPACK reads the row-major a[i] as its transpose, so this factors
        conj(H) where H is the Hermitian matrix of a[i]'s lower triangle;
        ``solve`` accounts for that. The strict upper triangle is left as
        it was.
        """
        b, n = a.shape[:2]
        _check([(a, (b, n, n))], which)
        dim, info = ctypes.c_int64(n), ctypes.c_int64(0)
        dim_p, info_p = ctypes.addressof(dim), ctypes.addressof(info)
        ok = np.empty(len(which), dtype=bool)
        ptr, step = a.ctypes.data, a.strides[0]
        for j, i in enumerate(which.tolist()):
            self._zpotrf(b"U", dim_p, ptr + i * step, dim_p, info_p, 1)
            ok[j] = info.value == 0
        return ok

    def solve(self, factor, rhs, which):
        """Overwrite rhs[i] (shape (n, 1)) with H^-1 rhs[i] for each i in
        ``which``, H the Hermitian matrix ``cholesky`` factored into
        factor[i]."""
        b, n = factor.shape[:2]
        _check([(factor, (b, n, n)), (rhs, (b, n, 1))], which)
        dim, nrhs, info = ctypes.c_int64(n), ctypes.c_int64(1), ctypes.c_int64(0)
        dim_p, nrhs_p, info_p = (ctypes.addressof(dim), ctypes.addressof(nrhs),
                                 ctypes.addressof(info))
        f_ptr, f_step = factor.ctypes.data, factor.strides[0]
        r_ptr, r_step = rhs.ctypes.data, rhs.strides[0]
        # LAPACK solves conj(H) y = conj(rhs) on the transposed view; y = conj(x)
        np.conjugate(rhs, out=rhs)
        for i in which.tolist():
            self._zpotrs(b"U", dim_p, nrhs_p, f_ptr + i * f_step, dim_p,
                         r_ptr + i * r_step, dim_p, info_p, 1)
        np.conjugate(rhs, out=rhs)


@functools.cache
def numpy_kernels():
    """The solver's kernels on numpy's OpenBLAS, bound on first use, or
    None when numpy does not bundle OpenBLAS or it lacks a symbol."""
    lib = _numpy_openblas_lib()
    if lib is None:
        return None
    try:
        return Kernels(lib)
    except AttributeError:
        return None
