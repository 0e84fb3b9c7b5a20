"""Lookup of the OpenBLAS that numpy's wheel bundles: its thread count,
which ``one_blas_thread`` pins for the CLI and the solver, the shutdown of
its idle worker threads, which the pin calls at its edges, and the
kernels called on it through ``ctypes.CDLL``: the solver's per-bin complex
Gram, Cholesky factor and solves, and the real blocked Cholesky factor and
solve of the 512-tap SDR's normal equations. ``ctypes`` releases the GIL
for every call, so the solver's bin workers run them in parallel. scipy's
f2py BLAS and LAPACK wrappers hold the GIL and run on a second OpenBLAS
copy, so only ``ScipyKernels``, the fallback for a numpy without its
bundled OpenBLAS, uses them, and it imports ``scipy.linalg`` only when one
of its methods first runs; the solver then runs on one worker. Importing
this module loads no scipy module.
"""

import contextlib
import ctypes
import functools
import os
import threading
from pathlib import Path

import numpy as np

_ROW_MAJOR, _NO_TRANS, _TRANS, _CONJ_TRANS = 101, 111, 112, 113
_UPPER, _NON_UNIT, _LEFT = 121, 131, 141
# Column width of the blocks spd_cholesky factors one at a time. OpenBLAS
# runs a dpotrf this small on one thread, and it splits the dtrsm and dsyrk
# updates between its threads by output rows and columns, so every element
# of the factor gets the same arithmetic on any thread count. A whole-matrix
# dpotrf splits its work by thread count, and its bits follow.
_FACTOR_BLOCK = 48
_ONE = np.array([1.0, 0.0])
_ZERO = np.array([0.0, 0.0])


def _check(shapes, which=(), dtype=np.complex128):
    """Check what the kernels get pointers to: C-contiguous arrays of
    ``dtype`` and the given shapes, and indices into their first axis."""
    for a, shape in shapes:
        if a.dtype != dtype or not a.flags.c_contiguous or a.shape != shape:
            raise ValueError(f"expected a C-contiguous {np.dtype(dtype)} array "
                             f"of shape {shape}; got {a.dtype} {a.shape}")
    if len(which) and not 0 <= min(which) <= max(which) < shapes[0][1][0]:
        raise ValueError("index out of range")


def _blocks(n):
    """(start, stop) of each block of columns ``spd_cholesky`` factors."""
    return [(k, min(k + _FACTOR_BLOCK, n)) for k in range(0, n, _FACTOR_BLOCK)]


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


@functools.cache
def numpy_openblas_shutdown():
    """``blas_thread_shutdown_`` of the OpenBLAS numpy has loaded, which
    joins its worker threads (the next threaded call starts them again),
    or None without it: another BLAS, or an OpenBLAS that lacks it."""
    shutdown = getattr(_numpy_openblas_lib(), "blas_thread_shutdown_", None)
    if shutdown is not None:
        shutdown.argtypes, shutdown.restype = [], ctypes.c_int
    return shutdown


def _stop_idle_workers():
    """Join OpenBLAS's worker threads if this is the process's only Python
    thread. The workers spin for ~0.1 s after each threaded call, and after
    the count is set once they are stopped (setting it starts them), and a
    spinning worker takes a core from the bin pool. Joining is unsafe while
    another thread is inside a threaded call; with one Python thread none
    can be."""
    shutdown = numpy_openblas_shutdown()
    if shutdown is not None and threading.active_count() == 1:
        shutdown()


# The pin's state is process-wide, as the thread count is.
_pin_lock = threading.Lock()
_pin_depth, _pin_saved = 0, None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS, if numpy has it, on one thread:
    the first caller in saves the count and sets 1, and the last caller out
    restores it, so blocks that nest or overlap in threads all run on one.
    The solver's small per-bin GEMMs gain nothing from more threads, which
    wait for descheduled workers under load and move the GEMMs' bits.
    After setting the count, the first caller in and the last caller out
    each stop OpenBLAS's idle workers when no other Python thread runs
    (``_stop_idle_workers``): the worker a threaded call before the block
    left spinning, and the one that restoring the count starts."""
    global _pin_depth, _pin_saved
    get_threads, set_threads = numpy_openblas() or (None, None)
    with _pin_lock:
        if set_threads and _pin_depth == 0:
            _pin_saved = get_threads()
            set_threads(1)
            _stop_idle_workers()
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if set_threads and _pin_depth == 0:
                set_threads(_pin_saved)
                _stop_idle_workers()


class Kernels:
    """Per-matrix zgemm, zpotrf and zpotrs of numpy's OpenBLAS, and its
    dpotrf, dtrsm, dsyrk and dtrsv for one real symmetric matrix.

    Each complex method loops over the leading axis of C-contiguous
    complex128 arrays and makes one call per matrix.
    """

    def __init__(self, lib):
        i64, ptr, dbl, enum = (ctypes.c_int64, ctypes.c_void_p, ctypes.c_double,
                               ctypes.c_int)
        self._zgemm = lib.scipy_cblas_zgemm64_
        self._zgemm.argtypes = [enum] * 3 + [i64] * 3 + [
            ptr, ptr, i64, ptr, i64, ptr, ptr, i64]
        self._dtrsm = lib.scipy_cblas_dtrsm64_
        self._dtrsm.argtypes = [enum] * 5 + [i64, i64, dbl, ptr, i64, ptr, i64]
        self._dsyrk = lib.scipy_cblas_dsyrk64_
        self._dsyrk.argtypes = [enum] * 3 + [i64, i64, dbl, ptr, i64, dbl, ptr, i64]
        self._dtrsv = lib.scipy_cblas_dtrsv64_
        self._dtrsv.argtypes = [enum] * 4 + [i64, ptr, i64, ptr, i64]
        # Fortran LAPACK: every argument by reference, then the hidden
        # length of the character argument.
        self._zpotrf = lib.scipy_zpotrf_64_
        self._dpotrf = lib.scipy_dpotrf_64_
        for potrf in (self._zpotrf, self._dpotrf):
            potrf.argtypes = [ctypes.c_char_p] + [ptr] * 4 + [ctypes.c_size_t]
        self._zpotrs = lib.scipy_zpotrs_64_
        self._zpotrs.argtypes = [ctypes.c_char_p] + [ptr] * 7 + [ctypes.c_size_t]
        for fn in (self._zgemm, self._dtrsm, self._dsyrk, self._dtrsv,
                   self._zpotrf, self._dpotrf, self._zpotrs):
            fn.restype = None

    def gram(self, m, out, accumulate=False):
        """out[i] = m[i] @ m[i]^H for m of shape (b, n, t), out (b, n, n);
        with ``accumulate``, out[i] += m[i] @ m[i]^H (zgemm's beta = 1)."""
        b, n, t = m.shape
        _check([(m, (b, n, t)), (out, (b, n, n))])
        m_ptr, m_step = m.ctypes.data, m.strides[0]
        out_ptr, out_step = out.ctypes.data, out.strides[0]
        one = _ONE.ctypes.data
        beta = (_ONE if accumulate else _ZERO).ctypes.data
        for i in range(b):
            a = m_ptr + i * m_step
            self._zgemm(_ROW_MAJOR, _NO_TRANS, _CONJ_TRANS, n, n, t, one,
                        a, t, a, t, beta, out_ptr + i * out_step, n)

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

    def spd_cholesky(self, a):
        """Factor the symmetric positive definite float64 a (n, n) in place,
        one ``_FACTOR_BLOCK``-column block at a time: a = U^T U with U in
        the upper triangle (LAPACK's lower factor of the column-major
        view). Returns False, with ``a`` partly overwritten, when a is not
        positive definite. The strict lower triangle is left as it was.
        """
        n = a.shape[0]
        _check([(a, (n, n))], dtype=np.float64)
        dim, ld, info = ctypes.c_int64(0), ctypes.c_int64(n), ctypes.c_int64(0)
        dim_p, ld_p, info_p = (ctypes.addressof(dim), ctypes.addressof(ld),
                               ctypes.addressof(info))
        row, item = a.strides
        for k, stop in _blocks(n):
            width, rest = stop - k, n - stop
            diag = a.ctypes.data + k * (row + item)      # a[k:stop, k:stop]
            dim.value = width
            self._dpotrf(b"L", dim_p, diag, ld_p, info_p, 1)
            if info.value != 0:
                return False
            if rest:
                right = diag + width * item              # a[k:stop, stop:]
                # U[k:stop, stop:] = U[k:stop, k:stop]^-T a[k:stop, stop:]
                self._dtrsm(_ROW_MAJOR, _LEFT, _UPPER, _TRANS, _NON_UNIT,
                            width, rest, 1.0, diag, n, right, n)
                # a[stop:, stop:] -= U[k:stop, stop:]^T U[k:stop, stop:]
                self._dsyrk(_ROW_MAJOR, _UPPER, _TRANS, rest, width, -1.0,
                            right, n, 1.0, diag + width * (row + item), n)
        return True

    def spd_solve(self, factor, b):
        """Overwrite b (shape (n,)) with A^-1 b, A = U^T U the matrix
        ``spd_cholesky`` factored into ``factor``: U^T y = b, then U x = y.
        Level-2 solves touch none of OpenBLAS's level-3 buffers."""
        n = factor.shape[0]
        _check([(factor, (n, n)), (b, (n,))], dtype=np.float64)
        for trans in (_TRANS, _NO_TRANS):
            self._dtrsv(_ROW_MAJOR, _UPPER, trans, _NON_UNIT, n,
                        factor.ctypes.data, n, b.ctypes.data, 1)


class ScipyKernels:
    """``Kernels``' methods on numpy's matmul and scipy's BLAS and LAPACK
    wrappers, imported on first use. The wrappers get the transposed views
    of the checked C-contiguous matrices, so they overwrite in place the
    memory ``Kernels`` would."""

    def gram(self, m, out, accumulate=False):
        product = np.matmul(m, np.swapaxes(np.conj(m), 1, 2))
        out[...] = out + product if accumulate else product

    def cholesky(self, a, which):
        from scipy.linalg import lapack

        b, n = a.shape[:2]
        _check([(a, (b, n, n))], which)
        return np.array([lapack.zpotrf(a[i].T, overwrite_a=True, clean=False)[1] == 0
                         for i in which.tolist()], dtype=bool)

    def solve(self, factor, rhs, which):
        from scipy.linalg import lapack

        b, n = factor.shape[:2]
        _check([(factor, (b, n, n)), (rhs, (b, n, 1))], which)
        np.conjugate(rhs, out=rhs)
        for i in which.tolist():
            lapack.zpotrs(factor[i].T, rhs[i], overwrite_b=True)
        np.conjugate(rhs, out=rhs)

    def spd_cholesky(self, a):
        from scipy.linalg import blas, lapack

        n = a.shape[0]
        _check([(a, (n, n))], dtype=np.float64)
        f = a.T          # column-major view; the factor is its lower triangle
        for k, stop in _blocks(n):
            diag, info = lapack.dpotrf(f[k:stop, k:stop], lower=True, clean=False)
            if info != 0:
                return False
            f[k:stop, k:stop] = diag
            if stop < n:
                f[stop:, k:stop] = blas.dtrsm(1.0, diag, f[stop:, k:stop],
                                              side=1, lower=True, trans_a=True)
                f[stop:, stop:] = blas.dsyrk(-1.0, f[stop:, k:stop], beta=1.0,
                                             c=f[stop:, stop:], lower=True)
        return True

    def spd_solve(self, factor, b):
        from scipy.linalg import blas

        n = factor.shape[0]
        _check([(factor, (n, n)), (b, (n,))], dtype=np.float64)
        f = factor.T     # column-major view; L = U^T in its lower triangle
        b[:] = blas.dtrsv(f, blas.dtrsv(f, b, lower=True), lower=True, trans=1)


@functools.cache
def numpy_kernels():
    """The kernels of the solver and of the 512-tap SDR: on numpy's
    OpenBLAS, bound on first use, or ``ScipyKernels`` when numpy does not
    bundle OpenBLAS or it lacks a symbol."""
    lib = _numpy_openblas_lib()
    if lib is not None:
        try:
            return Kernels(lib)
        except AttributeError:
            pass
    return ScipyKernels()
