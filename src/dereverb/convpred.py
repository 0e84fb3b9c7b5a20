"""Per-frequency delayed-stack weighted complex least squares, and the
prediction algorithms built on it: vanilla WPE, WPE with supplied weights,
inverse convolutive prediction (ICP) and forward convolutive prediction
(FCP). A multi-source variant runs one of them once per source estimate.

All operations work on T x F complex spectrogram matrices (frames x bins).
Frequency bins are solved independently, one GEMM per tile of frames, one
Cholesky factor and three triangular solves each, through one kernel
interface: numpy's OpenBLAS (``_blas.Kernels``), or numpy's matmul and
scipy's LAPACK wrappers without it (``_blas.ScipyKernels``). A bin that
does not factor gets lstsq's answer.
Each block of bins is solved and its filters applied in one pass over the
delayed stack, in tiles of frames. ``solve_wls`` pins numpy's OpenBLAS to
one thread (``_blas.one_blas_thread``, locked), splits the bins into one
contiguous range per core and runs each range on a thread pool that lives
for that call only, in buffers and outputs allocated on the calling
thread; every bin goes through the same calls on the same data as on one
worker, so the results are bit-identical whatever the caller's thread
count. Everything here is safe to call concurrently.

Conventions:
    The K-frame stack of a signal z is
        z_tilde(t, f) = [z(t, f), z(t-1, f), ..., z(t-K+1, f)],
    with zeros for frames before the start. A filter bank g predicts
        (g(f)^H z_tilde(t - delay, f)) = sum_k conj(g[f, k]) * z(t - delay - k, f).
    ``FilterBank.response`` exposes conj(g), i.e. the plain convolution
    coefficients c with prediction = sum_k c[k] * z(t - delay - k).
"""

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _blas
from .stft import ComplexSpectrogram

_log = logging.getLogger(__name__)

# The weighting sources of PredConfig.lambda_mode.
LAMBDA_MODES = ("est_power", "mix_power", "unit")


@dataclass(frozen=True)
class PredConfig:
    """Prediction settings: filter taps, delay, weighting floor, loading.

    The field defaults are FCP's; each preset states only what differs.
    ``lambda_mode`` picks the weighting source: 'est_power' floors the
    supplied estimate's power, 'mix_power' floors the mixture's power,
    'unit' disables weighting. ``diag_load`` is relative to the mean
    diagonal of each bin's Gram matrix.
    """

    taps: int = 40
    delay: int = 0
    eps: float = 0.001
    lambda_mode: str = "mix_power"
    diag_load: float = 1e-6
    iters: int = 3

    def __post_init__(self):
        if self.taps < 1:
            raise ValueError("taps must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must be in (0, 1]")
        if self.lambda_mode not in LAMBDA_MODES:
            raise ValueError(f"unknown lambda_mode {self.lambda_mode!r}")
        if self.diag_load < 0:
            raise ValueError("diag_load must be >= 0")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")

    @classmethod
    def for_wpe(cls, **kwargs):
        """WPE defaults: 37 taps, delay 3, mixture-power weights, 3 iters."""
        return cls(**{"taps": 37, "delay": 3, **kwargs})

    @classmethod
    def for_icp(cls, **kwargs):
        """ICP defaults: 40 taps, no delay, unweighted estimate power."""
        return cls(**{"eps": 1.0, "lambda_mode": "est_power", **kwargs})

    @classmethod
    def for_fcp(cls, **kwargs):
        """FCP defaults: 40 taps, no delay, floored mixture-power weights."""
        return cls(**kwargs)


@dataclass(frozen=True)
class FilterBank:
    """One K-tap complex filter per frequency bin.

    ``filters`` has shape (F, K) and is applied through the conjugate
    transpose.
    """

    filters: np.ndarray
    delay: int

    def __post_init__(self):
        filters = np.asarray(self.filters, dtype=np.complex128)
        if filters.ndim != 2:
            raise ValueError("filters must be 2-D (F x K)")
        if not np.all(np.isfinite(filters)):
            raise ValueError("filter bank contains non-finite values")
        object.__setattr__(self, "filters", filters)

    @property
    def taps(self):
        return self.filters.shape[1]

    @property
    def response(self):
        """Plain convolution coefficients: prediction = sum_k response[f, k] * z(t - delay - k, f)."""
        return np.conj(self.filters)


def _as_tf(x):
    """Accept a ComplexSpectrogram or a bare T x F array."""
    if isinstance(x, ComplexSpectrogram):
        return x.data
    arr = np.asarray(x)
    if arr.ndim != 2:
        raise ValueError("expected a T x F complex matrix")
    return np.ascontiguousarray(arr, dtype=np.complex128)


def lambda_weights(ref_spec, mode, eps):
    """Per-unit weighting map lambda_hat(t, f).

    For 'est_power' and 'mix_power' this floors the power of the supplied
    spectrogram: max(eps * max(|Z|^2), |Z(t, f)|^2); the mode only names
    which signal the caller supplies (the estimate or the mixture). A list
    of spectrograms (several source estimates) supplies their summed power,
    added in list order. eps = 1 yields the constant peak power,
    i.e. no weighting. 'unit' returns all ones.

    Returns:
        (T, F) array of strictly positive weights.

    Raises:
        FloatingPointError: the power overflows.
    """
    specs = [_as_tf(z) for z in (
        ref_spec if isinstance(ref_spec, (list, tuple)) else [ref_spec])]
    if not specs or specs[0].size == 0:
        raise ValueError("ref_spec is empty")
    if any(z.shape != specs[0].shape for z in specs):
        raise ValueError("spectrograms of different shapes")
    if mode == "unit":
        return np.ones(specs[0].shape)
    if mode not in ("est_power", "mix_power"):
        raise ValueError(f"unknown lambda mode {mode!r}")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must be in (0, 1]")
    with np.errstate(over="ignore"):            # _floored_power raises instead
        power = sum(np.abs(z) ** 2 for z in specs)
    return _floored_power(power, eps)


# Bins buffered at a time by all workers of solve_wls together, and the most
# workers it uses. Each of W workers fills and multiplies blocks of
# _BIN_BLOCK // W bins; a block needs one (block, K+1, tile) complex buffer,
# 5.3 MB for 16 bins at 16 kHz (K = 40, T = 503). Blocks of 8 to 32 bins
# ran fastest there on one thread, 64 and up slower as the buffer leaves
# the cache.
_BIN_BLOCK = 16
# Frames per tile of that buffer: 4.1 s at 16 kHz, so every input up to
# that length fills and multiplies its stack in one tile.
_TILE = 512


def _bin_workers(n_bins):
    """Threads to spread n_bins bins over: one per core the process may
    run on, at most _BIN_BLOCK and n_bins; 1 without numpy's OpenBLAS,
    whose thread count cannot be pinned (ScipyKernels holds the GIL)."""
    if _blas.numpy_openblas() is None:
        return 1
    return min(len(os.sched_getaffinity(0)), _BIN_BLOCK, n_bins)


class _Workspace(NamedTuple):
    """One bin worker's buffers for blocks of up to ``block`` bins and
    tiles of up to ``tile`` frames."""

    aug: np.ndarray         # block * (K+1) * tile items: augmented stack M
    products: np.ndarray    # (block, K+1, K+1) M @ M^H
    factors: np.ndarray     # (block, K, K) Cholesky factors
    zp: np.ndarray          # (block, K-1 + tile) zero-padded stack source
    sqrt_inv_w: np.ndarray  # (block, tile) 1 / sqrt(weights)

    @classmethod
    def allocate(cls, block, taps, tile):
        return cls(np.empty(block * (taps + 1) * tile, dtype=np.complex128),
                   np.empty((block, taps + 1, taps + 1), dtype=np.complex128),
                   np.empty((block, taps, taps), dtype=np.complex128),
                   np.empty((block, taps - 1 + tile), dtype=np.complex128),
                   np.empty((block, tile)))


def _cholesky_solve(kernels, gram, rhs, live, factor):
    """Solutions of the live bins' systems on one Cholesky factor each, with
    two rounds of iterative refinement for the digits the normal equations
    lose on ill-conditioned bins; a bin that does not factor is numerically
    indefinite and gets lstsq's minimum-norm solution. ``factor`` is a
    buffer shaped like ``gram``. Returns the solutions (zero for dead bins)
    and the number of bins sent to lstsq."""
    factor[...] = gram
    live_bins = np.flatnonzero(live)
    factored = kernels.cholesky(factor, live_bins)
    chol = np.zeros_like(live)
    chol[live_bins[factored]] = True
    which = np.flatnonzero(chol)
    sol = np.zeros_like(rhs)
    for _ in range(3):
        resid = rhs - gram @ sol
        kernels.solve(factor, resid, which)
        np.add(sol, resid, out=sol, where=chol[:, None, None])
    failed = live_bins[~factored]
    for i in failed:
        sol[i] = np.linalg.lstsq(gram[i], rhs[i], rcond=None)[0]
    return sol, len(failed)


def _fill_tile(z, start, stop, c0, c1, taps, zp):
    """Copy frames c0-K+1 .. c1-1 of bins start .. stop-1 of z into the rows
    of ``zp``, zeros for frames before the start; returns the (b, K, c1-c0)
    view whose row k, column j holds z(c0 + j - k)."""
    zp = zp[:stop - start, :taps - 1 + c1 - c0]
    skip = max(taps - 1 - c0, 0)
    zp[:, :skip] = 0.0
    zp[:, skip:] = z[c0 + skip - (taps - 1):c1, start:stop].T
    return np.lib.stride_tricks.sliding_window_view(zp, c1 - c0, axis=1)[:, ::-1]


def _solve_range(z, d, w, lo, hi, taps, delay, diag_load, filters, pred, work):
    """Fill filters[lo:hi] and columns lo .. hi-1 of ``pred`` for validated
    inputs, in blocks of as many bins and tiles of as many frames as the
    _Workspace ``work`` holds; returns the number of bins sent to lstsq.

    Row k < K of the (K+1, T - delay) matrix M of bin f holds
    z(t - delay - k, f) / sqrt(w(t, f)) for t = delay .. T-1 and row K holds
    d(t, f) / sqrt(w(t, f)); frames t < delay have an all-zero stack and are
    left out. M @ M^H is [[R, r], [r^H, e]]: the Gram matrix R and the
    right-hand side r of the normal equations, summed over M's tiles into a
    block-sized buffer (``kernels.gram``). Each block with a live bin is
    loaded and solved (``_cholesky_solve``), then multiplies its filters
    into the unscaled stack tiles, rows delay .. T-1 of ``pred``. Nothing
    allocated here grows with T.
    """
    n_cols = z.shape[0] - delay
    kernels = _blas.numpy_kernels()
    block, tile = work.sqrt_inv_w.shape
    tiles = [(c0, min(c0 + tile, n_cols)) for c0 in range(0, n_cols, tile)]
    n_failed = 0
    for start in range(lo, hi, block):
        stop = min(start + block, hi)
        b = stop - start
        full = work.products[:b]
        with np.errstate(over="ignore", invalid="ignore"):
            for c0, c1 in tiles:
                width = c1 - c0
                shifted = _fill_tile(z, start, stop, c0, c1, taps, work.zp)
                sqrt_inv_w = work.sqrt_inv_w[:b, :width]
                np.divide(1.0, w[delay + c0:delay + c1, start:stop].T, out=sqrt_inv_w)
                np.sqrt(sqrt_inv_w, out=sqrt_inv_w)
                m = work.aug[:b * (taps + 1) * width].reshape(b, taps + 1, width)
                np.multiply(shifted, sqrt_inv_w[:, None, :], out=m[:, :taps])
                np.multiply(d[delay + c0:delay + c1, start:stop].T, sqrt_inv_w,
                            out=m[:, taps])
                kernels.gram(m, full, accumulate=c0 > 0)
            gram = full[:, :taps, :taps]                # (b, K, K)
            rhs = full[:, :taps, taps:]                 # (b, K, 1)
            trace = np.einsum("fkk->f", gram).real
            if not np.all(np.isfinite(trace)):
                raise FloatingPointError(
                    "the weighted Gram matrix is not finite: the stack or "
                    "target over sqrt(weights) overflows")
            live = trace > 0
            if not np.any(live):
                continue
            if diag_load > 0:                           # R's diagonal, in place
                load = diag_load * trace / taps
                if not np.all(np.isfinite(load)):
                    raise FloatingPointError(
                        f"the diagonal loading overflows with diag_load {diag_load:g}")
                full.reshape(b, -1)[:, :taps * (taps + 2):taps + 2] += load[:, None]
            sol, failed = _cholesky_solve(kernels, gram, rhs, live, work.factors[:b])
            filters[start:stop] = sol[:, :, 0]
            n_failed += failed
            g = np.conj(sol[:, None, :, 0])             # (b, 1, K)
            for c0, c1 in tiles:
                if len(tiles) > 1:                      # zp holds the last tile
                    shifted = _fill_tile(z, start, stop, c0, c1, taps, work.zp)
                np.matmul(g, shifted, out=pred[delay + c0:delay + c1,
                                               start:stop].T[:, None, :])
    return n_failed


def solve_wls(stack_src, target, taps, delay, weights, diag_load=1e-6):
    """Closed-form weighted least-squares filter bank, one filter per bin,
    and its prediction of the target.

    For each frequency f independently, minimizes
        sum_t |target(t, f) - g(f)^H z_tilde(t - delay, f)|^2 / weights(t, f)
    where z_tilde stacks ``taps`` past frames of ``stack_src``. Solved by
    normal equations in double precision with diagonal loading
    diag_load * trace(R) / K per bin: one Cholesky factor per bin, and two
    rounds of iterative refinement on it. Bins whose stack carries no
    energy get a zero filter; a bin whose loaded Gram matrix is not
    positive definite gets the minimum-norm least-squares solution, and one
    WARNING record gives the count of those. Each block of bins applies its
    filters to the stack it was solved on, so the prediction
    g(f)^H z_tilde(t - delay, f) costs no second pass over the input.

    The Gram matrix R and right-hand side r of each bin come from GEMMs of
    the augmented stack [A | d] / sqrt(weights) with its conjugate
    transpose, which is [[R, r], [r^H, .]], summed over tiles of _TILE
    frames. The working set is one (_BIN_BLOCK, K+1, min(T, _TILE)) stack
    buffer plus (_BIN_BLOCK, K+1, K+1) products, (_BIN_BLOCK, K, K) factors
    and _BIN_BLOCK tile rows each of the padded stack source and the
    weights, shared out among the workers, and the (F, K) filters and
    (T, F) prediction. The kernels run on numpy's OpenBLAS through ctypes,
    without the GIL, pinned to one thread while the call runs, and the bins
    are split into one contiguous range per core, each solved on its own
    thread. Without it, the same calls run on numpy's matmul and scipy's
    LAPACK wrappers, on one worker.

    Args:
        stack_src: T x F signal the prediction stack is built from.
        target: T x F signal being approximated.
        taps: filter length K.
        delay: prediction delay in frames.
        weights: (T, F) positive map lambda_hat; the objective divides by it.
        diag_load: relative regularization; 0 gives plain normal equations.

    Returns:
        ((T, F) prediction, 0 in frames before ``delay``; FilterBank of
        shape (F, K)).

    Raises:
        FloatingPointError: a weighted Gram matrix is not finite, the
            loading overflows, or a solved filter is not finite.
    """
    z = _as_tf(stack_src)
    d = _as_tf(target)
    if z.shape != d.shape:
        raise ValueError(f"shape mismatch: stack {z.shape} vs target {d.shape}")
    if taps < 1:
        raise ValueError("taps must be >= 1")
    if delay < 0:
        raise ValueError("delay must be >= 0")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != d.shape:
        raise ValueError(f"weights shape {w.shape} does not match {d.shape}")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(d))):
        raise ValueError("non-finite inputs")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValueError("weights must be finite and strictly positive")

    n_frames, n_bins = z.shape
    n_cols = n_frames - delay
    filters = np.zeros((n_bins, taps), dtype=np.complex128)
    pred = np.zeros((n_frames, n_bins), dtype=np.complex128)
    if n_cols > 0:
        # One contiguous bin range per worker: the first on the calling
        # thread, the others on a pool that lives for this call only, each
        # with buffers allocated here, on the calling thread, so no worker's
        # malloc arena keeps anything once the call returns.
        workers = _bin_workers(n_bins)
        edges = [n_bins * i // workers for i in range(workers + 1)]
        block, tile = _BIN_BLOCK // workers, min(n_cols, _TILE)
        jobs = [(lo, hi, _Workspace.allocate(min(block, hi - lo), taps, tile))
                for lo, hi in zip(edges[:-1], edges[1:])]

        def run(lo, hi, work):
            return _solve_range(z, d, w, lo, hi, taps, delay, diag_load,
                                filters, pred, work)

        with _blas.one_blas_thread(), ThreadPoolExecutor(max(workers - 1, 1)) as pool:
            rest = [pool.submit(run, *job) for job in jobs[1:]]
            n_failed = run(*jobs[0]) + sum(future.result() for future in rest)
        if n_failed:
            _log.warning("solve_wls: %d of %d bins have a Gram matrix that is "
                         "not positive definite; solved by lstsq", n_failed, n_bins)
    if not np.all(np.isfinite(filters)):
        raise FloatingPointError(f"solved filters are not finite with diag_load "
                                 f"{diag_load:g}: the loaded Gram matrix overflows")
    return pred, FilterBank(filters, delay)


def _floored_power(power, eps):
    peak = power.max()
    if not np.isfinite(peak):
        raise FloatingPointError("the spectrogram's power overflows")
    if peak == 0.0:
        raise ValueError("all-zero spectrogram: weighting floor undefined")
    return np.maximum(eps * peak, power)


def wpe_vanilla(mixture, cfg):
    """Iterative WPE: alternate filter estimation and weight re-estimation.

    The weights start from the floored mixture power and are re-floored with
    ``cfg.eps`` after each dereverberation pass. The returned trace holds,
    per iteration, the quadratic objective of the previous filter and of the
    freshly solved filter under that iteration's weights; within each such
    pair the objective cannot increase (up to the diagonal loading).

    Args:
        mixture: T x F mixture spectrogram.
        cfg: PredConfig with delay >= 1 (see ``wpe_supplied``).

    Returns:
        (dereverberated T x F array, FilterBank, objective trace of shape
        (iters, 2)).
    """
    y = _as_tf(mixture)
    lam = lambda_weights(y, "mix_power", cfg.eps)
    shat = y  # the residual of the previous filter; no filter at first
    filters = None
    trace = np.zeros((cfg.iters, 2))
    for i in range(cfg.iters):
        trace[i, 0] = np.sum(np.abs(shat) ** 2 / lam)
        shat, filters = wpe_supplied(y, lam, cfg.taps, cfg.delay, cfg.diag_load)
        trace[i, 1] = np.sum(np.abs(shat) ** 2 / lam)
        lam = lambda_weights(shat, "mix_power", cfg.eps)
    return shat, filters, trace


def wpe_supplied(mixture, weights, taps=37, delay=3, diag_load=1e-6):
    """Single closed-form WPE solve with externally supplied weights.

    Equivalent to one iteration of vanilla WPE when ``weights`` equals the
    floored mixture power. The weights typically come from
    ``lambda_weights`` applied to a target estimate — whether that estimate
    contains only the direct sound or also reflections/noise is the
    estimator's choice.

    Returns:
        (dereverberated T x F array, FilterBank).
    """
    y = _as_tf(mixture)
    if delay < 1:
        raise ValueError(
            "WPE needs delay >= 1: with delay 0 the identity filter "
            "zeroes the residual and the problem is vacuous"
        )
    pred, filters = solve_wls(y, y, taps, delay, weights, diag_load)
    return np.subtract(y, pred, out=pred), filters


def _pass_dead_bins(y, est, shat, bank, *zeroed):
    """Pass the mixture ``y`` through into ``shat`` at the bins whose
    estimate energy is below 1e-12 of the strongest bin's (every bin of an
    all-zero estimate), and zero those bins' columns of each array in
    ``zeroed``; returns ``bank`` with zero filters there."""
    energy = np.sum(np.abs(est) ** 2, axis=0)
    peak = energy.max()
    dead = energy < 1e-12 * peak if peak > 0 else np.ones(energy.size, dtype=bool)
    if not np.any(dead):
        return bank
    shat[:, dead] = y[:, dead]
    for arr in zeroed:
        arr[:, dead] = 0.0
    return FilterBank(np.where(dead[:, None], 0.0, bank.filters), bank.delay)


def icp(mixture, est, taps=40, weights=None, eps=1.0, diag_load=1e-6):
    """Inverse convolutive prediction: filter the mixture toward the estimate.

    Solves, per bin, for g minimizing
    sum_t |est(t, f) - g^H y_tilde(t, f)|^2 / lambda(t, f) with the current
    frame included in the stack (no delay), and returns g^H y_tilde as the
    dereverberated signal. Default weights floor the estimate power with
    eps = 1, i.e. no weighting.

    Bins where the estimate carries (almost) no energy are passed through
    unchanged: there is nothing to fit there.

    Returns:
        (dereverberated T x F array, FilterBank).
    """
    y = _as_tf(mixture)
    s = _as_tf(est)
    if weights is None:
        weights = lambda_weights(s, "est_power", eps)
    shat, bank = solve_wls(y, s, taps, 0, weights, diag_load)
    return shat, _pass_dead_bins(y, s, shat, bank)


# Frames per chunk of FCP's check that its two output forms agree.
_CHECK_FRAMES = 64


def fcp(mixture, est, taps=40, weights=None, eps=0.001, diag_load=1e-6):
    """Forward convolutive prediction: filter the estimate toward the mixture.

    Solves, per bin, for g minimizing
    sum_t |Y(t, f) - g^H s_tilde(t, f)|^2 / lambda(t, f) where s_tilde
    stacks the estimate. The filtered estimate x_hat = g^H s_tilde models
    the reverberant target; the output subtracts the estimated reverberation
    x_hat - est from the mixture, equivalently adds the unexplained residual
    Y - x_hat to the estimate. Both forms are computed and must agree.
    Default weights floor the mixture power with eps = 0.001.

    Bins where the estimate carries (almost) no energy pass the mixture
    through unchanged.

    Returns:
        (dereverberated T x F array, FilterBank, x_hat T x F array).

    Raises:
        FloatingPointError: the two output forms diverge.
    """
    y = _as_tf(mixture)
    s = _as_tf(est)
    if weights is None:
        weights = lambda_weights(y, "mix_power", eps)
    xhat, bank = solve_wls(s, y, taps, 0, weights, diag_load)

    shat = np.subtract(xhat, s)
    np.subtract(y, shat, out=shat)                  # y - (xhat - s)
    atol = 1e-12 * max(1.0, np.abs(y).max())
    for lo in range(0, len(y), _CHECK_FRAMES):
        rows = slice(lo, lo + _CHECK_FRAMES)
        if not np.allclose(shat[rows], s[rows] + (y[rows] - xhat[rows]),
                           rtol=1e-12, atol=atol):
            raise FloatingPointError(
                "subtraction and residual forms of the output diverged")
    return shat, _pass_dead_bins(y, s, shat, bank, xhat), xhat
