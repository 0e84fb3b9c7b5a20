"""Per-frequency delayed-stack weighted complex least squares, and the
prediction algorithms built on it: vanilla WPE, WPE with supplied weights,
inverse convolutive prediction (ICP) and forward convolutive prediction
(FCP). A multi-source variant runs one of them once per source estimate.

All operations work on T x F complex spectrogram matrices (frames x bins).
Frequency bins are solved independently, one GEMM, one Cholesky factor and
three triangular solves each, through one kernel interface: numpy's OpenBLAS
(``_blas.Kernels``), or numpy's matmul and scipy's LAPACK wrappers without it
(``_blas.ScipyKernels``). A bin that does not factor gets lstsq's answer.
When numpy's OpenBLAS runs on one thread, ``solve_wls`` and ``apply_filter``
split the bins into one contiguous range per core and run each range on a
thread pool that lives for that call only, in buffers and outputs allocated
on the calling thread; every bin goes through the same calls on the same
data as on one thread, so the results are bit-identical. There is no shared
mutable state, so everything here is safe to call concurrently.

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
        base = dict(taps=37, delay=3, eps=0.001, lambda_mode="mix_power", iters=3)
        base.update(kwargs)
        return cls(**base)

    @classmethod
    def for_icp(cls, **kwargs):
        """ICP defaults: 40 taps, no delay, unweighted estimate power."""
        base = dict(taps=40, delay=0, eps=1.0, lambda_mode="est_power")
        base.update(kwargs)
        return cls(**base)

    @classmethod
    def for_fcp(cls, **kwargs):
        """FCP defaults: 40 taps, no delay, floored mixture-power weights."""
        base = dict(taps=40, delay=0, eps=0.001, lambda_mode="mix_power")
        base.update(kwargs)
        return cls(**base)


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


def build_stack(z, taps, delay):
    """Delayed K-frame stacks of a T x F signal.

    Returns:
        (F, T, K) array A with A[f, t, k] = z(t - delay - k, f), zero for
        frames before the start.
    """
    z = _as_tf(z)
    n_frames, n_bins = z.shape
    pad = np.zeros((delay + taps - 1, n_bins), dtype=np.complex128)
    zp = np.concatenate([pad, z], axis=0)
    swv = np.lib.stride_tricks.sliding_window_view(zp, taps, axis=0)
    # swv[t, f, j] = zp[t + j, f]; reverse j so k counts backwards in time
    stacked = swv[:n_frames, :, ::-1]
    return np.transpose(stacked, (1, 0, 2))


def apply_filter(filters, z):
    """Prediction g^H z_tilde(t - delay) for every frame and bin. Each
    worker writes its bins' products straight into the (T, F) result, so the
    only other full-size array is the stack's padded copy of z.

    Args:
        filters: FilterBank.
        z: T x F signal the stack is built from.

    Returns:
        (T, F) complex array.
    """
    stack = build_stack(z, filters.taps, filters.delay)  # (F, T, K)
    g = np.conj(filters.filters)[:, :, None]
    pred = np.empty(stack.shape[1::-1], dtype=np.complex128)
    out = pred.T[:, :, None]                             # (F, T, 1) view
    _over_bins(_bin_ranges(stack.shape[0]), lambda lo, hi: np.matmul(
        stack[lo:hi], g[lo:hi], out=out[lo:hi]))
    return pred


# Bins buffered at a time by all workers of solve_wls together, and the most
# workers it uses. Each of W workers fills and multiplies blocks of
# _BIN_BLOCK // W bins; a block needs one (block, K+1, T) complex buffer,
# 5.3 MB for 16 bins at 16 kHz (K = 40, T = 503). Blocks of 8 to 32 bins
# ran fastest there on one thread, 64 and up slower as the buffer leaves
# the cache.
_BIN_BLOCK = 16


def _bin_workers(n_bins):
    """Threads to spread n_bins bins over: one per core the process may
    run on, at most _BIN_BLOCK and n_bins, when numpy's OpenBLAS runs on one
    thread; otherwise 1, because OpenBLAS's own threads would compete with
    the pool's for the same cores."""
    blas = _blas.numpy_openblas()
    if blas is None or blas[0]() != 1:
        return 1
    return min(len(os.sched_getaffinity(0)), _BIN_BLOCK, n_bins)


def _bin_ranges(n_bins):
    """One contiguous (lo, hi) bin range per worker."""
    workers = _bin_workers(n_bins)
    edges = [n_bins * i // workers for i in range(workers + 1)]
    return list(zip(edges[:-1], edges[1:]))


class _Workspace(NamedTuple):
    """One bin worker's buffers for blocks of up to ``block`` bins, with
    n_cols = T - delay frames."""

    aug: np.ndarray         # (block, K+1, n_cols) augmented stack M
    products: np.ndarray    # (block, K+1, K+1) M @ M^H
    factors: np.ndarray     # (block, K, K) Cholesky factors
    zp: np.ndarray          # (block, K-1 + n_cols) zero-padded stack source
    sqrt_inv_w: np.ndarray  # (block, n_cols) 1 / sqrt(weights)

    @classmethod
    def allocate(cls, block, taps, n_cols):
        return cls(np.empty((block, taps + 1, n_cols), dtype=np.complex128),
                   np.empty((block, taps + 1, taps + 1), dtype=np.complex128),
                   np.empty((block, taps, taps), dtype=np.complex128),
                   np.zeros((block, taps - 1 + n_cols), dtype=np.complex128),
                   np.empty((block, n_cols)))


def _over_bins(jobs, run):
    """run(*job) for each job, in job order: the first on the calling
    thread, the others on a pool that lives for this call only."""
    if len(jobs) == 1:
        return [run(*jobs[0])]
    with ThreadPoolExecutor(len(jobs) - 1) as pool:
        rest = [pool.submit(run, *job) for job in jobs[1:]]
        first = run(*jobs[0])
        return [first] + [future.result() for future in rest]


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


def _solve_range(z, d, w, lo, hi, taps, delay, diag_load, filters, work):
    """Fill filters[lo:hi] with solve_wls's filters of bins lo .. hi-1 for
    validated inputs, in blocks of as many bins as the _Workspace ``work``
    holds; returns the number of bins that fell back to lstsq.

    Row k < K of the (K+1, T - delay) matrix M of bin f holds
    z(t - delay - k, f) / sqrt(w(t, f)) for t = delay .. T-1 and row K holds
    d(t, f) / sqrt(w(t, f)); frames t < delay have an all-zero stack and are
    left out. M @ M^H is [[R, r], [r^H, e]]: the Gram matrix R and the
    right-hand side r of the normal equations. Each block copies its bins of
    z and of the weights into ``work``, fills M once, multiplies it into a
    block-sized Gram buffer (``kernels.gram``), loads the diagonal in
    place, raising FloatingPointError if the loading overflows, and solves
    (``_cholesky_solve``). Nothing allocated here grows with T.
    """
    n_cols = z.shape[0] - delay
    kernels = _blas.numpy_kernels()
    block = len(work.aug)
    n_failed = 0
    for start in range(lo, hi, block):
        stop = min(start + block, hi)
        b = stop - start
        m, full, zp, sqrt_inv_w = (work.aug[:b], work.products[:b], work.zp[:b],
                                   work.sqrt_inv_w[:b])
        # zp[i, taps - 1 + j] = z(j, start + i), so row k of M is
        # zp[i, taps-1-k : taps-1-k+n_cols]; the first taps - 1 columns stay 0
        zp[:, taps - 1:] = z[:n_cols, start:stop].T
        np.divide(1.0, w[delay:, start:stop].T, out=sqrt_inv_w)
        np.sqrt(sqrt_inv_w, out=sqrt_inv_w)
        shifted = np.lib.stride_tricks.sliding_window_view(
            zp, n_cols, axis=1)[:, ::-1]            # (b, K, n_cols)
        np.multiply(shifted, sqrt_inv_w[:, None, :], out=m[:, :taps])
        np.multiply(d[delay:, start:stop].T, sqrt_inv_w, out=m[:, taps])
        kernels.gram(m, full)
        gram = full[:, :taps, :taps]                # (b, K, K)
        rhs = full[:, :taps, taps:]                 # (b, K, 1)
        trace = np.einsum("fkk->f", gram).real
        live = trace > 0
        if not np.any(live):
            continue
        if diag_load > 0:                           # R's diagonal, in place
            with np.errstate(over="ignore"):
                load = diag_load * trace / taps
            if not np.all(np.isfinite(load)):
                raise FloatingPointError(
                    f"the diagonal loading overflows with diag_load {diag_load:g}")
            full.reshape(b, -1)[:, :taps * (taps + 2):taps + 2] += load[:, None]
        sol, failed = _cholesky_solve(kernels, gram, rhs, live, work.factors[:b])
        filters[start:stop] = sol[:, :, 0]
        n_failed += failed
    return n_failed


def solve_wls(stack_src, target, taps, delay, weights, diag_load=1e-6):
    """Closed-form weighted least-squares filter bank, one filter per bin.

    For each frequency f independently, minimizes
        sum_t |target(t, f) - g(f)^H z_tilde(t - delay, f)|^2 / weights(t, f)
    where z_tilde stacks ``taps`` past frames of ``stack_src``. Solved by
    normal equations in double precision with diagonal loading
    diag_load * trace(R) / K per bin: one Cholesky factor per bin, and two
    rounds of iterative refinement on it. Bins whose stack carries no
    energy get a zero filter; a bin whose loaded Gram matrix is not
    positive definite gets the minimum-norm least-squares solution, and one
    WARNING record gives the count of those.

    The Gram matrix R and right-hand side r of each bin come from one GEMM
    of the augmented stack [A | d] / sqrt(weights) with its conjugate
    transpose, which is [[R, r], [r^H, .]]. The working set is one
    (_BIN_BLOCK, K+1, T) stack buffer plus (_BIN_BLOCK, K+1, K+1) products,
    (_BIN_BLOCK, K, K) factors and _BIN_BLOCK rows each of the padded stack
    source and the weights, shared out among the workers and allocated on
    the calling thread, and the (F, K) filters, whatever the number of
    bins. The kernels run on numpy's OpenBLAS through ctypes, without the
    GIL; without it, the same calls run on numpy's matmul and scipy's
    LAPACK wrappers. When numpy's OpenBLAS runs on one thread the bins are
    split into one contiguous range per core, each solved on its own
    thread.

    Args:
        stack_src: T x F signal the prediction stack is built from.
        target: T x F signal being approximated.
        taps: filter length K.
        delay: prediction delay in frames.
        weights: (T, F) positive map lambda_hat; the objective divides by it.
        diag_load: relative regularization; 0 gives plain normal equations.

    Returns:
        FilterBank of shape (F, K).

    Raises:
        FloatingPointError: the loading overflows, or a solved filter is
            not finite.
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
    if n_cols > 0:
        # Each worker's buffers are allocated here, on the calling thread, so
        # no worker's malloc arena keeps anything that grows with the input
        # once the call returns.
        ranges = _bin_ranges(n_bins)
        block = _BIN_BLOCK // len(ranges)
        jobs = [(lo, hi, _Workspace.allocate(min(block, hi - lo), taps, n_cols))
                for lo, hi in ranges]
        n_failed = sum(_over_bins(jobs, lambda lo, hi, work: _solve_range(
            z, d, w, lo, hi, taps, delay, diag_load, filters, work)))
        if n_failed:
            _log.warning("solve_wls: %d of %d bins have a Gram matrix that is "
                         "not positive definite; solved by lstsq", n_failed, n_bins)
    if not np.all(np.isfinite(filters)):
        raise FloatingPointError(f"solved filters are not finite with diag_load "
                                 f"{diag_load:g}: the loaded Gram matrix overflows")
    return FilterBank(filters, delay)


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
    with np.errstate(over="ignore"):            # _floored_power raises instead
        lam = _floored_power(np.abs(y) ** 2, cfg.eps)
    shat = y  # the residual of the previous filter; no filter at first
    filters = None
    trace = np.zeros((cfg.iters, 2))
    for i in range(cfg.iters):
        trace[i, 0] = np.sum(np.abs(shat) ** 2 / lam)
        shat, filters = wpe_supplied(y, lam, cfg.taps, cfg.delay, cfg.diag_load)
        trace[i, 1] = np.sum(np.abs(shat) ** 2 / lam)
        lam = _floored_power(np.abs(shat) ** 2, cfg.eps)
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
    filters = solve_wls(y, y, taps, delay, weights, diag_load)
    return y - apply_filter(filters, y), filters


def _degenerate_bins(est, rel_tol=1e-12):
    """Bins whose estimate energy is below rel_tol of the strongest bin."""
    energy = np.sum(np.abs(est) ** 2, axis=0)
    peak = energy.max()
    if peak == 0.0:
        return np.ones(energy.size, dtype=bool)
    return energy < rel_tol * peak


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
    bank = solve_wls(y, s, taps, 0, weights, diag_load)
    shat = apply_filter(bank, y)

    coeffs = bank.filters
    dead = _degenerate_bins(s)
    if np.any(dead):
        coeffs = np.where(dead[:, None], 0.0, coeffs)
        shat[:, dead] = y[:, dead]
    return shat, FilterBank(coeffs, 0)


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
    bank = solve_wls(s, y, taps, 0, weights, diag_load)
    xhat = apply_filter(bank, s)

    shat = np.subtract(xhat, s)
    np.subtract(y, shat, out=shat)                  # y - (xhat - s)
    atol = 1e-12 * max(1.0, np.abs(y).max())
    for lo in range(0, len(y), _CHECK_FRAMES):
        rows = slice(lo, lo + _CHECK_FRAMES)
        if not np.allclose(shat[rows], s[rows] + (y[rows] - xhat[rows]),
                           rtol=1e-12, atol=atol):
            raise FloatingPointError(
                "subtraction and residual forms of the output diverged")

    coeffs = bank.filters
    dead = _degenerate_bins(s)
    if np.any(dead):
        coeffs = np.where(dead[:, None], 0.0, coeffs)
        shat[:, dead] = y[:, dead]
        xhat[:, dead] = 0.0
    return shat, FilterBank(coeffs, 0), xhat


def iterate(mixture, initial_est, step, passes, feedback=None):
    """Re-run a prediction step, feeding each output back as the estimate.

    Args:
        mixture: T x F mixture spectrogram.
        initial_est: starting target estimate.
        step: callable (mixture, est) -> output, or a tuple whose first
            element is the output (so ``fcp``/``icp`` can be passed
            directly).
        passes: number of passes, >= 1.
        feedback: callable output -> next estimate, applied between passes
            and never after the last one; None feeds the output back as it
            is.

    Returns:
        final T x F output.
    """
    if passes < 1:
        raise ValueError("passes must be >= 1")
    y = _as_tf(mixture)
    est = _as_tf(initial_est)
    for i in range(passes):
        out = step(y, est)
        if isinstance(out, tuple):
            out = out[0]
        if i < passes - 1:
            est = out if feedback is None else feedback(out)
    return out
