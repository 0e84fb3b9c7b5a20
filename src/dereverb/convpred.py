"""Per-frequency delayed-stack weighted complex least squares, and the
prediction algorithms built on it: vanilla WPE, WPE with supplied weights,
inverse convolutive prediction (ICP), forward convolutive prediction (FCP),
and their multi-source variants.

All operations work on T x F complex spectrogram matrices (frames x bins).
Frequency bins are solved independently in batched linear-algebra calls;
there is no shared mutable state, so everything here is safe to call
concurrently.

Conventions:
    The K-frame stack of a signal z is
        z_tilde(t, f) = [z(t, f), z(t-1, f), ..., z(t-K+1, f)],
    with zeros for frames before the start. A filter bank g predicts
        (g(f)^H z_tilde(t - delay, f)) = sum_k conj(g[f, k]) * z(t - delay - k, f).
    ``FilterBank.response`` exposes conj(g), i.e. the plain convolution
    coefficients c with prediction = sum_k c[k] * z(t - delay - k).
"""

from dataclasses import dataclass

import numpy as np

from .stft import ComplexSpectrogram


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
        if self.lambda_mode not in ("est_power", "mix_power", "unit"):
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
    transpose; ``stack_on`` records which signal the prediction stack is
    built from ('mixture' or 'estimate').
    """

    filters: np.ndarray
    delay: int
    stack_on: str = "mixture"

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
    """Accept a ComplexSpectrogram, TargetEstimate, or bare T x F array."""
    if isinstance(x, ComplexSpectrogram):
        return x.data
    spec = getattr(x, "spec", None)
    if isinstance(spec, ComplexSpectrogram):
        return spec.data
    arr = np.asarray(x)
    if arr.ndim != 2:
        raise ValueError("expected a T x F complex matrix")
    return np.ascontiguousarray(arr, dtype=np.complex128)


def lambda_weights(ref_spec, mode, eps):
    """Per-unit weighting map lambda_hat(t, f).

    For 'est_power' and 'mix_power' this floors the power of the supplied
    spectrogram: max(eps * max(|Z|^2), |Z(t, f)|^2); the mode only names
    which signal the caller supplies (the estimate or the mixture).
    eps = 1 yields the constant peak power, i.e. no weighting. 'unit'
    returns all ones.

    Returns:
        (T, F) array of strictly positive weights.
    """
    z = _as_tf(ref_spec)
    if z.size == 0:
        raise ValueError("ref_spec is empty")
    if mode == "unit":
        return np.ones(z.shape)
    if mode not in ("est_power", "mix_power"):
        raise ValueError(f"unknown lambda mode {mode!r}")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must be in (0, 1]")
    power = np.abs(z) ** 2
    peak = power.max()
    if peak == 0.0:
        raise ValueError("all-zero spectrogram: weighting floor undefined")
    return np.maximum(eps * peak, power)


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
    """Prediction g^H z_tilde(t - delay) for every frame and bin.

    Args:
        filters: FilterBank.
        z: T x F signal the stack is built from.

    Returns:
        (T, F) complex array.
    """
    stack = build_stack(z, filters.taps, filters.delay)  # (F, T, K)
    pred = stack @ np.conj(filters.filters)[:, :, None]  # (F, T, 1)
    return np.ascontiguousarray(pred[:, :, 0].T)


# Bins per weighted GEMM in solve_wls. A block needs two (block, K+1, T)
# complex buffers, 5.3 MB each at 16 kHz (K = 40, T = 503); blocks of 8 to
# 32 bins ran fastest there, 64 and up slower as the buffers leave the cache.
_BIN_BLOCK = 16


def _weighted_gram(z, d, taps, delay, w):
    """Per-bin [[R, r], [r^H, e]] of the augmented sqrt-weighted stack.

    Row k < K of the (K+1, T - delay) matrix M of bin f holds
    z(t - delay - k, f) / sqrt(w(t, f)) for t = delay .. T-1 and row K holds
    d(t, f) / sqrt(w(t, f)); frames t < delay have an all-zero stack and are
    left out. M @ M^H then carries the Gram matrix R and the right-hand side
    r of the normal equations. Bins are processed in blocks of _BIN_BLOCK
    so the working set stays bounded whatever the number of bins.

    Returns:
        (F, K+1, K+1) complex array.
    """
    n_frames, n_bins = z.shape
    n_cols = n_frames - delay
    full = np.zeros((n_bins, taps + 1, taps + 1), dtype=np.complex128)
    if n_cols <= 0:
        return full
    # zp[f, taps - 1 + j] = z(j, f), so row k of M is zp[f, taps-1-k : taps-1-k+n_cols]
    zp = np.zeros((n_bins, taps - 1 + n_cols), dtype=np.complex128)
    zp[:, taps - 1:] = z[:n_cols].T
    sqrt_inv_w = np.sqrt(1.0 / w[delay:].T)        # (F, n_cols)
    d_t = d[delay:].T
    block = min(_BIN_BLOCK, n_bins)
    aug = np.empty((block, taps + 1, n_cols), dtype=np.complex128)
    aug_conj = np.empty_like(aug)
    for lo in range(0, n_bins, block):
        hi = min(lo + block, n_bins)
        m, m_conj = aug[:hi - lo], aug_conj[:hi - lo]
        shifted = np.lib.stride_tricks.sliding_window_view(
            zp[lo:hi], n_cols, axis=1)[:, ::-1]      # (b, K, n_cols)
        np.multiply(shifted, sqrt_inv_w[lo:hi, None, :], out=m[:, :taps])
        np.multiply(d_t[lo:hi], sqrt_inv_w[lo:hi], out=m[:, taps])
        np.conjugate(m, out=m_conj)
        np.matmul(m, np.swapaxes(m_conj, 1, 2), out=full[lo:hi])
    return full


def _refined_solve(gram, rhs):
    """Batched solve with two rounds of iterative refinement, which recover
    the digits the normal equations lose on ill-conditioned bins."""
    sol = np.linalg.solve(gram, rhs)
    for _ in range(2):
        sol = sol + np.linalg.solve(gram, rhs - gram @ sol)
    return sol


def solve_wls(stack_src, target, taps, delay, weights, diag_load=1e-6):
    """Closed-form weighted least-squares filter bank, one filter per bin.

    For each frequency f independently, minimizes
        sum_t |target(t, f) - g(f)^H z_tilde(t - delay, f)|^2 / weights(t, f)
    where z_tilde stacks ``taps`` past frames of ``stack_src``. Solved by
    normal equations in double precision with diagonal loading
    diag_load * trace(R) / K per bin, plus two rounds of iterative
    refinement. Bins whose stack carries no energy get a zero filter; bins
    whose loaded Gram matrix is exactly singular get the minimum-norm
    least-squares solution while the others are still solved batched.

    The Gram matrix R and right-hand side r come from one GEMM per block
    of bins over the augmented stack [A | d] / sqrt(weights), whose
    conjugate outer product is [[R, r], [r^H, .]]. The working set is two
    (block, K+1, T) buffers plus the (F, K+1, K+1) products, independent
    of the number of bins beyond that.

    Args:
        stack_src: T x F signal the prediction stack is built from.
        target: T x F signal being approximated.
        taps: filter length K.
        delay: prediction delay in frames.
        weights: (T, F) positive map lambda_hat; the objective divides by it.
        diag_load: relative regularization; 0 gives plain normal equations.

    Returns:
        FilterBank of shape (F, K).
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

    n_bins = z.shape[1]
    full = _weighted_gram(z, d, taps, delay, w)
    gram = full[:, :taps, :taps]                    # (F, K, K)
    rhs = full[:, :taps, taps:]                     # (F, K, 1)

    trace = np.einsum("fkk->f", gram).real
    live = trace > 0
    filters = np.zeros((n_bins, taps), dtype=np.complex128)
    if np.any(live):
        g_live = gram[live]
        b_live = rhs[live]
        if diag_load > 0:
            load = diag_load * trace[live] / taps
            g_live = g_live + load[:, None, None] * np.eye(taps)
        try:
            sol = _refined_solve(g_live, b_live)
        except np.linalg.LinAlgError:
            # slogdet's LU meets the same exact zero pivot that failed the solve
            singular = np.linalg.slogdet(g_live)[0] == 0
            sol = np.empty_like(b_live)
            sol[~singular] = _refined_solve(g_live[~singular], b_live[~singular])
            for i in np.flatnonzero(singular):
                sol[i] = np.linalg.lstsq(g_live[i], b_live[i], rcond=None)[0]
        filters[live] = sol[:, :, 0]
    return FilterBank(filters, delay)


def _floored_power(power, eps):
    peak = power.max()
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
        cfg: PredConfig with delay >= 1.

    Returns:
        (dereverberated T x F array, FilterBank, objective trace of shape
        (iters, 2)).
    """
    y = _as_tf(mixture)
    if cfg.delay < 1:
        raise ValueError(
            "WPE needs delay >= 1: with delay 0 the identity filter "
            "zeroes the residual and the problem is vacuous"
        )
    lam = _floored_power(np.abs(y) ** 2, cfg.eps)
    shat = y
    filters = None
    trace = np.zeros((cfg.iters, 2))
    for i in range(cfg.iters):
        resid_prev = y - apply_filter(filters, y) if filters is not None else y
        trace[i, 0] = np.sum(np.abs(resid_prev) ** 2 / lam)
        filters = solve_wls(y, y, cfg.taps, cfg.delay, lam, cfg.diag_load)
        shat = y - apply_filter(filters, y)
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
    return shat, FilterBank(coeffs, 0, "mixture")


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
    """
    y = _as_tf(mixture)
    s = _as_tf(est)
    if weights is None:
        weights = lambda_weights(y, "mix_power", eps)
    bank = solve_wls(s, y, taps, 0, weights, diag_load)
    xhat = apply_filter(bank, s)

    shat = y - (xhat - s)
    shat_alt = s + (y - xhat)
    if not np.allclose(shat, shat_alt, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(y).max())):
        raise AssertionError("subtraction and residual forms of the output diverged")

    coeffs = bank.filters
    dead = _degenerate_bins(s)
    if np.any(dead):
        coeffs = np.where(dead[:, None], 0.0, coeffs)
        shat[:, dead] = y[:, dead]
        xhat[:, dead] = 0.0
    return shat, FilterBank(coeffs, 0, "estimate"), xhat


def fcp_per_source(mixture, ests, taps=40, lambda_mode="mix_power", eps=0.001,
                   diag_load=1e-6):
    """Run FCP independently for each source with its own filter.

    Non-target sources stay in the residual of each run; with C = 1 this is
    exactly ``fcp``.

    Returns:
        list of dereverberated T x F arrays, one per estimate.
    """
    y = _as_tf(mixture)
    if len(ests) < 1:
        raise ValueError("need at least one estimate")
    outputs = []
    for est in ests:
        s = _as_tf(est)
        if lambda_mode == "unit":
            weights = np.ones(y.shape)
        elif lambda_mode == "mix_power":
            weights = lambda_weights(y, "mix_power", eps)
        elif lambda_mode == "est_power":
            weights = lambda_weights(s, "est_power", eps)
        else:
            raise ValueError(f"unknown lambda mode {lambda_mode!r}")
        shat, _, _ = fcp(y, s, taps, weights, eps, diag_load)
        outputs.append(shat)
    return outputs


def wpe_multi(mixture, ests, taps=37, delay=3, eps=0.001, variant="sf",
              diag_load=1e-6):
    """WPE for multiple sources: single-filter or multi-filter variant.

    'sf' sums the estimates' powers into one weighting map and solves one
    filter, returning one dereverberated mixture. 'mf' builds a weighting
    map per estimate and solves one filter per source, each still applied
    to the mixture stack; returns one signal per source. With one source
    both coincide with ``wpe_supplied``.

    Returns:
        ('sf') (T x F array, FilterBank)
        ('mf') (list of T x F arrays, list of FilterBank).
    """
    y = _as_tf(mixture)
    if len(ests) < 1:
        raise ValueError("need at least one estimate")
    if delay < 1:
        raise ValueError("WPE needs delay >= 1")
    if variant == "sf":
        power = np.zeros(y.shape)
        for est in ests:
            power += np.abs(_as_tf(est)) ** 2
        weights = _floored_power(power, eps)
        return wpe_supplied(y, weights, taps, delay, diag_load)
    if variant == "mf":
        outputs = []
        banks = []
        for est in ests:
            weights = lambda_weights(_as_tf(est), "est_power", eps)
            shat, bank = wpe_supplied(y, weights, taps, delay, diag_load)
            outputs.append(shat)
            banks.append(bank)
        return outputs, banks
    raise ValueError(f"unknown variant {variant!r}")


def iterate(mixture, initial_est, step, passes):
    """Re-run a prediction step, feeding each output back as the estimate.

    Args:
        mixture: T x F mixture spectrogram.
        initial_est: starting target estimate.
        step: callable (mixture, est) -> output, or a tuple whose first
            element is the output (so ``fcp``/``icp`` can be passed
            directly).
        passes: number of passes, >= 1.

    Returns:
        final T x F output.
    """
    if passes < 1:
        raise ValueError("passes must be >= 1")
    y = _as_tf(mixture)
    est = _as_tf(initial_est)
    out = est
    for _ in range(passes):
        out = step(y, est)
        if isinstance(out, tuple):
            out = out[0]
        est = out
    return out
