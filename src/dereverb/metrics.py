"""Evaluation metrics: SI-SDR, 512-tap projection SDR, and GCC-PHAT delay.

All functions are pure and operate on 1-D time-domain arrays. dB values are
capped at +/-300 (the infinity sentinel) so reports stay serializable.

The correlations behind the 512-tap SDR and GCC-PHAT come from one spectrum
pair of length ``est.size + ref.size``: the reference spectrum R and the
cross spectrum E conj(R), each signal transformed by its own one-row rfft.
That length is at least 2N - 1, so the circular correlations they give are
the linear ones. ``evaluate_pair`` builds the pair once and scores all three
metrics from it: 2 forward and 3 inverse FFTs. The 512-tap SDR solves its
Toeplitz normal equations by a blocked Cholesky factor on numpy's OpenBLAS
(``_blas.Kernels.spd_cholesky``), whose bits do not depend on the OpenBLAS
thread count. A ``Reference`` keeps R and that factor for the pairs that
share a reference, so each further pair takes 3 FFTs and one pair of
triangular solves. Importing this module loads no scipy module.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import _blas

DB_CAP = 300.0
SDR_TAPS = 512
_SDR_LOAD = 1e-12

_log = logging.getLogger(__name__)


def _to_db(signal_energy, error_energy):
    if signal_energy <= 0.0:
        return -DB_CAP
    if error_energy <= 0.0:
        return DB_CAP
    return float(np.clip(10.0 * np.log10(signal_energy / error_energy), -DB_CAP, DB_CAP))


def _check_pair(est, ref, min_len=2):
    est = np.asarray(est, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if est.ndim != 1 or ref.ndim != 1:
        raise ValueError("signals must be 1-D")
    if est.size != ref.size:
        raise ValueError(f"length mismatch: {est.size} vs {ref.size}")
    if est.size < min_len:
        raise ValueError(f"signals must have at least {min_len} samples")
    if not (np.all(np.isfinite(est)) and np.all(np.isfinite(ref))):
        raise ValueError("signals contain non-finite values")
    return est, ref


def si_sdr(est, ref):
    """Scale-invariant signal-to-distortion ratio in dB.

    Projects the reference onto the estimate with one scalar
    alpha = <est, ref> / ||ref||^2 and returns
    10 log10(||alpha ref||^2 / ||est - alpha ref||^2), capped at +/-300 dB.
    A perfect estimate up to scale hits the +300 sentinel.
    """
    est, ref = _check_pair(est, ref)
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise ValueError("reference is all zero")
    alpha = float(np.dot(est, ref)) / ref_energy
    err = alpha * ref
    np.subtract(est, err, out=err)
    return _to_db(alpha * alpha * ref_energy, float(np.dot(err, err)))


def _spectra(est, ref):
    """(n, R, X) of a validated pair: n = est.size + ref.size, R the
    reference spectrum and X = E conj(R) the cross spectrum, both zero-padded
    to n, from one rfft of each signal. irfft(|R|^2)[k] and irfft(X)[k] are
    the linear correlations sum_t ref(t) ref(t - k) and sum_t est(t) ref(t - k)
    for 0 <= k < N."""
    n = est.size + ref.size
    spec_ref = np.fft.rfft(ref, n=n)
    return n, spec_ref, _cross(est, n, spec_ref)


def _cross(est, n, spec_ref):
    """The cross spectrum E conj(R) of ``est`` zero-padded to n."""
    cross = np.fft.rfft(est, n=n)
    cross *= np.conj(spec_ref)
    return cross


def _autocorrelation(n, spec_ref, n_taps):
    """sum_t ref(t) ref(t - k) for 0 <= k < n_taps, from ``_spectra``."""
    power = np.conj(spec_ref)
    power *= spec_ref                 # |R|^2; the imaginary parts are exactly 0
    return np.fft.irfft(power, n=n)[:n_taps].copy()


def _toeplitz(r):
    """The symmetric Toeplitz matrix whose first column is ``r``."""
    col = np.concatenate([r[:0:-1], r])     # col[n - 1 + k] = r[|k|]
    return np.lib.stride_tricks.sliding_window_view(col, r.size)[::-1].copy()


class _NormalEquations:
    """The ``r.size``-tap normal equations of one reference, whose
    autocorrelation is ``r``: the Cholesky factor of their Toeplitz matrix
    with ``load`` relative diagonal loading, computed once. If the factor
    fails, one warning is logged and every solve falls back to ``lstsq`` on
    the loaded matrix."""

    def __init__(self, r, load):
        if r[0] <= 0.0:
            raise ValueError("reference is all zero")
        self.r = r
        self._diagonal = r[0] + load * r[0]
        self._kernels = _blas.numpy_kernels()
        self._factor = self._loaded()
        if not self._kernels.spd_cholesky(self._factor):
            _log.warning("sdr_512: Cholesky factor failed; falling back to "
                         "lstsq on the %d-tap normal equations", r.size)
            self._factor = None

    def _loaded(self):
        loaded = _toeplitz(self.r)
        np.fill_diagonal(loaded, self._diagonal)
        return loaded

    def solve(self, b):
        if self._factor is None:
            return np.linalg.lstsq(self._loaded(), b, rcond=None)[0]
        coef = b.copy()
        self._kernels.spd_solve(self._factor, coef)
        return coef

    def energy(self, coef):
        """coef^T T coef for T the unloaded Toeplitz matrix of ``r``: the
        energy of ``coef`` convolved with the reference, from r and the
        autocorrelation of ``coef``, without forming T."""
        acf = np.correlate(coef, coef, "full")[coef.size - 1:]
        return float(self.r[0] * acf[0] + 2.0 * (self.r[1:] @ acf[1:]))


def _sdr_from_spectra(est, n, cross, normal):
    """sdr_512 of a pair validated for ``normal``'s tap count, from
    ``_spectra``'s length and cross spectrum."""
    b = np.fft.irfft(cross, n=n)[:normal.r.size]
    coef = normal.solve(b)

    # energies from the quadratic form; the projection itself is never built
    proj_energy = normal.energy(coef)
    est_energy = float(np.dot(est, est))
    resid_energy = max(est_energy - 2.0 * float(coef @ b) + proj_energy, 0.0)
    if resid_energy <= 1e-12 * est_energy:
        resid_energy = 0.0
    return _to_db(proj_energy, resid_energy)


def sdr_512(est, ref, n_taps=SDR_TAPS, load=_SDR_LOAD):
    """SNR after least-squares projection onto ``n_taps`` shifts of the ref.

    The projection coefficients solve the Toeplitz normal equations built
    from the reference autocorrelation (with ``load`` relative diagonal
    loading), using the zero-padded (full correlation) convention. This is
    the projection core of the classic 512-tap SDR, without the
    artifact/interference split. The 1-tap projection is a subspace of this
    one, so sdr_512 >= si_sdr on any pair. Residuals at numerical-noise
    level (below 1e-12 of the estimate energy) count as zero and hit the
    +300 sentinel. If the Cholesky factor of the loaded normal matrix
    fails, the normal equations are solved by ``lstsq`` and a warning is
    logged.
    """
    est, ref = _check_pair(est, ref, min_len=n_taps)
    n, spec_ref, cross = _spectra(est, ref)
    normal = _NormalEquations(_autocorrelation(n, spec_ref, n_taps), load)
    return _sdr_from_spectra(est, n, cross, normal)


def _check_gcc(est, ref, max_lag):
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    est, ref = _check_pair(est, ref, min_len=2 * max_lag)
    if not np.any(est) or not np.any(ref):
        raise ValueError("degenerate (all-zero) input")
    return est, ref


def _gcc_from_cross(cross, n, max_lag):
    """gcc_phat_delay of a pair validated for ``max_lag``, from its cross
    spectrum, which is overwritten by its phase transform."""
    mag = np.abs(cross)
    small = mag <= 1e-12
    np.divide(cross, mag, out=cross, where=~small)
    cross[small] = 0.0
    cc = np.fft.irfft(cross, n=n)
    cc = np.concatenate([cc[-max_lag:], cc[:max_lag + 1]])
    return int(np.argmax(cc)) - max_lag


def gcc_phat_delay(est, ref, max_lag):
    """Integer delay of ``est`` relative to ``ref`` by phase-transform GCC.

    Returns the lag in [-max_lag, max_lag] maximizing the inverse transform
    of the phase-normalized cross spectrum; bins with cross-spectrum
    magnitude below 1e-12 contribute zero. A positive result means ``est``
    lags ``ref``.
    """
    est, ref = _check_gcc(est, ref, max_lag)
    n, _, cross = _spectra(est, ref)
    return _gcc_from_cross(cross, n, max_lag)


@dataclass(frozen=True)
class MetricsReport:
    """Metric bundle for one estimate/reference pair (dB values capped)."""

    si_sdr: float
    sdr_512: float
    gcc_phat_delay: int

    def to_dict(self):
        return {
            "si_sdr_db": self.si_sdr,
            "sdr_512_db": self.sdr_512,
            "gcc_phat_delay": self.gcc_phat_delay,
        }


class Reference:
    """A reference signal that several estimates are scored against.

    ``score(est, max_lag)`` equals ``evaluate_pair(est, ref, max_lag)``,
    errors and their order included. The reference spectrum and the
    factored normal equations are computed on the first score that gets
    that far and reused, so each further pair takes 3 FFTs instead of 5
    and no new factor.
    """

    def __init__(self, ref):
        self.ref = ref
        self._spectrum = None      # (n, R, _NormalEquations) once computed

    def score(self, est, max_lag=512):
        si = si_sdr(est, self.ref)
        est, ref = _check_pair(est, self.ref, min_len=SDR_TAPS)
        if self._spectrum is None:
            n = est.size + ref.size
            spec_ref = np.fft.rfft(ref, n=n)
            normal = _NormalEquations(_autocorrelation(n, spec_ref, SDR_TAPS),
                                      _SDR_LOAD)
            self._spectrum = n, spec_ref, normal
        n, spec_ref, normal = self._spectrum
        cross = _cross(est, n, spec_ref)
        sdr = _sdr_from_spectra(est, n, cross, normal)
        _check_gcc(est, ref, max_lag)
        return MetricsReport(si_sdr=si, sdr_512=sdr,
                             gcc_phat_delay=_gcc_from_cross(cross, n, max_lag))


def evaluate_pair(est, ref, max_lag=512):
    """All metrics for one estimate against one reference.

    Equal to calling si_sdr, sdr_512 and gcc_phat_delay in turn, with the
    same errors in the same order, but the pair is transformed once.
    """
    return Reference(ref).score(est, max_lag)
