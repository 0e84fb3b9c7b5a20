"""Reverberant scene synthesis with exact ground-truth decomposition.

An RIR is modeled parametrically: one direct-path impulse, sparse early
reflections within a 50 ms window after the peak, and a late tail of
exponentially decaying Gaussian noise whose energy drops 60 dB over t60.
A scene mixes one or more sources (each convolved with its own RIR) plus
optional noise, and keeps every component so that y = s + h + v holds
sample-exact by construction. ``target_estimates`` turns signals, such
as the sources' direct paths, into the STFT estimates the predictors take.

Scenes are immutable once built and safe to share between threads.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .stft import analyze


@dataclass(frozen=True)
class RirSpec:
    """Parameters of the parametric room impulse response model.

    ``rir_len=None`` defaults to the direct delay plus the span of the early
    window and the t60 decay. The anechoic limit is expressed with a
    zero-length tail (``rir_len`` ending at the direct tap) and
    ``n_early_taps=0``, not with t60=0, which is rejected.
    """

    sample_rate: int
    t60: float
    direct_delay: int = 48
    direct_gain: float = 1.0
    early_window_ms: float = 50.0
    n_early_taps: int = 8
    rir_len: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.t60 <= 0:
            raise ValueError(f"t60 must be positive, got {self.t60}")
        if self.direct_delay < 0:
            raise ValueError("direct_delay must be >= 0")
        if self.direct_gain == 0:
            raise ValueError("direct_gain must be nonzero")
        if self.n_early_taps < 0:
            raise ValueError("n_early_taps must be >= 0")
        if self.rir_len is None:
            default_len = self.direct_delay + 1 + self.early_samples + math.ceil(
                self.t60 * self.sample_rate
            )
            object.__setattr__(self, "rir_len", default_len)
        min_len = self.direct_delay + math.ceil(self.t60 * self.sample_rate)
        if self.rir_len < max(min_len, self.direct_delay + 1):
            raise ValueError(
                f"rir_len={self.rir_len} too short to span t60={self.t60} s "
                f"after the direct delay"
            )

    @property
    def early_samples(self):
        """Width of the early-reflection window in samples (50 ms default)."""
        return int(round(self.early_window_ms * self.sample_rate / 1000.0))


@dataclass(frozen=True)
class Rir:
    """A room impulse response and its direct/early/late partition.

    direct + early + late == taps exactly; ``early`` is nonzero only within
    (peak, peak + early_len] and ``late`` only beyond.
    """

    taps: np.ndarray
    peak_index: int
    early_len: int
    sample_rate: int = 0
    direct: np.ndarray = field(init=False, repr=False)
    early: np.ndarray = field(init=False, repr=False)
    late: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        if taps.ndim != 1 or taps.size == 0:
            raise ValueError("taps must be a non-empty 1-D array")
        if not 0 <= self.peak_index < taps.size:
            raise ValueError("peak_index out of range")
        object.__setattr__(self, "taps", taps)
        d, e, l = _partition(taps, self.peak_index, self.early_len)
        object.__setattr__(self, "direct", d)
        object.__setattr__(self, "early", e)
        object.__setattr__(self, "late", l)


def _partition(taps, peak, early_len):
    n = taps.size
    idx = np.arange(n)
    direct = np.where(idx <= peak, taps, 0.0)
    early = np.where((idx > peak) & (idx <= peak + early_len), taps, 0.0)
    late = np.where(idx > peak + early_len, taps, 0.0)
    return direct, early, late


def gen_rir(spec):
    """Synthesize a parametric RIR.

    The direct path is a single sample-aligned impulse at ``direct_delay``
    (no fractional delay, by design). Early reflections are
    ``n_early_taps`` random signed taps at distinct offsets within
    (0, 50 ms] after the peak, with magnitudes following the decay envelope.
    The late tail starts past the early window and is Gaussian noise shaped
    by exp(-(3 ln 10 / t60) * t), i.e. 60 dB of energy decay over t60; its
    total expected energy equals the direct tap's energy. Deterministic
    given ``spec.seed``.
    """
    rng = np.random.default_rng(spec.seed)
    fs = spec.sample_rate
    peak = spec.direct_delay
    taps = np.zeros(spec.rir_len)
    taps[peak] = spec.direct_gain

    decay = 3.0 * math.log(10.0) / spec.t60
    early_len = spec.early_samples

    hi = min(early_len, spec.rir_len - 1 - peak)
    if spec.n_early_taps > 0 and hi >= 1:
        count = min(spec.n_early_taps, hi)
        offsets = rng.choice(np.arange(1, hi + 1), size=count, replace=False)
        signs = rng.choice([-1.0, 1.0], size=count)
        amps = rng.uniform(0.2, 0.8, size=count) * np.exp(-decay * offsets / fs)
        taps[peak + offsets] += spec.direct_gain * signs * amps

    tail_start = peak + early_len + 1
    if tail_start < spec.rir_len:
        offsets = np.arange(tail_start, spec.rir_len) - peak
        env = np.exp(-decay * offsets / fs)
        energy = np.sum(env ** 2)
        if energy > 0:  # 0: the envelope underflows (t60 below ~1 ms), no tail
            # unit tail energy relative to the direct tap, in expectation
            sigma = abs(spec.direct_gain) / math.sqrt(energy)
            taps[tail_start:] = sigma * env * rng.standard_normal(offsets.size)

    return Rir(taps, peak, early_len, sample_rate=fs)


def split_rir(rir):
    """Partition an RIR into (direct, early, late) components.

    The three arrays have the same length as ``rir.taps``, are zero outside
    their regions, and sum exactly to ``rir.taps``. The early region is
    (peak, peak + early_len] inclusive of the boundary sample.
    """
    return _partition(rir.taps, rir.peak_index, rir.early_len)


def strip_late(rir):
    """Same RIR with the late tail zeroed (direct + early reflections only)."""
    return Rir(rir.direct + rir.early, rir.peak_index, rir.early_len,
               sample_rate=rir.sample_rate)


@dataclass(frozen=True)
class Scene:
    """A synthesized mixture with its ground-truth components.

    For source c: ``direct[c]`` is the direct-path image (the metric
    reference), ``wet[c]`` the early+late reverberation image. The mixture is
    y = direct[0] + wet[0] + v where v (``.v``) bundles all other sources and
    the noise; this identity is sample-exact by construction.
    """

    sample_rate: int
    dry: tuple
    rirs: tuple
    direct: tuple
    wet: tuple
    noise: np.ndarray
    y: np.ndarray
    snr_db: float | None
    scale: float

    @property
    def n_sources(self):
        return len(self.dry)

    @property
    def n_samples(self):
        return self.y.size

    @property
    def s(self):
        """Direct-path image of the first (target) source."""
        return self.direct[0]

    @property
    def h(self):
        """Reverberation image of the first source."""
        return self.wet[0]

    @property
    def v(self):
        """Everything else: remaining sources' images plus noise."""
        return _residual_sum(self.direct, self.wet, self.noise)


def _residual_sum(direct, wet, noise):
    """Sum of non-target images plus noise, in a fixed evaluation order."""
    v = noise.copy()
    for c in range(len(direct) - 1, 0, -1):
        v = (direct[c] + wet[c]) + v
    return v


def _assemble(direct, wet, noise):
    return (direct[0] + wet[0]) + _residual_sum(direct, wet, noise)


def render_scene(dry, rirs, noise=None, snr_db=None, normalize=True):
    """Convolve dry sources with their RIRs and mix with scaled noise.

    Args:
        dry: one 1-D signal per source (a single array is treated as one
            source). All must share one length.
        rirs: one Rir per source.
        noise: optional noise signal of the same length.
        snr_db: target ratio 10 log10(||s||^2 / ||noise||^2) between the
            first source's direct-path image and the scaled noise. Required
            when noise is given.
        normalize: scale every component by one factor so the mixture has
            unit sample variance.

    Returns:
        Scene. Components are truncated to the dry length.
    """
    if isinstance(dry, np.ndarray) and dry.ndim == 1:
        dry = [dry]
    dry = [np.asarray(d, dtype=np.float64) for d in dry]
    if len(dry) == 0:
        raise ValueError("need at least one dry source")
    if len(dry) != len(rirs):
        raise ValueError(f"{len(dry)} dry sources but {len(rirs)} RIRs")
    n = dry[0].size
    if any(d.ndim != 1 or d.size != n for d in dry):
        raise ValueError("all dry sources must be 1-D and share one length")
    if (noise is None) != (snr_db is None):
        raise ValueError("noise and snr_db must be given together")
    rates = {r.sample_rate for r in rirs}
    if len(rates) != 1 or rates == {0}:
        raise ValueError("all RIRs must carry one common sample_rate")
    fs = rates.pop()
    # imported on first use: scipy.signal costs ~1 s to import and only scenes need it
    from scipy.signal import fftconvolve

    direct = []
    wet = []
    for d, rir in zip(dry, rirs):
        direct.append(fftconvolve(d, rir.direct)[:n])
        wet.append(fftconvolve(d, rir.early + rir.late)[:n])

    if noise is not None:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.size != n:
            raise ValueError("noise length must match the dry sources")
        e_s = float(np.sum(direct[0] ** 2))
        e_n = float(np.sum(noise ** 2))
        if e_s == 0.0:
            raise ValueError("cannot set a finite SNR against a silent source")
        if e_n == 0.0:
            raise ValueError("noise signal is silent")
        noise = noise * math.sqrt(e_s / (e_n * 10.0 ** (snr_db / 10.0)))
    else:
        noise = np.zeros(n)

    y = _assemble(direct, wet, noise)
    scale = 1.0
    if normalize:
        var = float(np.var(y))
        if var == 0.0:
            raise ValueError("cannot normalize an all-zero mixture")
        scale = 1.0 / math.sqrt(var)
        dry = [d * scale for d in dry]
        direct = [s * scale for s in direct]
        wet = [h * scale for h in wet]
        noise = noise * scale
        y = _assemble(direct, wet, noise)

    return Scene(
        sample_rate=fs,
        dry=tuple(dry),
        rirs=tuple(rirs),
        direct=tuple(direct),
        wet=tuple(wet),
        noise=noise,
        y=y,
        snr_db=snr_db,
        scale=scale,
    )


def degrade(signal, error_snr_db, seed):
    """Add seeded white noise at 10 log10(||s||^2 / ||e||^2) = error_snr_db."""
    s = np.asarray(signal, dtype=np.float64)
    if math.isinf(error_snr_db):
        return s.copy()
    e_s = float(np.sum(s ** 2))
    if e_s == 0.0:
        raise ValueError("cannot degrade a silent signal")
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(s.size)
    e *= math.sqrt(e_s / (float(np.sum(e ** 2)) * 10.0 ** (error_snr_db / 10.0)))
    return s + e


def target_estimates(signals, cfg, error_snr_db=None, seeds=()):
    """STFT data (T x F arrays) of target estimates made from ``signals``.

    With ``error_snr_db`` None each estimate is its signal as it is (an
    oracle estimate, or an external one read from a file); otherwise each
    signal is first degraded with its own seed from ``seeds``, one per
    signal (see ``degrade``).
    """
    if error_snr_db is not None:
        if len(seeds) != len(signals):
            raise ValueError(f"{len(signals)} signals to degrade need as many "
                             f"seeds; got {len(seeds)}")
        signals = [degrade(s, error_snr_db, seed) for s, seed in zip(signals, seeds)]
    return [analyze(s, cfg).data for s in signals]


def synth_speech(n_samples, sample_rate, seed):
    """Seeded speech-like test signal: AR-shaped noise with burst envelope.

    Two randomized resonances give a broad spectral tilt and the syllabic
    on/off envelope leaves low-energy gaps, so the T-F weighting in the
    predictors has something to do. Unit sample variance, zero mean.
    """
    # imported on first use: scipy.signal costs ~1 s to import and only scenes need it
    from scipy.signal import fftconvolve, lfilter

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_samples)

    # cascade of two AR(2) resonators at randomized center frequencies
    for lo, hi, radius in ((300.0, 900.0, 0.97), (1200.0, 2600.0, 0.90)):
        f0 = rng.uniform(lo, min(hi, 0.45 * sample_rate))
        theta = 2.0 * math.pi * f0 / sample_rate
        a = [1.0, -2.0 * radius * math.cos(theta), radius ** 2]
        x = lfilter([1.0], a, x)

    # syllabic bursts: ~4 Hz random gate, smoothed to avoid clicks
    block = max(1, int(round(0.25 * sample_rate)))
    n_blocks = -(-n_samples // block)
    gains = rng.uniform(0.25, 1.0, size=n_blocks) * (rng.random(n_blocks) < 0.75)
    if not np.any(gains):
        gains[rng.integers(n_blocks)] = 1.0
    gate = np.repeat(gains, block)[:n_samples]
    smooth = max(1, int(round(0.05 * sample_rate)))
    kernel = np.hanning(2 * smooth + 1)
    kernel /= kernel.sum()
    gate = fftconvolve(gate, kernel, mode="same")
    x = x * gate

    x = x - x.mean()
    std = x.std()
    if std == 0.0:
        raise ValueError("degenerate synthetic source")
    return x / std
