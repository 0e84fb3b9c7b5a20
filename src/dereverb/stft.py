"""Short-time Fourier transform with square-root Hann analysis and synthesis.

The transform uses a 32 ms window with an 8 ms hop (4x overlap). The squared
window is a periodic Hann, whose shifted copies sum to the constant 2 at this
hop, so analyze/synthesize round-trips are exact to floating-point precision.

All functions here are pure; frames are processed as one batched FFT, and
nothing is shared between calls.
"""

from dataclasses import dataclass

import numpy as np

SUPPORTED_RATES = (8000, 16000)
WINDOW_MS = 32
HOP_MS = 8


def sqrt_hann(length):
    """Square root of the periodic Hann window of the given length."""
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length))


@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis parameters of the T-F transform.

    The window is always the square-root Hann of length ``window_len``, and
    the hop must keep the 4x overlap so that overlap-add reconstruction is
    exact. ``fft_size`` may exceed ``window_len``, in which case frames are
    zero-padded before the FFT.
    """

    sample_rate: int
    window_len: int
    hop: int
    fft_size: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.window_len <= 0 or self.hop <= 0:
            raise ValueError("window_len and hop must be positive")
        if self.window_len % self.hop != 0 or self.window_len // self.hop != 4:
            raise ValueError(
                f"window_len={self.window_len} must be exactly 4 hops "
                f"(hop={self.hop}) for exact overlap-add reconstruction"
            )
        if self.fft_size < self.window_len:
            raise ValueError("fft_size must be >= window_len")

    @classmethod
    def for_rate(cls, sample_rate):
        """Standard 32 ms window / 8 ms hop configuration for 8 or 16 kHz.

        Yields 512-point FFT with 257 bins at 16 kHz, 256-point with 129 bins
        at 8 kHz.
        """
        if sample_rate not in SUPPORTED_RATES:
            raise ValueError(f"sample_rate must be one of {SUPPORTED_RATES}")
        window_len = sample_rate * WINDOW_MS // 1000
        return cls(sample_rate, window_len, window_len // 4, window_len)

    @property
    def window(self):
        return sqrt_hann(self.window_len)

    @property
    def overlap(self):
        return self.window_len // self.hop

    @property
    def bins(self):
        return self.fft_size // 2 + 1

    def num_frames(self, n_samples):
        """Frame count for a signal of ``n_samples`` under the fixed padding.

        The signal is padded with ``window_len - hop`` zeros on the left and
        enough zeros on the right that every sample is covered by 4 frames:
        T = ceil(n / hop) + 3. A 16000-sample signal at hop 128 gives 128
        frames.
        """
        if n_samples < 1:
            raise ValueError("signal must contain at least one sample")
        return -(-n_samples // self.hop) + self.overlap - 1


@dataclass(frozen=True)
class ComplexSpectrogram:
    """T x F matrix of STFT coefficients plus the config that produced it."""

    data: np.ndarray
    config: StftConfig

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.complex128)
        if data.ndim != 2:
            raise ValueError(f"spectrogram data must be 2-D (T x F), got {data.ndim}-D")
        if data.shape[1] != self.config.bins:
            raise ValueError(
                f"spectrogram has {data.shape[1]} bins, config implies {self.config.bins}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("spectrogram contains non-finite values")
        object.__setattr__(self, "data", data)

    @property
    def frames(self):
        return self.data.shape[0]

    @property
    def bins(self):
        return self.data.shape[1]

    def with_data(self, data):
        """Same config, new coefficient matrix."""
        return ComplexSpectrogram(data, self.config)


def analyze(signal, cfg):
    """Forward STFT.

    Args:
        signal: real 1-D array of samples.
        cfg: StftConfig.

    Returns:
        ComplexSpectrogram with the conjugate-symmetric half spectrum,
        shape (T, fft_size // 2 + 1). Frame t covers samples
        [t * hop, t * hop + window_len) of the padded signal, where
        window_len - hop zeros are prepended. No scaling is applied on
        analysis; synthesis divides by the summed squared window.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signal must be 1-D")
    if x.size < 1:
        raise ValueError("signal must contain at least one sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")

    n_frames = cfg.num_frames(x.size)
    pad_left = cfg.window_len - cfg.hop
    total = (n_frames - 1) * cfg.hop + cfg.window_len
    padded = np.zeros(total)
    padded[pad_left:pad_left + x.size] = x

    frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.window_len)
    frames = frames[::cfg.hop][:n_frames]  # (T, window_len)
    spec = np.fft.rfft(frames * cfg.window, n=cfg.fft_size, axis=1)
    return ComplexSpectrogram(spec, cfg)


def synthesize(spec, length):
    """Inverse STFT by weighted overlap-add.

    Uses the same sqrt-Hann window for synthesis and divides by the summed
    squared window, so synthesize(analyze(x), len(x)) == x up to float
    precision. The output is truncated or zero-padded to ``length``.

    Args:
        spec: ComplexSpectrogram.
        length: number of output samples.

    Returns:
        real 1-D array of ``length`` samples.
    """
    if not isinstance(spec, ComplexSpectrogram):
        raise TypeError("spec must be a ComplexSpectrogram")
    cfg = spec.config
    if spec.data.shape[1] != cfg.bins:
        raise ValueError("spectrogram shape does not match its config")
    if length < 0:
        raise ValueError("length must be non-negative")

    n_frames = spec.frames
    frames = np.fft.irfft(spec.data, n=cfg.fft_size, axis=1)[:, :cfg.window_len]
    frames = frames * cfg.window

    # Overlap-add on rows of one hop: frame t adds its j-th hop to row t + j.
    # Adding j = overlap - 1 first sums each sample's frames in ascending
    # frame order, as a loop over the frames would.
    pad_left = cfg.window_len - cfg.hop
    total = (n_frames - 1) * cfg.hop + cfg.window_len
    hops = frames.reshape(n_frames, cfg.overlap, cfg.hop)
    wsq = (cfg.window ** 2).reshape(cfg.overlap, cfg.hop)
    out = np.zeros((n_frames + cfg.overlap - 1, cfg.hop))
    wsum = np.zeros_like(out)
    for j in reversed(range(cfg.overlap)):
        out[j:j + n_frames] += hops[:, j]
        wsum[j:j + n_frames] += wsq[j]
    out, wsum = out.reshape(total), wsum.reshape(total)

    good = wsum > 1e-10 * wsum.max() if wsum.max() > 0 else wsum > 0
    out[good] /= wsum[good]
    out[~good] = 0.0

    result = np.zeros(length)
    n_copy = min(length, total - pad_left)
    result[:n_copy] = out[pad_left:pad_left + n_copy]
    return result
