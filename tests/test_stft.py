import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dereverb import ComplexSpectrogram, StftConfig, analyze, synthesize


def test_for_rate_configs():
    c16 = StftConfig.for_rate(16000)
    assert (c16.window_len, c16.hop, c16.fft_size, c16.bins) == (512, 128, 512, 257)
    c8 = StftConfig.for_rate(8000)
    assert (c8.window_len, c8.hop, c8.fft_size, c8.bins) == (256, 64, 256, 129)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        StftConfig.for_rate(44100)
    with pytest.raises(ValueError):
        StftConfig(16000, 512, 100, 512)  # hop does not divide window
    with pytest.raises(ValueError):
        StftConfig(16000, 512, 256, 512)  # overlap factor 2, not 4
    with pytest.raises(ValueError):
        StftConfig(16000, 512, 128, 256)  # fft smaller than window


def test_zero_signal_gives_zero_spectrogram(cfg16k):
    spec = analyze(np.zeros(4096), cfg16k)
    assert spec.bins == 257
    assert np.all(spec.data == 0)


def test_frame_count_convention(cfg16k):
    # T = ceil(n / hop) + 3 under the fixed padding scheme
    assert cfg16k.num_frames(16000) == 128
    assert analyze(np.ones(16000), cfg16k).frames == 128
    assert cfg16k.num_frames(16001) == 129
    assert cfg16k.num_frames(1) == 4


def test_empty_and_bad_signals_rejected(cfg16k):
    with pytest.raises(ValueError):
        analyze(np.array([]), cfg16k)
    with pytest.raises(ValueError):
        analyze(np.full(100, np.nan), cfg16k)
    with pytest.raises(ValueError):
        analyze(np.zeros((4, 4)), cfg16k)


def test_pure_tone_against_single_frame_dft(cfg16k):
    """Frame spectra must match an explicit windowed DFT, and a bin-centred
    tone must concentrate its energy at round(f0 * fft / fs)."""
    fs = 16000
    k0 = 40  # bin-centred tone
    f0 = k0 * fs / cfg16k.fft_size
    n = np.arange(4 * cfg16k.window_len)
    x = np.cos(2 * np.pi * f0 * n / fs)
    spec = analyze(x, cfg16k)

    # independent oracle: explicit O(N^2) DFT of one windowed frame
    t = 8
    pad_left = cfg16k.window_len - cfg16k.hop
    padded = np.concatenate([np.zeros(pad_left), x])
    frame = padded[t * cfg16k.hop:t * cfg16k.hop + cfg16k.window_len] * cfg16k.window
    ks = np.arange(cfg16k.bins)
    dft = np.array([
        np.sum(frame * np.exp(-2j * np.pi * k * np.arange(cfg16k.window_len)
                              / cfg16k.fft_size))
        for k in ks
    ])
    np.testing.assert_allclose(spec.data[t], dft, rtol=1e-9, atol=1e-9)

    # energy concentration at the tone bin (sqrt-Hann leakage stays local)
    power = np.abs(dft) ** 2
    assert np.argmax(power) == k0
    neighborhood = power[k0 - 4:k0 + 5].sum()
    assert neighborhood > 0.995 * power.sum()


@pytest.mark.parametrize("fs", [8000, 16000])
@pytest.mark.parametrize("length", [8192, 12345])
def test_roundtrip(fs, length):
    cfg = StftConfig.for_rate(fs)
    x = np.random.default_rng(fs + length).standard_normal(length)
    y = synthesize(analyze(x, cfg), length)
    assert np.linalg.norm(x - y) / np.linalg.norm(x) < 1e-6


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([8000, 16000]), st.integers(1, 3 * 16000),
       st.integers(-500, 500), st.integers(0, 2 ** 32 - 1))
@example(8000, 1, -500, 0)
@example(16000, 3 * 16000, 500, 1)
def test_roundtrip_exact_to_float_precision(fs, length, k, seed):
    """synthesize(analyze(x), n) is x to 1e-12 norm-relative, at any length
    and at any amplitude 2^k; the norms are taken at unit scale, where
    they neither overflow nor underflow."""
    x = np.random.default_rng(seed).standard_normal(length)
    y = synthesize(analyze(np.ldexp(x, k), StftConfig.for_rate(fs)), length)
    assert np.linalg.norm(np.ldexp(y, -k) - x) <= 1e-12 * np.linalg.norm(x)


def test_roundtrip_at_window_length(cfg8k):
    x = np.random.default_rng(0).standard_normal(cfg8k.window_len)
    y = synthesize(analyze(x, cfg8k), x.size)
    assert np.linalg.norm(x - y) / np.linalg.norm(x) < 1e-6


def test_zero_spectrogram_synthesizes_zero(cfg16k):
    spec = ComplexSpectrogram(np.zeros((20, 257), dtype=complex), cfg16k)
    assert np.all(synthesize(spec, 1000) == 0)


def test_scaling_through_roundtrip(cfg16k):
    x = np.random.default_rng(1).standard_normal(5000)
    spec = analyze(x, cfg16k)
    doubled = synthesize(spec.with_data(spec.data * 2), x.size)
    assert np.linalg.norm(doubled - 2 * x) / np.linalg.norm(2 * x) < 1e-6


def test_analysis_linearity(cfg8k):
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal(3000), rng.standard_normal(3000)
    a, b = 1.7, -0.3
    lhs = analyze(a * x + b * y, cfg8k).data
    rhs = a * analyze(x, cfg8k).data + b * analyze(y, cfg8k).data
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10 * np.abs(rhs).max())


def test_parseval_constant(cfg16k):
    """Total half-spectrum energy (conjugate pairs double-counted) equals
    fft_size * COLA constant (= 2) * signal energy."""
    x = np.random.default_rng(3).standard_normal(9000)
    s = analyze(x, cfg16k).data
    half = np.abs(s) ** 2
    full = 2 * half.sum() - (np.abs(s[:, 0]) ** 2).sum() - (np.abs(s[:, -1]) ** 2).sum()
    const = full / (cfg16k.fft_size * np.sum(x ** 2))
    assert abs(const - 2.0) < 1e-9


def test_spectrogram_validation(cfg16k):
    with pytest.raises(ValueError):
        ComplexSpectrogram(np.zeros((4, 100), dtype=complex), cfg16k)  # wrong bins
    bad = np.zeros((4, 257), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ComplexSpectrogram(bad, cfg16k)


def test_synthesize_pads_beyond_covered_span(cfg8k):
    x = np.random.default_rng(4).standard_normal(1000)
    spec = analyze(x, cfg8k)
    longer = synthesize(spec, 3000)
    np.testing.assert_allclose(longer[:1000], x, atol=1e-9)
    assert np.all(np.abs(longer[1200:]) < 1e-9)


def loop_synthesize(spec, length):
    """synthesize with the overlap-add as a loop over the frames."""
    cfg = spec.config
    frames = np.fft.irfft(spec.data, n=cfg.fft_size, axis=1)[:, :cfg.window_len]
    frames = frames * cfg.window
    total = (spec.frames - 1) * cfg.hop + cfg.window_len
    out, wsum = np.zeros(total), np.zeros(total)
    for t in range(spec.frames):
        out[t * cfg.hop:t * cfg.hop + cfg.window_len] += frames[t]
        wsum[t * cfg.hop:t * cfg.hop + cfg.window_len] += cfg.window ** 2
    good = wsum > 1e-10 * wsum.max() if wsum.max() > 0 else wsum > 0
    out[good] /= wsum[good]
    out[~good] = 0.0
    result = np.zeros(length)
    pad_left = cfg.window_len - cfg.hop
    n_copy = min(length, total - pad_left)
    result[:n_copy] = out[pad_left:pad_left + n_copy]
    return result


@pytest.mark.parametrize("fs", [8000, 16000])
@pytest.mark.parametrize("n", [1, 63, 4000, 4 * 16000 + 37])
def test_synthesize_equals_frame_loop(fs, n):
    """The strided overlap-add sums each sample's frames in the loop's
    order, so the two are bit-identical, also on a modified spectrogram."""
    cfg = StftConfig.for_rate(fs)
    rng = np.random.default_rng(n)
    spec = analyze(rng.standard_normal(n), cfg)
    spec = spec.with_data(spec.data * rng.uniform(0.5, 1.5, spec.data.shape))
    for length in (n, n + 300, max(n - 10, 0)):
        np.testing.assert_array_equal(synthesize(spec, length),
                                      loop_synthesize(spec, length))
