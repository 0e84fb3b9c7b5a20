import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dereverb import (Rir, RirSpec, analyze, cli, degrade, gen_rir, read_wav,
                      render_scene, si_sdr, split_rir, strip_late, synth_speech,
                      target_estimates, write_wav)
from dereverb.scene import _all_pole, _convolve, _fast_len, _smooth_gate


# ---------------------------------------------------------------------------
# RIR generation

def test_anechoic_limit_is_lone_impulse():
    # t60 -> 0 emulated with a zero-length tail and no early taps
    spec = RirSpec(16000, t60=1e-9, direct_delay=10, direct_gain=0.8,
                   n_early_taps=0, rir_len=11, seed=0)
    rir = gen_rir(spec)
    expected = np.zeros(11)
    expected[10] = 0.8
    np.testing.assert_array_equal(rir.taps, expected)
    d, e, l = split_rir(rir)
    assert np.all(e == 0) and np.all(l == 0)


def test_tail_decays_60db_over_t60():
    """Log-energy regression over 20 ms blocks must give -60 dB per t60."""
    fs, t60 = 16000, 0.6
    rir = gen_rir(RirSpec(fs, t60=t60, direct_delay=48, seed=3))
    tail = rir.late[rir.peak_index + rir.early_len + 1:]
    block = int(0.020 * fs)
    n_blocks = tail.size // block
    energies = np.array([np.sum(tail[i * block:(i + 1) * block] ** 2)
                         for i in range(n_blocks)])
    t = (np.arange(n_blocks) + 0.5) * block / fs
    slope = np.polyfit(t, 10 * np.log10(energies), 1)[0]  # dB per second
    assert abs(slope * t60 + 60.0) < 3.0


def test_tail_that_underflows_is_silent():
    """Below ~1 ms the decay envelope underflows to zero: the tail is silent
    rather than 0/0, and the direct tap is kept."""
    rir = gen_rir(RirSpec(8000, t60=1e-4, direct_delay=24, seed=1))
    assert np.all(np.isfinite(rir.taps)) and rir.taps[24] == 1.0
    assert not np.any(rir.taps[rir.peak_index + rir.early_len + 1:])


def test_gen_rir_deterministic():
    spec = RirSpec(8000, t60=0.4, direct_delay=24, seed=7)
    np.testing.assert_array_equal(gen_rir(spec).taps, gen_rir(spec).taps)


def test_gen_rir_validation():
    with pytest.raises(ValueError):
        RirSpec(16000, t60=0.0)
    with pytest.raises(ValueError):
        RirSpec(16000, t60=-0.5)
    with pytest.raises(ValueError):
        RirSpec(16000, t60=0.5, rir_len=100)  # cannot span t60


# ---------------------------------------------------------------------------
# splitting

def test_split_partition_is_exact():
    rir = gen_rir(RirSpec(16000, t60=0.5, direct_delay=48, seed=1))
    d, e, l = split_rir(rir)
    assert np.max(np.abs(d + e + l - rir.taps)) == 0.0


def test_split_boundary_at_800_samples():
    # 50 ms at 16 kHz = 800 samples after the peak; the boundary sample is early
    fs = 16000
    peak = 100
    for offset_ms, region in ((49, "early"), (51, "late")):
        taps = np.zeros(4000)
        taps[peak] = 1.0
        taps[peak + int(offset_ms * fs / 1000)] = 0.5
        rir = Rir(taps, peak, early_len=800, sample_rate=fs)
        d, e, l = split_rir(rir)
        hit = e if region == "early" else l
        other = l if region == "early" else e
        assert hit[peak + int(offset_ms * fs / 1000)] == 0.5
        assert np.all(other == 0)
    taps = np.zeros(4000)
    taps[peak] = 1.0
    taps[peak + 800] = 0.5  # exactly 50 ms: still early
    d, e, l = split_rir(Rir(taps, peak, 800, sample_rate=fs))
    assert e[peak + 800] == 0.5 and np.all(l == 0)


def test_strip_late_keeps_direct_and_early():
    rir = gen_rir(RirSpec(8000, t60=0.4, direct_delay=24, seed=2))
    stripped = strip_late(rir)
    np.testing.assert_array_equal(stripped.taps, rir.direct + rir.early)
    assert np.all(stripped.late == 0)


# ---------------------------------------------------------------------------
# scene rendering

def test_single_impulse_scene_is_clean():
    fs = 8000
    dry = synth_speech(fs, fs, seed=5)
    rir = gen_rir(RirSpec(fs, t60=1e-9, direct_delay=30, n_early_taps=0,
                          rir_len=31, seed=0))
    scene = render_scene([dry], [rir], normalize=False)
    np.testing.assert_array_equal(scene.y, scene.s)
    assert np.all(scene.h == 0) and np.all(scene.v == 0)


def test_snr_zero_db_unit_energy_scale():
    # equal-energy s and noise at 0 dB leaves the noise unscaled
    fs = 8000
    rng = np.random.default_rng(8)
    dry = rng.standard_normal(fs)
    dry = (dry - dry.mean()) / dry.std()
    noise = rng.standard_normal(fs)
    noise = (noise - noise.mean()) / noise.std()
    rir = gen_rir(RirSpec(fs, t60=1e-9, direct_delay=0, n_early_taps=0,
                          rir_len=1, seed=0))
    scene = render_scene([dry], [rir], noise=noise, snr_db=0.0, normalize=False)
    np.testing.assert_allclose(scene.noise, noise, rtol=1e-9)


def test_two_speaker_sum_is_sample_exact(two_speaker_scene):
    sc = two_speaker_scene
    x0 = sc.direct[0] + sc.wet[0]
    x1 = sc.direct[1] + sc.wet[1]
    np.testing.assert_array_equal(sc.y, x0 + (x1 + sc.noise))
    np.testing.assert_array_equal(sc.y, (sc.s + sc.h) + sc.v)


def test_render_errors():
    fs = 8000
    rir = gen_rir(RirSpec(fs, t60=0.3, direct_delay=10, seed=0))
    with pytest.raises(ValueError):
        render_scene([np.zeros(100), np.zeros(200)], [rir, rir])
    with pytest.raises(ValueError):
        render_scene([np.zeros(8000)], [rir],
                     noise=np.random.default_rng(0).standard_normal(8000),
                     snr_db=10.0)  # silent source, finite SNR
    with pytest.raises(ValueError):
        render_scene([np.ones(8000)], [rir], noise=np.ones(8000))  # missing snr


def test_normalization_unit_variance_and_ratio_preserved():
    fs = 8000
    rng = np.random.default_rng(13)
    dry = synth_speech(2 * fs, fs, seed=14)
    rir = gen_rir(RirSpec(fs, t60=0.4, direct_delay=24, seed=15))
    noise = rng.standard_normal(2 * fs)
    raw = render_scene([dry], [rir], noise=noise, snr_db=15.0, normalize=False)
    norm = render_scene([dry], [rir], noise=noise, snr_db=15.0, normalize=True)
    assert abs(np.var(norm.y) - 1.0) < 1e-9
    # scale invariance: SI-SDR of the mixture against the target is unchanged
    assert abs(si_sdr(raw.y, raw.s) - si_sdr(norm.y, norm.s)) < 1e-6


def test_scene_determinism():
    fs = 8000
    def build():
        dry = synth_speech(fs, fs, seed=3)
        rir = gen_rir(RirSpec(fs, t60=0.3, direct_delay=24, seed=4))
        noise = np.random.default_rng(5).standard_normal(fs)
        return render_scene([dry], [rir], noise=noise, snr_db=10.0)
    a, b = build(), build()
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.v, b.v)


def test_snr_that_is_not_a_number_is_rejected():
    """+inf renders no noise; NaN and -inf are no SNR at all."""
    fs = 8000
    dry = synth_speech(fs, fs, seed=1)
    rir = gen_rir(RirSpec(fs, t60=0.3, direct_delay=24, seed=2))
    noise = np.random.default_rng(3).standard_normal(fs)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="snr_db"):
            render_scene([dry], [rir], noise=noise, snr_db=bad)
    scene = render_scene([dry], [rir], noise=noise, snr_db=math.inf)
    assert not np.any(scene.noise) and np.all(np.isfinite(scene.y))
    np.testing.assert_array_equal(scene.y, scene.s + scene.h)


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0, 3080.0, -3200.0])
def test_snr_whose_noise_gain_is_not_a_float_is_rejected(snr_db):
    """Finite SNRs far outside the dB range raise ValueError naming the
    setting: ±4000 dB, whose power of ten overflows or is 0, 3080 dB,
    whose gain is 0 (no noise), and -3200 dB, whose gain is infinite."""
    fs = 8000
    dry = synth_speech(fs, fs, seed=1)
    rir = gen_rir(RirSpec(fs, t60=0.3, direct_delay=24, seed=2))
    noise = np.random.default_rng(3).standard_normal(fs)
    with pytest.raises(ValueError, match="^snr_db"):
        render_scene([dry], [rir], noise=noise, snr_db=snr_db)
    with pytest.raises(ValueError, match="^error_snr_db"):
        degrade(dry, snr_db, seed=4)


# ---------------------------------------------------------------------------
# numpy scene kernels, against references that share none of their arithmetic

def close(actual, expected, rtol=1e-12):
    """Within rtol of expected, relative to expected's norm."""
    return np.linalg.norm(actual - expected) <= rtol * np.linalg.norm(expected)


def five_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300_000))
def test_fast_len_is_the_smallest_5_smooth_size(n):
    size = _fast_len(n)
    assert size >= n and five_smooth(size)
    assert not any(five_smooth(m) for m in range(n, size))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 400), st.integers(1, 3),
       st.integers(1, 400), st.data())
def test_convolve_matches_np_convolve(seed, n_x, rows, n_taps, data):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_x)
    taps = rng.standard_normal((rows, n_taps))
    n = data.draw(st.integers(1, n_x + n_taps - 1))
    out = _convolve(x, taps, n)
    assert out.shape == (rows, n)
    for row, expected in zip(out, taps):
        assert close(row, np.convolve(x, expected)[:n])


def all_pole_loop(x, a):
    """y[t] = (x[t] - sum_k a[k] y[t - k]) / a[0], sample by sample."""
    y = np.zeros_like(x)
    for t in range(x.size):
        acc = x[t]
        for k in range(1, min(len(a), t + 1)):
            acc -= a[k] * y[t - k]
        y[t] = acc / a[0]
    return y


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([8000, 16000]),
       st.integers(1, 3000))
def test_all_pole_matches_the_recursion(seed, fs, n):
    """Two resonators at random frequencies and radii up to 0.97."""
    rng = np.random.default_rng(seed)
    a = np.ones(1)
    for lo, hi in ((300.0, 900.0), (1200.0, 2600.0)):
        theta = 2.0 * math.pi * rng.uniform(lo, min(hi, 0.45 * fs)) / fs
        radius = rng.uniform(0.0, 0.97)
        a = np.convolve(a, [1.0, -2.0 * radius * math.cos(theta), radius ** 2])
    x = rng.standard_normal(n)
    assert close(_all_pole(x, a), all_pole_loop(x, a))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 600), st.integers(1, 80),
       st.integers(1, 40))
def test_smooth_gate_matches_np_convolve(seed, n, block, smooth):
    rng = np.random.default_rng(seed)
    n_blocks = -(-n // block)
    gains = rng.uniform(0.25, 1.0, n_blocks) * (rng.random(n_blocks) < 0.75)
    kernel = np.hanning(2 * smooth + 1)
    kernel /= kernel.sum()
    gate = np.repeat(gains, block)[:n]
    # np.convolve's "same" mode, also where the kernel is the longer
    expected = np.convolve(gate, kernel)[smooth:smooth + n]
    if n >= kernel.size:
        np.testing.assert_array_equal(expected, np.convolve(gate, kernel, "same"))
    assert close(_smooth_gate(gains, block, n, kernel), expected)


def scipy_synth_speech(n, fs, seed):
    """synth_speech on scipy.signal's lfilter and fftconvolve."""
    from scipy.signal import fftconvolve, lfilter

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    for lo, hi, radius in ((300.0, 900.0, 0.97), (1200.0, 2600.0, 0.90)):
        theta = 2.0 * math.pi * rng.uniform(lo, min(hi, 0.45 * fs)) / fs
        x = lfilter([1.0], [1.0, -2.0 * radius * math.cos(theta), radius ** 2], x)
    block = round(0.25 * fs)
    n_blocks = -(-n // block)
    gains = rng.uniform(0.25, 1.0, size=n_blocks) * (rng.random(n_blocks) < 0.75)
    if not np.any(gains):
        gains[rng.integers(n_blocks)] = 1.0
    kernel = np.hanning(2 * round(0.05 * fs) + 1)
    kernel /= kernel.sum()
    x = x * fftconvolve(np.repeat(gains, block)[:n], kernel, mode="same")
    x = x - x.mean()
    return x / x.std()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([8000, 16000]),
       st.integers(1000, 12000), st.integers(1, 2), st.booleans())
def test_scenes_match_scipy_signal(seed, fs, n, n_sources, noisy):
    """Long enough that every image reaches the RIRs' tails, so none is
    all zeros (which the FFTs render as round-off)."""
    from scipy.signal import fftconvolve

    dry = [synth_speech(n, fs, seed + c) for c in range(n_sources)]
    for d, c in zip(dry, range(n_sources)):
        assert close(d, scipy_synth_speech(n, fs, seed + c))
    rirs = [gen_rir(RirSpec(fs, t60=0.3, direct_delay=24 + 32 * c, seed=seed + c))
            for c in range(n_sources)]
    noise = np.random.default_rng(seed).standard_normal(n) if noisy else None
    scene = render_scene(dry, rirs, noise=noise, snr_db=10.0 if noisy else None)
    for c, (d, rir) in enumerate(zip(dry, rirs)):
        direct = fftconvolve(d, rir.direct)[:n]
        wet = fftconvolve(d, rir.early + rir.late)[:n]
        assert close(scene.direct[c], scene.scale * direct)
        assert close(scene.wet[c], scene.scale * wet)
    np.testing.assert_array_equal(scene.y, (scene.s + scene.h) + scene.v)


# ---------------------------------------------------------------------------
# target estimates

def test_oracle_estimate_is_exact_stft(reverb_scene, cfg8k):
    est, = target_estimates([reverb_scene.direct[0]], cfg8k)
    np.testing.assert_array_equal(est, analyze(reverb_scene.s, cfg8k).data)


def test_degraded_at_infinity_equals_oracle(reverb_scene, cfg8k):
    oracle, = target_estimates([reverb_scene.direct[0]], cfg8k)
    inf, = target_estimates([reverb_scene.direct[0]], cfg8k, math.inf, [1])
    np.testing.assert_allclose(inf, oracle, atol=1e-12)


def test_degrade_takes_numbers_and_plus_infinity_only(reverb_scene):
    s = reverb_scene.s
    copy = degrade(s, math.inf, seed=1)
    assert copy is not s
    np.testing.assert_array_equal(copy, s)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="error_snr_db"):
            degrade(s, bad, seed=1)


def test_degraded_estimate_hits_requested_snr(reverb_scene):
    # SI-SDR of (s + e) against s approaches the construction SNR
    s = reverb_scene.s
    noisy = degrade(s, 10.0, seed=2)
    assert abs(si_sdr(noisy, s) - 10.0) < 0.1


def test_external_estimate_roundtrip(reverb_scene, cfg8k, tmp_path):
    path = tmp_path / "est.wav"
    write_wav(path, reverb_scene.s, 8000, "float32")
    n = reverb_scene.n_samples
    signals, _ = cli._load_signals([str(path)], 8000, n, "estimate")
    est, = target_estimates(signals, cfg8k)
    assert est.shape == analyze(reverb_scene.direct[0], cfg8k).data.shape
    with pytest.raises(OSError):
        cli._load_signals([str(tmp_path / "nope.wav")], 8000, n, "estimate")
    short = tmp_path / "short.wav"
    write_wav(short, reverb_scene.s[:100], 8000)
    with pytest.raises(ValueError):
        cli._load_signals([str(short)], 8000, n, "estimate")


def test_target_estimates_validation(reverb_scene, cfg8k):
    with pytest.raises(ValueError):  # one degrade seed per signal
        target_estimates(reverb_scene.direct, cfg8k, 10.0, [])
    with pytest.raises(ValueError):  # a silent signal cannot be degraded
        target_estimates([np.zeros(800)], cfg8k, 10.0, [0])
    # each signal is degraded with its own seed
    a, b = target_estimates([reverb_scene.s] * 2, cfg8k, 10.0, [4, 5])
    np.testing.assert_array_equal(a, analyze(degrade(reverb_scene.s, 10.0, 4), cfg8k).data)
    np.testing.assert_array_equal(b, analyze(degrade(reverb_scene.s, 10.0, 5), cfg8k).data)


# ---------------------------------------------------------------------------
# wav i/o

@pytest.mark.parametrize("encoding,tol", [("float32", 1e-7), ("pcm16", 1e-4)])
def test_wav_roundtrip(tmp_path, encoding, tol):
    x = 0.5 * np.sin(2 * np.pi * 440 * np.arange(8000) / 8000)
    path = tmp_path / f"{encoding}.wav"
    write_wav(path, x, 8000, encoding)
    y, fs = read_wav(path)
    assert fs == 8000
    np.testing.assert_allclose(y, x, atol=tol)


def test_wav_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        write_wav(tmp_path / "x.wav", np.zeros((2, 100)), 8000)
    with pytest.raises(ValueError):
        write_wav(tmp_path / "x.wav", np.full(10, np.inf), 8000)
    with pytest.raises(ValueError):
        write_wav(tmp_path / "x.wav", np.zeros(10), 8000, encoding="mp3")
