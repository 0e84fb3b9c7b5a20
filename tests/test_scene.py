import math

import numpy as np
import pytest

from dereverb import (Rir, RirSpec, degrade, gen_rir, make_estimate, read_wav,
                      render_scene, rir_spec_for_distance, si_sdr, split_rir,
                      strip_late, synth_speech, write_wav)


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


def test_rir_spec_for_distance():
    spec = rir_spec_for_distance(1.0, 16000, t60=0.3)
    assert spec.direct_delay == round(16000 / 343.0)
    assert spec.direct_gain == 1.0


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


# ---------------------------------------------------------------------------
# target estimates

def test_oracle_estimate_is_exact_stft(reverb_scene, cfg8k):
    from dereverb import analyze
    est = make_estimate(reverb_scene, 0, "oracle", cfg=cfg8k)
    np.testing.assert_array_equal(est.data, analyze(reverb_scene.s, cfg8k).data)
    assert est.provenance == {"mode": "oracle"}


def test_degraded_at_infinity_equals_oracle(reverb_scene, cfg8k):
    oracle = make_estimate(reverb_scene, 0, "oracle", cfg=cfg8k)
    inf = make_estimate(reverb_scene, 0, "degraded", cfg=cfg8k,
                        error_snr_db=math.inf, seed=1)
    np.testing.assert_allclose(inf.data, oracle.data, atol=1e-12)


def test_degraded_estimate_hits_requested_snr(reverb_scene):
    # SI-SDR of (s + e) against s approaches the construction SNR
    s = reverb_scene.s
    noisy = degrade(s, 10.0, seed=2)
    assert abs(si_sdr(noisy, s) - 10.0) < 0.1


def test_external_estimate_roundtrip(reverb_scene, cfg8k, tmp_path):
    path = tmp_path / "est.wav"
    write_wav(path, reverb_scene.s, 8000, "float32")
    est = make_estimate(reverb_scene, 0, "external", cfg=cfg8k, path=path)
    assert est.provenance["mode"] == "external"
    assert est.spec.frames == make_estimate(reverb_scene, 0, "oracle",
                                            cfg=cfg8k).spec.frames
    with pytest.raises(OSError):
        make_estimate(reverb_scene, 0, "external", cfg=cfg8k,
                      path=tmp_path / "nope.wav")
    short = tmp_path / "short.wav"
    write_wav(short, reverb_scene.s[:100], 8000)
    with pytest.raises(ValueError):
        make_estimate(reverb_scene, 0, "external", cfg=cfg8k, path=short)


def test_make_estimate_validation(reverb_scene, cfg8k):
    with pytest.raises(ValueError):
        make_estimate(reverb_scene, 5, "oracle", cfg=cfg8k)
    with pytest.raises(ValueError):
        make_estimate(reverb_scene, 0, "degraded", cfg=cfg8k)  # missing snr
    with pytest.raises(ValueError):
        make_estimate(reverb_scene, 0, "oracle")  # missing cfg


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
