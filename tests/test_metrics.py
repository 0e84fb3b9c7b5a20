import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

import dereverb
from dereverb import (RirSpec, StftConfig, _blas, analyze, degrade,
                     evaluate_pair, fcp, gcc_phat_delay, gen_rir, metrics,
                     render_scene, sdr_512, si_sdr, synth_speech, synthesize)
from dereverb.metrics import DB_CAP


@pytest.fixture(scope="module")
def ref():
    return np.random.default_rng(0).standard_normal(8192)


# ---------------------------------------------------------------------------
# SI-SDR

def test_si_sdr_perfect_up_to_scale(ref):
    assert si_sdr(2.5 * ref, ref) == DB_CAP
    assert si_sdr(-ref, ref) == DB_CAP


def test_si_sdr_constructed_ten_db(ref):
    # Gram-Schmidt noise orthogonal to the reference at exactly -10 dB
    rng = np.random.default_rng(1)
    noise = rng.standard_normal(ref.size)
    noise -= (np.dot(noise, ref) / np.dot(ref, ref)) * ref
    noise *= np.sqrt(np.dot(ref, ref) / (10.0 * np.dot(noise, noise)))
    assert abs(si_sdr(ref + noise, ref) - 10.0) < 1e-9


def test_si_sdr_errors_and_sentinels(ref):
    with pytest.raises(ValueError):
        si_sdr(ref, np.zeros_like(ref))
    assert si_sdr(np.zeros_like(ref), ref) == -DB_CAP
    with pytest.raises(ValueError):
        si_sdr(ref[:100], ref)


def test_si_sdr_scale_invariances(ref):
    rng = np.random.default_rng(2)
    est = ref + 0.3 * rng.standard_normal(ref.size)
    base = si_sdr(est, ref)
    for alpha in (0.017, -3.4, 250.0):
        assert abs(si_sdr(alpha * est, ref) - base) < 1e-10
    for beta in (0.5, -2.0):
        assert abs(si_sdr(est, beta * ref) - base) < 1e-10


# ---------------------------------------------------------------------------
# 512-tap SDR

def test_sdr_512_in_span_sentinel():
    # keep the filtered reference inside the window so it is exactly in-span
    rng = np.random.default_rng(3)
    ref = np.zeros(8192)
    ref[:8192 - 511] = rng.standard_normal(8192 - 511)
    fir = rng.standard_normal(512) * np.exp(-np.arange(512) / 100.0)
    est = np.convolve(ref, fir)[:8192]
    assert sdr_512(est, ref) == DB_CAP


def test_sdr_512_orthogonal_sentinel():
    # disjoint supports: est is orthogonal to every shift of ref
    rng = np.random.default_rng(4)
    ref = np.zeros(4096)
    ref[:1000] = rng.standard_normal(1000)
    est = np.zeros(4096)
    est[2000:] = rng.standard_normal(2096)
    assert sdr_512(est, ref) == -DB_CAP


def test_sdr_512_validation(ref):
    with pytest.raises(ValueError):
        sdr_512(ref[:100], ref[:100])  # shorter than the filter
    with pytest.raises(ValueError):
        sdr_512(ref, np.zeros_like(ref))


@pytest.mark.parametrize("seed", range(12))
def test_sdr_512_dominates_si_sdr(seed):
    rng = np.random.default_rng(seed)
    est = rng.standard_normal(2048)
    ref = rng.standard_normal(2048)
    assert sdr_512(est, ref) >= si_sdr(est, ref)


# ---------------------------------------------------------------------------
# GCC-PHAT

def test_gcc_phat_planted_shifts(ref):
    for shift in (7, 0, -13, 64, -64):
        assert gcc_phat_delay(np.roll(ref, shift), ref, 64) == shift


def test_gcc_phat_validation(ref):
    with pytest.raises(ValueError):
        gcc_phat_delay(ref, ref, 0)
    with pytest.raises(ValueError):
        gcc_phat_delay(np.zeros_like(ref), ref, 16)
    with pytest.raises(ValueError):
        gcc_phat_delay(ref[:10], ref[:10], 16)  # too short for the lag range


# ---------------------------------------------------------------------------
# report

def test_report_serializable(ref):
    rng = np.random.default_rng(5)
    est = ref + 0.1 * rng.standard_normal(ref.size)
    report = evaluate_pair(est, ref)
    d = report.to_dict()
    assert set(d) == {"si_sdr_db", "sdr_512_db", "gcc_phat_delay"}
    assert all(np.isfinite(v) for v in d.values())


# ---------------------------------------------------------------------------
# oracles: the metric bodies as they were before the shared spectra, and a
# brute-force projection

def _two_fftconvolve_sdr_512(est, ref, n_taps=512, load=1e-12):
    autoc = fftconvolve(ref, ref[::-1])
    r = autoc[ref.size - 1:ref.size - 1 + n_taps]
    cross = fftconvolve(est, ref[::-1])
    b = cross[ref.size - 1:ref.size - 1 + n_taps]
    col = r.copy()
    col[0] += load * r[0]
    coef = scipy.linalg.solve_toeplitz(col, b)
    proj_energy = float(coef @ (scipy.linalg.toeplitz(r) @ coef))
    est_energy = float(np.dot(est, est))
    resid_energy = max(est_energy - 2.0 * float(coef @ b) + proj_energy, 0.0)
    if resid_energy <= 1e-12 * est_energy:
        resid_energy = 0.0
    return metrics._to_db(proj_energy, resid_energy)


def _nested_where_gcc(est, ref, max_lag):
    n = est.size + ref.size
    cross = np.fft.rfft(est, n=n) * np.conj(np.fft.rfft(ref, n=n))
    mag = np.abs(cross)
    phat = np.where(mag > 1e-12, cross / np.where(mag > 0, mag, 1.0), 0.0)
    cc = np.fft.irfft(phat, n=n)
    cc = np.concatenate([cc[-max_lag:], cc[:max_lag + 1]])
    return int(np.argmax(cc)) - max_lag


def _brute_force_sdr_512(est, ref, n_taps=512, load=1e-12):
    """The zero-padded projection built sample by sample: est, padded with
    n_taps - 1 zeros, against the full convolution of ref with the taps."""
    n = ref.size
    r = np.correlate(ref, ref, "full")[n - 1:n - 1 + n_taps]
    b = np.correlate(est, ref, "full")[n - 1:n - 1 + n_taps]
    gram = scipy.linalg.toeplitz(r)
    gram[np.diag_indices(n_taps)] += load * r[0]
    proj = np.convolve(ref, scipy.linalg.solve(gram, b, assume_a="pos"))
    resid = np.concatenate([est, np.zeros(n_taps - 1)]) - proj
    return 10.0 * np.log10(np.dot(proj, proj) / np.dot(resid, resid))


# ---------------------------------------------------------------------------
# properties on random pairs, N in [512, 4096] with odd and prime lengths

@st.composite
def pairs(draw):
    n = draw(st.one_of(st.integers(512, 4096),
                       st.sampled_from([512, 521, 1021, 2039, 4093, 4095])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ref = rng.standard_normal(n)
    noise = rng.standard_normal(n)
    if draw(st.booleans()):  # a filtered, delayed reference plus noise
        fir = rng.standard_normal(draw(st.integers(1, 64)))
        est = np.convolve(ref, fir)[:n] + draw(st.floats(0.01, 10.0)) * noise
    else:  # independent of the reference
        est = noise
    return est, ref


@settings(max_examples=40, deadline=None)
@given(pairs())
def test_property_sdr_512_dominates_si_sdr(pair):
    assert sdr_512(*pair) >= si_sdr(*pair)


@settings(max_examples=40, deadline=None)
@given(pairs())
def test_property_sdr_512_matches_brute_force(pair):
    assert abs(sdr_512(*pair) - _brute_force_sdr_512(*pair)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(pairs(), st.integers(1, 256))
def test_property_evaluate_pair_equals_separate_calls(pair, max_lag):
    report = evaluate_pair(*pair, max_lag)
    assert report.si_sdr == si_sdr(*pair)
    assert report.sdr_512 == sdr_512(*pair)
    assert report.gcc_phat_delay == gcc_phat_delay(*pair, max_lag)


# ---------------------------------------------------------------------------
# regression against the previous metric bodies on simulated scenes

@pytest.fixture(scope="module")
def scored_pairs(reverb_scene, noisy_scene, two_speaker_scene):
    """(estimate, reference) pairs: the FCP output, the mixture and a 10 dB
    degraded estimate of each scene, at 8 kHz and at 16 kHz."""
    fs = 16000
    scene_16k = render_scene([synth_speech(fs, fs, seed=41)],
                             [gen_rir(RirSpec(fs, t60=0.6, direct_delay=48,
                                              seed=42))], normalize=True)
    out = []
    for seed, scene in enumerate([reverb_scene, noisy_scene, two_speaker_scene,
                                  scene_16k]):
        cfg = StftConfig.for_rate(scene.sample_rate)
        mix = analyze(scene.y, cfg)
        shat = fcp(mix.data, analyze(scene.s, cfg).data)[0]
        out += [(synthesize(mix.with_data(shat), scene.n_samples), scene.s),
                (scene.y, scene.s),
                (degrade(scene.s, 10.0, seed), scene.s)]
    return out


def test_sdr_512_agrees_with_two_fftconvolve_body(scored_pairs):
    for est, ref in scored_pairs:
        assert abs(sdr_512(est, ref) - _two_fftconvolve_sdr_512(est, ref)) < 1e-9


def test_gcc_phat_equals_nested_where_body(scored_pairs):
    for est, ref in scored_pairs:
        for max_lag in (1, 64, 512):
            assert gcc_phat_delay(est, ref, max_lag) == _nested_where_gcc(
                est, ref, max_lag)


def _first_error(est, ref, max_lag):
    """Message of the first ValueError of si_sdr, sdr_512, gcc_phat_delay
    called in turn."""
    for call in (lambda: si_sdr(est, ref), lambda: sdr_512(est, ref),
                 lambda: gcc_phat_delay(est, ref, max_lag)):
        try:
            call()
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("case", [
    "zero reference", "300 samples", "zero estimate", "max_lag 0",
    "max_lag > N/2", "zero estimate, max_lag 0", "300 samples, max_lag 0",
    "zero reference, max_lag 0"])
def test_evaluate_pair_raises_as_the_separate_calls(ref, case):
    est, sig, max_lag = ref + 1.0, ref.copy(), 512
    if "zero reference" in case:
        sig[:] = 0.0
    if "300 samples" in case:
        est, sig = est[:300], sig[:300]
    if "zero estimate" in case:
        est = np.zeros_like(sig)
    if "max_lag 0" in case:
        max_lag = 0
    if "max_lag > N/2" in case:
        max_lag = sig.size // 2 + 1
    message = _first_error(est, sig, max_lag)
    assert message is not None
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate_pair(est, sig, max_lag)


def test_evaluate_pair_runs_two_forward_and_three_inverse_ffts(ref, monkeypatch):
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        fft = getattr(np.fft, name)

        def counted(a, *args, _name=name, _fft=fft, **kwargs):
            counts[_name] += np.asarray(a)[..., 0].size  # one transform per row
            return _fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    evaluate_pair(ref + 0.1 * np.roll(ref, 3), ref)
    assert counts == {"rfft": 2, "irfft": 3}
    # pairs that share a Reference: the reference's 2 FFTs are taken once
    counts.update(rfft=0, irfft=0)
    shared = metrics.Reference(ref)
    for shift in (1, 2, 3):
        shared.score(ref + 0.1 * np.roll(ref, shift))
    assert counts == {"rfft": 1 + 3, "irfft": 1 + 2 * 3}


@settings(max_examples=20, deadline=None)
@given(st.lists(pairs(), min_size=1, max_size=3), st.integers(1, 256))
def test_property_shared_reference_scores_equal_evaluate_pair(pairs_, max_lag):
    ref = pairs_[0][1]
    shared = metrics.Reference(ref)
    for est, _ in pairs_:
        est = np.resize(est, ref.size)
        assert shared.score(est, max_lag) == evaluate_pair(est, ref, max_lag)


@pytest.mark.parametrize("case", [
    "zero reference", "300 samples", "zero estimate", "max_lag 0",
    "max_lag > N/2"])
def test_shared_reference_raises_as_evaluate_pair(ref, case):
    """A Reference that has already scored a pair raises what
    evaluate_pair raises, in the same order."""
    est, sig, max_lag = ref + 1.0, ref.copy(), 512
    if "zero reference" in case:
        sig[:] = 0.0
    if "300 samples" in case:
        est = est[:300]
    if "zero estimate" in case:
        est = np.zeros_like(sig)
    if "max_lag 0" in case:
        max_lag = 0
    if "max_lag > N/2" in case:
        max_lag = sig.size // 2 + 1
    shared = metrics.Reference(sig)
    if "zero reference" not in case:
        shared.score(ref + 0.5)
    with pytest.raises(ValueError) as expected:
        evaluate_pair(est, sig, max_lag)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        shared.score(est, max_lag)


def spd_providers():
    """The scipy-wrapper kernels, and numpy's OpenBLAS kernels when numpy
    bundles it."""
    kernels = _blas.numpy_kernels()
    return [_blas.ScipyKernels()] + (
        [kernels] if isinstance(kernels, _blas.Kernels) else [])


@pytest.mark.parametrize("n", [1, 47, 48, 49, 97, 512])
def test_spd_factor_and_solve_on_either_provider(ref, n):
    """Each provider's blocked factor is U^T U = A in its upper triangle,
    leaves the strict lower triangle as it was, and solves A x = b; a
    matrix that is not positive definite reports False."""
    r = np.correlate(ref[:2048], ref[:2048], "full")[2047:2047 + n]
    a = metrics._toeplitz(r)
    a[np.diag_indices(n)] *= 1.0 + 1e-6
    b = np.random.default_rng(n).standard_normal(n)
    upper = np.linalg.cholesky(a).T
    for kernels in spd_providers():
        factor = a.copy()
        assert kernels.spd_cholesky(factor)
        np.testing.assert_allclose(np.triu(factor), upper, rtol=0,
                                   atol=1e-12 * np.abs(upper).max())
        assert np.array_equal(np.tril(factor, -1), np.tril(a, -1))
        x = b.copy()
        kernels.spd_solve(factor, x)
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-8)
        indefinite = a.copy()
        indefinite[-1, -1] = -1.0
        assert not kernels.spd_cholesky(indefinite)


def test_sdr_512_on_either_provider_agrees(ref, monkeypatch):
    est = np.roll(ref, 3) + 0.3 * ref
    values = []
    for kernels in spd_providers():
        monkeypatch.setattr(_blas, "numpy_kernels", lambda: kernels)
        values.append(sdr_512(est, ref))
    assert max(values) - min(values) <= 1e-9


def test_sdr_512_bits_do_not_depend_on_blas_threads(ref):
    """The library (the caller's OpenBLAS threads) and the CLI (one thread)
    score a pair to the same bits: the factor and its solves do the same
    arithmetic on 1 and 2 threads. A whole-matrix dpotrf would not."""
    blas = _blas.numpy_openblas()
    if blas is None:
        pytest.skip("numpy does not bundle OpenBLAS")
    get_threads, set_threads = blas
    rng = np.random.default_rng(7)
    est = (np.convolve(ref, [1.0, 0.4, -0.2])[:ref.size]
           + 0.1 * rng.standard_normal(ref.size))
    n, spec_ref, cross = metrics._spectra(est, ref)
    r = metrics._autocorrelation(n, spec_ref, metrics.SDR_TAPS)
    b = np.fft.irfft(cross, n=n)[:metrics.SDR_TAPS]
    previous = get_threads()
    runs = []
    try:
        for threads in (1, 2, 1, 2):
            set_threads(threads)
            normal = metrics._NormalEquations(r, metrics._SDR_LOAD)
            scores = sdr_512(est, ref), metrics.Reference(ref).score(est).sdr_512
            runs.append((normal._factor.tobytes(), normal.solve(b).tobytes(),
                         *(np.float64(v).tobytes() for v in scores)))
    finally:
        set_threads(previous)
    assert get_threads() == previous
    assert all(run == runs[0] for run in runs)
    assert runs[0][2] == runs[0][3]


# ---------------------------------------------------------------------------
# fallbacks leave a record

class FailingFactor:
    """A kernel provider whose ``spd_cholesky`` always reports a matrix
    that is not positive definite, recording each call."""

    def __init__(self, kernels):
        self.kernels = kernels
        self.calls = 0

    def spd_cholesky(self, a):
        self.calls += 1
        return False

    def __getattr__(self, name):
        return getattr(self.kernels, name)


def test_sdr_512_lstsq_fallback_logs_one_warning(ref, monkeypatch, caplog):
    est = ref + 0.5 * np.roll(ref, 5)
    expected = sdr_512(est, ref)
    failing = FailingFactor(_blas.numpy_kernels())
    monkeypatch.setattr(_blas, "numpy_kernels", lambda: failing)
    with caplog.at_level(logging.WARNING, logger="dereverb"):
        value = sdr_512(est, ref)
    assert failing.calls == 1
    records = [r for r in caplog.records if r.name == "dereverb.metrics"]
    assert [r.levelno for r in records] == [logging.WARNING]
    assert "lstsq" in records[0].getMessage()
    assert value == pytest.approx(expected, abs=1e-6)


def test_fallback_warnings_print_nothing_without_logging_configured():
    """The package logger's NullHandler keeps logging's last-resort handler
    from printing the fallback warnings to stderr."""
    script = """
import numpy as np
from dereverb import _blas, metrics, solve_wls

kernels = _blas.numpy_kernels()
failed = []

class FailingFactor:
    def spd_cholesky(self, a):
        failed.append(a.shape)
        return False

    def __getattr__(self, name):
        return getattr(kernels, name)

_blas.numpy_kernels = FailingFactor
ref = np.random.default_rng(0).standard_normal(1024)
metrics.sdr_512(ref + 0.1, ref)
assert failed == [(512, 512)], failed
z = np.ones((8, 2), complex)
z[:, 1] = 0.0
z[-1, 1] = 1.0
solve_wls(z, z, 2, 0, np.ones((8, 2)), diag_load=0.0)
print("ran")
"""
    src = Path(dereverb.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ran\n"
    assert done.stderr == ""
