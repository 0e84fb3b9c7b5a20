import numpy as np
import pytest

from dereverb import (FilterBank, PredConfig, analyze, apply_filter,
                      build_stack, fcp, fcp_per_source, icp, iterate,
                      lambda_weights, make_estimate, si_sdr, solve_wls,
                      synthesize, wpe_multi, wpe_supplied, wpe_vanilla)
from dereverb.convpred import _BIN_BLOCK, _floored_power


def wls_oracle(z, d, taps, delay, lam):
    """Independent brute-force solver: explicit per-(t, k) stacking and a
    weighted pseudo-inverse, one bin at a time."""
    n_frames, n_bins = z.shape
    g = np.zeros((n_bins, taps), dtype=complex)
    for f in range(n_bins):
        a = np.zeros((n_frames, taps), dtype=complex)
        for t in range(n_frames):
            for k in range(taps):
                idx = t - delay - k
                if idx >= 0:
                    a[t, k] = z[idx, f]
        sw = np.sqrt(1.0 / lam[:, f])
        coef = np.linalg.pinv(sw[:, None] * a) @ (sw * d[:, f])
        g[f] = np.conj(coef)
    return g


def random_instance(rng, taps_max=8, frames_max=64, bins_max=8):
    taps = int(rng.integers(1, taps_max + 1))
    frames = int(rng.integers(taps + 2, frames_max + 1))
    bins = int(rng.integers(1, bins_max + 1))
    delay = int(rng.integers(0, 4))
    z = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))
    d = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))
    lam = rng.uniform(0.1, 10.0, (frames, bins))
    return z, d, taps, delay, lam


def planted_fcp_instance(seed, frames=512, bins=8, taps=8, length=5):
    """Y = c (*) est per bin, no noise; returns (est, Y, padded c)."""
    rng = np.random.default_rng(seed)
    est = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))
    c = (rng.standard_normal((bins, length)) + 1j * rng.standard_normal((bins, length)))
    c *= 0.7 ** np.arange(length)
    c[:, 0] += 1.0
    mixture = np.zeros((frames, bins), dtype=complex)
    for k in range(length):
        mixture[k:] += c[:, k] * est[:frames - k]
    padded = np.concatenate([c, np.zeros((bins, taps - length))], axis=1)
    return est, mixture, padded


# ---------------------------------------------------------------------------
# lambda weights

def test_lambda_floor_direct_substitution():
    # powers {100, 1, 0.01} with eps = 0.001 floor at 0.1
    spec = np.array([[10.0, 1.0, 0.1]], dtype=complex)
    np.testing.assert_allclose(lambda_weights(spec, "est_power", 0.001),
                               [[100.0, 1.0, 0.1]])


def test_lambda_eps_one_is_constant_peak():
    rng = np.random.default_rng(0)
    spec = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
    w = lambda_weights(spec, "mix_power", 1.0)
    assert np.all(w == np.abs(spec).max() ** 2)


def test_lambda_unit_mode():
    spec = np.ones((5, 3), dtype=complex)
    assert np.all(lambda_weights(spec, "unit", 0.5) == 1.0)


def test_lambda_zero_spec_rejected():
    with pytest.raises(ValueError):
        lambda_weights(np.zeros((4, 4), dtype=complex), "mix_power", 0.001)
    assert np.all(lambda_weights(np.zeros((4, 4), dtype=complex), "unit", 1.0) == 1)


def test_pred_config_validation():
    with pytest.raises(ValueError):
        PredConfig(taps=0)
    with pytest.raises(ValueError):
        PredConfig(delay=-1)
    with pytest.raises(ValueError):
        PredConfig(eps=0.0)
    with pytest.raises(ValueError):
        PredConfig(lambda_mode="geometric")
    assert PredConfig.for_wpe().taps == 37 and PredConfig.for_wpe().delay == 3
    assert PredConfig.for_icp().eps == 1.0
    assert PredConfig.for_fcp().taps == 40 and PredConfig.for_fcp().delay == 0


# ---------------------------------------------------------------------------
# solver

def test_identity_filter():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((64, 5)) + 1j * rng.standard_normal((64, 5))
    bank = solve_wls(z, z, 4, 0, np.ones((64, 5)))
    expected = np.zeros((5, 4))
    expected[:, 0] = 1.0
    # deviation from e1 is induced by the diagonal loading (~diag_load)
    assert np.abs(bank.filters - expected).max() < 5e-6


def test_zero_target_zero_filter():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3))
    bank = solve_wls(z, np.zeros_like(z), 4, 1, np.ones((32, 3)))
    assert np.all(bank.filters == 0)


def block_instance(rng, delay):
    """More bins than two GEMM blocks of solve_wls, so the last block is
    partial; one bin of that last block is all zero."""
    taps, frames, bins = 6, 48, 2 * _BIN_BLOCK + 3
    z = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))
    d = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))
    lam = rng.uniform(0.1, 10.0, (frames, bins))
    z[:, bins - 2] = 0.0
    return z, d, taps, delay, lam


BLOCK_CASES = {"blocks-delay0": 0, "blocks-delay3": 3}


@pytest.mark.parametrize("case", [*range(8), *BLOCK_CASES])
def test_solver_matches_bruteforce_oracle(case):
    if case in BLOCK_CASES:
        z, d, taps, delay, lam = block_instance(np.random.default_rng(100),
                                                BLOCK_CASES[case])
    else:
        z, d, taps, delay, lam = random_instance(np.random.default_rng(case))
    bank = solve_wls(z, d, taps, delay, lam, diag_load=0.0)
    expected = wls_oracle(z, d, taps, delay, lam)
    err = np.linalg.norm(bank.filters - expected) / np.linalg.norm(expected)
    assert err < 1e-8
    assert np.all(bank.filters[np.all(z == 0, axis=0)] == 0)


def test_singular_bin_falls_back_alone(monkeypatch):
    """An exactly singular Gram matrix (no loading, only the last frame
    nonzero, so the delayed tap never sees it) sends that bin alone to
    lstsq; the healthy bins keep the batched solve."""
    rng = np.random.default_rng(4)
    frames, taps = 32, 2
    z = rng.standard_normal((frames, 3)) + 1j * rng.standard_normal((frames, 3))
    z[:, 1] = 0.0
    z[-1, 1] = 2.0 - 1.0j
    d = rng.standard_normal((frames, 3)) + 1j * rng.standard_normal((frames, 3))
    lam = rng.uniform(0.5, 2.0, (frames, 3))
    lstsq_calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        lstsq_calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    bank = solve_wls(z, d, taps, 0, lam, diag_load=0.0)
    assert lstsq_calls == [(taps, taps)]

    healthy = [0, 2]
    alone = solve_wls(z[:, healthy], d[:, healthy], taps, 0, lam[:, healthy],
                      diag_load=0.0)
    err = (np.linalg.norm(bank.filters[healthy] - alone.filters)
           / np.linalg.norm(alone.filters))
    assert err < 1e-12
    # minimum-norm solution: tap 0 fits the last frame exactly, tap 1 is free
    expected = [np.conj(d[-1, 1] / z[-1, 1]), 0.0]
    np.testing.assert_allclose(bank.filters[1], expected, rtol=1e-12, atol=1e-15)


def test_solver_input_validation():
    z = np.ones((10, 2), dtype=complex)
    with pytest.raises(ValueError):
        solve_wls(z, np.ones((11, 2), dtype=complex), 2, 0, np.ones((10, 2)))
    with pytest.raises(ValueError):
        solve_wls(z, z, 2, 0, np.zeros((10, 2)))  # non-positive weights
    bad = z.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        solve_wls(bad, z, 2, 0, np.ones((10, 2)))


def test_first_order_optimality():
    """Perturbing any coordinate of any bin's filter must not decrease the
    loading-regularized objective."""
    rng = np.random.default_rng(3)
    frames, bins, taps = 48, 3, 4
    z = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))
    d = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))
    lam = rng.uniform(0.2, 5.0, (frames, bins))
    diag_load = 1e-6
    bank = solve_wls(z, d, taps, 0, lam, diag_load)

    stack = build_stack(z, taps, 0)
    inv_w = (1.0 / lam).T[:, :, None]
    load = diag_load * np.einsum("ftk,ftk->f", stack.conj() * inv_w, stack).real / taps

    def objective(filters):
        pred = apply_filter(FilterBank(filters, 0), z)
        quad = np.sum(np.abs(d - pred) ** 2 / lam)
        return quad + np.sum(load * np.sum(np.abs(filters) ** 2, axis=1))

    base = objective(bank.filters)
    for f in range(bins):
        for k in range(taps):
            for step in (1e-4, -1e-4, 1e-4j, -1e-4j):
                perturbed = bank.filters.copy()
                perturbed[f, k] += step
                assert objective(perturbed) >= base - 1e-9 * base


def test_stack_layout():
    z = np.arange(1, 7, dtype=complex).reshape(6, 1)  # one bin: 1..6
    stack = build_stack(z, 3, 1)  # (F=1, T=6, K=3)
    # frame t stacks [z(t-1), z(t-2), z(t-3)]
    np.testing.assert_array_equal(stack[0, 0], [0, 0, 0])
    np.testing.assert_array_equal(stack[0, 1], [1, 0, 0])
    np.testing.assert_array_equal(stack[0, 3], [3, 2, 1])
    np.testing.assert_array_equal(stack[0, 5], [5, 4, 3])


# ---------------------------------------------------------------------------
# vanilla WPE

def test_wpe_rejects_zero_delay():
    rng = np.random.default_rng(4)
    y = rng.standard_normal((32, 4)) + 1j * rng.standard_normal((32, 4))
    with pytest.raises(ValueError):
        wpe_vanilla(y, PredConfig(taps=4, delay=0))
    with pytest.raises(ValueError):
        wpe_supplied(y, np.ones((32, 4)), taps=4, delay=0)
    with pytest.raises(ValueError):
        wpe_multi(y, [y], taps=4, delay=0)


def test_trivial_solution_at_zero_delay():
    """The guard exists because the unweighted delay-0 problem is solved
    exactly by the identity filter with zero residual."""
    rng = np.random.default_rng(5)
    y = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    bank = solve_wls(y, y, 5, 0, np.ones((64, 3)), diag_load=0.0)
    expected = np.zeros((3, 5))
    expected[:, 0] = 1.0
    np.testing.assert_allclose(bank.filters, expected, atol=1e-10)
    resid = y - apply_filter(bank, y)
    assert np.abs(resid).max() < 1e-10


def test_wpe_objective_pairs_nonincreasing(reverb_scene, cfg8k):
    y = analyze(reverb_scene.y, cfg8k).data
    _, _, trace = wpe_vanilla(y, PredConfig.for_wpe())
    assert trace.shape == (3, 2)
    assert np.all(trace[:, 1] <= trace[:, 0] * (1 + 1e-10))


def test_wpe_keeps_anechoic_input_roughly_intact(cfg8k):
    """On a clean scene WPE only removes what past frames linearly predict
    (window overlap plus source self-correlation), so the output must stay
    close to the input rather than collapse."""
    from dereverb import RirSpec, gen_rir, render_scene, synth_speech
    fs = 8000
    dry = synth_speech(2 * fs, fs, seed=41)
    rir = gen_rir(RirSpec(fs, t60=1e-9, direct_delay=24, n_early_taps=0,
                          rir_len=25, seed=0))
    scene = render_scene([dry], [rir], normalize=True)
    y = analyze(scene.y, cfg8k)
    shat, _, _ = wpe_vanilla(y.data, PredConfig.for_wpe())
    out = synthesize(y.with_data(shat), scene.n_samples)
    assert si_sdr(out, scene.s) > 10.0
    assert np.linalg.norm(out - scene.y) / np.linalg.norm(scene.y) < 0.3


def test_wpe_planted_subband_ar_recovery():
    """Stable planted AR per bin: with eps = 1 (no re-weighting) the WPE
    filter must match the plain least-squares oracle fit; with the default
    floor it stays within a small multiple of that noise floor."""
    rng = np.random.default_rng(6)
    frames, bins, taps, delay = 600, 4, 3, 2
    mags = np.array([0.5, 0.2, 0.1])
    c = mags * np.exp(2j * np.pi * rng.random((bins, taps)))
    e = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))
    y = np.zeros((frames, bins), dtype=complex)
    for t in range(frames):
        acc = e[t].copy()
        for k in range(taps):
            if t - delay - k >= 0:
                acc += c[:, k] * y[t - delay - k]
        y[t] = acc

    oracle = wls_oracle(y, y, taps, delay, np.ones((frames, bins)))
    err_oracle = np.linalg.norm(np.conj(oracle) - c) / np.linalg.norm(c)
    assert err_oracle < 0.2  # the data itself pins the filter this well

    _, bank_flat, _ = wpe_vanilla(y, PredConfig(taps=taps, delay=delay, eps=1.0))
    err_flat = np.linalg.norm(bank_flat.response - c) / np.linalg.norm(c)
    assert err_flat <= err_oracle * 1.01

    _, bank, _ = wpe_vanilla(y, PredConfig(taps=taps, delay=delay, eps=0.001))
    err = np.linalg.norm(bank.response - c) / np.linalg.norm(c)
    assert err <= err_oracle * 8


def test_wpe_improves_reverberant_scene(reverb_scene, cfg8k):
    y = analyze(reverb_scene.y, cfg8k)
    shat, _, _ = wpe_vanilla(y.data, PredConfig.for_wpe())
    out = synthesize(y.with_data(shat), reverb_scene.n_samples)
    assert si_sdr(out, reverb_scene.s) > si_sdr(reverb_scene.y, reverb_scene.s)


# ---------------------------------------------------------------------------
# supplied-weights WPE

def test_supplied_unit_weights_is_plain_least_squares():
    rng = np.random.default_rng(7)
    y = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))
    shat, bank = wpe_supplied(y, np.ones((64, 4)), taps=5, delay=2)
    ref = solve_wls(y, y, 5, 2, np.ones((64, 4)))
    np.testing.assert_array_equal(bank.filters, ref.filters)
    np.testing.assert_array_equal(shat, y - apply_filter(ref, y))


def test_supplied_equals_vanilla_single_iteration(reverb_scene, cfg8k):
    y = analyze(reverb_scene.y, cfg8k).data
    cfg = PredConfig.for_wpe(iters=1)
    s_vanilla, b_vanilla, _ = wpe_vanilla(y, cfg)
    init = _floored_power(np.abs(y) ** 2, cfg.eps)
    s_supplied, b_supplied = wpe_supplied(y, init, cfg.taps, cfg.delay)
    np.testing.assert_array_equal(s_vanilla, s_supplied)
    np.testing.assert_array_equal(b_vanilla.filters, b_supplied.filters)


def test_supplied_oracle_weights_improve(reverb_scene, cfg8k):
    y = analyze(reverb_scene.y, cfg8k)
    est = make_estimate(reverb_scene, 0, "oracle", cfg=cfg8k)
    lam = lambda_weights(est.data, "est_power", 0.001)
    shat, _ = wpe_supplied(y.data, lam)
    out = synthesize(y.with_data(shat), reverb_scene.n_samples)
    assert si_sdr(out, reverb_scene.s) > si_sdr(reverb_scene.y, reverb_scene.s)


# ---------------------------------------------------------------------------
# ICP

def test_icp_identity_when_estimate_is_mixture():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((96, 4)) + 1j * rng.standard_normal((96, 4))
    shat, bank = icp(y, y, taps=5)
    assert np.linalg.norm(shat - y) / np.linalg.norm(y) < 1e-5


def test_icp_reaches_target_on_anechoic_scene(cfg8k):
    from dereverb import RirSpec, gen_rir, render_scene, synth_speech
    fs = 8000
    dry = synth_speech(2 * fs, fs, seed=51)
    rir = gen_rir(RirSpec(fs, t60=1e-9, direct_delay=24, n_early_taps=0,
                          rir_len=25, seed=0))
    scene = render_scene([dry], [rir], normalize=True)
    y = analyze(scene.y, cfg8k).data
    est = make_estimate(scene, 0, "oracle", cfg=cfg8k)
    shat, _ = icp(y, est.data)
    assert np.linalg.norm(shat - est.data) / np.linalg.norm(est.data) < 1e-4


def test_icp_planted_inverse_filter():
    """est constructed by filtering the mixture: ICP must recover that
    filter and reproduce the estimate."""
    rng = np.random.default_rng(9)
    frames, bins, taps, length = 512, 6, 8, 5
    y = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))
    d = (rng.standard_normal((bins, length)) + 1j * rng.standard_normal((bins, length)))
    d *= 0.7 ** np.arange(length)
    est = np.zeros((frames, bins), dtype=complex)
    for k in range(length):
        est[k:] += d[:, k] * y[:frames - k]
    shat, bank = icp(y, est, taps=taps, diag_load=1e-8)
    padded = np.concatenate([d, np.zeros((bins, taps - length))], axis=1)
    assert np.linalg.norm(bank.response - padded) / np.linalg.norm(padded) < 1e-5
    assert np.linalg.norm(shat - est) / np.linalg.norm(est) < 1e-5


def test_icp_improves_reverberant_scene(reverb_scene, cfg8k):
    y = analyze(reverb_scene.y, cfg8k)
    est = make_estimate(reverb_scene, 0, "oracle", cfg=cfg8k)
    shat, _ = icp(y.data, est.data)
    out = synthesize(y.with_data(shat), reverb_scene.n_samples)
    assert si_sdr(out, reverb_scene.s) > si_sdr(reverb_scene.y, reverb_scene.s)


# ---------------------------------------------------------------------------
# FCP

def test_fcp_identity_when_estimate_equals_mixture():
    rng = np.random.default_rng(10)
    y = rng.standard_normal((96, 4)) + 1j * rng.standard_normal((96, 4))
    shat, bank, xhat = fcp(y, y, taps=5)
    expected = np.zeros((4, 5))
    expected[:, 0] = 1.0
    assert np.abs(bank.filters - expected).max() < 1e-4
    assert np.linalg.norm(xhat - y) / np.linalg.norm(y) < 1e-5
    assert np.linalg.norm(shat - y) / np.linalg.norm(y) < 1e-5


def test_fcp_planted_filter_recovery():
    est, y, c = planted_fcp_instance(seed=11)
    shat, bank, _ = fcp(y, est, taps=8, diag_load=1e-8)
    assert np.linalg.norm(bank.response - c) / np.linalg.norm(c) < 1e-5
    assert np.linalg.norm(shat - est) / np.linalg.norm(est) < 1e-5


def test_fcp_output_forms_agree(reverb_scene, cfg8k):
    y = analyze(reverb_scene.y, cfg8k).data
    est = make_estimate(reverb_scene, 0, "oracle", cfg=cfg8k).data
    shat, bank, xhat = fcp(y, est)
    live = np.sum(np.abs(est) ** 2, axis=0) >= 1e-12 * np.sum(np.abs(est) ** 2, axis=0).max()
    subtractive = (y - (xhat - est))[:, live]
    residual_form = (est + (y - xhat))[:, live]
    np.testing.assert_allclose(subtractive, residual_form, rtol=1e-12,
                               atol=1e-12 * np.abs(y).max())


def test_fcp_gain_on_simulated_scene(reverb_scene, cfg8k):
    y = analyze(reverb_scene.y, cfg8k)
    est = make_estimate(reverb_scene, 0, "oracle", cfg=cfg8k)
    shat, _, _ = fcp(y.data, est.data)
    out = synthesize(y.with_data(shat), reverb_scene.n_samples)
    assert si_sdr(out, reverb_scene.s) >= si_sdr(reverb_scene.y, reverb_scene.s) + 5.0


def test_fcp_degenerate_bin_passes_mixture_through():
    rng = np.random.default_rng(12)
    y = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))
    est = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))
    est[:, 2] = 0.0
    shat, bank, _ = fcp(y, est)
    np.testing.assert_array_equal(shat[:, 2], y[:, 2])
    assert np.all(bank.filters[2] == 0)
    shat_i, bank_i = icp(y, est)
    np.testing.assert_array_equal(shat_i[:, 2], y[:, 2])
    assert np.all(bank_i.filters[2] == 0)


def test_fcp_scale_equivariance():
    est, y, _ = planted_fcp_instance(seed=13, frames=256)
    alpha = 1.3 - 2.1j
    s1, b1, _ = fcp(y, est)
    s2, b2, _ = fcp(alpha * y, alpha * est)
    assert np.abs(b2.filters - b1.filters).max() < 1e-9 * np.abs(b1.filters).max()
    assert np.abs(s2 - alpha * s1).max() < 1e-9 * np.abs(alpha * s1).max()


# ---------------------------------------------------------------------------
# per-source FCP and multi-source WPE

def test_fcp_per_source_single_source_identical(reverb_scene, cfg8k):
    y = analyze(reverb_scene.y, cfg8k).data
    est = make_estimate(reverb_scene, 0, "oracle", cfg=cfg8k).data
    outs = fcp_per_source(y, [est])
    direct, _, _ = fcp(y, est)
    np.testing.assert_array_equal(outs[0], direct)


def test_fcp_per_source_improves_both_sources(two_speaker_scene, cfg8k):
    sc = two_speaker_scene
    y = analyze(sc.y, cfg8k)
    ests = [make_estimate(sc, c, "oracle", cfg=cfg8k).data for c in range(2)]
    outs = fcp_per_source(y.data, ests)
    for c, out_tf in enumerate(outs):
        out = synthesize(y.with_data(out_tf), sc.n_samples)
        assert si_sdr(out, sc.direct[c]) > si_sdr(sc.y, sc.direct[c])


def test_per_source_fcp_filter_closer_than_mfwpe_filter():
    """With a competing speaker added, the per-source FCP filter moves less
    from its solo-scene value than the mixture-stacked WPE filter does."""
    from dereverb import RirSpec, gen_rir, render_scene, synth_speech
    fs, taps = 8000, 12
    cfg = __import__("dereverb").StftConfig.for_rate(fs)
    n = 6 * fs
    dry1 = synth_speech(n, fs, seed=102)
    dry2 = synth_speech(n, fs, seed=202)
    rir1 = gen_rir(RirSpec(fs, t60=0.4, direct_delay=24, seed=302))
    rir2 = gen_rir(RirSpec(fs, t60=0.3, direct_delay=40, seed=402))
    solo = render_scene([dry1], [rir1], normalize=False)
    duo = render_scene([dry1, dry2], [rir1, rir2], normalize=False)
    y_solo = analyze(solo.y, cfg).data
    y_duo = analyze(duo.y, cfg).data
    est1 = analyze(solo.s, cfg).data
    lam = lambda_weights(est1, "est_power", 0.001)

    f_solo = fcp(y_solo, est1, taps=taps, weights=lam)[1].filters
    f_duo = fcp(y_duo, est1, taps=taps, weights=lam)[1].filters
    dev_fcp = np.linalg.norm(f_duo - f_solo) / np.linalg.norm(f_solo)

    w_solo = wpe_multi(y_solo, [est1], taps=taps, delay=3, variant="mf")[1][0].filters
    w_duo = wpe_multi(y_duo, [est1], taps=taps, delay=3, variant="mf")[1][0].filters
    dev_wpe = np.linalg.norm(w_duo - w_solo) / np.linalg.norm(w_solo)
    assert dev_fcp < dev_wpe


def test_wpe_multi_single_source_matches_supplied(reverb_scene, cfg8k):
    y = analyze(reverb_scene.y, cfg8k).data
    est = make_estimate(reverb_scene, 0, "oracle", cfg=cfg8k).data
    lam = lambda_weights(est, "est_power", 0.001)
    ref, _ = wpe_supplied(y, lam, taps=12, delay=3)
    sf_out, _ = wpe_multi(y, [est], taps=12, delay=3, variant="sf")
    mf_outs, _ = wpe_multi(y, [est], taps=12, delay=3, variant="mf")
    np.testing.assert_array_equal(sf_out, ref)
    np.testing.assert_array_equal(mf_outs[0], ref)


def test_wpe_multi_shapes_and_finiteness(two_speaker_scene, cfg8k):
    sc = two_speaker_scene
    y = analyze(sc.y, cfg8k).data
    ests = [make_estimate(sc, c, "oracle", cfg=cfg8k).data for c in range(2)]
    sf_out, sf_bank = wpe_multi(y, ests, taps=12, delay=3, variant="sf")
    assert sf_out.shape == y.shape and np.all(np.isfinite(sf_out))
    assert isinstance(sf_bank, FilterBank)
    mf_outs, mf_banks = wpe_multi(y, ests, taps=12, delay=3, variant="mf")
    assert len(mf_outs) == 2 and len(mf_banks) == 2
    for out in mf_outs:
        assert out.shape == y.shape and np.all(np.isfinite(out))


def test_single_filter_wpe_improves_target_less_than_per_source_fcp(
        two_speaker_scene, cfg8k):
    """Strong interferer: the shared WPE filter helps the target less than
    its dedicated FCP filter does."""
    sc = two_speaker_scene
    y = analyze(sc.y, cfg8k)
    ests = [make_estimate(sc, c, "oracle", cfg=cfg8k).data for c in range(2)]
    base = si_sdr(sc.y, sc.direct[0])
    sf_out, _ = wpe_multi(y.data, ests, taps=37, delay=3, variant="sf")
    wpe_gain = si_sdr(synthesize(y.with_data(sf_out), sc.n_samples),
                      sc.direct[0]) - base
    fcp_out = fcp_per_source(y.data, ests)[0]
    fcp_gain = si_sdr(synthesize(y.with_data(fcp_out), sc.n_samples),
                      sc.direct[0]) - base
    assert fcp_gain > wpe_gain


# ---------------------------------------------------------------------------
# iteration

def test_iterate_single_pass_equals_direct_call(reverb_scene, cfg8k):
    y = analyze(reverb_scene.y, cfg8k).data
    est = make_estimate(reverb_scene, 0, "degraded", cfg=cfg8k,
                        error_snr_db=10.0, seed=3).data
    np.testing.assert_array_equal(iterate(y, est, fcp, 1), fcp(y, est)[0])


def test_iterate_fixed_point():
    rng = np.random.default_rng(14)
    y = rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3))
    est = rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3))
    out = iterate(y, est, lambda mix, e: e, passes=4)
    np.testing.assert_allclose(out, est, rtol=1e-10)


def test_iterate_planted_residual_stays_at_solver_floor():
    """On an exactly explainable mixture, re-filtering keeps the unexplained
    residual at the solver floor instead of accumulating error."""
    est, y, _ = planted_fcp_instance(seed=15)
    residuals = []
    current = est
    for _ in range(2):
        shat, _, xhat = fcp(y, current, taps=8)
        residuals.append(np.linalg.norm(y - xhat) / np.linalg.norm(y))
        current = shat
    assert residuals[0] < 1e-4
    assert residuals[1] <= max(residuals[0] * 1.05, 1e-4)


def test_iterate_validates_passes():
    y = np.ones((8, 2), dtype=complex)
    with pytest.raises(ValueError):
        iterate(y, y, fcp, 0)
