"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion. Run with `pytest tests/test_acceptance.py -s`
to see the lines as they complete.
"""

import math
import time

import numpy as np

from dereverb import (PredConfig, RirSpec, StftConfig, analyze, degrade, fcp,
                      gcc_phat_delay, gen_rir, icp, lambda_weights,
                      render_scene, sdr_512, si_sdr, solve_wls, strip_late,
                      synth_speech, synthesize, wpe_supplied, wpe_vanilla)


def _report(number, name, ok, detail):
    print(f"[acceptance] criterion {number} ({name}): "
          f"{'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _scene(fs, duration_s, t60, seed, early_only=False, noise_snr_db=None):
    dry = synth_speech(int(duration_s * fs), fs, seed=seed)
    rir = gen_rir(RirSpec(fs, t60=t60, direct_delay=int(0.003 * fs),
                          seed=seed + 10000))
    if early_only:
        rir = strip_late(rir)
    noise = None
    if noise_snr_db is not None:
        noise = np.random.default_rng(seed + 20000).standard_normal(
            int(duration_s * fs))
    return render_scene([dry], [rir], noise=noise, snr_db=noise_snr_db,
                        normalize=True)


def _planted_subband(rng, frames, bins=8, taps=8, length=5, interferer_db=None):
    est = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))
    coef = (rng.standard_normal((bins, length))
            + 1j * rng.standard_normal((bins, length))) * 0.6 ** np.arange(length)
    mixture = np.zeros((frames, bins), dtype=complex)
    for k in range(length):
        mixture[k:] += coef[:, k] * est[:frames - k]
    noise = None
    if interferer_db is not None:
        noise = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))
        noise *= math.sqrt(np.sum(np.abs(mixture) ** 2)
                           / (np.sum(np.abs(noise) ** 2) * 10 ** (interferer_db / 10)))
    return est, mixture, coef, noise


# ---------------------------------------------------------------------------

def test_c1_solver_oracle_equivalence():
    """solve_wls vs an explicit weighted pseudo-inverse on 1000 random
    instances (T <= 64, K <= 8, F <= 8, random positive weights), relative
    error < 1e-8, < 10 s.

    Instances whose weighted stack is ill-conditioned (cond > 1e3) are
    redrawn: past that point no normal-equations route (which the solver
    uses by design) can agree with a pseudo-inverse at the 1e-8 level in
    double precision.
    """
    rng = np.random.default_rng(1)
    start = time.time()
    worst = 0.0
    accepted = 0
    while accepted < 1000:
        taps = int(rng.integers(1, 9))
        frames = int(rng.integers(taps + 8, 65))
        bins = int(rng.integers(1, 9))
        delay = int(rng.integers(0, 4))
        z = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))
        d = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))
        lam = rng.uniform(0.25, 4.0, (frames, bins))
        # independent construction: explicit shifted columns + pinv per bin
        expected = np.zeros((bins, taps), dtype=complex)
        stacks = []
        for f in range(bins):
            a = np.zeros((frames, taps), dtype=complex)
            for k in range(taps):
                shift = delay + k
                if shift < frames:
                    a[shift:, k] = z[:frames - shift, f]
            stacks.append(np.sqrt(1.0 / lam[:, f])[:, None] * a)
        if max(np.linalg.cond(s) for s in stacks) > 1e3:
            continue
        for f in range(bins):
            sqw = np.sqrt(1.0 / lam[:, f])
            expected[f] = np.conj(np.linalg.pinv(stacks[f]) @ (sqw * d[:, f]))
        _, bank = solve_wls(z, d, taps, delay, lam, diag_load=0.0)
        err = (np.linalg.norm(bank.filters - expected)
               / max(np.linalg.norm(expected), 1e-300))
        worst = max(worst, err)
        accepted += 1
    elapsed = time.time() - start
    _report(1, "solver oracle equivalence",
            worst < 1e-8 and elapsed < 10.0,
            f"worst rel err {worst:.3e} over 1000 instances in {elapsed:.1f} s")


def test_c2_stft_roundtrip():
    """Relative L2 reconstruction error < 1e-6 over 100 random signals at
    both sample rates, < 5 s."""
    start = time.time()
    worst = 0.0
    rng = np.random.default_rng(2)
    for fs in (8000, 16000):
        cfg = StftConfig.for_rate(fs)
        for _ in range(50):
            n = int(rng.integers(cfg.window_len, 4 * fs))
            x = rng.standard_normal(n)
            y = synthesize(analyze(x, cfg), n)
            worst = max(worst, np.linalg.norm(x - y) / np.linalg.norm(x))
    elapsed = time.time() - start
    _report(2, "stft round-trip",
            worst < 1e-6 and elapsed < 5.0,
            f"worst rel err {worst:.3e} over 100 signals in {elapsed:.1f} s")


def test_c3_planted_filter_recovery():
    """FCP recovers a planted subband filter (len <= K, no noise) to < 1e-5
    in filter and output; ICP ditto for planted inverse filters; < 10 s."""
    start = time.time()
    rng = np.random.default_rng(3)
    worst_filter = worst_output = 0.0
    for seed in range(5):
        est, mixture, coef, _ = _planted_subband(np.random.default_rng(30 + seed), 512)
        shat, bank, _ = fcp(mixture, est, taps=8, diag_load=1e-8)
        padded = np.concatenate([coef, np.zeros((8, 3))], axis=1)
        worst_filter = max(worst_filter, np.linalg.norm(bank.response - padded)
                           / np.linalg.norm(padded))
        worst_output = max(worst_output, np.linalg.norm(shat - est)
                           / np.linalg.norm(est))
    # ICP analogue: the estimate is an exactly invertible filtering of the mixture
    for seed in range(5):
        rng = np.random.default_rng(60 + seed)
        mixture = rng.standard_normal((512, 8)) + 1j * rng.standard_normal((512, 8))
        coef = (rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5)))
        coef *= 0.6 ** np.arange(5)
        est = np.zeros((512, 8), dtype=complex)
        for k in range(5):
            est[k:] += coef[:, k] * mixture[:512 - k]
        shat, bank = icp(mixture, est, taps=8, diag_load=1e-8)
        padded = np.concatenate([coef, np.zeros((8, 3))], axis=1)
        worst_filter = max(worst_filter, np.linalg.norm(bank.response - padded)
                           / np.linalg.norm(padded))
        worst_output = max(worst_output, np.linalg.norm(shat - est)
                           / np.linalg.norm(est))
    elapsed = time.time() - start
    _report(3, "planted-filter recovery",
            worst_filter < 1e-5 and worst_output < 1e-5 and elapsed < 10.0,
            f"worst filter err {worst_filter:.3e}, worst output err "
            f"{worst_output:.3e} in {elapsed:.1f} s")


def test_c4_dereverberation_gain():
    """Oracle-estimate FCP improves mean SI-SDR by >= 5 dB over 20 scenes
    (t60 in [0.2, 0.6] s, 4 s at 16 kHz, no noise), < 2 min."""
    start = time.time()
    fs = 16000
    cfg = StftConfig.for_rate(fs)
    gains = []
    for seed in range(20):
        t60 = 0.2 + 0.4 * (seed / 19.0)
        scene = _scene(fs, 4.0, t60, seed=400 + seed)
        mix = analyze(scene.y, cfg)
        est = analyze(scene.s, cfg)
        shat, _, _ = fcp(mix.data, est.data)
        out = synthesize(mix.with_data(shat), scene.n_samples)
        gains.append(si_sdr(out, scene.s) - si_sdr(scene.y, scene.s))
    mean_gain = float(np.mean(gains))
    elapsed = time.time() - start
    _report(4, "dereverberation gain",
            mean_gain >= 5.0 and elapsed < 120.0,
            f"mean SI-SDR gain {mean_gain:.2f} dB over 20 scenes in {elapsed:.1f} s")


def test_c5_early_reflection_ordering():
    """Early-reflections-only scenes: mean SI-SDR of FCP (no delay) strictly
    exceeds delayed prediction at every delay in {1, 2, 3, 4}, 20 seeds,
    < 2 min. Ordering only."""
    start = time.time()
    fs = 8000
    cfg = StftConfig.for_rate(fs)
    delays = (1, 2, 3, 4)
    fcp_scores = []
    wpe_scores = {d: [] for d in delays}
    for seed in range(20):
        scene = _scene(fs, 2.5, 0.4, seed=500 + seed, early_only=True)
        mix = analyze(scene.y, cfg)
        est = analyze(scene.s, cfg)
        shat, _, _ = fcp(mix.data, est.data, taps=40)
        fcp_scores.append(si_sdr(synthesize(mix.with_data(shat), scene.n_samples),
                                 scene.s))
        lam = lambda_weights(est.data, "est_power", 0.001)
        for d in delays:
            out_tf, _ = wpe_supplied(mix.data, lam, taps=40 - d, delay=d)
            wpe_scores[d].append(si_sdr(
                synthesize(mix.with_data(out_tf), scene.n_samples), scene.s))
    fcp_mean = float(np.mean(fcp_scores))
    wpe_means = {d: float(np.mean(v)) for d, v in wpe_scores.items()}
    elapsed = time.time() - start
    ok = all(fcp_mean > m for m in wpe_means.values()) and elapsed < 120.0
    _report(5, "early-reflection ordering", ok,
            f"FCP {fcp_mean:.2f} dB vs delayed "
            + ", ".join(f"d={d}: {m:.2f}" for d, m in wpe_means.items())
            + f" in {elapsed:.1f} s")


def test_c6_wpe_objective_monotone():
    """Vanilla WPE's quadratic objective is non-increasing within each
    iteration's solve, on every test scene, up to 1e-10 relative slack."""
    fs = 8000
    scenes = [
        _scene(fs, 2.0, 0.5, seed=600),
        _scene(fs, 2.0, 0.3, seed=601, noise_snr_db=10.0),
        _scene(fs, 2.0, 0.7, seed=602),
        _scene(fs, 2.0, 0.4, seed=603, early_only=True),
        _scene(fs, 1.5, 0.25, seed=604, noise_snr_db=5.0),
    ]
    cfg = StftConfig.for_rate(fs)
    worst = 0.0
    for scene in scenes:
        _, _, trace = wpe_vanilla(analyze(scene.y, cfg).data, PredConfig.for_wpe())
        rel = np.max((trace[:, 1] - trace[:, 0]) / trace[:, 0])
        worst = max(worst, float(rel))
    _report(6, "wpe objective monotonicity", worst <= 1e-10,
            f"max relative objective increase {worst:.3e} over {len(scenes)} scenes")


def test_c7_robustness_filter_deviation():
    """(a) With a 0 dB uncorrelated interferer, the target's FCP filter
    deviates less than the single-filter delayed predictor's, averaged over
    10 seeds. (b) FCP deviation shrinks monotonically over
    T in {100, 400, 1600} frames."""
    taps = 8
    dev_fcp = {frames: [] for frames in (100, 400, 1600)}
    dev_wpe = []
    for seed in range(10):
        for frames in (100, 400, 1600):
            rng = np.random.default_rng(700 + seed)
            est, mixture, _, noise = _planted_subband(rng, frames,
                                                      interferer_db=0.0)
            lam = lambda_weights(est, "est_power", 0.001)
            clean = solve_wls(est, mixture, taps, 0, lam)[1].filters
            noisy = solve_wls(est, mixture + noise, taps, 0, lam)[1].filters
            dev_fcp[frames].append(np.linalg.norm(noisy - clean)
                                   / np.linalg.norm(clean))
            if frames == 400:
                wc = solve_wls(mixture, mixture, taps, 1, lam)[1].filters
                wm = solve_wls(mixture + noise, mixture + noise, taps, 1,
                               lam)[1].filters
                dev_wpe.append(np.linalg.norm(wm - wc) / np.linalg.norm(wc))
    means = {frames: float(np.mean(v)) for frames, v in dev_fcp.items()}
    wpe_mean = float(np.mean(dev_wpe))
    ok = (means[400] < wpe_mean
          and means[100] > means[400] > means[1600])
    _report(7, "robustness to interferers", ok,
            f"FCP deviation {means[100]:.3f} > {means[400]:.3f} > "
            f"{means[1600]:.3f} (T=100/400/1600); single-filter deviation "
            f"{wpe_mean:.3f} at T=400")


def test_c8_metric_invariances():
    """SI-SDR scale invariance to 1e-10 dB; sdr_512 >= si_sdr on 1000 random
    pairs; GCC-PHAT recovers planted shifts |n| <= 64 exactly; WPE/FCP
    outputs show zero GCC-PHAT delay on every simulated scene."""
    rng = np.random.default_rng(8)
    ref = rng.standard_normal(4096)
    est = ref + 0.2 * rng.standard_normal(4096)
    base = si_sdr(est, ref)
    scale_ok = all(abs(si_sdr(alpha * est, ref) - base) < 1e-10
                   for alpha in (0.01, -7.3, 1234.5))

    dominance_ok = True
    for _ in range(1000):
        a = rng.standard_normal(1024)
        b = rng.standard_normal(1024)
        if sdr_512(a, b) < si_sdr(a, b):
            dominance_ok = False
            break

    x = rng.standard_normal(4096)
    shifts_ok = all(gcc_phat_delay(np.roll(x, n), x, 64) == n
                    for n in range(-64, 65))

    fs = 8000
    cfg = StftConfig.for_rate(fs)
    zero_delay_ok = True
    for seed in range(10):
        scene = _scene(fs, 2.0, 0.3 + 0.04 * seed, seed=800 + seed)
        mix = analyze(scene.y, cfg)
        est_tf = analyze(scene.s, cfg)
        fcp_out, _, _ = fcp(mix.data, est_tf.data)
        lam = lambda_weights(est_tf.data, "est_power", 0.001)
        wpe_out, _ = wpe_supplied(mix.data, lam)
        for out_tf in (fcp_out, wpe_out):
            out = synthesize(mix.with_data(out_tf), scene.n_samples)
            if gcc_phat_delay(out, scene.s, 400) != 0:
                zero_delay_ok = False
    ok = scale_ok and dominance_ok and shifts_ok and zero_delay_ok
    _report(8, "metric invariances", ok,
            f"scale={scale_ok}, sdr512>=sisdr={dominance_ok}, "
            f"shifts={shifts_ok}, zero-delay={zero_delay_ok}")


def test_c9_estimate_degradation_monotonicity():
    """Mean FCP output SI-SDR is non-increasing (0.5 dB slack per step,
    10 seeds) as estimate error SNR falls through {inf, 20, 10, 0} dB."""
    fs = 8000
    cfg = StftConfig.for_rate(fs)
    levels = (math.inf, 20.0, 10.0, 0.0)
    means = []
    for level in levels:
        scores = []
        for seed in range(10):
            scene = _scene(fs, 2.0, 0.4, seed=900 + seed)
            mix = analyze(scene.y, cfg)
            est = analyze(degrade(scene.s, level, seed=37 + seed), cfg)
            shat, _, _ = fcp(mix.data, est.data)
            scores.append(si_sdr(synthesize(mix.with_data(shat),
                                            scene.n_samples), scene.s))
        means.append(float(np.mean(scores)))
    ok = all(means[i + 1] <= means[i] + 0.5 for i in range(len(levels) - 1))
    _report(9, "estimate-degradation monotonicity", ok,
            "mean SI-SDR " + " -> ".join(f"{m:.2f}" for m in means)
            + " dB for error SNR inf/20/10/0")
