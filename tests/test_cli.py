import collections
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.io import wavfile

from dereverb import (StftConfig, analyze, cli, convpred, degrade, metrics,
                      read_wav, scene, si_sdr, synthesize, write_wav)
from dereverb.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK,
                          cmd_dereverb, cmd_evaluate, cmd_simulate, main,
                          run_experiment)


def simulate_args(out_dir, **overrides):
    config = {
        "out_dir": str(out_dir), "sample_rate": 8000, "duration_s": 1.5,
        "seed": 3, "t60": 0.4, "snr_db": 20.0,
    }
    config.update(overrides)
    return config


# ---------------------------------------------------------------------------
# simulate

def test_simulate_deterministic_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    cmd_simulate(simulate_args(a))
    cmd_simulate(simulate_args(b))
    for name in ("y.wav", "s.wav", "h.wav", "v.wav"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_manifest_snr_matches_files(tmp_path):
    manifest = cmd_simulate(simulate_args(tmp_path))
    s, _ = read_wav(manifest["files"]["s"])
    noise, _ = read_wav(manifest["files"]["noise"])
    recomputed = 10 * math.log10(np.sum(s ** 2) / np.sum(noise ** 2))
    assert abs(recomputed - manifest["measured_snr_db"]) < 1e-6
    assert abs(manifest["measured_snr_db"] - 20.0) < 1e-9


def test_simulate_t60_zero_gives_silent_reverb(tmp_path):
    manifest = cmd_simulate(simulate_args(tmp_path, t60=0.0, snr_db=None))
    h, _ = read_wav(manifest["files"]["h"])
    assert np.all(h == 0)


def test_simulate_two_sources_writes_components(tmp_path):
    manifest = cmd_simulate(simulate_args(tmp_path, n_sources=2, snr_db=None))
    assert {"s0", "h0", "s1", "h1"} <= set(manifest["files"])
    y, _ = read_wav(manifest["files"]["y"])
    parts = [read_wav(manifest["files"][k])[0] for k in ("s0", "h0", "s1", "h1")]
    np.testing.assert_allclose(y, np.sum(parts, axis=0), atol=1e-6)


# ---------------------------------------------------------------------------
# dereverb

@pytest.fixture()
def scene_dir(tmp_path):
    out = tmp_path / "scene"
    cmd_simulate(simulate_args(out, duration_s=2.0, snr_db=None, seed=5))
    return out


def test_dereverb_fcp_oracle_improves(scene_dir, tmp_path):
    report = cmd_dereverb({
        "mixture": str(scene_dir / "y.wav"),
        "reference": str(scene_dir / "s.wav"),
        "algorithm": "fcp", "estimate_mode": "oracle",
        "output": str(tmp_path / "out.wav"),
        "report": str(tmp_path / "report.json"),
    })
    m = report["metrics"][0]
    assert m["enhanced"]["si_sdr_db"] > m["unprocessed"]["si_sdr_db"]
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["metrics"][0]["enhanced"]["si_sdr_db"] == m["enhanced"]["si_sdr_db"]
    out, fs = read_wav(tmp_path / "out.wav")
    assert fs == 8000
    s, _ = read_wav(scene_dir / "s.wav")
    assert si_sdr(out, s) == pytest.approx(m["enhanced"]["si_sdr_db"], abs=1e-5)


def test_dereverb_two_passes_equals_manual_feedback(scene_dir, tmp_path):
    one = cmd_dereverb({
        "mixture": str(scene_dir / "y.wav"), "reference": str(scene_dir / "s.wav"),
        "algorithm": "fcp", "estimate_mode": "degraded",
        "estimate_error_snr_db": 10.0, "seed": 0,
        "output": str(tmp_path / "one.wav"),
    })
    # feed pass-1 output back as an external estimate
    chained = cmd_dereverb({
        "mixture": str(scene_dir / "y.wav"), "reference": str(scene_dir / "s.wav"),
        "algorithm": "fcp", "estimate_mode": "external",
        "estimate": str(tmp_path / "one.wav"),
        "output": str(tmp_path / "chained.wav"),
    })
    two = cmd_dereverb({
        "mixture": str(scene_dir / "y.wav"), "reference": str(scene_dir / "s.wav"),
        "algorithm": "fcp", "estimate_mode": "degraded",
        "estimate_error_snr_db": 10.0, "seed": 0, "passes": 2,
        "output": str(tmp_path / "two.wav"),
    })
    a, _ = read_wav(tmp_path / "two.wav")
    b, _ = read_wav(tmp_path / "chained.wav")
    # float32 re-quantization of the intermediate estimate is the only difference
    assert np.max(np.abs(a - b)) < 1e-4


def test_passes_feed_back_every_output_but_the_last(scene_dir, monkeypatch):
    y, fs = read_wav(scene_dir / "y.wav")
    s, _ = read_wav(scene_dir / "s.wav")
    cfg = StftConfig.for_rate(fs)
    mix, est = analyze(y, cfg), analyze(s, cfg).data
    pred = convpred.PredConfig.for_fcp()
    first = cli.run_algorithm("fcp", pred, mix, [est])[0]
    fed_back = analyze(synthesize(mix.with_data(first), y.size), cfg).data
    calls = []
    real = cli.analyze
    monkeypatch.setattr(cli, "analyze",
                        lambda *args: calls.append(args) or real(*args))
    two = cli.run_algorithm("fcp", pred, mix, [est], passes=2, n_samples=y.size)
    assert len(calls) == 1
    np.testing.assert_array_equal(two[0], convpred.fcp(mix.data, fed_back)[0])


def test_dereverb_rejects_wpe_zero_delay(scene_dir, capsys):
    rc = main(["dereverb", "--mixture", str(scene_dir / "y.wav"),
               "--reference", str(scene_dir / "s.wav"),
               "--algorithm", "wpe_vanilla", "--delay", "0"])
    assert rc == EXIT_CONFIG
    assert "delay" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["flag", "config-file"])
def test_dereverb_rejects_setting_the_algorithm_ignores(scene_dir, tmp_path,
                                                        capsys, via):
    if via == "flag":
        argv = ["dereverb", "--mixture", str(scene_dir / "y.wav"),
                "--reference", str(scene_dir / "s.wav"),
                "--algorithm", "fcp", "--delay", "3"]
        ignored = "delay"
    else:
        config = tmp_path / "icp.json"
        config.write_text(json.dumps({
            "mixture": str(scene_dir / "y.wav"),
            "reference": str(scene_dir / "s.wav"),
            "algorithm": "icp", "iters": 9}))
        argv = ["dereverb", "--config", str(config)]
        ignored = "iters"
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and ignored in err


@pytest.mark.filterwarnings("error")
def test_overflowing_diag_load_is_a_numerical_failure(scene_dir, capsys):
    """A loading that overflows the Gram matrix exits 4 naming diag_load,
    with no numpy warning, and fails its sweep row with the same message."""
    assert main(["dereverb", "--mixture", str(scene_dir / "y.wav"),
                 "--reference", str(scene_dir / "s.wav"), "--algorithm", "fcp",
                 "--diag-load", "1e308"]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "diag_load 1e+308" in err
    row, = run_experiment(small_sweep(seeds=[0], algorithms=[
        {"name": "fcp", "diag_load": 1e308}]))["rows"]
    assert row["metrics"] is None and row["error"] == err.strip().split(": ", 1)[1]


@pytest.mark.parametrize("name, flags, unused", [
    ("fcp", ["--estimate-error-snr-db", "10"], "estimate_error_snr_db"),
    ("fcp", ["--estimate", "s.wav"], "estimate"),
    ("fcp", ["--seed", "5"], "seed"),
    ("fcp", ["--estimate-mode", "external", "--estimate", "s.wav", "--seed", "5"],
     "seed"),
    ("wpe_vanilla", ["--estimate-mode", "degraded"], "estimate_mode"),
    ("wpe_vanilla", ["--seed", "5"], "seed"),
])
def test_dereverb_rejects_estimate_setting_it_does_not_apply(
        scene_dir, tmp_path, capsys, name, flags, unused):
    """An estimate setting that the algorithm and the estimate mode do not
    apply exits 2 naming it, before any output is written."""
    flags = [str(scene_dir / f) if f == "s.wav" else f for f in flags]
    assert main(["dereverb", "--mixture", str(scene_dir / "y.wav"),
                 "--reference", str(scene_dir / "s.wav"), "--algorithm", name,
                 "--output", str(tmp_path / "o.wav"), *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {unused} not used")
    assert not (tmp_path / "o.wav").exists()


def test_dereverb_setting_of_wrong_type_is_config_error(scene_dir, tmp_path, capsys):
    config = tmp_path / "fcp.json"
    config.write_text(json.dumps({"mixture": str(scene_dir / "y.wav"),
                                  "reference": str(scene_dir / "s.wav"),
                                  "algorithm": "fcp", "taps": [40]}))
    assert main(["dereverb", "--config", str(config)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


# a value other than every algorithm's default, for each PredConfig field
NON_DEFAULT = {"taps": 8, "delay": 2, "eps": 0.05, "lambda_mode": "unit",
               "diag_load": 0.1, "iters": 1}


@pytest.fixture(scope="module")
def duo_1s(tmp_path_factory):
    out = tmp_path_factory.mktemp("duo_1s")
    cmd_simulate(simulate_args(out, duration_s=1.0, n_sources=2, snr_db=None))
    return out


@pytest.mark.parametrize("name", list(cli.ALGORITHMS))
def test_algorithm_table_entry_contract(duo_1s, tmp_path, capsys, name):
    """Every applied setting changes the output, every other one exits 2,
    and reports list exactly the applied settings."""
    entry = cli.ALGORITHMS[name]
    base = ["dereverb", "--mixture", str(duo_1s / "y.wav"),
            "--reference", str(duo_1s / "s0.wav"),
            "--reference", str(duo_1s / "s1.wav"), "--algorithm", name]
    applied = {k: getattr(entry.defaults(), k) for k in entry.settings}

    def run(setting=None):
        out = tmp_path / (setting or "default")
        out.mkdir()
        flags = [] if setting is None else [f"--{setting.replace('_', '-')}",
                                            str(NON_DEFAULT[setting])]
        assert main(base + flags + ["--output", str(out / "o.wav"),
                                    "--report", str(out / "r.json")]) == EXIT_OK
        report = json.loads((out / "r.json").read_text())
        return [Path(p).read_bytes() for p in report["outputs"]], report["pred"]

    default, pred = run()
    assert pred == applied
    for setting in entry.settings:
        assert NON_DEFAULT[setting] != applied[setting]
        changed, pred = run(setting)
        assert changed != default, setting
        assert pred == {**applied, setting: NON_DEFAULT[setting]}
    for field in dataclasses.fields(convpred.PredConfig):
        if field.name in entry.settings:
            continue
        capsys.readouterr()
        assert main(base + [f"--{field.name.replace('_', '-')}",
                            str(NON_DEFAULT[field.name])]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field.name in err
    row, = run_experiment(small_sweep(seeds=[0], n_sources=2,
                                      algorithms=[name]))["rows"]
    assert row["error"] is None and row["settings"] == applied


@pytest.mark.parametrize("name", [n for n, a in cli.ALGORITHMS.items()
                                  if a.per_source])
def test_per_source_output_is_its_family_on_one_estimate(duo_1s, name):
    """The property the sweep's memo rests on: with equal settings, output c
    of a per-source algorithm is its family's output on estimate c alone."""
    cfg = StftConfig.for_rate(8000)
    y = analyze(read_wav(duo_1s / "y.wav")[0], cfg)
    ests = [analyze(read_wav(duo_1s / f"s{c}.wav")[0], cfg).data for c in (0, 1)]
    algo = cli.ALGORITHMS[name]
    pred = cli.ALGORITHMS[algo.per_source].defaults()
    assert algo.defaults() == pred
    outputs = cli.run_algorithm(name, pred, y, ests)
    assert len(outputs) == len(ests)
    for c, est in enumerate(ests):
        np.testing.assert_array_equal(
            outputs[c], cli.run_algorithm(algo.per_source, pred, y, [est])[0])


def test_dereverb_degrades_estimate_c_with_seed_plus_c(duo_1s, tmp_path):
    """Output c of a degraded 2-source run is fcp on the estimate
    degrade(s_c, error, seed + c)."""
    y, fs = read_wav(duo_1s / "y.wav")
    assert main(["dereverb", "--mixture", str(duo_1s / "y.wav"),
                 "--reference", str(duo_1s / "s0.wav"),
                 "--reference", str(duo_1s / "s1.wav"),
                 "--algorithm", "fcp_per_source", "--estimate-mode", "degraded",
                 "--estimate-error-snr-db", "10", "--seed", "5",
                 "--output", str(tmp_path / "o.wav")]) == EXIT_OK
    mix = analyze(y, StftConfig.for_rate(fs))
    for c in (0, 1):
        s_c = read_wav(duo_1s / f"s{c}.wav")[0]
        est = analyze(degrade(s_c, 10.0, 5 + c), mix.config).data
        out = synthesize(mix.with_data(convpred.fcp(mix.data, est)[0]), y.size)
        write_wav(tmp_path / f"lib_{c}.wav", out, fs)
        assert ((tmp_path / f"o_{c}.wav").read_bytes()
                == (tmp_path / f"lib_{c}.wav").read_bytes())


def _nan_copy(src, dst):
    samples, fs = read_wav(src)
    samples = samples.astype(np.float32)
    samples[100] = np.nan
    wavfile.write(dst, fs, samples)
    return str(dst)


@pytest.mark.parametrize("role", ["mixture", "reference", "estimate", "evaluate"])
def test_non_finite_wav_is_numerical_failure(scene_dir, tmp_path, capsys, role):
    y, s = str(scene_dir / "y.wav"), str(scene_dir / "s.wav")
    bad = _nan_copy(scene_dir / ("y.wav" if role == "mixture" else "s.wav"),
                    tmp_path / "nan.wav")
    argv = {
        "mixture": ["dereverb", "--mixture", bad, "--algorithm", "wpe_vanilla"],
        "reference": ["dereverb", "--mixture", y, "--reference", bad,
                      "--algorithm", "fcp"],
        "estimate": ["dereverb", "--mixture", y, "--reference", s,
                     "--estimate-mode", "external", "--estimate", bad,
                     "--algorithm", "fcp"],
        "evaluate": ["evaluate", "--estimate", bad, "--reference", s],
    }[role]
    assert main(argv) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and bad in err


def _scaled_copy(src, dst, scale):
    """``src``'s samples times ``scale``, written as a float64 WAV."""
    samples, fs = read_wav(src)
    wavfile.write(dst, fs, samples * scale)
    return str(dst)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale, name", [
    (1e40, "fcp"), (1e40, "wpe_vanilla"),
    (1e160, "fcp"), (1e160, "wpe_vanilla"), (1e160, "icp")])
def test_overflow_is_a_numerical_failure(scene_dir, tmp_path, capsys, scale, name):
    """An output beyond float32's range (x1e40) and an input whose power
    overflows (x1e160) exit 4 with one stderr line, no numpy warning and no
    WAV written."""
    out = tmp_path / "o.wav"
    rc = main(["dereverb", "--mixture",
               _scaled_copy(scene_dir / "y.wav", tmp_path / "big.wav", scale),
               "--reference", str(scene_dir / "s.wav"), "--algorithm", name,
               "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_NUMERIC
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert (str(out) in err) == (scale == 1e40)
    assert not out.exists()


def test_dereverb_missing_input_is_io_error(capsys):
    rc = main(["dereverb", "--mixture", "does-not-exist.wav",
               "--algorithm", "wpe_vanilla"])
    assert rc == EXIT_IO


@pytest.mark.parametrize("content", [b"RIFF", b"RIFF" + bytes(40)],
                         ids=["truncated-header", "not-wave-form"])
def test_dereverb_corrupt_wav_is_io_error(tmp_path, capsys, content):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(content)
    rc = main(["dereverb", "--mixture", str(bad), "--algorithm", "wpe_vanilla"])
    assert rc == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "bad.wav" in err


def test_dereverb_external_estimate_length_checked_at_load(scene_dir, tmp_path,
                                                           capsys):
    short = tmp_path / "short"
    cmd_simulate(simulate_args(short, duration_s=1.5, snr_db=None, seed=5))
    rc = main(["dereverb", "--mixture", str(scene_dir / "y.wav"),
               "--reference", str(scene_dir / "s.wav"),
               "--estimate-mode", "external", "--estimate", str(short / "s.wav"),
               "--algorithm", "fcp"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(short / "s.wav") in err and "12000 != 16000" in err


def test_fcp_form_divergence_is_numerical_failure(scene_dir, monkeypatch, capsys):
    argv = ["dereverb", "--mixture", str(scene_dir / "y.wav"),
            "--reference", str(scene_dir / "s.wav"), "--algorithm", "fcp"]
    with monkeypatch.context() as m:
        m.setattr(np, "allclose", lambda *args, **kwargs: False)
        rc = main(argv)
    assert rc == EXIT_NUMERIC
    assert "numerical failure:" in capsys.readouterr().err


def test_main_runs_blas_on_one_thread_and_restores(scene_dir, monkeypatch):
    blas = cli._numpy_openblas()
    if blas is None:
        pytest.skip("numpy does not use its bundled OpenBLAS")
    get_threads, set_threads = blas
    seen = []
    fcp = convpred.fcp

    def spy(*args, **kwargs):
        seen.append(get_threads())
        return fcp(*args, **kwargs)

    monkeypatch.setattr(convpred, "fcp", spy)
    original = get_threads()
    set_threads(2)
    try:
        before = get_threads()
        rc = main(["dereverb", "--mixture", str(scene_dir / "y.wav"),
                   "--reference", str(scene_dir / "s.wav"), "--algorithm", "fcp"])
        after_ok = get_threads()
        rc_io = main(["dereverb", "--mixture", "does-not-exist.wav",
                      "--algorithm", "fcp"])
        after_error = get_threads()
    finally:
        set_threads(original)
    assert (rc, rc_io) == (EXIT_OK, EXIT_IO)
    assert seen == [1]
    assert after_ok == before and after_error == before


def test_main_spreads_solver_bins_over_cores(scene_dir, monkeypatch):
    if cli._numpy_openblas() is None:
        pytest.skip("numpy does not use its bundled OpenBLAS")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the process may run on one core only")
    idents = set()
    solve_range = convpred._solve_range

    def spy(*args, **kwargs):
        idents.add(threading.get_ident())
        return solve_range(*args, **kwargs)

    monkeypatch.setattr(convpred, "_solve_range", spy)
    before = threading.active_count()
    rc = main(["dereverb", "--mixture", str(scene_dir / "y.wav"),
               "--reference", str(scene_dir / "s.wav"), "--algorithm", "fcp"])
    assert rc == EXIT_OK
    assert len(idents) >= 2
    assert threading.active_count() == before


def _library_output(scene_dir, name):
    y, fs = read_wav(scene_dir / "y.wav")
    s, _ = read_wav(scene_dir / "s.wav")
    cfg = StftConfig.for_rate(fs)
    mix = analyze(y, cfg)
    if name == "wpe_vanilla":
        out = convpred.wpe_vanilla(mix.data, convpred.PredConfig.for_wpe())[0]
    else:
        out = getattr(convpred, name)(mix.data, analyze(s, cfg).data)[0]
    return synthesize(mix.with_data(out), y.size), fs


@pytest.mark.parametrize("name", ["fcp", "icp"])
def test_main_output_bytes_match_library(scene_dir, tmp_path, name):
    """One BLAS thread in the CLI leaves FCP/ICP outputs bit-identical to
    the library run with the process's own thread count."""
    rc = main(["dereverb", "--mixture", str(scene_dir / "y.wav"),
               "--reference", str(scene_dir / "s.wav"), "--algorithm", name,
               "--output", str(tmp_path / "cli.wav")])
    assert rc == EXIT_OK
    expected, fs = _library_output(scene_dir, name)
    write_wav(tmp_path / "lib.wav", expected, fs)
    assert (tmp_path / "cli.wav").read_bytes() == (tmp_path / "lib.wav").read_bytes()


def test_main_wpe_output_matches_library(scene_dir, tmp_path, monkeypatch):
    written = []
    monkeypatch.setattr(cli, "write_wav",
                        lambda path, samples, *args: written.append(samples))
    rc = main(["dereverb", "--mixture", str(scene_dir / "y.wav"),
               "--algorithm", "wpe_vanilla", "--output", str(tmp_path / "o.wav")])
    assert rc == EXIT_OK and len(written) == 1
    expected, _ = _library_output(scene_dir, "wpe_vanilla")
    assert np.linalg.norm(written[0] - expected) <= 1e-12 * np.linalg.norm(expected)


def test_dereverb_multi_output_files(scene_dir, tmp_path):
    two = tmp_path / "duo"
    cmd_simulate(simulate_args(two, n_sources=2, snr_db=None, duration_s=2.0))
    report = cmd_dereverb({
        "mixture": str(two / "y.wav"),
        "reference": [str(two / "s0.wav"), str(two / "s1.wav")],
        "algorithm": "fcp_per_source", "estimate_mode": "oracle",
        "output": str(tmp_path / "out.wav"),
    })
    assert len(report["outputs"]) == 2
    assert len(report["metrics"]) == 2


def _duo_external(duo_1s, tmp_path, refs):
    return ["dereverb", "--mixture", str(duo_1s / "y.wav"),
            "--algorithm", "fcp_per_source", "--estimate-mode", "external",
            "--estimate", str(duo_1s / "s0.wav"), "--estimate", str(duo_1s / "s1.wav"),
            *[a for r in refs for a in ("--reference", str(duo_1s / r))],
            "--output", str(tmp_path / "o.wav"), "--report", str(tmp_path / "r.json")]


def test_dereverb_fewer_references_than_outputs_is_config_error(
        duo_1s, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(convpred, "fcp", None)  # must never run
    assert main(_duo_external(duo_1s, tmp_path, ["s0.wav"])) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "2 outputs" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("max_lag", ["0", "8001", "40000"])
def test_dereverb_max_lag_out_of_range_is_config_error_before_work(
        scene_dir, tmp_path, monkeypatch, capsys, max_lag):
    monkeypatch.setattr(convpred, "fcp", None)  # must never run
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["dereverb", "--mixture", str(scene_dir / "y.wav"),
               "--reference", str(scene_dir / "s.wav"), "--max-lag", max_lag,
               "--output", str(out / "e.wav"), "--report", str(out / "r.json")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "[1, 8000]" in err  # 16000 samples
    assert not list(out.iterdir())


def test_dereverb_too_short_to_score_is_config_error_before_work(
        scene_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(convpred, "fcp", None)  # must never run
    for name in ("y", "s"):
        sig, fs = read_wav(scene_dir / f"{name}.wav")
        write_wav(tmp_path / f"{name}.wav", sig[:400], fs)
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["dereverb", "--mixture", str(tmp_path / "y.wav"),
               "--reference", str(tmp_path / "s.wav"), "--max-lag", "100",
               "--output", str(out / "e.wav")])
    assert rc == EXIT_CONFIG
    assert "at least 512 samples" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_dereverb_max_lag_at_half_the_length_is_applied(scene_dir, tmp_path):
    report = cmd_dereverb({"mixture": str(scene_dir / "y.wav"),
                           "reference": str(scene_dir / "s.wav"),
                           "algorithm": "wpe_vanilla", "max_lag": 8000})
    mixture, s = read_wav(scene_dir / "y.wav")[0], read_wav(scene_dir / "s.wav")[0]
    assert report["metrics"][0]["unprocessed"] == cli.metrics.evaluate_pair(
        mixture, s, 8000).to_dict()


@pytest.mark.parametrize("max_lag", ["0", "64"])
def test_dereverb_max_lag_without_reference_is_config_error(
        scene_dir, tmp_path, monkeypatch, capsys, max_lag):
    monkeypatch.setattr(convpred, "wpe_vanilla", None)  # must never run
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["dereverb", "--mixture", str(scene_dir / "y.wav"),
               "--algorithm", "wpe_vanilla", "--max-lag", max_lag,
               "--output", str(out / "e.wav"), "--report", str(out / "r.json")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "max_lag" in err
    assert not list(out.iterdir())


def test_dereverb_scores_each_output_against_its_own_reference(duo_1s, tmp_path):
    assert main(_duo_external(duo_1s, tmp_path, ["s0.wav", "s1.wav"])) == EXIT_OK
    report = json.loads((tmp_path / "r.json").read_text())
    assert [m["source"] for m in report["metrics"]] == [0, 1]
    mixture = read_wav(duo_1s / "y.wav")[0]
    for c, (m, out) in enumerate(zip(report["metrics"], report["outputs"])):
        ref = read_wav(duo_1s / f"s{c}.wav")[0]
        assert m["unprocessed"] == cli.metrics.evaluate_pair(
            mixture, ref, 512).to_dict()
        # the WAV holds float32 samples
        assert m["enhanced"]["si_sdr_db"] == pytest.approx(
            si_sdr(read_wav(out)[0], ref), abs=1e-3)


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_roundtrip(scene_dir):
    report = cmd_evaluate({
        "estimate": str(scene_dir / "y.wav"),
        "reference": str(scene_dir / "s.wav"),
    })
    assert {"si_sdr_db", "sdr_512_db", "gcc_phat_delay"} <= set(report)
    y, _ = read_wav(scene_dir / "y.wav")
    s, _ = read_wav(scene_dir / "s.wav")
    assert report["si_sdr_db"] == pytest.approx(si_sdr(y, s), abs=1e-9)


def test_cli_main_evaluate_exit_ok(scene_dir, capsys):
    rc = main(["evaluate", "--estimate", str(scene_dir / "y.wav"),
               "--reference", str(scene_dir / "s.wav")])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert "si_sdr_db" in out


# ---------------------------------------------------------------------------
# config files

def _run_with_config(command, settings, scene_dir, tmp_path, capsys, flags=()):
    """main(command --config file) on a small valid config of the command,
    updated with ``settings``; returns (exit code, stdout, stderr)."""
    base = {
        "simulate": {"out_dir": str(tmp_path / "sim"), "sample_rate": 8000,
                     "duration_s": 1.0, "t60": 0.3},
        "dereverb": {"mixture": str(scene_dir / "y.wav"),
                     "reference": str(scene_dir / "s.wav")},
        "evaluate": {"estimate": str(scene_dir / "y.wav"),
                     "reference": str(scene_dir / "s.wav")},
        "experiment": small_sweep(seeds=[0]),
    }[command]
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps({**base, **settings}))
    capsys.readouterr()
    rc = main([command, "--config", str(path), *flags])
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("command, key", [("evaluate", "max_lag"),
                                          ("dereverb", "passes"),
                                          ("simulate", "seed")])
def test_config_null_means_the_default(scene_dir, tmp_path, capsys, command, key):
    rc_null, out_null, _ = _run_with_config(command, {key: None}, scene_dir,
                                            tmp_path, capsys)
    rc, out, _ = _run_with_config(command, {}, scene_dir, tmp_path, capsys)
    assert rc_null == rc == EXIT_OK
    assert out_null == out


@pytest.mark.parametrize("command, settings, flags, named", [
    ("dereverb", {"taps": True}, (), "taps"),
    ("dereverb", {"passes": True}, (), "passes"),
    ("evaluate", {"max_lag": True}, (), "max_lag"),
    ("simulate", {"seed": True}, (), "seed"),
    ("simulate", {}, ("--snr-db", "nan"), "snr_db"),
    ("simulate", {}, ("--t60", "nan"), "t60"),
    ("simulate", {}, ("--duration-s", "nan"), "duration_s"),
    ("simulate", {"t60": "inf"}, (), "t60"),
    ("simulate", {"seed": [1]}, (), "seed"),
    ("dereverb", {}, ("--estimate-mode", "degraded",
                      "--estimate-error-snr-db", "inf"), "estimate_error_snr_db"),
    ("dereverb", {}, ("--eps", "nan"), "eps"),
    ("dereverb", {}, ("--diag-load=-inf",), "diag_load"),
])
def test_config_bool_or_non_finite_setting_is_config_error(
        scene_dir, tmp_path, capsys, command, settings, flags, named):
    rc, out, err = _run_with_config(command, settings, scene_dir, tmp_path,
                                    capsys, flags)
    assert rc == EXIT_CONFIG and out == ""
    assert err.startswith(f"config error: {named} ")
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("command, settings, named", [
    ("dereverb", {"passes": 2.7}, "passes"),
    ("dereverb", {"taps": 8.5}, "taps"),
    ("evaluate", {"max_lag": 100.5}, "max_lag"),
    ("simulate", {"seed": 1.5}, "seed"),
    ("simulate", {"early_only": "no"}, "early_only"),
    ("simulate", {"normalize": 0}, "normalize"),
    ("experiment", {"bogus": 1}, "unknown sweep setting(s) 'bogus'"),
    ("experiment", {"n_sources": 1.5}, "n_sources"),
    ("experiment", {"early_only": "no"}, "early_only"),
    ("experiment", {"seeds": [0, 2.7]}, "seed"),
])
def test_config_value_that_would_be_coerced_is_config_error(
        scene_dir, tmp_path, capsys, command, settings, named):
    """A value that int() would truncate, a non-bool flag that bool() would
    read as true, and an unknown sweep key exit 2 naming the setting
    before any work."""
    rc, out, err = _run_with_config(command, settings, scene_dir, tmp_path,
                                    capsys)
    assert rc == EXIT_CONFIG and out == ""
    assert err.startswith(f"config error: {named}")
    assert not (tmp_path / "sim").exists()


def test_sweep_entry_value_that_would_be_coerced_is_row_error():
    result = run_experiment(small_sweep(seeds=[0], algorithms=[
        {"name": "fcp", "taps": 8.5}, {"name": "fcp", "passes": 2.7},
        {"name": "fcp", "taps": True}, "fcp"]))
    errors = [r["error"] for r in result["rows"]]
    assert errors == ["taps must be an integer; got 8.5",
                      "passes must be an integer; got 2.7",
                      "taps must not be true/false; got True", None]


@pytest.mark.parametrize("command", ["simulate", "dereverb", "evaluate"])
def test_config_unknown_key_is_config_error(scene_dir, tmp_path, capsys, command):
    rc, out, err = _run_with_config(command, {"tapz": 3}, scene_dir, tmp_path,
                                    capsys)
    assert rc == EXIT_CONFIG and out == ""
    assert err.startswith("config error:") and "'tapz'" in err


def test_simulate_config_takes_normalize(scene_dir, tmp_path, capsys):
    rc, out, _ = _run_with_config("simulate", {"normalize": False}, scene_dir,
                                  tmp_path, capsys)
    assert rc == EXIT_OK and json.loads(out)["scale"] == 1.0


@pytest.mark.parametrize("command, settings, flags, named", [
    ("simulate", {}, ("--snr-db", "1e308"), "snr_db must be <= 300"),
    ("simulate", {"snr_db": -1e308}, (), "snr_db must be >= -300"),
    ("dereverb", {}, ("--estimate-mode", "degraded",
                      "--estimate-error-snr-db", "1e308"),
     "estimate_error_snr_db must be <= 300"),
    ("simulate", {}, ("--t60", "1e6"), "t60 must be <= 10"),
    ("simulate", {}, ("--seed", "-1"), "seed must be >= 0"),
    ("dereverb", {}, ("--estimate-mode", "degraded", "--seed", "-1",
                      "--estimate-error-snr-db", "10"), "seed must be >= 0"),
    ("simulate", {}, ("--duration-s", "1e-5"), "duration_s must give at least"),
    ("simulate", {"duration_s": 1 / 8000}, (), "duration_s must give at least"),
    ("simulate", {"duration_s": 1e308}, (), "duration_s must give at least"),
    ("simulate", {"n_sources": 1e308}, (), "n_sources must be <= 250 for a 1.0 s"),
    ("simulate", {"n_sources": 251}, (), "n_sources must be <= 250 for a 1.0 s"),
    ("dereverb", {"taps": 1e11}, (), "taps + delay must be <= 253"),
    ("dereverb", {"algorithm": "wpe_supplied", "taps": 251, "delay": 3}, (),
     "taps + delay must be <= 253"),
    ("experiment", {"seeds": [0, -1]}, (), "seed must be >= 0"),
])
def test_setting_out_of_range_is_config_error(
        scene_dir, tmp_path, capsys, command, settings, flags, named):
    """Values that overflowed, asked for a 60 GiB RIR or blamed numpy exit 2
    naming the setting before any work."""
    rc, out, err = _run_with_config(command, settings, scene_dir, tmp_path,
                                    capsys, flags)
    assert rc == EXIT_CONFIG and out == ""
    assert err.startswith(f"config error: {named}")
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("settings, named", [
    ({"t60": 0.3}, "t60 must be a list"),
    ({"seeds": 0}, "seeds must be a list"),
    ({"estimate_error_snr_db": None}, "estimate_error_snr_db must be a list"),
    ({"algorithms": "fcp"}, "algorithms must be a list"),
    ({"algorithms": [["fcp"]]}, "an algorithm entry must be a name or an object"),
    ({"algorithms": [{"taps": 37}]}, "algorithm must be one of"),
    ({"algorithms": [{}]}, "algorithm must be one of"),
    ({"algorithms": ["fcp", {"name": None}]}, "algorithm must be one of"),
])
def test_sweep_value_of_the_wrong_shape_is_config_error(settings, named):
    with pytest.raises(cli.ConfigError) as exc:
        run_experiment(small_sweep(**settings))
    assert str(exc.value).startswith(named)


def test_evaluate_max_lag_out_of_range_names_it(duo_1s, capsys):
    rc = main(["evaluate", "--estimate", str(duo_1s / "y.wav"),
               "--reference", str(duo_1s / "s0.wav"), "--max-lag", "40000"])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: max_lag must be in [1, 4000] for 8000-sample signals")


def test_library_calls_check_the_algorithm_and_the_paths(scene_dir):
    """A missing algorithm name is no default, and evaluate takes one path
    of each kind."""
    y, fs = read_wav(scene_dir / "y.wav")
    mix = analyze(y, StftConfig.for_rate(fs))
    with pytest.raises(cli.ConfigError, match="^algorithm must be one of"):
        cli.run_algorithm(None, convpred.PredConfig.for_fcp(), mix, [mix.data])
    with pytest.raises(cli.ConfigError, match="^reference must be a string"):
        cli.cmd_evaluate({"estimate": str(scene_dir / "y.wav"),
                          "reference": [str(scene_dir / "s.wav")]})


def _readme_row(name, spec):
    pred = name in {f.name for f in dataclasses.fields(convpred.PredConfig)}
    default = ("per algorithm" if pred and spec.default is None
               else f"`{json.dumps(spec.default)}`")
    low, high = spec.bounds
    if spec.choices:
        allowed = ", ".join(f"`{c}`" for c in spec.choices)
    elif low is not None and high is not None:
        allowed = f"[{low:g}, {high:g}]"
    elif low is not None:
        allowed = f">= {low:g}"
    else:
        allowed = "" if high is None else f"<= {high:g}"
    sweep = {None: "", "scalar": "one value", "entry": "algorithm entry"}.get(
        spec.sweep, f"list `{spec.sweep}`")
    return (f"| `{name}` | {spec.kind.__name__} | {default} | {allowed} | "
            f"{spec.commands.replace(' ', ', ')} | {sweep} |")


def test_readme_settings_table_is_the_settings_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| setting | type | default | allowed | commands | in a sweep |\n"
    table = readme[readme.index(header):].split("\n\n")[0].splitlines()[2:]
    assert table == [_readme_row(k, s) for k, s in cli.SETTINGS.items()]


def test_readme_algorithm_table_is_the_algorithm_table():
    """Each README row: the settings applied with their defaults, whether
    the estimate is read, and whether passes > 1 is allowed."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| algorithm | settings applied (default) | reads estimate | `passes` > 1 |\n"
    table = readme[readme.index(header):].split("\n\n")[0].splitlines()[2:]
    yes = {True: "yes", False: "no"}
    assert table == [
        f"| `{name}` | "
        + ", ".join(f"`{k}` {getattr(algo.defaults(), k)}" for k in algo.settings)
        + f" | {yes[algo.reads_estimate]} | {yes[algo.multi_pass]} |"
        for name, algo in cli.ALGORITHMS.items()]


def test_prediction_settings_have_the_types_of_pred_config():
    for field in dataclasses.fields(convpred.PredConfig):
        assert cli.SETTINGS[field.name].kind is field.type
        assert cli.SETTINGS[field.name].default is None  # the algorithm's


# values that are wrong for most settings: types, nulls, non-finite and
# extreme numbers, negative ones and strings
_ODD = [None, True, False, [1], {"a": 1}, math.nan, math.inf, -math.inf, 1e308,
        -1e308, -1, 0, 2.5, "0.3"]
# settings that count work: a huge count is a run that does not end, by
# request, so their odd values leave out 1e308
_COUNTS = ("iters", "passes")
# valid numbers on the 1 s, 8 kHz, 2-source scene of duo_1s
_VALID = {
    "sample_rate": [8000, 16000], "duration_s": [0.5, 1.0], "seed": [0, 3],
    "t60": [0.0, 1e-4, 0.3, 10], "snr_db": [20.0, -300, 300],
    "n_sources": [1, 2, 16], "early_only": [True, False],
    "normalize": [True, False], "estimate_error_snr_db": [10, -300, 300],
    "max_lag": [1, 512, 4000], "taps": [1, 8], "delay": [0, 1, 3],
    "eps": [1e-3, 1.0], "diag_load": [0, 1e3], "iters": [1, 2], "passes": [1, 2],
}


@pytest.fixture(scope="module")
def odd_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("odd")


def _values(command, name, duo, out):
    """(valid, odd) values of setting ``name`` of ``command``. A path is an
    input of ``duo`` or a missing one, or an output under ``out``; an odd
    path is no string, so that nothing is written elsewhere."""
    spec = cli.SETTINGS[name]
    if spec.kind is not str:
        return _VALID[name], [v for v in _ODD
                              if not (name in _COUNTS and v == 1e308)]
    if spec.choices:
        return list(spec.choices), _ODD + ["bogus"]
    inputs = [str(duo / f) for f in ("y.wav", "s0.wav", "s1.wav")]
    valid = {"out_dir": [str(out / "sim")], "output": [str(out / "o.wav")],
             "report": [str(out / "r.json")]}.get(
        name, inputs + [str(out / "missing.wav")])
    if command in spec.many.split():
        valid = valid + [inputs[1:]]
    return valid, [v for v in _ODD if not isinstance(v, str)]


def _quiet_main(directory, argv):
    """main(argv) run in ``directory`` (a null out_dir writes to the current
    one), its output discarded."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("command", ["simulate", "dereverb", "evaluate"])
@hypothesis.settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_config_exits_with_a_documented_code(duo_1s, odd_dir, command, data):
    """main on a config drawn from SETTINGS returns 0, 2, 3 or 4: valid
    values for some settings, then odd ones or an unknown key for up to
    three."""
    config = {"simulate": {"out_dir": str(odd_dir / "sim"), "sample_rate": 8000,
                           "duration_s": 1.0},
              "dereverb": {"mixture": str(duo_1s / "y.wav"),
                           "reference": str(duo_1s / "s0.wav")},
              "evaluate": {"estimate": str(duo_1s / "y.wav"),
                           "reference": str(duo_1s / "s0.wav")}}[command]
    values = {k: _values(command, k, duo_1s, odd_dir) for k in cli._keys(command)}
    config.update(data.draw(st.fixed_dictionaries({}, optional={
        k: st.sampled_from(valid) for k, (valid, _) in values.items()})))
    for key in data.draw(st.lists(st.sampled_from([*values, "tapz"]),
                                  max_size=3, unique=True)):
        config[key] = data.draw(st.sampled_from(values.get(key, (0, [3]))[1]))
    path = odd_dir / f"{command}.json"
    path.write_text(json.dumps(config))
    rc = _quiet_main(odd_dir, [command, "--config", str(path)])
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC)


@hypothesis.settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_any_sweep_exits_with_a_documented_code(duo_1s, odd_dir, data):
    """experiment on a 0.5 s sweep drawn from SETTINGS returns 0, 2, 3 or 4:
    valid values for some settings, lists and algorithm entries, then odd
    ones for up to two."""
    short = {"duration_s": [0.5], "max_lag": [1, 512, 1000], "n_sources": [1, 2]}
    values = {k: _values("experiment", k, duo_1s, odd_dir)
              for k, s in cli.SETTINGS.items() if s.sweep}
    valid = {k: st.sampled_from(short.get(k, v)) for k, (v, _) in values.items()}
    odd = {k: st.sampled_from(o) for k, (_, o) in values.items()}
    either = {k: st.one_of(valid[k], odd[k]) for k in values}
    scalars = [k for k, s in cli.SETTINGS.items() if s.sweep == "scalar"]
    lists = {s.sweep: k for k, s in cli.SETTINGS.items()
             if s.sweep not in (None, "scalar", "entry", "algorithms")}
    entries = [k for k, s in cli.SETTINGS.items() if s.sweep == "entry"]

    def entry(settings):
        return st.one_of(valid["algorithm"], st.fixed_dictionaries(
            {"name": valid["algorithm"]},
            optional={k: settings[k] for k in entries}))

    sweep = {"seeds": [0], "sample_rate": 8000, "duration_s": 0.5,
             "algorithms": ["fcp"]}
    sweep.update(data.draw(st.fixed_dictionaries({}, optional={
        **{k: valid[k] for k in scalars},
        **{key: st.lists(valid[k], min_size=1, max_size=2)
           for key, k in lists.items()},
        "algorithms": st.lists(entry(valid), min_size=1, max_size=2)})))
    for key in data.draw(st.lists(st.sampled_from([*scalars, *lists, "algorithms"]),
                                  max_size=2, unique=True)):
        if key in scalars:
            sweep[key] = data.draw(odd[key])
        elif key in lists:
            sweep[key] = data.draw(st.one_of(
                odd[lists[key]], st.lists(either[lists[key]], min_size=1, max_size=2)))
        else:
            sweep[key] = data.draw(st.one_of(
                odd["algorithm"],
                st.lists(st.one_of(entry(either), odd["algorithm"]), max_size=2)))
    path = odd_dir / "sweep.json"
    path.write_text(json.dumps(sweep))
    rc = _quiet_main(odd_dir, ["experiment", "--config", str(path),
                               "--output", str(odd_dir / "sweep_out.json")])
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC)


_FRESH_PROCESS = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

from dereverb.cli import main
seen = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([main(argv), scipy_modules()])
print(json.dumps(seen))
"""


def test_dereverb_and_evaluate_processes_never_import_scipy(scene_dir, tmp_path):
    """Importing scipy costs more than a CLI process's work on one 4 s
    scene, and only scene rendering needs it: a fresh interpreter that
    imports the CLI and runs dereverb and evaluate loads no scipy module;
    simulate loads scipy.signal."""
    mix, ref = str(scene_dir / "y.wav"), str(scene_dir / "s.wav")
    runs = [
        ["dereverb", "--mixture", mix, "--reference", ref, "--algorithm", "fcp",
         "--output", str(tmp_path / "e.wav"), "--report", str(tmp_path / "r.json")],
        ["evaluate", "--estimate", str(tmp_path / "e.wav"), "--reference", ref],
        ["simulate", "--out-dir", str(tmp_path / "sim"), "--sample-rate",
         "8000", "--duration-s", "0.5"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _FRESH_PROCESS, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen[:3] == [[], [EXIT_OK, []], [EXIT_OK, []]]
    assert seen[3][0] == EXIT_OK and "scipy.signal" in seen[3][1]


# ---------------------------------------------------------------------------
# experiment

def small_sweep(**overrides):
    sweep = {
        "seeds": [0, 0],  # identical on purpose
        "t60": [0.3],
        "snr_db": [None],
        "estimate_error_snr_db": [None],
        "algorithms": ["fcp"],
        "duration_s": 1.0,
        "sample_rate": 8000,
    }
    sweep.update(overrides)
    return sweep


def test_empty_sweep_valid_schema():
    result = run_experiment(small_sweep(seeds=[]))
    assert result["rows"] == [] and result["aggregates"] == {}
    assert result["schema_version"] == 1


def test_identical_seeds_identical_rows():
    result = run_experiment(small_sweep())
    rows = result["rows"]
    assert len(rows) == 2
    assert rows[0] == rows[1]


def test_partial_failure_recorded_and_run_continues():
    sweep = small_sweep(seeds=[0],
                        algorithms=[{"name": "wpe_supplied", "delay": 0}, "fcp"])
    result = run_experiment(sweep)
    errors = [r for r in result["rows"] if r["error"]]
    good = [r for r in result["rows"] if not r["error"]]
    assert len(errors) == 1 and "delay" in errors[0]["error"]
    assert len(good) == 1


def test_experiment_csv_and_json(tmp_path, capsys):
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(small_sweep(seeds=[0])))
    rc = main(["experiment", "--config", str(sweep_path),
               "--output", str(tmp_path / "result.json"),
               "--csv", str(tmp_path / "result.csv")])
    assert rc == EXIT_OK
    result = json.loads((tmp_path / "result.json").read_text())
    assert len(result["rows"]) == 1
    lines = (tmp_path / "result.csv").read_text().splitlines()
    assert lines[0].startswith("seed,") and len(lines) == 2


def test_csv_lists_every_algorithm_entry_setting(tmp_path):
    """One CSV column per algorithm-entry setting, in the settings table's
    order, so entries that differ only in diag_load, iters or passes give
    rows that differ there too."""
    result = run_experiment(small_sweep(seeds=[0], algorithms=[
        "fcp", {"name": "fcp", "diag_load": 0.1}, {"name": "fcp", "passes": 2},
        "wpe_vanilla", {"name": "wpe_vanilla", "iters": 1}]))
    cli._write_csv(result, tmp_path / "r.csv")
    with open(tmp_path / "r.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == [
        "seed", "t60", "snr_db", "estimate_error_snr_db", "algorithm", "taps",
        "delay", "eps", "lambda_mode", "diag_load", "iters", "passes", "source",
        "si_sdr_unprocessed_db", "si_sdr_db", "sdr_512_db", "gcc_phat_delay",
        "error"]
    entry = [k for k, s in cli.SETTINGS.items() if s.sweep == "entry"]
    assert reader.fieldnames[5:12] == entry
    for line, row in zip(rows, result["rows"], strict=True):
        assert line["error"] == "" and line["algorithm"] == row["algorithm"]
        assert {k: line[k] for k in entry} == {
            k: str(row["settings"].get(k, "")) for k in entry}
    assert [line["diag_load"] for line in rows[:2]] == ["1e-06", "0.1"]
    assert rows[2]["passes"] == "2" and rows[4]["iters"] == "1"


def test_early_only_ordering_mini_sweep():
    """Early-reflections-only scenes: FCP at zero delay beats the delayed
    predictor for every delay, matching the large-scale ordering."""
    algorithms = [{"name": "fcp"}] + [
        {"name": "wpe_supplied", "taps": 40 - d, "delay": d, "eps": 0.001}
        for d in (1, 2, 3, 4)
    ]
    sweep = small_sweep(seeds=[1, 2, 3], early_only=True, t60=[0.4],
                        duration_s=1.5, algorithms=algorithms)
    result = run_experiment(sweep)
    means = {}
    for key, agg in result["aggregates"].items():
        parsed = json.loads(key)
        label = (parsed["algorithm"], parsed["settings"].get("delay"))
        means[label] = agg["mean_si_sdr_db"]
    fcp_mean = means[("fcp", None)]
    for d in (1, 2, 3, 4):
        assert fcp_mean > means[("wpe_supplied", d)]


def test_main_bad_config_file_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["experiment", "--config", str(bad)])
    assert rc == EXIT_CONFIG


def two_source_sweep(**overrides):
    return small_sweep(**{"seeds": [0], "t60": [0.3, 0.6], "n_sources": 2,
                          "estimate_error_snr_db": [None, 10.0],
                          "algorithms": list(cli.ALGORITHMS), **overrides})


def test_sweep_computes_each_input_once(monkeypatch):
    calls = collections.Counter()

    def spy(module, attr):
        real = getattr(module, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)

    spy(cli, "_build_scene")
    spy(cli, "analyze")
    spy(scene, "analyze")  # the estimates
    spy(convpred, "wpe_vanilla")
    spy(convpred, "solve_wls")
    rows = run_experiment(two_source_sweep())["rows"]
    assert len(rows) == 2 * 2 * len(cli.ALGORITHMS)
    assert all(r["error"] is None for r in rows)
    # per scene: one mixture, and one estimate per (estimate error, source);
    # solves per scene: 3 for wpe_vanilla, and per estimate error 1 each for
    # wpe_supplied, icp, fcp and wpe_sf, plus source 1 of fcp_per_source and
    # of wpe_mf (their source 0 is the fcp and wpe_supplied problem)
    assert calls == {"_build_scene": 2, "analyze": 2 * (1 + 2 * 2),
                     "wpe_vanilla": 2, "solve_wls": 2 * (3 + 2 * 6)}


def _count_analyze(monkeypatch):
    """Count the STFTs of the mixture (cli) and of the estimates (scene)."""
    calls = []
    analyze = cli.analyze

    def counted(*args, **kwargs):
        calls.append(1)
        return analyze(*args, **kwargs)
    monkeypatch.setattr(cli, "analyze", counted)
    monkeypatch.setattr(scene, "analyze", counted)
    return calls


@pytest.mark.parametrize("mode", ["oracle", "degraded", "external"])
def test_dereverb_builds_only_the_estimates_the_algorithm_reads(
        duo_1s, tmp_path, monkeypatch, mode):
    """fcp with two references reads one estimate: the mixture and one
    estimate are analyzed, and the outputs and report equal those of a run
    that builds both estimates."""
    config = {"mixture": str(duo_1s / "y.wav"), "algorithm": "fcp",
              "reference": [str(duo_1s / "s0.wav"), str(duo_1s / "s1.wav")],
              "estimate_mode": mode,
              **{"oracle": {},
                 "degraded": {"estimate_error_snr_db": 10.0},
                 "external": {"estimate": [str(duo_1s / "s1.wav"),
                                           str(duo_1s / "s0.wav")]}}[mode]}
    calls = _count_analyze(monkeypatch)
    runs = []
    for label in ("read", "all"):
        out = tmp_path / label
        out.mkdir()
        report = cmd_dereverb({**config, "output": str(out / "o.wav")})
        runs.append((report["metrics"], (out / "o.wav").read_bytes()))
        assert len(calls) == (2 if label == "read" else 3)
        calls.clear()
        monkeypatch.setattr(cli, "_estimates_read", lambda algo, n: n)
    assert runs[0] == runs[1]


def test_sweep_builds_only_the_estimates_some_entry_reads(monkeypatch):
    """A 2-source sweep of fcp analyzes the mixture and one estimate per
    scene and estimate error; adding fcp_per_source builds both."""
    calls = _count_analyze(monkeypatch)
    sweep = two_source_sweep(t60=[0.3], algorithms=["fcp"])
    read = run_experiment(sweep)
    assert len(calls) == 1 + 2 * 1
    calls.clear()
    run_experiment({**sweep, "algorithms": ["fcp", "fcp_per_source"]})
    assert len(calls) == 1 + 2 * 2
    calls.clear()
    monkeypatch.setattr(cli, "_estimates_read", lambda algo, n: n)
    assert run_experiment(sweep) == read
    assert len(calls) == 1 + 2 * 2


def _count_solves(monkeypatch):
    solves = []
    solve_wls = convpred.solve_wls

    def counted(*args, **kwargs):
        solves.append(1)
        return solve_wls(*args, **kwargs)
    monkeypatch.setattr(convpred, "solve_wls", counted)
    return solves


def test_sweep_degrades_direct_path_c_with_seed_plus_7919_times_c_plus_1():
    """Output c of a degraded sweep row is fcp on the estimate
    degrade(d_c, error, seed + 7919 (c + 1)) of direct path d_c."""
    sweep = small_sweep(seeds=[3], n_sources=2, estimate_error_snr_db=[10.0],
                        algorithms=["fcp_per_source"])
    row, = run_experiment(sweep)["rows"]
    sc = cli._build_scene({"seed": 3, "t60": 0.3, "n_sources": 2,
                           "duration_s": 1.0, "sample_rate": 8000})
    mix = analyze(sc.y, StftConfig.for_rate(8000))
    for c in (0, 1):
        est = analyze(degrade(sc.direct[c], 10.0, 3 + 7919 * (c + 1)), mix.config)
        out = synthesize(mix.with_data(convpred.fcp(mix.data, est.data)[0]),
                         sc.n_samples)
        assert row["metrics"][c]["enhanced"] == metrics.evaluate_pair(
            out, sc.direct[c]).to_dict()


def test_sweep_rows_do_not_depend_on_algorithm_order(monkeypatch):
    solves = _count_solves(monkeypatch)

    def by_row(sweep):
        n = len(solves)
        rows = run_experiment(sweep)["rows"]
        return {(r["seed"], r["t60"], r["estimate_error_snr_db"], r["algorithm"]): r
                for r in rows}, len(solves) - n

    forward, forward_solves = by_row(two_source_sweep())
    backward, backward_solves = by_row(two_source_sweep(
        algorithms=list(reversed(cli.ALGORITHMS))))
    assert forward == backward and len(forward) == 2 * 2 * len(cli.ALGORITHMS)
    assert forward_solves == backward_solves == 30


def test_sweep_shares_only_equal_problems(monkeypatch):
    solves = _count_solves(monkeypatch)
    sweep = two_source_sweep(t60=[0.3], estimate_error_snr_db=[None], algorithms=[
        "fcp", {"name": "fcp_per_source", "lambda_mode": "est_power"},
        {"name": "fcp_per_source", "lambda_mode": "unit"},
        {"name": "fcp", "passes": 2}, {"name": "fcp", "taps": 20}, "fcp"])
    rows = run_experiment(sweep)["rows"]
    # 1 + 2 + 2 + 2 (two passes) + 1; the second plain fcp solves nothing
    assert len(solves) == 8
    assert all(r["error"] is None for r in rows)
    for entry, row in zip(sweep["algorithms"], rows):
        alone, = run_experiment({**sweep, "algorithms": [entry]})["rows"]
        assert alone == row
    assert rows[0]["metrics"][0] not in (rows[1]["metrics"][0],
                                         rows[2]["metrics"][0],
                                         rows[3]["metrics"][0],
                                         rows[4]["metrics"][0])


@pytest.mark.parametrize("single, multi", [("fcp", "fcp_per_source"),
                                           ("wpe_supplied", "wpe_mf")])
def test_sweep_per_source_row_with_passes_fails_after_its_family_ran(single, multi):
    """On a one-source scene, a successful two-pass single-estimate row
    leaves the per-source entry with two passes failing as it does alone."""
    sweep = small_sweep(seeds=[0], algorithms=[
        {"name": single, "passes": 2}, {"name": multi, "passes": 2}])
    rows = run_experiment(sweep)["rows"]
    assert rows[0]["error"] is None
    assert rows[1]["error"] == (f"passes > 1 applies to single-estimate "
                                f"algorithms, not {multi!r}")


def test_sweep_rows_equal_rows_computed_alone():
    sweep = two_source_sweep()
    rows = run_experiment(sweep)["rows"]
    for err in sweep["estimate_error_snr_db"]:
        for name in sweep["algorithms"]:
            alone = run_experiment({**sweep, "estimate_error_snr_db": [err],
                                    "algorithms": [name]})["rows"]
            assert alone == [r for r in rows if r["estimate_error_snr_db"] == err
                             and r["algorithm"] == name]


def test_sweep_failed_scene_fails_its_rows_only():
    rows = run_experiment(two_source_sweep(t60=[-1, 0.3]))["rows"]
    n = 2 * len(cli.ALGORITHMS)
    assert [r["error"] for r in rows[:n]] == ["t60 must be >= 0"] * n
    assert all(r["metrics"] is None and r["t60"] == -1 for r in rows[:n])
    assert all(r["error"] is None for r in rows[n:])
    # the next scene's rows read the estimate of their own estimate error
    metrics = {(r["estimate_error_snr_db"], r["algorithm"]): r["metrics"]
               for r in rows[n:]}
    for name in cli.ALGORITHMS:
        same = metrics[(None, name)] == metrics[(10.0, name)]
        assert same == (not cli.ALGORITHMS[name].reads_estimate)


def test_sweep_failed_row_is_computed_for_each_estimate_error(monkeypatch):
    runs = []
    run_algorithm = cli.run_algorithm

    def spy(name, *args, **kwargs):
        runs.append(name)
        return run_algorithm(name, *args, **kwargs)

    monkeypatch.setattr(cli, "run_algorithm", spy)
    sweep = two_source_sweep(t60=[0.3], algorithms=[
        {"name": "wpe_vanilla", "passes": 2}, "wpe_vanilla"])
    rows = run_experiment(sweep)["rows"]
    error = "passes > 1 applies to single-estimate algorithms, not 'wpe_vanilla'"
    assert [r["error"] for r in rows] == [error, None] * 2
    # the failing entry runs for each estimate error, the other one once
    assert runs == ["wpe_vanilla"] * 3


@pytest.mark.parametrize("key, good, bad", [
    ("t60", [0.3], [True, "0.3", math.nan, 1e6]),
    ("snr_db", [None], [True, "0.3", math.inf, 1e308]),
    ("estimate_error_snr_db", [None, 10.0], [True, "0.3", -math.inf, -1e308]),
])
def test_sweep_list_value_fails_only_the_rows_that_use_it(key, good, bad):
    """A bad t60 or snr_db fails the rows of its scene and a bad estimate
    error the rows that read the estimate, naming the setting; every other
    row is the row of the sweep without the bad values."""
    sweep = small_sweep(seeds=[0], algorithms=["wpe_vanilla", "fcp"])
    clean = run_experiment({**sweep, key: good})["rows"]
    values = good[:1] + bad + good[1:]
    rows = run_experiment({**sweep, key: values})["rows"]
    assert len(rows) == 2 * len(values)
    for i, value in enumerate(values):
        block = rows[2 * i:2 * i + 2]
        if value in bad:
            reads = [key != "estimate_error_snr_db", True]  # wpe_vanilla, fcp
            for row, fails in zip(block, reads):
                assert (row["error"] or "").startswith(f"{key} ") == fails
                assert (row["metrics"] is None) == fails
            value = good[0]  # the rows that do not fail are those of good[0]
            block = [r for r, fails in zip(block, reads) if not fails]
        j = good.index(value)
        expected = [{**r, key: rows[2 * i][key]} for r in clean[2 * j:2 * j + 2]
                    if any(r["algorithm"] == b["algorithm"] for b in block)]
        assert json.dumps(block, sort_keys=True) == json.dumps(expected,
                                                               sort_keys=True)


def test_sweep_entry_with_ignored_setting_is_row_error():
    result = run_experiment(small_sweep(seeds=[0], algorithms=[
        {"name": "fcp", "lambda_mode": "unit"}, "fcp",
        {"name": "fcp_per_source", "lambda_mode": "unit"}]))
    errors = [r["error"] for r in result["rows"]]
    assert "lambda_mode" in errors[0] and errors[1:] == [None, None]
