"""Command-line surface: scene simulation, dereverberation runs, metric
evaluation, and experiment sweeps.

Every command is a pure function of (config, seed, input files): fixed seeds
give byte-identical outputs. Configs and reports are JSON; signals are mono
WAV (float32 by default, 16-bit PCM on request).

Exit codes: 0 success, 2 config error, 3 I/O error, 4 numerical failure.

``main`` runs each command with numpy's OpenBLAS on one thread and restores
the previous thread count when the command returns; the library modules set
no thread policy.
"""

import argparse
import contextlib
import copy
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import convpred, metrics
from ._blas import numpy_openblas as _numpy_openblas
from .scene import (RirSpec, degrade, gen_rir, render_scene, strip_late,
                    synth_speech)
from .stft import StftConfig, analyze, synthesize
from .wavio import read_wav, write_wav

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


_WPE = ("taps", "delay", "eps", "diag_load")
_CP = ("taps", "eps", "diag_load")


class Algorithm(NamedTuple):
    defaults: Callable     # PredConfig.for_*: the only source of default values
    settings: tuple        # PredConfig fields applied; any other explicit one is
                           # rejected, never echoed and then ignored
    reads_estimate: bool   # False: the target estimates are never read
    multi_pass: bool       # passes > 1 allowed (one estimate in, one out)
    run: Callable          # (mix_tf, ests, pred) -> list of T x F outputs
    per_source: str = None  # the single-estimate algorithm run on each ests[c]
                            # (output c is its output on [ests[c]]); None:
                            # one output


# Entries call convpred through the module attribute at call time, so a
# function patched on the module is the one that runs.
ALGORITHMS = {
    "wpe_vanilla": Algorithm(
        convpred.PredConfig.for_wpe, _WPE + ("iters",), False, False,
        lambda y, ests, p: [convpred.wpe_vanilla(y, p)[0]]),
    "wpe_supplied": Algorithm(
        convpred.PredConfig.for_wpe, _WPE, True, True,
        lambda y, ests, p: [convpred.wpe_supplied(
            y, convpred.lambda_weights(ests[0], "est_power", p.eps),
            p.taps, p.delay, p.diag_load)[0]]),
    "icp": Algorithm(
        convpred.PredConfig.for_icp, _CP, True, True,
        lambda y, ests, p: [convpred.icp(y, ests[0], p.taps, eps=p.eps,
                                         diag_load=p.diag_load)[0]]),
    "fcp": Algorithm(
        convpred.PredConfig.for_fcp, _CP, True, True,
        lambda y, ests, p: [convpred.fcp(y, ests[0], p.taps, eps=p.eps,
                                         diag_load=p.diag_load)[0]]),
    "fcp_per_source": Algorithm(
        convpred.PredConfig.for_fcp, ("taps", "eps", "lambda_mode", "diag_load"),
        True, False,
        lambda y, ests, p: convpred.fcp_per_source(
            y, ests, p.taps, p.lambda_mode, p.eps, p.diag_load), "fcp"),
    "wpe_sf": Algorithm(
        convpred.PredConfig.for_wpe, _WPE, True, False,
        lambda y, ests, p: [convpred.wpe_multi(
            y, ests, p.taps, p.delay, p.eps, "sf", p.diag_load)[0]]),
    "wpe_mf": Algorithm(
        convpred.PredConfig.for_wpe, _WPE, True, False,
        lambda y, ests, p: convpred.wpe_multi(
            y, ests, p.taps, p.delay, p.eps, "mf", p.diag_load)[0], "wpe_supplied"),
}
_PRED_FIELDS = dataclasses.fields(convpred.PredConfig)


class ConfigError(ValueError):
    """Invalid configuration or precondition; exits with code 2."""


class NumericalError(RuntimeError):
    """Processing produced non-finite values; exits with code 4."""


# ---------------------------------------------------------------------------
# config plumbing

def _algorithm(name):
    if name not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {name!r}; "
                          f"choose from {tuple(ALGORITHMS)}")
    return ALGORITHMS[name]


def _prediction(name, given):
    """The validated PredConfig of algorithm ``name`` with the explicit
    settings ``given``, and the settings it applies."""
    algo = _algorithm(name)
    ignored = [k for k in given if k not in algo.settings]
    if ignored:
        raise ConfigError(f"algorithm {name!r} does not use {', '.join(ignored)} "
                          f"(it uses {', '.join(algo.settings)})")
    for key, val in given.items():
        _check_setting(key, val)
    try:
        pred = algo.defaults(**{
            f.name: given[f.name] if f.type is str else f.type(given[f.name])
            for f in _PRED_FIELDS if f.name in given})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if "delay" in algo.settings and pred.delay < 1:
        raise ConfigError(
            "WPE requires a prediction delay >= 1: with delay 0 the identity "
            "filter solves the problem exactly and nothing is removed")
    return pred, {k: getattr(pred, k) for k in algo.settings}


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


# The settings that take true/false; a bool given for any other is an error.
_FLAGS = ("early_only", "normalize")
# Numeric settings and their types, checked before any typed read.
_NUMBERS = {"sample_rate": int, "duration_s": float, "seed": int, "t60": float,
            "snr_db": float, "n_sources": int, "estimate_error_snr_db": float,
            "max_lag": int, "passes": int, "taps": int, "delay": int,
            "eps": float, "diag_load": float, "iters": int}


def _check_setting(key, val):
    """Raise a ConfigError naming ``key`` unless ``val`` suits it: true or
    false for a flag and for no other setting, a finite number for a
    numeric setting, and a whole one for an integer setting (2.7 is not
    truncated to 2)."""
    if key in _FLAGS:
        if not isinstance(val, bool):
            raise ConfigError(f"{key} must be true or false; got {val!r}")
        return
    if isinstance(val, bool):
        raise ConfigError(f"{key} must not be true/false; got {val!r}")
    kind = _NUMBERS.get(key)
    if kind is None:
        return
    try:
        num = kind(val)
        finite, whole = math.isfinite(num), float(val) == num
    except (TypeError, ValueError, OverflowError):
        finite = False
    if not finite:
        raise ConfigError(f"{key} must be a finite number; got {val!r}")
    if not whole:
        raise ConfigError(f"{key} must be an integer; got {val!r}")


def _merge_config(args, keys):
    """defaults < --config file < explicit flags.

    A file key outside ``keys`` is an error and a ``null`` value means the
    default. Every other value must pass ``_check_setting``.
    """
    config = {}
    if getattr(args, "config", None):
        file_cfg = load_config(args.config)
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: top-level JSON object expected")
        unknown = [k for k in file_cfg if k not in keys]
        if unknown:
            raise ConfigError(f"{args.config}: unknown setting(s) "
                              f"{', '.join(map(repr, unknown))}; this command "
                              f"takes {', '.join(keys)}")
        config.update((k, v) for k, v in file_cfg.items() if v is not None)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    for key, val in config.items():
        _check_setting(key, val)
    return config


def _check_finite(x, what):
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"{what} contains non-finite values")
    return x


# ---------------------------------------------------------------------------
# simulate

def _build_scene(config):
    fs = int(config.get("sample_rate", 16000))
    if fs not in (8000, 16000):
        raise ConfigError("sample_rate must be 8000 or 16000")
    duration = float(config.get("duration_s", 4.0))
    if duration <= 0:
        raise ConfigError("duration_s must be positive")
    seed = int(config.get("seed", 0))
    t60 = float(config.get("t60", 0.4))
    if t60 < 0:
        raise ConfigError("t60 must be >= 0")
    n_sources = int(config.get("n_sources", 1))
    if n_sources < 1:
        raise ConfigError("n_sources must be >= 1")
    snr_db = config.get("snr_db", None)
    early_only = bool(config.get("early_only", False))

    n = int(round(duration * fs))
    rng = np.random.default_rng(seed)
    dry = [synth_speech(n, fs, seed=int(rng.integers(2 ** 31))) for _ in range(n_sources)]

    rirs = []
    for c in range(n_sources):
        delay = int(round((0.003 + 0.004 * c) * fs))  # 1 m, then further back
        rir_seed = int(rng.integers(2 ** 31))
        if t60 == 0.0:
            # anechoic limit: zero-length tail, no early taps
            spec = RirSpec(fs, t60=1e-9, direct_delay=delay, n_early_taps=0,
                           rir_len=delay + 1, seed=rir_seed)
        else:
            spec = RirSpec(fs, t60=t60, direct_delay=delay, seed=rir_seed)
        rir = gen_rir(spec)
        if early_only:
            rir = strip_late(rir)
        rirs.append(rir)

    noise = None
    if snr_db is not None and not early_only:
        noise = rng.standard_normal(n)
    elif snr_db is not None and early_only:
        snr_db = None  # early-reflections-only scenario drops the noise too
    return render_scene(dry, rirs, noise=noise,
                        snr_db=None if snr_db is None else float(snr_db),
                        normalize=bool(config.get("normalize", True)))


def cmd_simulate(config):
    """Render a scene to WAV files plus a manifest JSON."""
    out_dir = Path(config.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    encoding = config.get("encoding", "float32")
    scene = _build_scene(config)
    fs = scene.sample_rate

    files = {}

    def dump(name, samples):
        path = out_dir / f"{name}.wav"
        write_wav(path, samples, fs, encoding)
        files[name] = str(path)

    dump("y", scene.y)
    dump("s", scene.s)
    dump("h", scene.h)
    dump("v", scene.v)
    if scene.n_sources > 1:
        for c in range(scene.n_sources):
            dump(f"s{c}", scene.direct[c])
            dump(f"h{c}", scene.wet[c])
    if scene.snr_db is not None:
        dump("noise", scene.noise)

    noise_energy = float(np.sum(scene.noise ** 2))
    measured_snr = None
    if scene.snr_db is not None and noise_energy > 0:
        measured_snr = 10.0 * math.log10(float(np.sum(scene.s ** 2)) / noise_energy)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": {k: v for k, v in config.items() if k != "out_dir"},
        "sample_rate": fs,
        "n_samples": scene.n_samples,
        "n_sources": scene.n_sources,
        "snr_db": scene.snr_db,
        "measured_snr_db": measured_snr,
        "scale": scene.scale,
        "files": files,
    }
    _write_json(out_dir / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# dereverb

def _load_signals(paths, expected_fs=None, expected_len=None, what="signal"):
    out = []
    fs = expected_fs
    for p in [paths] if isinstance(paths, str) else paths:
        samples, rate = read_wav(p)
        if fs is not None and rate != fs:
            raise ConfigError(f"{p}: sample rate {rate} != {fs}")
        fs = rate
        if expected_len is not None and samples.size != expected_len:
            raise ConfigError(f"{p}: {what} length {samples.size} != {expected_len}")
        out.append(_check_finite(samples, str(p)))
    return out, fs


def _estimates_read(algo, n_available):
    """How many of ``n_available`` estimates ``algo`` reads: none, the first
    only (a multi-pass algorithm takes one estimate in), or all."""
    if not algo.reads_estimate:
        return 0
    return 1 if algo.multi_pass else n_available


def _build_estimates(config, refs, cfg, n_samples, algo):
    """The estimate STFTs ``algo`` reads, and the estimate mode. External
    estimates are all loaded and checked, read or not."""
    mode = config.get("estimate_mode", "oracle")
    seed = int(config.get("seed", 0))
    if mode == "external":
        paths = config.get("estimate")
        if not paths:
            raise ConfigError("estimate_mode 'external' needs estimate path(s)")
        signals, _ = _load_signals(paths, cfg.sample_rate, n_samples, "estimate")
    elif mode in ("oracle", "degraded"):
        signals = refs
    else:
        raise ConfigError(f"unknown estimate_mode {mode!r}")
    signals = signals[:_estimates_read(algo, len(signals))]
    if mode == "degraded":
        err = config.get("estimate_error_snr_db")
        if err is None:
            raise ConfigError("estimate_mode 'degraded' needs estimate_error_snr_db")
        signals = [degrade(r, float(err), seed + i) for i, r in enumerate(signals)]
    return [analyze(sig, cfg).data for sig in signals], mode


def run_algorithm(name, pred, mix_spec, ests, passes=1, n_samples=None):
    """Dispatch one algorithm, feeding each pass's output back as the next
    pass's estimate through a time-domain round trip (so multi-pass runs
    compose exactly like re-running the tool on its own output).

    Args:
        mix_spec: mixture ComplexSpectrogram.
        ests: list of T x F estimate arrays (empty for vanilla WPE).
        n_samples: mixture length, required for passes > 1.

    Returns:
        list of T x F output arrays.
    """
    algo = _algorithm(name)
    if passes < 1:
        raise ConfigError("passes must be >= 1")
    if passes > 1 and not algo.multi_pass:
        raise ConfigError(f"passes > 1 applies to single-estimate algorithms, "
                          f"not {name!r}")
    if passes > 1 and n_samples is None:
        raise ConfigError("passes > 1 needs the mixture sample count")
    if algo.reads_estimate and not ests:
        raise ConfigError(f"algorithm {name!r} needs a target estimate")
    outputs = algo.run(mix_spec.data, ests, pred)
    for _ in range(passes - 1):  # the last pass's output is never fed back
        ests = [analyze(synthesize(mix_spec.with_data(outputs[0]), n_samples),
                        mix_spec.config).data]
        outputs = algo.run(mix_spec.data, ests, pred)
    return outputs


def _enhanced(mix_tf, outputs_tf, n_samples):
    """Time-domain signals of the algorithm's T x F outputs."""
    return [synthesize(mix_tf.with_data(_check_finite(out, "enhanced spectrogram")),
                       n_samples) for out in outputs_tf]


def _n_outputs(algo, ests):
    return len(ests) if algo.per_source else 1


class _Scores:
    """Metrics against each source's reference, whose spectrum is computed
    once (``metrics.Reference``); the mixture's metrics are cached by
    source."""

    def __init__(self, mixture, refs):
        self.mixture = mixture
        self.refs = [metrics.Reference(r) for r in refs]
        self.unprocessed = {}

    def per_source(self, outputs, max_lag, sources=None):
        """Metrics of each output, and of the mixture, against the reference
        of its source: output i is source ``sources[i]`` (default i)."""
        per_source = []
        for c, sig in zip(sources or range(len(outputs)), outputs):
            ref = self.refs[c]
            if c not in self.unprocessed:
                self.unprocessed[c] = ref.score(self.mixture, max_lag).to_dict()
            per_source.append({
                "source": c,
                "unprocessed": self.unprocessed[c],
                "enhanced": ref.score(sig, max_lag).to_dict(),
            })
        return per_source


def _max_lag(value, n_samples):
    """The metrics' GCC-PHAT lag range (default 512), checked against the
    length of the signals: n_samples >= SDR_TAPS and
    1 <= max_lag <= n_samples // 2."""
    if n_samples < metrics.SDR_TAPS:
        raise ConfigError(f"the metrics need signals of at least "
                          f"{metrics.SDR_TAPS} samples; got {n_samples}")
    try:
        max_lag = int(512 if value is None else value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"max_lag: {exc}") from exc
    if not 1 <= max_lag <= n_samples // 2:
        raise ConfigError(f"max_lag must be in [1, {n_samples // 2}] for "
                          f"{n_samples}-sample signals; got {max_lag}"
                          + (" (the default)" if value is None else ""))
    return max_lag


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_dereverb(config):
    """Run one algorithm on a mixture WAV; write enhanced WAV(s) + report."""
    mixture_path = config.get("mixture")
    if not mixture_path:
        raise ConfigError("a mixture WAV is required")
    name = config.get("algorithm", "fcp")
    given = {f.name: config[f.name] for f in _PRED_FIELDS
             if config.get(f.name) is not None}
    pred, applied = _prediction(name, given)
    passes = int(config.get("passes", 1))
    if passes < 1:
        raise ConfigError("passes must be >= 1")
    if config.get("max_lag") is not None and not config.get("reference"):
        raise ConfigError("max_lag sets the lag range of the metrics, which "
                          "need --reference signals")

    mixture, fs = _load_signals([mixture_path], what="mixture")
    mixture = mixture[0]
    max_lag = (_max_lag(config.get("max_lag"), mixture.size)
               if config.get("reference") else None)
    try:
        cfg = StftConfig.for_rate(fs)
    except ValueError as exc:
        raise ConfigError(f"{mixture_path}: {exc}") from exc
    mix_tf = analyze(mixture, cfg)

    refs, _ = _load_signals(config.get("reference") or [], fs, mixture.size,
                            "reference")

    ests = []
    est_mode = None
    if ALGORITHMS[name].reads_estimate:
        if config.get("estimate_mode", "oracle") != "external" and not refs:
            raise ConfigError(
                f"algorithm {name!r} needs --reference signals (or external estimates)")
        ests, est_mode = _build_estimates(config, refs, cfg, mixture.size,
                                          ALGORITHMS[name])
    n_outputs = _n_outputs(ALGORITHMS[name], ests)
    if refs and len(refs) < n_outputs:
        raise ConfigError(f"algorithm {name!r} writes {n_outputs} outputs and "
                          f"scores each against its own reference; got "
                          f"{len(refs)} reference(s)")

    outputs = _enhanced(mix_tf, run_algorithm(name, pred, mix_tf, ests, passes,
                                              mixture.size), mixture.size)

    written = []
    if config.get("output"):
        out_path = Path(config["output"])
        for c, sig in enumerate(outputs):  # out.wav, or out_0.wav, out_1.wav, ...
            p = out_path if len(outputs) == 1 else out_path.with_name(
                f"{out_path.stem}_{c}{out_path.suffix}")
            write_wav(p, sig, fs, config.get("encoding", "float32"))
            written.append(str(p))

    report = {
        "schema_version": SCHEMA_VERSION,
        "algorithm": name,
        "pred": applied,
        "estimate_mode": est_mode,
        "passes": passes,
        "sample_rate": fs,
        "outputs": written,
    }
    if refs:
        report["metrics"] = _Scores(mixture, refs).per_source(outputs, max_lag)
    if config.get("report"):
        _write_json(config["report"], report)
    return report


# ---------------------------------------------------------------------------
# evaluate

def cmd_evaluate(config):
    est_path = config.get("estimate")
    ref_path = config.get("reference")
    if not est_path or not ref_path:
        raise ConfigError("evaluate needs an estimate WAV and a reference WAV")
    est, fs = _load_signals([est_path], what="estimate")
    ref, _ = _load_signals([ref_path], fs, est[0].size, "reference")
    scores = metrics.evaluate_pair(est[0], ref[0], int(config.get("max_lag", 512)))
    report = {"schema_version": SCHEMA_VERSION, "sample_rate": fs,
              **scores.to_dict()}
    if config.get("report"):
        _write_json(config["report"], report)
    return report


# ---------------------------------------------------------------------------
# experiment

def _sweep_algorithms(sweep):
    """(name, explicit settings, passes, row settings) per algorithm entry.
    Row settings are the applied ones (the given ones if invalid) and passes."""
    out = []
    for entry in sweep.get("algorithms", ["fcp"]):
        if isinstance(entry, str):
            entry = {"name": entry}
        name = entry.get("name")
        _algorithm(name)  # an unknown name fails the whole sweep
        given = {k: v for k, v in entry.items() if k not in ("name", "passes")}
        try:
            settings = _prediction(name, given)[1]
        except ConfigError:  # each of the entry's rows records the error
            settings = dict(given)
        if "passes" in entry:
            settings["passes"] = entry["passes"]
        out.append((name, given, entry.get("passes", 1), settings))
    return out


def _sweep_scene(sweep, seed, t60, snr_db):
    """The scene of one (seed, t60, snr) and its mixture STFT."""
    fs = int(sweep.get("sample_rate", 16000))
    cfg = StftConfig.for_rate(fs)
    scene = _build_scene({
        "sample_rate": fs,
        "duration_s": sweep.get("duration_s", 4.0),
        "seed": seed,
        "t60": t60,
        "snr_db": snr_db,
        "n_sources": sweep.get("n_sources", 1),
        "early_only": sweep.get("early_only", False),
    })
    return scene, analyze(scene.y, cfg)


def _sweep_estimates(scene, cfg, seed, est_err, count):
    """Oracle (``est_err`` None) or degraded STFTs of the first ``count``
    direct paths."""
    if est_err is None:
        return [analyze(d, cfg).data for d in scene.direct[:count]]
    return [analyze(degrade(d, float(est_err), seed + 7919 * (c + 1)), cfg).data
            for c, d in enumerate(scene.direct[:count])]


def _sweep_row_metrics(sweep, name, given, passes, scene, mix_tf, ests, est_err,
                       solved, scores):
    """Run one algorithm entry on a prepared scene; returns its per-source
    metrics.

    ``solved`` maps the problem key of each output that has succeeded on
    this scene to its metrics: (family, PredConfig, passes, source, estimate
    error). Only the outputs whose key is missing are run, and then added.
    A per-source algorithm's output c is its family's output on [ests[c]];
    with other passes it is rejected, so it is then its own family. The
    estimate error is None for an algorithm that reads no estimate.

    ``scores`` holds this scene's references and the mixture's metrics,
    shared by the rows. It is filled after the algorithm has run, so an
    algorithm error is raised before a metric error.
    """
    algo = ALGORITHMS[name]
    pred, _ = _prediction(name, given)
    _check_setting("passes", passes)
    passes = int(passes)
    family = (algo.per_source if passes == 1 else None) or name
    keys = [(family, pred, passes, c, est_err if algo.reads_estimate else None)
            for c in range(_n_outputs(algo, ests))]
    missing = [c for c, key in enumerate(keys) if key not in solved]
    if missing:
        outputs_tf = run_algorithm(
            name, pred, mix_tf, [ests[c] for c in missing] if algo.per_source
            else ests, passes, scene.n_samples)
        entries = scores.per_source(
            _enhanced(mix_tf, outputs_tf, scene.n_samples),
            int(sweep.get("max_lag", 512)), missing)
        solved.update(zip([keys[c] for c in missing], entries))
    return [solved[key] for key in keys]


def _scene_rows(sweep, seed, t60, snr_db, est_errs, algorithms):
    """The rows of one (seed, t60, snr), estimate error by algorithm."""
    if not (est_errs and algorithms):
        return []  # no rows: render nothing
    seed_i, t60_f = int(seed), float(t60)
    scene_error = None
    try:
        scene, mix_tf = _sweep_scene(sweep, seed_i, t60_f, snr_db)
        scores = _Scores(scene.y, scene.direct)
        n_ests = max(_estimates_read(ALGORITHMS[name], scene.n_sources)
                     for name, *_ in algorithms)
    except Exception as exc:  # recorded in each of its rows
        scene_error = str(exc)
    solved = {}
    rows = []
    for est_err in est_errs:
        ests, est_error = [], scene_error
        if scene_error is None:
            try:
                ests = _sweep_estimates(scene, mix_tf.config, seed_i, est_err,
                                        n_ests)
            except Exception as exc:  # recorded in each row that reads them
                est_error = str(exc)
        for name, given, passes, settings in algorithms:
            error = est_error if ALGORITHMS[name].reads_estimate else scene_error
            if error is None:
                try:
                    per_source = _sweep_row_metrics(
                        sweep, name, given, passes, scene, mix_tf, ests, est_err,
                        solved, scores)
                except Exception as exc:  # recorded, sweep continues
                    error = str(exc)
            row = {"seed": seed, "t60": t60, "snr_db": snr_db,
                   "estimate_error_snr_db": est_err,
                   "algorithm": name, "settings": settings,
                   "metrics": None, "error": error}
            if error is None:  # a failed row keeps the config's seed and t60
                row.update(seed=seed_i, t60=t60_f, metrics=copy.deepcopy(per_source))
            rows.append(row)
    return rows


# The settings a sweep takes; the scalar ones and the seeds are checked
# before any work, while another bad value in a list fails only the rows
# that use it.
_SWEEP_SCALARS = ("sample_rate", "duration_s", "n_sources", "early_only",
                  "max_lag")
_SWEEP_KEYS = ("seeds", "t60", "snr_db", "estimate_error_snr_db",
               "algorithms") + _SWEEP_SCALARS


def run_experiment(sweep):
    """Run a sweep over seeds x t60 x snr x estimate degradation x algorithm.

    Each scene is rendered and transformed once per (seed, t60, snr) and
    its estimates once per estimate error. Each distinct problem is solved
    and scored once per scene and estimate error: output c of
    ``fcp_per_source`` is the ``fcp`` problem on estimate c, output c of
    ``wpe_mf`` the ``wpe_supplied`` one, for equal settings, and an
    algorithm that reads no estimate runs once per scene. Every row equals
    the one computed on its own, whatever the order of the algorithms.
    Failures are recorded in every row that depends on them and the sweep
    continues; a failed row is computed again for each estimate error. An
    unknown key, a bad scalar setting or a bad seed is a ConfigError before
    any work.
    """
    unknown = [k for k in sweep if k not in _SWEEP_KEYS]
    if unknown:
        raise ConfigError(f"unknown sweep setting(s) {', '.join(map(repr, unknown))}; "
                          f"a sweep takes {', '.join(_SWEEP_KEYS)}")
    for key in _SWEEP_SCALARS:
        if sweep.get(key) is not None:
            _check_setting(key, sweep[key])
    seeds = sweep.get("seeds", [])
    for seed in seeds:
        _check_setting("seed", seed)
    t60s = sweep.get("t60", [0.4])
    snrs = sweep.get("snr_db", [None])
    est_errs = sweep.get("estimate_error_snr_db", [None])
    algorithms = _sweep_algorithms(sweep)

    rows = []
    for seed in seeds:
        for t60 in t60s:
            for snr_db in snrs:
                rows += _scene_rows(sweep, seed, t60, snr_db, est_errs, algorithms)

    aggregates = {}
    groups = {}
    for row in rows:
        if row["error"] is not None:
            continue
        key = json.dumps({
            "algorithm": row["algorithm"], "settings": row["settings"],
            "t60": row["t60"], "snr_db": row["snr_db"],
            "estimate_error_snr_db": row["estimate_error_snr_db"],
        }, sort_keys=True)
        groups.setdefault(key, []).append(row)
    for key, group in sorted(groups.items()):
        si_out = [m["enhanced"]["si_sdr_db"] for r in group for m in r["metrics"]]
        si_un = [m["unprocessed"]["si_sdr_db"] for r in group for m in r["metrics"]]
        aggregates[key] = {
            "count": len(group),
            "mean_si_sdr_db": float(np.mean(si_out)),
            "mean_unprocessed_si_sdr_db": float(np.mean(si_un)),
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "config": sweep,
        "rows": rows,
        "aggregates": aggregates,
    }


def _write_csv(result, path):
    fields = ["seed", "t60", "snr_db", "estimate_error_snr_db", "algorithm",
              "taps", "delay", "eps", "source", "si_sdr_unprocessed_db",
              "si_sdr_db", "sdr_512_db", "gcc_phat_delay", "error"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in result["rows"]:
            base = {
                "seed": row["seed"], "t60": row["t60"], "snr_db": row["snr_db"],
                "estimate_error_snr_db": row["estimate_error_snr_db"],
                "algorithm": row["algorithm"],
                "taps": row["settings"].get("taps"),
                "delay": row["settings"].get("delay"),
                "eps": row["settings"].get("eps"),
                "error": row["error"],
            }
            if row["metrics"] is None:
                writer.writerow(base)
                continue
            for m in row["metrics"]:
                writer.writerow({
                    **base, "source": m["source"],
                    "si_sdr_unprocessed_db": m["unprocessed"]["si_sdr_db"],
                    "si_sdr_db": m["enhanced"]["si_sdr_db"],
                    "sdr_512_db": m["enhanced"]["sdr_512_db"],
                    "gcc_phat_delay": m["enhanced"]["gcc_phat_delay"],
                })


def cmd_experiment(config):
    sweep_path = config.get("sweep")
    sweep = load_config(sweep_path) if sweep_path else {
        k: v for k, v in config.items() if k not in ("sweep", "output", "csv")}
    if not isinstance(sweep, dict):
        raise ConfigError("sweep config must be a JSON object")
    result = run_experiment(sweep)
    if config.get("output"):
        _write_json(config["output"], result)
    if config.get("csv"):
        _write_csv(result, config["csv"])
    return result


# ---------------------------------------------------------------------------
# argument parsing

def _add_pred_flags(p):
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--taps", type=int)
    p.add_argument("--delay", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--lambda-mode", dest="lambda_mode",
                   choices=("est_power", "mix_power", "unit"))
    p.add_argument("--diag-load", dest="diag_load", type=float)
    p.add_argument("--iters", type=int)
    p.add_argument("--passes", type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dereverb",
        description="Monaural dereverberation toolkit: simulate scenes, run "
                    "WPE/ICP/FCP, evaluate, and sweep experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a synthetic scene to WAV files")
    p.add_argument("--config")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--sample-rate", dest="sample_rate", type=int)
    p.add_argument("--duration-s", dest="duration_s", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--t60", type=float)
    p.add_argument("--snr-db", dest="snr_db", type=float)
    p.add_argument("--n-sources", dest="n_sources", type=int)
    p.add_argument("--early-only", dest="early_only", action="store_const", const=True)
    p.add_argument("--encoding", choices=("float32", "pcm16"))

    p = sub.add_parser("dereverb", help="dereverberate a mixture WAV")
    p.add_argument("--config")
    p.add_argument("--mixture")
    p.add_argument("--reference", action="append")
    p.add_argument("--estimate", action="append")
    p.add_argument("--estimate-mode", dest="estimate_mode",
                   choices=("oracle", "degraded", "external"))
    p.add_argument("--estimate-error-snr-db", dest="estimate_error_snr_db", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--output")
    p.add_argument("--report")
    p.add_argument("--encoding", choices=("float32", "pcm16"))
    p.add_argument("--max-lag", dest="max_lag", type=int)
    _add_pred_flags(p)

    p = sub.add_parser("evaluate", help="compute metrics for an estimate/reference pair")
    p.add_argument("--config")
    p.add_argument("--estimate")
    p.add_argument("--reference")
    p.add_argument("--max-lag", dest="max_lag", type=int)
    p.add_argument("--report")

    p = sub.add_parser("experiment", help="run a sweep described by a JSON config")
    p.add_argument("--config", dest="sweep")
    p.add_argument("--output")
    p.add_argument("--csv")

    return parser


_COMMAND_KEYS = {
    "simulate": ("out_dir", "sample_rate", "duration_s", "seed", "t60",
                 "snr_db", "n_sources", "early_only", "normalize", "encoding"),
    "dereverb": ("mixture", "reference", "estimate", "estimate_mode",
                 "estimate_error_snr_db", "seed", "output", "report",
                 "encoding", "max_lag", "algorithm", "taps", "delay", "eps",
                 "lambda_mode", "diag_load", "iters", "passes"),
    "evaluate": ("estimate", "reference", "max_lag", "report"),
    "experiment": ("sweep", "output", "csv"),
}


# ---------------------------------------------------------------------------
# entry point

@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore the
    previous count.

    The solver's Gram products are batches of small per-bin GEMMs that
    OpenBLAS's worker threads do not speed up; next to a busy process each
    of them waits for a descheduled worker. With one BLAS thread the solver
    spreads its bins over the cores itself. No-op without numpy's OpenBLAS.
    The count is process-wide, so calls that overlap in several threads
    may restore each other's value.
    """
    blas = _numpy_openblas()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    with _one_blas_thread():
        try:
            if args.command == "experiment":
                config = {k: getattr(args, k, None)
                          for k in _COMMAND_KEYS["experiment"]}
                result = cmd_experiment(config)
            else:
                config = _merge_config(args, _COMMAND_KEYS[args.command])
                if args.command == "simulate":
                    result = cmd_simulate(config)
                elif args.command == "dereverb":
                    result = cmd_dereverb(config)
                else:
                    result = cmd_evaluate(config)
            if not (args.command == "experiment" and config.get("output")):
                json.dump(result, sys.stdout, indent=2, sort_keys=True)
                sys.stdout.write("\n")
            return EXIT_OK
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
        except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
