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
import functools
import json
import math
import numbers
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import convpred, metrics
from ._blas import numpy_openblas as _numpy_openblas
from .scene import (RirSpec, gen_rir, render_scene, strip_late, synth_speech,
                    target_estimates)
from .stft import SUPPORTED_RATES, StftConfig, analyze, synthesize
from .wavio import ENCODINGS, read_wav, write_wav

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
    run: Callable = None   # (mix_tf, ests, pred) -> list of T x F outputs
    per_source: str = None  # instead of run: the single-estimate algorithm
                            # run on each [ests[c]] for output c


def _wpe_weighted_by_estimates(y, ests, p):
    """One WPE filter weighted by the floored summed power of the estimates."""
    weights = convpred.lambda_weights(ests, "est_power", p.eps)
    return [convpred.wpe_supplied(y, weights, p.taps, p.delay, p.diag_load)[0]]


# Entries call convpred through the module attribute at call time, so a
# function patched on the module is the one that runs.
ALGORITHMS = {
    "wpe_vanilla": Algorithm(
        convpred.PredConfig.for_wpe, _WPE + ("iters",), False, False,
        lambda y, ests, p: [convpred.wpe_vanilla(y, p)[0]]),
    "wpe_supplied": Algorithm(
        convpred.PredConfig.for_wpe, _WPE, True, True, _wpe_weighted_by_estimates),
    "icp": Algorithm(
        convpred.PredConfig.for_icp, _CP, True, True,
        lambda y, ests, p: [convpred.icp(y, ests[0], p.taps, eps=p.eps,
                                         diag_load=p.diag_load)[0]]),
    # plain fcp takes no lambda_mode, so it weights by the mixture's power
    "fcp": Algorithm(
        convpred.PredConfig.for_fcp, _CP, True, True,
        lambda y, ests, p: [convpred.fcp(y, ests[0], p.taps, convpred.lambda_weights(
            ests[0] if p.lambda_mode == "est_power" else y, p.lambda_mode, p.eps),
            diag_load=p.diag_load)[0]]),
    "fcp_per_source": Algorithm(
        convpred.PredConfig.for_fcp, ("taps", "eps", "lambda_mode", "diag_load"),
        True, False, per_source="fcp"),
    "wpe_sf": Algorithm(
        convpred.PredConfig.for_wpe, _WPE, True, False, _wpe_weighted_by_estimates),
    "wpe_mf": Algorithm(
        convpred.PredConfig.for_wpe, _WPE, True, False, per_source="wpe_supplied"),
}
_PRED_FIELDS = dataclasses.fields(convpred.PredConfig)


class ConfigError(ValueError):
    """Invalid configuration or precondition; exits with code 2."""


# ---------------------------------------------------------------------------
# settings

class Setting(NamedTuple):
    kind: type             # int, float, bool, or str (a name or a path)
    default: object        # the value when absent or null; None for a
                           # prediction setting: its algorithm's default
    commands: str          # the commands that take it as a flag and a key
    choices: tuple = ()    # the allowed values, when they are listed
    bounds: tuple = (None, None)  # a number's inclusive range; None: open
    flag: str = None       # None: --name-with-dashes; "": config file only
    many: str = ""         # the commands whose flag appends (a list of values)
    sweep: str = None      # in a sweep file: "scalar", "entry" (in each
                           # algorithm entry), or the key of its list of values


_DB = (-metrics.DB_CAP, metrics.DB_CAP)

# Every setting of every command and sweep: build_parser, _merge_config,
# run_experiment's checks and every typed read (_get) come from this table.
SETTINGS = {
    # scenes: simulate, and each scene of a sweep
    "sample_rate": Setting(int, 16000, "simulate", SUPPORTED_RATES, sweep="scalar"),
    "duration_s": Setting(float, 4.0, "simulate", sweep="scalar"),
    "seed": Setting(int, 0, "simulate dereverb", bounds=(0, None), sweep="seeds"),
    "t60": Setting(float, 0.4, "simulate", bounds=(0, 10), sweep="t60"),
    "snr_db": Setting(float, None, "simulate", bounds=_DB, sweep="snr_db"),
    "n_sources": Setting(int, 1, "simulate", bounds=(1, None), sweep="scalar"),
    "early_only": Setting(bool, False, "simulate", sweep="scalar"),
    "normalize": Setting(bool, True, "simulate", flag=""),
    # files
    "out_dir": Setting(str, ".", "simulate"),
    "mixture": Setting(str, None, "dereverb"),
    "reference": Setting(str, None, "dereverb evaluate", many="dereverb"),
    "estimate": Setting(str, None, "dereverb evaluate", many="dereverb"),
    "output": Setting(str, None, "dereverb experiment"),
    "report": Setting(str, None, "dereverb evaluate"),
    "encoding": Setting(str, "float32", "simulate dereverb", ENCODINGS),
    "sweep": Setting(str, None, "experiment", flag="--config"),
    "csv": Setting(str, None, "experiment"),
    # estimates and metrics
    "estimate_mode": Setting(str, "oracle", "dereverb",
                             ("oracle", "degraded", "external")),
    "estimate_error_snr_db": Setting(float, None, "dereverb", bounds=_DB,
                                     sweep="estimate_error_snr_db"),
    # max_lag lies in [1, n // 2] for n-sample signals (_max_lag)
    "max_lag": Setting(int, 512, "dereverb evaluate", sweep="scalar"),
    # prediction: ALGORITHMS decides which of these apply, and the defaults
    "algorithm": Setting(str, "fcp", "dereverb", tuple(ALGORITHMS), sweep="algorithms"),
    # taps + delay is at most the mixture's frame count (run_algorithm)
    "taps": Setting(int, None, "dereverb", bounds=(1, None), sweep="entry"),
    "delay": Setting(int, None, "dereverb", bounds=(0, None), sweep="entry"),
    # eps lies in (0, 1] (PredConfig)
    "eps": Setting(float, None, "dereverb", sweep="entry"),
    "lambda_mode": Setting(str, None, "dereverb", convpred.LAMBDA_MODES,
                           sweep="entry"),
    "diag_load": Setting(float, None, "dereverb", bounds=(0, None), sweep="entry"),
    "iters": Setting(int, None, "dereverb", bounds=(1, None), sweep="entry"),
    "passes": Setting(int, 1, "dereverb", bounds=(1, None), sweep="entry"),
}


def _keys(command):
    """The settings ``command`` takes."""
    return [k for k, s in SETTINGS.items() if command in s.commands.split()]


def _get(config, name, command=None):
    """Setting ``name`` of ``config``, checked against its SETTINGS entry.

    An absent or null value is the default. Any other must be of the
    setting's type: true or false for a flag and for no other setting, a
    string (or, where the flag of ``command`` appends, a list of strings),
    or a finite number that an integer setting does not truncate (2.7 is
    not 2); and among the setting's choices or within its bounds. Raises a
    ConfigError naming the setting otherwise.
    """
    spec = SETTINGS[name]
    val = config.get(name)
    if val is None:
        return spec.default
    if spec.kind is bool or isinstance(val, bool):
        if spec.kind is not bool:
            raise ConfigError(f"{name} must not be true/false; got {val!r}")
        if not isinstance(val, bool):
            raise ConfigError(f"{name} must be true or false; got {val!r}")
    elif spec.kind is str:
        if not (isinstance(val, str) or command in spec.many.split()
                and isinstance(val, list) and all(isinstance(v, str) for v in val)):
            raise ConfigError(f"{name} must be a string; got {val!r}")
    else:
        try:
            num = spec.kind(val) if isinstance(val, numbers.Real) else None
            finite = num is not None and math.isfinite(num)
        except (ValueError, OverflowError):
            finite = False
        if not finite:
            raise ConfigError(f"{name} must be a finite number; got {val!r}")
        if num != val:
            raise ConfigError(f"{name} must be an integer; got {val!r}")
        val = num
    if spec.choices and val not in spec.choices:
        raise ConfigError(f"{name} must be one of "
                          f"{', '.join(map(str, spec.choices))}; got {val!r}")
    low, high = spec.bounds
    if low is not None and val < low:
        raise ConfigError(f"{name} must be >= {low:g}")
    if high is not None and val > high:
        raise ConfigError(f"{name} must be <= {high:g}")
    return val


# ---------------------------------------------------------------------------
# config plumbing

def _algorithm(name):
    """The ALGORITHMS entry ``name``; a missing name is an error, not the
    default."""
    if not (isinstance(name, str) and name in ALGORITHMS):
        raise ConfigError(f"algorithm must be one of {tuple(ALGORITHMS)}; got {name!r}")
    return ALGORITHMS[name]


def _prediction(name, given):
    """The validated PredConfig of algorithm ``name`` with the explicit
    settings ``given``, and the settings it applies."""
    algo = ALGORITHMS[name]
    ignored = [k for k in given if k not in algo.settings]
    if ignored:
        raise ConfigError(f"algorithm {name!r} does not use {', '.join(ignored)} "
                          f"(it uses {', '.join(algo.settings)})")
    typed = {k: _get(given, k) for k in given if given[k] is not None}
    try:
        pred = algo.defaults(**typed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if "delay" in algo.settings and pred.delay < 1:
        raise ConfigError(
            "WPE requires a prediction delay >= 1: with delay 0 the identity "
            "filter solves the problem exactly and nothing is removed")
    return pred, {k: getattr(pred, k) for k in algo.settings}


def load_config(path):
    """The JSON object in file ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top-level JSON object expected")
    return config


def _merge_config(args, command):
    """defaults < --config file < explicit flags.

    A file key ``command`` does not take is an error and a ``null`` value
    means the default. Every other value must pass ``_get``.
    """
    keys = _keys(command)
    config = {}
    if getattr(args, "config", None):
        file_cfg = load_config(args.config)
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
    for key in config:
        _get(config, key, command)
    return config


def _check_finite(x, what):
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"{what} contains non-finite values")
    return x


# ---------------------------------------------------------------------------
# simulate

def _build_scene(config):
    fs = _get(config, "sample_rate")
    duration = _get(config, "duration_s")
    # rounds to 2 samples or more (a source has a mean and a deviation), and
    # to no more than numpy can index
    if not 1.5 <= duration * fs <= sys.maxsize:
        raise ConfigError(f"duration_s must give at least 2 samples at {fs} Hz, "
                          f"and at most {sys.maxsize}; got {duration}")
    n = round(duration * fs)
    seed = _get(config, "seed")
    t60 = _get(config, "t60")
    n_sources = _get(config, "n_sources")
    # source c's direct path arrives 3 + 4c ms in, on sample n - 1 at the
    # latest (a lone source always renders)
    most = max(1, math.floor(((n - 1) / fs - 0.003) / 0.004) + 1)
    if n_sources > most:
        raise ConfigError(f"n_sources must be <= {most} for a {duration} s scene")
    snr_db = _get(config, "snr_db")
    early_only = _get(config, "early_only")

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
    return render_scene(dry, rirs, noise=noise, snr_db=snr_db,
                        normalize=_get(config, "normalize"))


def cmd_simulate(config):
    """Render a scene to WAV files plus a manifest JSON."""
    out_dir = Path(_get(config, "out_dir"))
    encoding = _get(config, "encoding")
    scene = _build_scene(config)
    out_dir.mkdir(parents=True, exist_ok=True)
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


# The estimate settings that each estimate mode applies. An algorithm that
# reads no estimate applies none of them.
_ESTIMATE_SETTINGS = {"oracle": ("estimate_mode",),
                      "degraded": ("estimate_mode", "estimate_error_snr_db", "seed"),
                      "external": ("estimate_mode", "estimate")}


def _check_estimate_settings(config, name):
    """Reject each explicit estimate setting that algorithm ``name`` does not
    apply with the configured estimate mode."""
    mode = _get(config, "estimate_mode")
    reads = ALGORITHMS[name].reads_estimate
    applied = _ESTIMATE_SETTINGS[mode] if reads else ()
    unused = [k for k in ("estimate_mode", "estimate", "estimate_error_snr_db", "seed")
              if config.get(k) is not None and k not in applied]
    if unused:
        raise ConfigError(f"{', '.join(unused)} not used by algorithm {name!r}"
                          + (f" with estimate_mode {mode!r}" if reads
                             else ", which reads no target estimate"))
    if mode == "degraded" and reads and config.get("estimate_error_snr_db") is None:
        raise ConfigError("estimate_mode 'degraded' needs estimate_error_snr_db")


def _build_estimates(config, name, refs, cfg, n_samples):
    """The estimate STFTs algorithm ``name`` reads: estimate i is degraded
    with seed ``seed + i``. External estimates are all loaded and checked,
    read or not."""
    if _get(config, "estimate_mode") == "external":
        paths = _get(config, "estimate", "dereverb")
        if not paths:
            raise ConfigError("estimate_mode 'external' needs estimate path(s)")
        signals, _ = _load_signals(paths, cfg.sample_rate, n_samples, "estimate")
    else:
        signals = refs
    signals = signals[:_estimates_read(ALGORITHMS[name], len(signals))]
    if ALGORITHMS[name].reads_estimate and not signals:
        raise ConfigError(
            f"algorithm {name!r} needs --reference signals (or external estimates)")
    seed = _get(config, "seed")
    return target_estimates(signals, cfg, _get(config, "estimate_error_snr_db"),
                            [seed + i for i in range(len(signals))])


def run_algorithm(name, pred, mix_spec, ests, passes=1, n_samples=None):
    """Run one algorithm on the estimates it reads (the first only for a
    multi-pass one). A per-source algorithm runs its family once on each
    estimate. Passes after the first take the previous output, through a
    time-domain round trip, as their estimate (so multi-pass runs compose
    exactly like re-running the tool on its own output).

    Args:
        mix_spec: mixture ComplexSpectrogram.
        ests: list of T x F estimate arrays (empty for vanilla WPE).
        n_samples: mixture length, required for passes > 1.

    Returns:
        list of T x F output arrays.
    """
    algo = _algorithm(name)
    passes = _get({"passes": passes}, "passes")
    if passes > 1 and not algo.multi_pass:
        raise ConfigError(f"passes > 1 applies to single-estimate algorithms, "
                          f"not {name!r}")
    if passes > 1 and n_samples is None:
        raise ConfigError("passes > 1 needs the mixture sample count")
    if algo.reads_estimate and not ests:
        raise ConfigError(f"algorithm {name!r} needs a target estimate")
    frames = mix_spec.data.shape[0]  # a later tap never sees a frame
    if pred.taps + pred.delay > frames:
        raise ConfigError(f"taps + delay must be <= {frames}, the frame count")
    ests = ests[:_estimates_read(algo, len(ests))]
    if algo.per_source:
        family = ALGORITHMS[algo.per_source]
        return [family.run(mix_spec.data, [est], pred)[0] for est in ests]
    if passes == 1:
        return algo.run(mix_spec.data, ests, pred)
    return [convpred.iterate(
        mix_spec.data, ests[0], lambda y, est: algo.run(y, [est], pred)[0], passes,
        lambda out: analyze(synthesize(mix_spec.with_data(out), n_samples),
                            mix_spec.config).data)]


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


def _max_lag(config, n_samples):
    """The metrics' GCC-PHAT lag range, checked against the length of the
    signals: n_samples >= SDR_TAPS and 1 <= max_lag <= n_samples // 2."""
    if n_samples < metrics.SDR_TAPS:
        raise ConfigError(f"the metrics need signals of at least "
                          f"{metrics.SDR_TAPS} samples; got {n_samples}")
    max_lag = _get(config, "max_lag")
    if not 1 <= max_lag <= n_samples // 2:
        raise ConfigError(f"max_lag must be in [1, {n_samples // 2}] for "
                          f"{n_samples}-sample signals; got {max_lag}"
                          + (" (the default)" if config.get("max_lag") is None
                             else ""))
    return max_lag


def _write_json(path, obj):
    if path:  # else the setting that names the file is unset
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")


def cmd_dereverb(config):
    """Run one algorithm on a mixture WAV; write enhanced WAV(s) + report."""
    mixture_path = _get(config, "mixture")
    if not mixture_path:
        raise ConfigError("a mixture WAV is required")
    name = _get(config, "algorithm")
    given = {f.name: config[f.name] for f in _PRED_FIELDS
             if config.get(f.name) is not None}
    pred, applied = _prediction(name, given)
    _check_estimate_settings(config, name)
    passes = _get(config, "passes")
    ref_paths = _get(config, "reference", "dereverb")
    if config.get("max_lag") is not None and not ref_paths:
        raise ConfigError("max_lag sets the lag range of the metrics, which "
                          "need --reference signals")

    mixture, fs = _load_signals([mixture_path], what="mixture")
    mixture = mixture[0]
    max_lag = _max_lag(config, mixture.size) if ref_paths else None
    try:
        cfg = StftConfig.for_rate(fs)
    except ValueError as exc:
        raise ConfigError(f"{mixture_path}: {exc}") from exc
    mix_tf = analyze(mixture, cfg)

    refs, _ = _load_signals(ref_paths or [], fs, mixture.size, "reference")

    ests = _build_estimates(config, name, refs, cfg, mixture.size)
    n_outputs = _n_outputs(ALGORITHMS[name], ests)
    if refs and len(refs) < n_outputs:
        raise ConfigError(f"algorithm {name!r} writes {n_outputs} outputs and "
                          f"scores each against its own reference; got "
                          f"{len(refs)} reference(s)")

    outputs = _enhanced(mix_tf, run_algorithm(name, pred, mix_tf, ests, passes,
                                              mixture.size), mixture.size)

    written = []
    if _get(config, "output"):
        out_path = Path(_get(config, "output"))
        for c, sig in enumerate(outputs):  # out.wav, or out_0.wav, out_1.wav, ...
            p = out_path if len(outputs) == 1 else out_path.with_name(
                f"{out_path.stem}_{c}{out_path.suffix}")
            write_wav(p, sig, fs, _get(config, "encoding"))
            written.append(str(p))

    report = {
        "schema_version": SCHEMA_VERSION,
        "algorithm": name,
        "pred": applied,
        "estimate_mode": (_get(config, "estimate_mode")
                          if ALGORITHMS[name].reads_estimate else None),
        "passes": passes,
        "sample_rate": fs,
        "outputs": written,
    }
    if refs:
        report["metrics"] = _Scores(mixture, refs).per_source(outputs, max_lag)
    _write_json(_get(config, "report"), report)
    return report


# ---------------------------------------------------------------------------
# evaluate

def cmd_evaluate(config):
    est_path = _get(config, "estimate")
    ref_path = _get(config, "reference")
    if not est_path or not ref_path:
        raise ConfigError("evaluate needs an estimate WAV and a reference WAV")
    est, fs = _load_signals([est_path], what="estimate")
    ref, _ = _load_signals([ref_path], fs, est[0].size, "reference")
    scores = metrics.evaluate_pair(est[0], ref[0], _max_lag(config, est[0].size))
    report = {"schema_version": SCHEMA_VERSION, "sample_rate": fs,
              **scores.to_dict()}
    _write_json(_get(config, "report"), report)
    return report


# ---------------------------------------------------------------------------
# experiment

def _sweep_algorithms(entries):
    """(name, explicit settings, entry, row settings) per algorithm entry.
    Row settings are the applied ones (the given ones if invalid) and passes."""
    out = []
    for entry in entries:
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict):
            raise ConfigError(f"an algorithm entry must be a name or an "
                              f"object; got {entry!r}")
        name = entry.get("name")
        _algorithm(name)  # an unknown or missing name fails the whole sweep
        given = {k: v for k, v in entry.items() if k not in ("name", "passes")}
        try:
            settings = _prediction(name, given)[1]
        except ConfigError:  # each of the entry's rows records the error
            settings = dict(given)
        if "passes" in entry:
            settings["passes"] = entry["passes"]
        out.append((name, given, entry, settings))
    return out


def _sweep_estimates(scene, cfg, point, count):
    """Oracle (no estimate error at ``point``) or degraded STFTs of the
    first ``count`` direct paths; direct path c is degraded with seed
    ``seed + 7919 (c + 1)``."""
    seed = _get(point, "seed")
    return target_estimates(scene.direct[:count], cfg,
                            _get(point, "estimate_error_snr_db"),
                            [seed + 7919 * (c + 1) for c in range(count)])


def _sweep_row_metrics(point, name, given, entry, scene, mix_tf, ests, solved,
                       scores):
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
    passes = _get(entry, "passes")
    family = (algo.per_source if passes == 1 else None) or name
    est_err = point["estimate_error_snr_db"] if algo.reads_estimate else None
    keys = [(family, pred, passes, c, est_err)
            for c in range(_n_outputs(algo, ests))]
    missing = [c for c, key in enumerate(keys) if key not in solved]
    if missing:
        outputs_tf = run_algorithm(
            name, pred, mix_tf, [ests[c] for c in missing] if algo.per_source
            else ests, passes, scene.n_samples)
        entries = scores.per_source(
            _enhanced(mix_tf, outputs_tf, scene.n_samples),
            _max_lag(point, scene.n_samples), missing)
        solved.update(zip([keys[c] for c in missing], entries))
    return [solved[key] for key in keys]


def _scene_rows(point, est_errs, algorithms):
    """The rows of one sweep point (the sweep's scalar settings, a seed, a
    t60 and an snr_db), estimate error by algorithm."""
    if not (est_errs and algorithms):
        return []  # no rows: render nothing
    scene_error = None
    try:
        scene = _build_scene(point)
        mix_tf = analyze(scene.y, StftConfig.for_rate(scene.sample_rate))
        scores = _Scores(scene.y, scene.direct)
        n_ests = max(_estimates_read(ALGORITHMS[name], scene.n_sources)
                     for name, *_ in algorithms)
        typed = {"seed": _get(point, "seed"), "t60": _get(point, "t60")}
    except Exception as exc:  # recorded in each of its rows
        scene_error = str(exc)
    solved = {}
    rows = []
    for est_err in est_errs:
        at = {**point, "estimate_error_snr_db": est_err}
        ests, est_error = [], scene_error
        if scene_error is None:
            try:
                ests = _sweep_estimates(scene, mix_tf.config, at, n_ests)
            except Exception as exc:  # recorded in each row that reads them
                est_error = str(exc)
        for name, given, entry, settings in algorithms:
            error = est_error if ALGORITHMS[name].reads_estimate else scene_error
            if error is None:
                try:
                    per_source = _sweep_row_metrics(
                        at, name, given, entry, scene, mix_tf, ests, solved,
                        scores)
                except Exception as exc:  # recorded, sweep continues
                    error = str(exc)
            row = {"seed": point["seed"], "t60": point["t60"],
                   "snr_db": point["snr_db"], "estimate_error_snr_db": est_err,
                   "algorithm": name, "settings": settings,
                   "metrics": None, "error": error}
            if error is None:  # a failed row keeps the config's seed and t60
                row.update(typed, metrics=copy.deepcopy(per_source))
            rows.append(row)
    return rows


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
    unknown key, a bad scalar setting, a list that is not a list or a bad
    seed is a ConfigError before any work; another bad value in a list
    fails only the rows that use it.
    """
    scalars = [k for k, s in SETTINGS.items() if s.sweep == "scalar"]
    lists = {s.sweep: k for k, s in SETTINGS.items()
             if s.sweep not in (None, "scalar", "entry")}
    keys = scalars + list(lists)
    unknown = [k for k in sweep if k not in keys]
    if unknown:
        raise ConfigError(f"unknown sweep setting(s) {', '.join(map(repr, unknown))}; "
                          f"a sweep takes {', '.join(keys)}")
    point = {k: sweep[k] for k in scalars if k in sweep}
    for key in point:
        _get(point, key)
    values = {}
    for key, name in lists.items():  # no seeds: no scenes
        values[name] = sweep.get(key, [] if key == "seeds"
                                 else [SETTINGS[name].default])
        if not isinstance(values[name], list):
            raise ConfigError(f"{key} must be a list; got {values[name]!r}")
    for seed in values["seed"]:
        _get({"seed": seed}, "seed")
    algorithms = _sweep_algorithms(values["algorithm"])

    rows = []
    for seed in values["seed"]:
        for t60 in values["t60"]:
            for snr_db in values["snr_db"]:
                rows += _scene_rows({**point, "seed": seed, "t60": t60,
                                     "snr_db": snr_db},
                                    values["estimate_error_snr_db"], algorithms)

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
    entry = [k for k, s in SETTINGS.items() if s.sweep == "entry"]
    fields = ["seed", "t60", "snr_db", "estimate_error_snr_db", "algorithm",
              *entry, "source", "si_sdr_unprocessed_db", "si_sdr_db",
              "sdr_512_db", "gcc_phat_delay", "error"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in result["rows"]:
            base = {
                "seed": row["seed"], "t60": row["t60"], "snr_db": row["snr_db"],
                "estimate_error_snr_db": row["estimate_error_snr_db"],
                "algorithm": row["algorithm"],
                **{k: row["settings"].get(k) for k in entry},
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
    sweep_path = _get(config, "sweep")
    sweep = load_config(sweep_path) if sweep_path else {
        k: v for k, v in config.items() if k not in _keys("experiment")}
    result = run_experiment(sweep)
    _write_json(_get(config, "output"), result)
    if _get(config, "csv"):
        _write_csv(result, _get(config, "csv"))
    return result


# ---------------------------------------------------------------------------
# argument parsing

# Each command's help line and function.
_COMMANDS = {
    "simulate": ("render a synthetic scene to WAV files", cmd_simulate),
    "dereverb": ("dereverberate a mixture WAV", cmd_dereverb),
    "evaluate": ("compute metrics for an estimate/reference pair", cmd_evaluate),
    "experiment": ("run a sweep described by a JSON config", cmd_experiment),
}


@functools.cache
def build_parser():
    """One subcommand per command, one flag per setting it takes (SETTINGS),
    and --config for a JSON file of settings unless a setting takes it.
    Built once per process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="dereverb",
        description="Monaural dereverberation toolkit: simulate scenes, run "
                    "WPE/ICP/FCP, evaluate, and sweep experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        keys = _keys(command)
        if all(SETTINGS[k].flag != "--config" for k in keys):
            p.add_argument("--config")
        for key in keys:
            spec = SETTINGS[key]
            flag = spec.flag if spec.flag is not None else (
                "--" + key.replace("_", "-"))
            if not flag:
                continue
            if spec.kind is bool:  # the flag stores true
                p.add_argument(flag, dest=key, action="store_const", const=True)
            elif command in spec.many.split():
                p.add_argument(flag, dest=key, action="append")
            elif spec.kind is str:
                p.add_argument(flag, dest=key, choices=spec.choices or None)
            else:
                p.add_argument(flag, dest=key, type=spec.kind)
    return parser


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
    args = build_parser().parse_args(argv)
    with _one_blas_thread():
        try:
            config = _merge_config(args, args.command)
            result = _COMMANDS[args.command][1](config)
            if not (args.command == "experiment" and config.get("output")):
                json.dump(result, sys.stdout, indent=2, sort_keys=True)
                sys.stdout.write("\n")
            return EXIT_OK
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
        except (FloatingPointError, np.linalg.LinAlgError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except ValueError as exc:               # ConfigError among them
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
