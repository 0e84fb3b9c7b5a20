"""The benchmark's workloads: seeded input generation, the CLI calls each
workload makes, and the checks every call's outputs must pass.

Every call goes through ``dereverb.cli.main`` in-process, looked up on the
module at call time so that a traced run reaches the wrapped function. The
program only ever receives files and flags; all randomness is drawn here
from the workload seed.
"""

import contextlib
import hashlib
import io
import json
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from dereverb import cli, scene, wavio

T60_RANGE = (0.3, 0.6)
SNR_DB = 20.0
EVAL_ERROR_SNR_DB = 10.0
SWEEP_ALGORITHMS = ("fcp", "icp", "wpe_supplied", "wpe_vanilla",
                    "fcp_per_source", "wpe_mf")
SWEEP_T60 = (0.3, 0.6)
SWEEP_ERRORS = (None, 10.0)
MULTI_OUTPUT = ("fcp_per_source", "wpe_mf")
GAIN_TOL_DB = 1e-6       # repeat tolerance for per-output SI-SDR gains
WAV_TOL_DB = 1e-3        # report vs. SI-SDR recomputed from the float32 WAV


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload. ``kind`` picks the CLI command."""

    name: str
    kind: str                 # 'dereverb', 'evaluate' or 'sweep'
    sample_rate: int = 16000
    duration_s: float = 4.0
    n_scenes: int = 16        # scenes rendered in set-up, or sweep seeds
    n_sources: int = 1
    neighbour: bool = False   # hash in a background thread while timed


SPECS = {s.name: s for s in (
    Spec("dereverb-16k", "dereverb"),
    Spec("cotenant-16k", "dereverb", neighbour=True),
    Spec("sweep-8k", "sweep", sample_rate=8000, n_scenes=1, n_sources=2),
    Spec("evaluate-16k", "evaluate"),
)}


class CheckFailed(Exception):
    """A call's outputs broke the correctness gate."""


@dataclass
class Call:
    """One CLI invocation. ``key`` names its input for the repeat check."""

    argv: list
    key: str
    audio_s: float
    check: object             # callable(stdout_text) -> {name: number}


@dataclass
class CallLog:
    """Runs calls, times them, and gates their outputs."""

    exact: bool
    attempted: int = 0
    failures: list = field(default_factory=list)
    first: dict = field(default_factory=dict)

    def run(self, call):
        """Run one call; return its wall time in seconds."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        rc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(call.argv)
        except (Exception, SystemExit) as exc:  # recorded as a failed call
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        try:
            if rc != 0:
                raise CheckFailed(f"exit code {rc}: {err.getvalue().strip()[-300:]}")
            values = call.check(out.getvalue())
            ref = self.first.setdefault(call.key, values)
            if values.keys() != ref.keys():
                raise CheckFailed("outputs differ from the first call on this input")
            for name, value in values.items():
                same = (value == ref[name] if self.exact
                        else abs(value - ref[name]) <= GAIN_TOL_DB)
                if not same:
                    raise CheckFailed(f"{name} = {value!r}, first call gave {ref[name]!r}")
        except CheckFailed as exc:
            self.failures.append({"call": self.attempted - 1, "input": call.key,
                                  "reason": str(exc)})
        return elapsed


# ---------------------------------------------------------------------------
# output checks

def _finite_numbers(obj, where):
    """Raise CheckFailed if any number inside a JSON value is not finite."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _finite_numbers(v, f"{where}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _finite_numbers(v, f"{where}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise CheckFailed(f"{where} is not finite")


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path}: {exc}") from exc


def _read_wav(path):
    """Samples as float64, read without the program's own reader."""
    try:
        _, data = wavfile.read(path)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path}: {exc}") from exc
    data = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path}: non-finite samples")
    return data


def si_sdr_db(est, ref):
    """Scale-invariant SDR in dB, computed independently of the program."""
    alpha = float(est @ ref) / float(ref @ ref)
    err = est - alpha * ref
    return 10.0 * math.log10(alpha * alpha * float(ref @ ref) / float(err @ err))


def _near(label, reported, recomputed, tol):
    if abs(reported - recomputed) > tol:
        raise CheckFailed(f"{label}: report says {reported!r}, "
                          f"recomputed {recomputed!r}")


# ---------------------------------------------------------------------------
# workloads

class SceneWorkload:
    """Single-source scenes rendered to WAV in set-up with ``simulate``."""

    def __init__(self, spec, seed, work_dir):
        self.spec = spec
        self.work = Path(work_dir)
        rng = np.random.default_rng(seed)
        self.scene_seeds = [int(s) for s in rng.integers(0, 2 ** 31 - 1, spec.n_scenes)]
        self.t60s = [float(t) for t in np.linspace(*T60_RANGE, spec.n_scenes)]
        self.aux_seeds = [int(s) for s in rng.integers(0, 2 ** 31 - 1, spec.n_scenes)]
        self.n_samples = int(round(spec.duration_s * spec.sample_rate))
        self._ref_cache = {}

    def scene_dir(self, i):
        return self.work / f"scene{i}"

    def setup(self):
        """Render every scene; returns the number of distinct scenes."""
        for i, (seed, t60) in enumerate(zip(self.scene_seeds, self.t60s)):
            _setup_call(["simulate", "--out-dir", str(self.scene_dir(i)),
                         "--seed", str(seed), "--t60", repr(t60),
                         "--snr-db", repr(SNR_DB),
                         "--sample-rate", str(self.spec.sample_rate),
                         "--duration-s", repr(self.spec.duration_s)])
        (self.work / "out").mkdir(exist_ok=True)
        return self.spec.n_scenes

    def warmup_call(self):
        return self.calls()[0]

    def _wav(self, path):
        """Input WAVs do not change during a run, so read each once."""
        if path not in self._ref_cache:
            self._ref_cache[path] = _read_wav(path)
        return self._ref_cache[path]


class DereverbWorkload(SceneWorkload):
    """``dereverb dereverb``: FCP with an oracle estimate and a reference."""

    exact = False

    def calls(self):
        out = []
        for i in range(self.spec.n_scenes):
            d = self.scene_dir(i)
            wav = self.work / "out" / f"enh{i}.wav"
            report = self.work / "out" / f"enh{i}.json"
            argv = ["dereverb", "--mixture", str(d / "y.wav"),
                    "--reference", str(d / "s.wav"), "--algorithm", "fcp",
                    "--output", str(wav), "--report", str(report)]
            out.append(Call(argv, f"scene{i}", self.spec.duration_s,
                            lambda text, i=i, wav=wav, report=report:
                            self._check(i, text, wav, report)))
        return out

    def _check(self, i, text, wav, report_path):
        report = _read_json(report_path)
        if json.loads(text) != report:
            raise CheckFailed("stdout and --report differ")
        _finite_numbers(report, "report")
        (m,) = report["metrics"]
        enhanced = _read_wav(wav)
        if enhanced.size != self.n_samples:
            raise CheckFailed(f"output has {enhanced.size} samples, "
                              f"expected {self.n_samples}")
        ref = self._wav(str(self.scene_dir(i) / "s.wav"))
        mix = self._wav(str(self.scene_dir(i) / "y.wav"))
        _near("enhanced si_sdr_db", m["enhanced"]["si_sdr_db"],
              si_sdr_db(enhanced, ref), WAV_TOL_DB)
        _near("unprocessed si_sdr_db", m["unprocessed"]["si_sdr_db"],
              si_sdr_db(mix, ref), WAV_TOL_DB)
        gain = m["enhanced"]["si_sdr_db"] - m["unprocessed"]["si_sdr_db"]
        if gain <= 0.0:
            raise CheckFailed(f"FCP with an oracle estimate lost {-gain:.3g} dB SI-SDR")
        return {"gain": gain}

    @staticmethod
    def gain(first):
        return statistics.fmean(v["gain"] for v in first.values())


class EvaluateWorkload(SceneWorkload):
    """``dereverb evaluate`` on (mixture, direct path) and (degraded direct
    path, direct path) pairs."""

    exact = True

    def setup(self):
        n = super().setup()
        for i, seed in enumerate(self.aux_seeds):
            d = self.scene_dir(i)
            s, fs = wavio.read_wav(d / "s.wav")
            wavio.write_wav(d / "s_degraded.wav",
                            scene.degrade(s, EVAL_ERROR_SNR_DB, seed), fs)
        return n

    def calls(self):
        out = []
        for i in range(self.spec.n_scenes):
            d = self.scene_dir(i)
            for kind, est in (("mix", "y.wav"), ("deg", "s_degraded.wav")):
                report = self.work / "out" / f"{kind}{i}.json"
                argv = ["evaluate", "--estimate", str(d / est),
                        "--reference", str(d / "s.wav"), "--report", str(report)]
                out.append(Call(argv, f"{kind}{i}", self.spec.duration_s,
                                lambda text, est=str(d / est), ref=str(d / "s.wav"),
                                report=report: self._check(text, est, ref, report)))
        return out

    def _check(self, text, est, ref, report_path):
        report = _read_json(report_path)
        if json.loads(text) != report:
            raise CheckFailed("stdout and --report differ")
        _finite_numbers(report, "report")
        _near("si_sdr_db", report["si_sdr_db"],
              si_sdr_db(self._wav(est), self._wav(ref)), 1e-9)
        return report

    @staticmethod
    def gain(first):
        mix = [v["si_sdr_db"] for k, v in first.items() if k.startswith("mix")]
        deg = [v["si_sdr_db"] for k, v in first.items() if k.startswith("deg")]
        return statistics.fmean(deg) - statistics.fmean(mix)


class SweepWorkload:
    """``dereverb experiment`` over t60 x estimate error x algorithm on
    multi-source scenes, writing JSON and CSV."""

    exact = False

    def __init__(self, spec, seed, work_dir):
        self.spec = spec
        self.work = Path(work_dir)
        rng = np.random.default_rng(seed)
        self.scene_seeds = [int(s) for s in rng.integers(0, 2 ** 31 - 1, spec.n_scenes)]

    def _sweep(self, seeds, t60s, errors, algorithms):
        return {"sample_rate": self.spec.sample_rate,
                "duration_s": self.spec.duration_s,
                "n_sources": self.spec.n_sources, "seeds": list(seeds),
                "t60": list(t60s), "snr_db": [SNR_DB],
                "estimate_error_snr_db": list(errors),
                "algorithms": list(algorithms)}

    def setup(self):
        """Write the sweep configs; returns the distinct scenes per sweep."""
        self.work.mkdir(parents=True, exist_ok=True)
        for name, sweep in (("sweep", self._sweep(self.scene_seeds, SWEEP_T60,
                                                  SWEEP_ERRORS, SWEEP_ALGORITHMS)),
                            ("warmup", self._sweep(self.scene_seeds[:1], SWEEP_T60[:1],
                                                   [None], ["fcp"]))):
            with open(self.work / f"{name}.json", "w", encoding="utf-8") as fh:
                json.dump(sweep, fh, indent=2)
        return len(self.scene_seeds) * len(SWEEP_T60)

    def _call(self, name, seeds, t60s, errors, algorithms):
        rows = len(seeds) * len(t60s) * len(errors) * len(algorithms)
        outputs = len(seeds) * len(t60s) * len(errors) * sum(
            self.spec.n_sources if a in MULTI_OUTPUT else 1 for a in algorithms)
        out_json = self.work / f"{name}_out.json"
        out_csv = self.work / f"{name}_out.csv"
        argv = ["experiment", "--config", str(self.work / f"{name}.json"),
                "--output", str(out_json), "--csv", str(out_csv)]
        return Call(argv, name, rows * self.spec.duration_s,
                    lambda text: self._check(out_json, out_csv, rows, outputs))

    def calls(self):
        return [self._call("sweep", self.scene_seeds, SWEEP_T60, SWEEP_ERRORS,
                           SWEEP_ALGORITHMS)]

    def warmup_call(self):
        return self._call("warmup", self.scene_seeds[:1], SWEEP_T60[:1], [None], ["fcp"])

    def _check(self, out_json, out_csv, n_rows, n_outputs):
        result = _read_json(out_json)
        rows = result.get("rows", [])
        if len(rows) != n_rows:
            raise CheckFailed(f"{len(rows)} sweep rows, expected {n_rows}")
        values = {}
        for r, row in enumerate(rows):
            if row["error"] is not None:
                raise CheckFailed(f"row {r} ({row['algorithm']}): {row['error']}")
            _finite_numbers(row["metrics"], f"row {r}")
            for m in row["metrics"]:
                values[f"{r}.{m['source']}"] = (m["enhanced"]["si_sdr_db"]
                                                - m["unprocessed"]["si_sdr_db"])
        try:
            with open(out_csv, encoding="utf-8") as fh:
                csv_lines = sum(1 for _ in fh) - 1
        except OSError as exc:
            raise CheckFailed(f"{out_csv}: {exc}") from exc
        if len(values) != n_outputs or csv_lines != n_outputs:
            raise CheckFailed(f"{len(values)} outputs and {csv_lines} CSV rows, "
                              f"expected {n_outputs}")
        if statistics.fmean(values.values()) <= 0.0:
            raise CheckFailed("the sweep's outputs lost SI-SDR on average")
        return values

    @staticmethod
    def gain(first):
        return statistics.fmean(v for k, values in first.items()
                                if k == "sweep" for v in values.values())


KINDS = {"dereverb": DereverbWorkload, "evaluate": EvaluateWorkload,
         "sweep": SweepWorkload}


def make(spec, seed, work_dir):
    return KINDS[spec.kind](spec, seed, work_dir)


def _setup_call(argv):
    """Run a set-up command through the CLI; set-up failures are fatal."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"set-up command {argv[0]} failed ({rc}): {err.getvalue()}")


# ---------------------------------------------------------------------------
# the neighbour

class Neighbour:
    """A background thread that hashes a fixed buffer until stopped.

    hashlib releases the interpreter lock while it hashes, so the thread
    competes with the program for cores, not for the lock.
    """

    CHUNK = bytes(4 << 20)

    def __init__(self):
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._hash, name="neighbour",
                                        daemon=True)
        self.bytes = 0
        self.elapsed = 0.0
        self._t0 = None

    def _hash(self):
        while not self._stop.is_set():
            hashlib.sha256(self.CHUNK).digest()
            self.bytes += len(self.CHUNK)

    def __enter__(self):
        self._t0 = time.perf_counter()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.elapsed = time.perf_counter() - self._t0
        return False

    def cpu_s(self):
        """CPU seconds the neighbour thread has used so far."""
        if not self._thread.is_alive():
            return 0.0
        return time.clock_gettime(time.pthread_getcpuclockid(self._thread.ident))

    @property
    def mb_s(self):
        return self.bytes / 1e6 / self.elapsed if self.elapsed else 0.0


class NoNeighbour:
    bytes = 0
    mb_s = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    @staticmethod
    def cpu_s():
        return 0.0
