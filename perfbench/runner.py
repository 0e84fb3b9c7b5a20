"""One benchmark run: set-up, a closed-loop timed phase and, when traced,
a fixed traced pass; returns the metrics named in BENCHMARK.json.

Nothing here sets BLAS or OpenMP thread variables: how the program uses
the cores is the program's business, and the cotenant workload exists to
show it.
"""

import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import dereverb
from dereverb import cli, convpred, metrics, scene, stft, wavio
from tracing import Tracer
from workloads import CallLog, Neighbour, NoNeighbour, make

SETUP_REPEATS = 3
P90_MIN_CALLS = 100
TRACED_MODULES = (cli, wavio, stft, scene, convpred, metrics)

END_TO_END = {
    "audio_s_per_s": "s/s",
    "call_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# span name -> the per-span fields reported for it
SPAN_FIELDS = {
    "convpred.solve_wls": ("self_s", "calls", "cpu_s", "wait_s", "gram_gflop"),
    "convpred.apply_filter": ("self_s", "calls"),
    "convpred.build_stack": ("calls",),
    "convpred.fcp": ("self_s",),
    "convpred.icp": ("self_s",),
    "convpred.wpe_supplied": ("self_s",),
    "convpred.wpe_vanilla": ("self_s",),
    "convpred.fcp_per_source": ("self_s",),
    "convpred.wpe_multi": ("self_s",),
    "stft.analyze": ("self_s", "calls"),
    "stft.synthesize": ("self_s", "calls"),
    "scene.render_scene": ("self_s", "calls"),
    "scene.gen_rir": ("self_s",),
    "scene.synth_speech": ("self_s",),
    "scene.degrade": ("self_s",),
    "metrics.sdr_512": ("self_s", "calls"),
    "metrics.gcc_phat_delay": ("self_s", "calls"),
    "metrics.si_sdr": ("self_s", "calls"),
    "wavio.read_wav": ("self_s",),
    "wavio.write_wav": ("self_s",),
    "cli.main": ("self_s",),
}
FIELD_UNITS = {"self_s": "s", "calls": "count", "cpu_s": "s", "wait_s": "s",
               "gram_gflop": "GFLOP"}
DERIVED = {
    "quality.si_sdr_gain_db": "dB",
    "convpred.solve_wls.gflop_s": "GFLOP/s",
    "scene.renders_per_scene": "ratio",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.other_self_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_frac": "ratio",
    "neighbour.mb_s": "MB/s",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{span}.{f}": FIELD_UNITS[f]
             for span, fields in SPAN_FIELDS.items() for f in fields}
    units.update(DERIVED)
    return units


def _gram_gflop(stack_src, target, taps, *args, **kwargs):
    """Computed, not measured: 8 F T K (K + 1) flops for the weighted Gram
    and right-hand side of one solve."""
    n_frames, n_bins = np.shape(getattr(stack_src, "data", stack_src))
    return {"gram_gflop": 8.0 * n_bins * n_frames * taps * (taps + 1) / 1e9}


def import_seconds(root):
    """Wall time of importing the CLI in a fresh interpreter."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dereverb.cli"], env=env,
                   cwd=root, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def closed_loop(log, calls, seconds):
    """One caller, no think time: run calls in order until ``seconds`` have
    passed and every call has run at least once.

    Returns (per-call wall times, seconds of input audio, loop wall time).
    """
    durations, audio = [], 0.0
    t0 = time.perf_counter()
    i = 0
    while i < len(calls) or time.perf_counter() - t0 < seconds:
        call = calls[i % len(calls)]
        durations.append(log.run(call))
        audio += call.audio_s
        i += 1
    return durations, audio, time.perf_counter() - t0


def layer_metrics(tracer, distinct_scenes, overhead_frac, neighbour_mb_s, gain):
    """Per-layer metrics from a tracer's spans."""
    summary, unaccounted = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0, "cpu_s": 0.0, "wait_s": 0.0,
             "gram_gflop": 0.0}
    out = {}
    for span, fields in SPAN_FIELDS.items():
        row = {**empty, **summary.get(span, {})}
        for f in fields:
            out[f"{span}.{f}"] = row[f]
    out["quality.si_sdr_gain_db"] = gain
    solve_self = out["convpred.solve_wls.self_s"]
    out["convpred.solve_wls.gflop_s"] = (
        out["convpred.solve_wls.gram_gflop"] / solve_self if solve_self else 0.0)
    out["scene.renders_per_scene"] = out["scene.render_scene.calls"] / distinct_scenes
    out["cli.self_s"] = sum(r["self_s"] for n, r in summary.items()
                            if n.startswith("cli."))
    covered = {s for s, fields in SPAN_FIELDS.items() if "self_s" in fields}
    out["trace.wall_s"] = tracer.wall_s
    out["trace.other_self_s"] = sum(
        r["self_s"] for n, r in summary.items()
        if n not in covered and not n.startswith("cli."))
    out["trace.unaccounted_s"] = unaccounted
    out["trace.overhead_frac"] = overhead_frac
    out["neighbour.mb_s"] = neighbour_mb_s
    return out


def run(spec, seed, seconds, trace, work_dir, root):
    """Run one workload; returns a dict with 'correct', 'attempted',
    'failed', 'metrics' ({name: (value, unit)}), 'extra' (reported but not
    in BENCHMARK.json), 'failures' and, when traced, 'tracer'."""
    wl = make(spec, seed, work_dir)
    neighbour = Neighbour() if spec.neighbour else NoNeighbour()
    tracer = None
    if trace:
        tracer = Tracer(TRACED_MODULES, {"convpred.solve_wls": _gram_gflop},
                        neighbour.cpu_s)
        with tracer:
            distinct = wl.setup()
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            t_import = import_seconds(root)
            t0 = time.perf_counter()
            wl.setup()
            setups.append(t_import + time.perf_counter() - t0)

    log = CallLog(exact=wl.exact)
    calls = wl.calls()
    log.run(wl.warmup_call())
    with neighbour:
        durations, audio, wall = closed_loop(log, calls, seconds)
        if trace:
            with tracer:
                _, t_audio, t_wall = closed_loop(log, calls, 0)

    result = {"correct": not log.failures, "attempted": log.attempted,
              "failed": len(log.failures),
              "failures": log.failures, "tracer": tracer}
    gain = wl.gain(log.first) if log.first else 0.0
    extra = {"calls": (len(durations), "count"),
             "error_rate": (result["failed"] / log.attempted, "ratio"),
             "si_sdr_gain_db": (gain, "dB")}
    if spec.neighbour:
        extra["cotenant_mb_s"] = (neighbour.mb_s, "MB/s")
    if trace:
        overhead = (audio / wall) / (t_audio / t_wall) - 1.0
        units = per_layer_units()
        values = layer_metrics(tracer, distinct, overhead, neighbour.mb_s, gain)
        result["metrics"] = {k: (values[k], units[k]) for k in units}
    else:
        if len(durations) >= P90_MIN_CALLS:
            extra["call_p90_s"] = (statistics.quantiles(durations, n=10)[8], "s")
        values = {
            "audio_s_per_s": audio / wall,
            "call_p50_s": statistics.median(durations),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["metrics"] = {k: (values[k], u) for k, u in END_TO_END.items()}
    result["extra"] = extra
    return result


def environment(root):
    """What the numbers depend on besides the code."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    blas = {k: {f: deps.get(k, {}).get(f)
                for f in ("name", "version", "openblas configuration")}
            for k in ("blas", "lapack")}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "dereverb": dereverb.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
    }


def git_commit(root):
    """HEAD commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
