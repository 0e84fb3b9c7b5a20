"""Benchmark of the dereverb CLI, run in-process on seeded inputs.

    python3 perfbench/run.py --workload dereverb-16k --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the repository root. One workload prints human-readable lines
(environment, metrics with units, failed calls) and, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the
per-layer ones, from spans around the public functions of each module.
'--workload all' runs every workload untraced and traced, one process each,
and prints a table of all of them.

Generated inputs live in .perfbench_work/ under the root and are removed
when the run ends.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args):
    import runner
    from workloads import SPECS

    spec = SPECS[args.workload]
    print("# env " + json.dumps(runner.environment(ROOT), sort_keys=True))
    print(f"# workload {spec.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    work_dir = ROOT / ".perfbench_work" / f"{spec.name}-{args.seed}-{os.getpid()}"
    try:
        result = runner.run(spec, args.seed, args.seconds, bool(args.trace),
                            work_dir, ROOT)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    for name, (value, unit) in {**result["metrics"], **result["extra"]}.items():
        print(f"{name:<36} {_fmt(value):>14} {unit}")
    for f in result["failures"]:
        print(f"# FAILED call {f['call']} on {f['input']}: {f['reason']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }))
    return 0


def run_all(args):
    """Each workload, untraced then traced, in its own process."""
    from workloads import SPECS

    results = {}
    for name in SPECS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"# {name} trace {trace} exited with {proc.returncode}")
                return proc.returncode
            results.setdefault(name, {})[f"trace{trace}"] = json.loads(
                proc.stdout.strip().splitlines()[-1])
    print("\n# summary: end-to-end (trace 0) and per-layer (trace 1)")
    names = list(results)
    print(f"{'metric':<36}" + "".join(f"{n:>16}" for n in names) + "  unit")
    for key in ("trace0", "trace1"):
        first = results[names[0]][key]["metrics"]
        for metric, entry in first.items():
            row = "".join(f"{_fmt(results[n][key]['metrics'][metric]['value']):>16}"
                          for n in names)
            print(f"{metric:<36}{row}  {entry['unit']}")
        row = "".join(f"{results[n][key]['failed']}/{results[n][key]['attempted']}"
                      .rjust(16) for n in names)
        print(f"{'failed/attempted (' + key + ')':<36}{row}")
    ok = all(r[k]["correct"] for r in results.values() for k in r)
    print(json.dumps({"correct": ok, "results": results}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dereverb" / "__init__.py").is_file():
        print(f"error: no dereverb sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import SPECS
    if args.workload != "all" and args.workload not in SPECS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join([*SPECS, 'all'])}")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
