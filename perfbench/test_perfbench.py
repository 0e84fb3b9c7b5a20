"""Tests of the benchmark itself, on tiny variants of each workload.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

import dereverb.cli
import dereverb.convpred
import dereverb.metrics
import dereverb.stft
import runner
from workloads import SPECS, make

ROOT = Path(__file__).resolve().parent.parent
COUNTS = [name for name, unit in runner.per_layer_units().items() if unit == "count"]
REPEATABLE = COUNTS + ["scene.renders_per_scene", "convpred.solve_wls.gram_gflop"]


def tiny(name):
    return dataclasses.replace(SPECS[name], duration_s=1.0, n_scenes=1)


def test_benchmark_json_names_what_the_code_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(SPECS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == runner.per_layer_units()


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    runs = {}
    for name in SPECS:
        runs[name] = [runner.run(tiny(name), 7, 0, True,
                                 tmp_path_factory.mktemp(f"{name}-{i}"), ROOT)
                      for i in range(2)]
    return runs


@pytest.mark.parametrize("name", list(SPECS))
def test_traced_run_is_correct_and_counts_repeat(traced_twice, name):
    first, second = traced_twice[name]
    for result in (first, second):
        assert result["correct"], result["failures"]
        assert result["failed"] == 0 and result["attempted"] > 0
    for metric in REPEATABLE:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_tracer_reaches_every_binding_and_restores_it(traced_twice):
    values = {k: v for k, (v, _) in traced_twice["dereverb-16k"][0]["metrics"].items()}
    assert values["convpred.solve_wls.calls"] > 0   # via convpred's globals
    assert values["stft.analyze.calls"] > 0         # imported by name into cli
    for fn in (dereverb.cli.main, dereverb.cli.analyze, dereverb.analyze,
               dereverb.convpred.solve_wls, dereverb.stft.analyze):
        assert not hasattr(fn, "__wrapped__"), fn


@pytest.mark.parametrize("name", list(SPECS))
def test_spans_nest_and_self_times_add_up(traced_twice, name):
    for result in traced_twice[name]:
        tracer = result["tracer"]
        assert tracer.spans
        for span in tracer.spans:
            assert span.start <= span.end
            if span.parent is not None:
                assert span.parent.start <= span.start
                assert span.end <= span.parent.end
        assert min(tracer.self_times()) >= 0.0

        values = {k: v for k, (v, _) in result["metrics"].items()}
        parts = [v for k, v in values.items()
                 if k.endswith(".self_s") and not k.startswith("cli.main")]
        parts += [values["trace.other_self_s"], values["trace.unaccounted_s"]]
        assert values["trace.unaccounted_s"] >= 0.0
        assert math.isclose(sum(parts), values["trace.wall_s"], rel_tol=1e-9)


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result = runner.run(tiny("dereverb-16k"), 3, 0, False, tmp_path, ROOT)
    assert result["correct"], result["failures"]
    assert set(result["metrics"]) == set(runner.END_TO_END)
    for name, (value, _) in result["metrics"].items():
        assert math.isfinite(value) and value > 0, name


def test_inputs_depend_on_the_seed(tmp_path):
    a = make(tiny("dereverb-16k"), 1, tmp_path)
    b = make(tiny("dereverb-16k"), 2, tmp_path)
    assert a.scene_seeds != b.scene_seeds
    assert a.scene_seeds == make(tiny("dereverb-16k"), 1, tmp_path).scene_seeds


def test_gate_counts_a_wrong_report_as_failed(tmp_path, monkeypatch):
    si_sdr = dereverb.metrics.si_sdr
    monkeypatch.setattr(dereverb.metrics, "si_sdr", lambda e, r: si_sdr(e, r) + 0.5)
    result = runner.run(tiny("dereverb-16k"), 3, 0, True, tmp_path, ROOT)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "recomputed" in result["failures"][0]["reason"]
