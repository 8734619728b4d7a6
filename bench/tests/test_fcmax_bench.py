"""Tests of the benchmark itself: tiny runs, the tracer, self time and the clock.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import clock as clock_module  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
from clock import Clock, Interval  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_declared_workloads_and_metrics_match_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in doc["workloads"]) == run.WORKLOADS
    assert declared("end_to_end") == dict(run.END_TO_END)
    assert declared("per_layer") == dict(tr.per_layer_metric_names())


@functools.lru_cache(maxsize=None)
def tiny_all(trace: str) -> dict:
    """One tiny run of every workload, shared by the tests below."""
    return result_of(bench("--workload", "all", "--size", "tiny", "--seconds", "0",
                           "--trace", trace))


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_of_every_workload_emits_every_metric(trace, kind):
    result = tiny_all(trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    for workload in run.WORKLOADS:
        got = {k.split(".", 1)[1]: v["unit"] for k, v in result["metrics"].items()
               if k.startswith(workload + ".")}
        assert got == declared(kind)


def test_tiny_traced_run_records_the_training_scoring_and_eval_layers():
    values = {k: v["value"] for k, v in tiny_all("1")["metrics"].items()}
    for span in ("trainer.train_ce", "model.forward_teacher", "model.backward"):
        assert values[f"ce_pretrain.{span}.calls"] > 0, span
    for span in ("trainer.train_fcm", "trainer.decode_corpus_top1", "scorers",
                 "scorers.post_json", "summeval.evaluate_summaries"):
        assert values[f"fcm_remote.{span}.calls"] > 0, span
    assert values["fcm_finetune.scorers.post_json.calls"] == 0
    assert values["fcm_remote.scorers.errors"] == 0
    assert 0.0 <= values["fcm_remote.scorers.repeat_share"] < 1.0


def test_without_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "ce_pretrain", "--seed", "7", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a.x", 1.5, 2.0, 1),
        ("b", 3.0, 6.0, 0),       # overlaps a: the union 1..6 is covered once
        ("c", 9.0, 12.0, 0),      # runs past the root: clipped at 10
    ]
    assert tr.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.5, 0.5, 3.0, 3.0])


def test_tracer_wraps_every_binding_and_restores_them():
    import fcmax
    from fcmax import beam, model

    original = model.forward_teacher
    tracer = tr.Tracer()
    with tracer.installed():
        assert beam.forward_teacher is model.forward_teacher is fcmax.forward_teacher
        assert model.forward_teacher is not original
        model.forward_teacher(model.init_params(4, 3, 5, seed=0), [0, 1], [2, 3, 4])
    assert beam.forward_teacher is original and fcmax.forward_teacher is original
    metrics = tracer.layer_metrics()
    assert metrics["model.forward_teacher.calls"] == 1
    assert metrics["model.encode.calls"] == 1
    assert metrics["model.steps"] == 3


def test_tracer_reports_a_missing_function_without_failing(monkeypatch):
    from fcmax import fcm

    monkeypatch.delattr(fcm, "fcm_corpus_objective")
    tracer = tr.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["fcm.fcm_corpus_objective"]
    metrics = tracer.layer_metrics()
    assert metrics["fcm.fcm_corpus_objective.calls"] == 0
    assert set(metrics) | {"trace.overhead_pct"} == {n for n, _ in tr.per_layer_metric_names()}


def test_clock_normalises_to_the_reference_speed():
    clock = Clock()
    half = clock_module.REF_RATE / 2
    clock.rates = [half, half, half, half]
    assert clock.seconds(Interval(wall=4.0, before=half, after=half)) == pytest.approx(2.0)
    # The interval's own rates count half; the run's median counts the other half.
    fast = clock_module.REF_RATE
    assert clock.seconds(Interval(wall=4.0, before=fast, after=fast)) == pytest.approx(3.0)
