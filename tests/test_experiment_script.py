"""Smoke run of scripts/run_synthetic_experiment.py at a tiny size."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# At 5 test utterances there is one summary window, and at 1 one utterance
# pair too: a t-test with fewer than two pairs prints n/a and reports null.
# The 20 CE iterations run a dev check every 5.
@pytest.mark.parametrize("n_test", ["10", "5", "1"])
def test_tiny_experiment_writes_its_report(tmp_path, n_test):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_synthetic_experiment.py"),
         "--out-dir", str(tmp_path), "--n-train", "30", "--n-dev", "10", "--n-test", n_test,
         "--d", "8", "--ce-iters", "20", "--fcm-iters", "4", "--quiet"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {
        "systems", "utt_ttest_fcm_vs_ce", "wer_delta_points", "guard_tripped",
        "summary_means", "summary_mean_ground_truth", "summary_ttest_fcm_vs_ce", "runtime_s",
        "stage_s",
    }
    assert set(report["stage_s"]) == {"corpus", "ce_train", "fcm_train", "test_eval",
                                      "summaries"}
    assert all(t >= 0.0 for t in report["stage_s"].values())
    assert [s["label"] for s in report["systems"]] == ["random-init", "ce", "fcm"]
    for system in report["systems"]:
        assert set(system) == {"label", "wer", "ins_rate", "del_rate", "mean_consistency",
                               "consistent_ratio"}
        assert 0.0 <= system["del_rate"] <= 1.0 and system["ins_rate"] >= 0.0
    assert set(report["summary_means"]) == {"ce", "fcm"}
    assert ("summary fcm vs ce: n/a" in proc.stdout) == (n_test != "10")
    assert (report["utt_ttest_fcm_vs_ce"] is None) == (n_test == "1")
    assert (report["summary_ttest_fcm_vs_ce"] is None) == (n_test != "10")
    for key in ("utt_ttest_fcm_vs_ce", "summary_ttest_fcm_vs_ce"):
        assert report[key] is None or set(report[key]) == {"t", "p"}
    ce_log = (tmp_path / "ce_metrics.jsonl").read_text().splitlines()
    assert [json.loads(line)["iter"] for line in ce_log] == [5, 10, 15, 20]
