"""Smoke run of scripts/run_synthetic_experiment.py at a tiny size."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_experiment_writes_its_report(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_synthetic_experiment.py"),
         "--out-dir", str(tmp_path), "--n-train", "30", "--n-dev", "10", "--n-test", "10",
         "--d", "8", "--ce-iters", "20", "--fcm-iters", "4", "--quiet"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {
        "systems", "utt_ttest_fcm_vs_ce", "wer_delta_points", "guard_tripped",
        "summary_means", "summary_mean_ground_truth", "runtime_s",
    }
    assert [s["label"] for s in report["systems"]] == ["random-init", "ce", "fcm"]
    for system in report["systems"]:
        assert set(system) == {"label", "wer", "ins_rate", "del_rate", "mean_consistency",
                               "consistent_ratio"}
        assert 0.0 <= system["del_rate"] <= 1.0 and system["ins_rate"] >= 0.0
    assert set(report["summary_means"]) == {"ce", "fcm"}
