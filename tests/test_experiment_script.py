"""Smoke runs of scripts/run_synthetic_experiment.py at a tiny size, and the
same experiment run through the CLI at its defaults."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fcmax.cli import run
from fcmax.corpus import load_corpus, normalize_text

ROOT = Path(__file__).resolve().parent.parent
# At 300 CE iterations and d 12 the start model passes the deletion guard, so
# the FCM updates run.
TINY = ["--n-train", "30", "--n-dev", "10", "--d", "12", "--ce-iters", "300", "--fcm-iters", "4",
        "--quiet"]


def _run_script(out_dir: Path, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_synthetic_experiment.py"),
         "--out-dir", str(out_dir), *TINY, *argv],
        capture_output=True, text=True, timeout=300, env=env,
    )


# At 5 test utterances there is one summary window, and at 1 one utterance
# pair too: a t-test with fewer than two pairs prints n/a and reports null.
# The 300 CE iterations run a dev check every 75.
@pytest.mark.parametrize("n_test", ["10", "5", "1"])
def test_tiny_experiment_writes_its_report(tmp_path, n_test):
    proc = _run_script(tmp_path, "--n-test", n_test)
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
    assert [json.loads(line)["iter"] for line in ce_log] == [75, 150, 225, 300]
    assert not report["guard_tripped"]
    assert (tmp_path / "fcm.json").read_bytes() != (tmp_path / "ce.json").read_bytes()


@pytest.mark.parametrize("flag, value, setting", [
    ("--fcm-iters", "0", "max_fcm_iterations"),
    ("--fcm-lr", "0", "initial_lr"),
    ("--ce-batch", "0", "batch_size"),
    ("--n-train", "-20", "a split size must be >= 0, got -20"),
], ids=["--fcm-iters", "--fcm-lr", "--ce-batch", "--n-train"])
def test_a_bad_config_fails_before_any_file_is_written(tmp_path, flag, value, setting):
    """Each config is built before the corpus is generated, so a bad FCM
    setting no longer surfaces only after CE training has written its files,
    and the split sizes are checked before any corpus file is written.  As
    from the CLI, the failure is one error line and exit status 2."""
    out = tmp_path / "out"
    proc = _run_script(out, "--n-test", "10", flag, value)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert setting in proc.stderr and "Traceback" not in proc.stderr
    assert list(out.glob("*")) == []


def test_the_cli_at_its_defaults_is_the_scripts_experiment(tmp_path, capsys):
    """gen-data, a split by lines, train-ce and train-fcm, given only the
    sizes, iterations, model size and seeds, write the script's checkpoints;
    decode, then eval-utt and eval-sum on the same corpus and decode file,
    give the script's fcm row and summary scores, bit for bit.  The start
    model passes the deletion guard, so the FCM updates are compared too."""
    seed = 7
    ce_iters, d = (TINY[TINY.index(flag) + 1] for flag in ("--ce-iters", "--d"))
    script, cli = tmp_path / "script", tmp_path / "cli"
    proc = _run_script(script, "--n-test", "10", "--seed", str(seed))
    assert proc.returncode == 0, proc.stderr
    assert not json.loads((script / "report.json").read_text())["guard_tripped"]
    assert (script / "fcm.json").read_bytes() != (script / "ce.json").read_bytes()
    cli.mkdir()
    files = {name: str(cli / name) for name in (
        "full.jsonl", "train.jsonl", "dev.jsonl", "test.jsonl", "ce.json", "fcm.json",
        "decoded.jsonl", "report.csv", "scores.json", "sum_scores.json")}
    assert run(["gen-data", "--n", "50", "--seed", str(seed), "--out", files["full.jsonl"]]) == 0
    lines = Path(files["full.jsonl"]).read_text().splitlines(keepends=True)
    for name, part in (("train.jsonl", lines[:30]), ("dev.jsonl", lines[30:40]),
                       ("test.jsonl", lines[40:])):
        Path(files[name]).write_text("".join(part))
        assert (cli / name).read_bytes() == (script / name).read_bytes(), name
    train = ["--corpus", files["train.jsonl"], "--dev", files["dev.jsonl"]]
    assert run(["train-ce", *train, "--out", files["ce.json"], "--iters", ce_iters, "--d", d,
                "--seed", str(seed)]) == 0
    assert run(["train-fcm", *train, "--init", files["ce.json"], "--out", files["fcm.json"],
                "--iters", "4", "--seed", str(seed + 1), "--scorer", "weighted-f1"]) == 0
    for name in ("ce.json", "fcm.json"):
        assert (cli / name).read_bytes() == (script / name).read_bytes(), name
    assert run(["decode", "--corpus", files["test.jsonl"], "--checkpoint", files["fcm.json"],
                "--out", files["decoded.jsonl"]]) == 0
    capsys.readouterr()
    assert run(["eval-utt", "--corpus", files["test.jsonl"], "--hyp", files["decoded.jsonl"],
                "--label", "fcm", "--out", files["report.csv"],
                "--scores-out", files["scores.json"]]) == 0
    table_row = next(line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("| fcm |"))
    assert table_row in proc.stdout.splitlines()
    counts = {metric: float(value) for metric, value, _ in
              (line.split(",") for line in Path(files["report.csv"]).read_text().splitlines()[1:])}
    ref_words = sum(len(normalize_text(s.reference))
                    for s in load_corpus(files["test.jsonl"]).samples)
    edits = int(counts["substitutions"] + counts["insertions"] + counts["deletions"])
    scores = json.loads(Path(files["scores.json"]).read_text())
    fcm_row = json.loads((script / "report.json").read_text())["systems"][2]
    assert fcm_row["label"] == "fcm"
    assert (edits / ref_words).hex() == fcm_row["wer"].hex()
    assert (sum(scores) / len(scores)).hex() == fcm_row["mean_consistency"].hex()
    assert run(["eval-sum", "--corpus", files["test.jsonl"], "--hyp", files["decoded.jsonl"],
                "--scores-out", files["sum_scores.json"]]) == 0
    sum_scores = json.loads(Path(files["sum_scores.json"]).read_text())
    want = json.loads((script / "sum_scores_fcm.json").read_text())
    assert [x.hex() for x in sum_scores] == [x.hex() for x in want]
