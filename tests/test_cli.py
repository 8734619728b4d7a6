"""End-to-end command-line workflow on a small corpus."""

from __future__ import annotations

import json

import pytest

from fcmax.cli import run
from fcmax.corpus import normalize_text


def _run(capsys, *argv) -> tuple[int, str]:
    code = run(list(argv))
    return code, capsys.readouterr().out


def test_gen_data_is_idempotent(tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    code, _ = _run(capsys, "gen-data", "--seed", "7", "--n", "50", "--out", str(out))
    assert code == 0
    first = out.read_bytes()
    code, _ = _run(capsys, "gen-data", "--seed", "7", "--n", "50", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == first


def test_ttest_equal_vectors(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps([0.5, 0.6, 0.7]))
    b.write_text(json.dumps([0.5, 0.6, 0.7]))
    code, out = _run(capsys, "ttest", "--a", str(a), "--b", str(b))
    assert code == 0
    assert "t=0.0000" in out and "p=1.0000" in out


def test_train_fcm_requires_scorer(tmp_path, capsys):
    code = run(["train-fcm", "--corpus", "x.jsonl", "--out", "y.json",
                "--init", "z.json"])
    assert code == 1
    err = capsys.readouterr().err
    assert "--scorer" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1


def test_missing_file_is_runtime_error(tmp_path, capsys):
    code = run(["decode", "--corpus", str(tmp_path / "no.jsonl"),
                "--checkpoint", str(tmp_path / "no.json"),
                "--out", str(tmp_path / "out.jsonl")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 10, "seed": 3}))
    out = tmp_path / "c.jsonl"
    code, _ = _run(capsys, "gen-data", "--config", str(cfg), "--out", str(out),
                   "--n", "4")
    assert code == 0
    assert len(out.read_text().splitlines()) == 4  # flag beat the config


def test_unknown_config_key_rejected(tmp_path, capsys):
    train_fcm = ["train-fcm", "--corpus", "x.jsonl", "--out", "y.json", "--init", "z.json",
                 "--scorer", "weighted-f1"]
    cases = [
        (["gen-data", "--out", str(tmp_path / "c.jsonl")], {"wat": 1}),
        # train-fcm has no model size and no checkpoint interval
        (train_fcm, {"d": 12}),
        (train_fcm, {"checkpoint-every": 5}),
    ]
    cfg = tmp_path / "cfg.json"
    for argv, config in cases:
        cfg.write_text(json.dumps(config))
        assert run([*argv, "--config", str(cfg)]) == 1, config
        assert "unknown config keys" in capsys.readouterr().err, config


@pytest.mark.parametrize("config, flags, named", [
    ({"scorer": "bogus"}, [], "bogus"),
    ({}, ["--scorer", "remote"], "FCM_SCORER_URL"),
], ids=["scorer-outside-choices", "remote-without-url"])
def test_eval_utt_scorer_usage_errors(tmp_path, capsys, monkeypatch, config, flags, named):
    monkeypatch.delenv("FCM_SCORER_URL", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = run(["eval-utt", "--corpus", "x.jsonl", "--hyp", "y.jsonl",
                "--config", str(cfg), *flags])
    assert code == 1
    assert named in capsys.readouterr().err


def test_eval_utt_remote_scores_each_pair_once(tmp_path, capsys, wire_server):
    corpus = tmp_path / "corpus.jsonl"
    assert run(["gen-data", "--seed", "3", "--n", "6", "--out", str(corpus)]) == 0
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text("".join(
        json.dumps({"id": json.loads(line)["id"], "nbest": [{"text": "a b"}]}) + "\n"
        for line in corpus.read_text().splitlines()))
    wire_server.respond({"consistency": 0.75})
    code, out = _run(capsys, "eval-utt", "--corpus", str(corpus), "--hyp", str(hyp),
                     "--scorer", "remote", "--scorer-url", wire_server.url)
    assert code == 0 and "| 0.750 | 1.000 |" in out
    assert [path for path, _ in wire_server.requests] == ["/score"] * 6


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    """gen-data -> train-ce -> train-fcm -> decode, shared by the checks below.

    Short sentences let 200 CE iterations reach a start model whose dev
    deletion rate (about 0.1) passes the guard, so train-fcm returns a
    fine-tuned model and decode emits real words.
    """
    root = tmp_path_factory.mktemp("workflow")
    corpus = root / "train.jsonl"
    dev = root / "dev.jsonl"
    assert run(["gen-data", "--seed", "11", "--n", "30", "--max-len", "6",
                "--out", str(corpus)]) == 0
    assert run(["gen-data", "--seed", "12", "--n", "40", "--max-len", "6",
                "--out", str(dev)]) == 0
    ce = root / "ce.json"
    assert run(["train-ce", "--corpus", str(corpus), "--out", str(ce),
                "--iters", "200", "--lr", "0.3", "--batch-size", "4",
                "--d", "12", "--seed", "1"]) == 0
    fcm = root / "fcm.json"
    assert run(["train-fcm", "--corpus", str(corpus), "--dev", str(dev),
                "--init", str(ce), "--out", str(fcm), "--scorer", "weighted-f1",
                "--iters", "10", "--lr", "0.02", "--dev-check-every", "5",
                "--metrics-out", str(root / "fcm_metrics.jsonl")]) == 0
    decoded = root / "decoded.jsonl"
    utts = root / "hyp_utts.jsonl"
    assert run(["decode", "--corpus", str(dev), "--checkpoint", str(fcm),
                "--out", str(decoded), "--utterances-out", str(utts)]) == 0
    return root


def test_decode_output_schema(workflow):
    lines = (workflow / "decoded.jsonl").read_text().splitlines()
    assert len(lines) == 40
    entry = json.loads(lines[0])
    assert set(entry) == {"id", "nbest"}
    posts = [h["posterior"] for h in entry["nbest"]]
    assert abs(sum(posts) - 1.0) < 1e-9
    for h in entry["nbest"]:
        assert set(h) == {"text", "tokens", "log_prob", "posterior", "finished"}
        assert h["log_prob"] <= 0.0
    tops = [json.loads(line)["nbest"][0]["text"] for line in lines]
    assert any(normalize_text(text) for text in tops)


def test_metrics_log_schema(workflow):
    lines = (workflow / "fcm_metrics.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        entry = json.loads(line)
        assert set(entry) == {"iter", "lr", "dev_wer", "dev_del_rate",
                              "dev_avg_consistency", "dev_fcm_objective"}
    # the start model passes the deletion guard, so every FCM iteration runs
    assert json.loads(lines[-1])["iter"] == 10


def test_decode_reads_config(workflow, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beam-size": 1}))
    out = tmp_path / "decoded.jsonl"
    code, _ = _run(capsys, "decode", "--config", str(cfg), "--corpus", str(workflow / "dev.jsonl"),
                   "--checkpoint", str(workflow / "fcm.json"), "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 40
    assert all(len(json.loads(line)["nbest"]) == 1 for line in lines)


def test_eval_utt_reports(workflow, capsys):
    csv_path = workflow / "report.csv"
    scores_path = workflow / "scores.json"
    code, out = _run(capsys, "eval-utt", "--corpus", str(workflow / "dev.jsonl"),
                     "--hyp", str(workflow / "decoded.jsonl"),
                     "--out", str(csv_path), "--scores-out", str(scores_path),
                     "--label", "fcm")
    assert code == 0
    assert "| fcm |" in out
    header, *rows = csv_path.read_text().strip().splitlines()
    assert header == "metric,value,n"
    metrics = {r.split(",")[0] for r in rows}
    assert {"wer", "avg_consistency", "consistent_ratio"} <= metrics
    scores = json.loads(scores_path.read_text())
    assert len(scores) == 40


def test_eval_sum_runs_mock_pipeline(workflow, capsys):
    scores_path = workflow / "sum_scores.json"
    code, out = _run(capsys, "eval-sum", "--ref-corpus", str(workflow / "dev.jsonl"),
                     "--hyp-utts", str(workflow / "hyp_utts.jsonl"),
                     "--summarizer", "mock", "--scores-out", str(scores_path))
    assert code == 0
    assert "mean_consistency=" in out
    scores = json.loads(scores_path.read_text())
    assert scores and all(0.0 <= s <= 1.0 for s in scores)


def test_eval_sum_feeds_ttest(workflow, tmp_path, capsys):
    a = tmp_path / "sum_scores.json"
    code, _ = _run(capsys, "eval-sum", "--ref-corpus", str(workflow / "dev.jsonl"),
                   "--hyp-utts", str(workflow / "hyp_utts.jsonl"),
                   "--summarizer", "mock", "--scores-out", str(a))
    assert code == 0
    code, out = _run(capsys, "ttest", "--a", str(a), "--b", str(a))
    assert code == 0
    assert "significant_at_95=no" in out
