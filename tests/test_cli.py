"""End-to-end command-line workflow on a small corpus."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from conftest import reference_detokenize, reference_posteriors
from fcmax.cli import COMMANDS, run
from fcmax.corpus import load_corpus, normalize_text
from fcmax.model import init_params, save_checkpoint
from fcmax.trainer import TrainResult


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


@pytest.mark.parametrize("scores, named", [
    ("[0.5, NaN, 0.7]", "vector a entry 1 is not finite"),
    ("[0.5, 0.6, Infinity]", "vector a entry 2 is not finite"),
    ("[0.5, true, 0.7]", "entry 1 must be a number"),
    ('[0.5, 0.6, "0.7"]', "entry 2 must be a number"),
    ("[null, 0.6, 0.7]", "entry 0 must be a number"),
    ("[0.5, 1e400, 0.7]", "vector a entry 1 is not finite"),
    ("[0.5, 0.6, 1" + "0" * 400 + "]", "entry 2 must be a number in float range"),
    ('{"scores": [0.5, 0.6, 0.7]}', "must hold a JSON array of scores"),
    ("[0.5 0.6]", "a.json, line 1: invalid JSON (Expecting ',' delimiter)"),
], ids=["nan", "infinity", "bool", "string", "null", "float-overflow", "huge-int", "object",
        "not-json"])
def test_ttest_refuses_a_score_that_is_not_a_finite_number(tmp_path, capsys, scores, named):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(scores)
    b.write_text(json.dumps([0.5, 0.6, 0.7]))
    assert run(["ttest", "--a", str(a), "--b", str(b)]) == 2
    assert named in capsys.readouterr().err


def test_train_fcm_requires_scorer(tmp_path, capsys):
    code = run(["train-fcm", "--corpus", "x.jsonl", "--out", "y.json",
                "--init", "z.json"])
    assert code == 1
    err = capsys.readouterr().err
    assert "--scorer" in err


def test_train_fcm_caps_the_updates_at_its_iterations(tmp_path, capsys, monkeypatch):
    """--iters is both the lr decay length and the update cap, so a run of
    more than the old default cap of 500 updates finishes and anneals."""
    corpus, init = str(tmp_path / "c.jsonl"), str(tmp_path / "init.json")
    assert run(["gen-data", "--n", "4", "--out", corpus]) == 0
    loaded = load_corpus(corpus)
    params = init_params(3, loaded.source_vocab_size, len(loaded.token_vocab), seed=0)
    save_checkpoint(params, init)
    seen = {}

    def fake_train_fcm(params, corpus, scorer, schedule, safeguard, dev=None):
        seen.update(schedule=schedule, safeguard=safeguard)
        return TrainResult(params=params)

    monkeypatch.setattr("fcmax.cli.train_fcm", fake_train_fcm)
    assert run(["train-fcm", "--corpus", corpus, "--init", init, "--scorer", "weighted-f1",
                "--out", str(tmp_path / "out.json"), "--iters", "600"]) == 0
    assert seen["schedule"].total_iterations == 600
    assert seen["safeguard"].max_fcm_iterations == 600


def test_train_ce_refuses_a_model_size_that_is_not_the_checkpoints(tmp_path, capsys):
    """With --init the checkpoint fixes d: a --d that differs is a usage
    error naming both, and no d, or the same d, trains."""
    corpus, init, out = (str(tmp_path / name) for name in ("c.jsonl", "a.json", "b.json"))
    assert run(["gen-data", "--n", "4", "--out", corpus]) == 0
    loaded = load_corpus(corpus)
    save_checkpoint(init_params(8, loaded.source_vocab_size, len(loaded.token_vocab), seed=0),
                    init)
    train = ["train-ce", "--corpus", corpus, "--init", init, "--out", out, "--iters", "2"]
    capsys.readouterr()
    assert run(train + ["--d", "99"]) == 1
    assert "d 99 differs from the d 8 of the --init checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()
    for given in ([], ["--d", "8"]):
        assert run(train + given) == 0, given
        assert json.loads((tmp_path / "b.json").read_text())["d"] == 8
        (tmp_path / "b.json").unlink()


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1


def test_missing_file_is_runtime_error(tmp_path, capsys):
    code = run(["decode", "--corpus", str(tmp_path / "no.jsonl"),
                "--checkpoint", str(tmp_path / "no.json"),
                "--out", str(tmp_path / "out.jsonl")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_decode_names_a_checkpoint_that_is_not_json(tmp_path, capsys):
    corpus, checkpoint = tmp_path / "c.jsonl", tmp_path / "broken.json"
    assert run(["gen-data", "--n", "3", "--out", str(corpus)]) == 0
    checkpoint.write_text("")
    capsys.readouterr()
    assert run(["decode", "--corpus", str(corpus), "--checkpoint", str(checkpoint),
                "--out", str(tmp_path / "d.jsonl")]) == 2
    assert capsys.readouterr().err == (
        f"decode: error: {checkpoint}, line 1: invalid JSON (Expecting value)\n")
    assert not (tmp_path / "d.jsonl").exists()


_WEIGHT_FLAGS = ["--content-weight", "--filler-weight"]
_NOT_OPTIONS = [
    *((command, "--config") for command in ("gen-data", "train-ce", "train-fcm", "decode",
                                            "eval-utt", "eval-sum")),
    *((command, flag) for command in ("gen-data", "train-ce", "train-fcm")
      for flag in _WEIGHT_FLAGS),
    *(("eval-utt", flag) for flag in ["--threshold", *_WEIGHT_FLAGS]),
    *(("eval-sum", flag) for flag in ["--chunk-seconds", "--temperature", "--top-p",
                                      "--max-tokens", *_WEIGHT_FLAGS]),
]


@pytest.mark.parametrize("command, flag", _NOT_OPTIONS, ids=[
    command if flag == "--config" else command + flag for command, flag in _NOT_OPTIONS])
def test_config_is_not_an_option(tmp_path, capsys, command, flag):
    """Neither a config file nor a fixed setting is a flag.  A tunable is set
    only by its flag, so --config is refused on every subcommand with
    tunables.  The scorer weights, the consistent-ratio threshold, the summary
    window and the summarizer's sampling are constants, so their flags are
    refused too.  argparse refuses each, given the required files, before any
    file is read or written."""
    required = [arg for name, needed in COMMANDS[command].files.items() if needed
                for arg in (f"--{name}", str(tmp_path / name))]
    assert run([command, *required, flag, "1"]) == 1
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_the_console_entry_point_exits_with_the_cli_status(tmp_path):
    """``python -m fcmax.cli``, what the installed ``fcmax`` script calls:
    0 on success, 1 for a usage error, 2 for a runtime error."""
    def fcmax(*argv):
        return subprocess.run([sys.executable, "-m", "fcmax.cli", *argv],
                              capture_output=True, text=True, timeout=60)

    corpus = tmp_path / "c.jsonl"
    done = fcmax("gen-data", "--n", "3", "--out", str(corpus))
    assert (done.returncode, done.stdout) == (0, f"wrote 3 samples to {corpus}\n")
    done = fcmax("eval-utt", "--corpus", str(corpus), "--hyp", str(corpus), "--threshold", "0.5")
    assert done.returncode == 1 and "unrecognized arguments: --threshold" in done.stderr
    done = fcmax("decode", "--corpus", str(tmp_path / "missing.jsonl"),
                 "--checkpoint", "m.json", "--out", str(tmp_path / "d.jsonl"))
    assert done.returncode == 2 and "missing.jsonl" in done.stderr


@pytest.mark.parametrize("flags, named", [
    (["--scorer", "bogus"], "bogus"),
    (["--scorer", "remote"], "FCM_SCORER_URL"),
    (["--scorer", "remote", "--scorer-url", "localhost:8000"],
     "--scorer-url: endpoint 'localhost:8000' is not an http:// or https:// URL"),
    (["--scorer", "exact", "--scorer-url", "http://x"],
     "--scorer-url is only read with --scorer remote, not --scorer exact"),
], ids=["scorer-outside-choices", "remote-without-url", "remote-unusable-url",
        "url-with-local-scorer"])
def test_eval_utt_scorer_usage_errors(capsys, monkeypatch, flags, named):
    monkeypatch.delenv("FCM_SCORER_URL", raising=False)
    code = run(["eval-utt", "--corpus", "x.jsonl", "--hyp", "y.jsonl", *flags])
    assert code == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["train-fcm", "--corpus", "x.jsonl", "--init", "m.json", "--out", "y.json",
      "--scorer", "remote", "--scorer-url", "ftp://127.0.0.1/s"],
     "--scorer-url: endpoint 'ftp://127.0.0.1/s'"),
    (["eval-sum", "--corpus", "c.jsonl", "--hyp", "h.jsonl",
      "--summarizer", "http://127.0.0.1:notaport"],
     "--summarizer: endpoint 'http://127.0.0.1:notaport' has an invalid port"),
], ids=["train-fcm-scorer-url", "eval-sum-summarizer"])
def test_an_unusable_endpoint_is_a_usage_error(capsys, argv, named):
    """Refused before any file is read, so before any training or request."""
    assert run(argv) == 1
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
    assert "| Ins (%) |" in out
    assert [path for path, _ in wire_server.requests] == ["/score"] * 6


def test_eval_utt_refuses_a_repeated_hypothesis_id(tmp_path, capsys):
    """A later line that repeats a sample id would replace the earlier text:
    here exact hypotheses plus a repeat of the first id reading "nothing"."""
    corpus = tmp_path / "corpus.jsonl"
    assert run(["gen-data", "--seed", "3", "--n", "3", "--out", str(corpus)]) == 0
    samples = [json.loads(line) for line in corpus.read_text().splitlines()]
    lines = [{"id": s["id"], "nbest": [{"text": s["reference"]}]} for s in samples]
    lines.append({"id": samples[0]["id"], "nbest": [{"text": "nothing"}]})
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert run(["eval-utt", "--corpus", str(corpus), "--hyp", str(hyp)]) == 2
    assert (f"{hyp}, line 4: duplicate sample id {samples[0]['id']!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["eval-utt", "eval-sum"])
def test_both_evaluations_refuse_a_decode_file_that_lacks_a_corpus_id(tmp_path, capsys,
                                                                     command):
    """eval-utt and eval-sum read the same corpus and decode file, and both
    refuse a file without every corpus sample, before any scoring."""
    corpus = tmp_path / "corpus.jsonl"
    assert run(["gen-data", "--seed", "3", "--n", "3", "--out", str(corpus)]) == 0
    samples = [json.loads(line) for line in corpus.read_text().splitlines()]
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text("".join(json.dumps({"id": s["id"], "nbest": [{"text": s["reference"]}]})
                           + "\n" for s in samples[1:]))
    assert run([command, "--corpus", str(corpus), "--hyp", str(hyp)]) == 2
    assert f"hypothesis file lacks ids: [{samples[0]['id']!r}]" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("decode", ["--checkpoint", "m.json", "--out", "out"]),
    ("train-fcm", ["--dev", "corpus.jsonl", "--init", "m.json", "--out", "out",
                   "--scorer", "weighted-f1"]),
], ids=["decode", "train-fcm-dev"])
def test_a_model_of_another_target_vocabulary_is_refused(tmp_path, capsys, monkeypatch,
                                                         command, flags):
    """A checkpoint whose output layer is larger than the corpus's vocabulary
    emits ids that name no token; decoding refuses it once, naming both sizes."""
    monkeypatch.chdir(tmp_path)
    assert run(["gen-data", "--n", "20", "--seed", "1", "--out", "corpus.jsonl"]) == 0
    params = init_params(8, 55, 95, seed=3)
    params.out_bias[55:] = 5.0
    save_checkpoint(params, "m.json")
    capsys.readouterr()
    assert run([command, "--corpus", "corpus.jsonl", *flags]) == 2
    assert capsys.readouterr().err == (
        f"{command}: error: the model's target vocabulary has 95 tokens, the corpus's 55\n")
    assert not (tmp_path / "out").exists()


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
    assert run(["decode", "--corpus", str(dev), "--checkpoint", str(fcm),
                "--out", str(root / "decoded.jsonl")]) == 0
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


def test_decode_posteriors_and_texts_are_the_per_list_oracle(workflow):
    """Every posterior in the decode output is, in float hex, the per-list
    softmax of its list's log probabilities, and every text the per-token
    detokenization of its tokens."""
    vocab = load_corpus(workflow / "dev.jsonl").token_vocab
    for line in (workflow / "decoded.jsonl").read_text().splitlines():
        nbest = json.loads(line)["nbest"]
        want = reference_posteriors([h["log_prob"] for h in nbest])
        assert [h["posterior"].hex() for h in nbest] == [p.hex() for p in want.tolist()]
        for h in nbest:
            assert h["text"] == reference_detokenize(vocab[t] for t in h["tokens"])


def test_metrics_log_schema(workflow):
    lines = (workflow / "fcm_metrics.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        entry = json.loads(line)
        assert set(entry) == {"iter", "lr", "dev_wer", "dev_del_rate", "dev_ins_rate",
                              "dev_unfinished_top1", "dev_avg_consistency",
                              "dev_fcm_objective"}
    # the start model passes the deletion guard, so every FCM iteration runs
    assert json.loads(lines[-1])["iter"] == 10


def test_decode_beam_size_sets_the_nbest_length(workflow, tmp_path, capsys):
    out = tmp_path / "decoded.jsonl"
    code, _ = _run(capsys, "decode", "--beam-size", "1", "--corpus", str(workflow / "dev.jsonl"),
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
    value = {r.split(",")[0]: float(r.split(",")[1]) for r in rows}
    edits = value["substitutions"] + value["insertions"] + value["deletions"]
    ins_rate = value["insertions"] * value["wer"] / edits if edits else 0.0
    row = next(line for line in out.splitlines() if line.startswith("| fcm |"))
    assert row.split("|")[3].strip() == f"{100.0 * ins_rate:.1f}"  # the Ins (%) column
    assert header == "metric,value,n"
    metrics = {r.split(",")[0] for r in rows}
    assert {"wer", "avg_consistency", "consistent_ratio"} <= metrics
    scores = json.loads(scores_path.read_text())
    assert len(scores) == 40


def test_eval_sum_runs_mock_pipeline(workflow, capsys):
    scores_path = workflow / "sum_scores.json"
    code, out = _run(capsys, "eval-sum", "--corpus", str(workflow / "dev.jsonl"),
                     "--hyp", str(workflow / "decoded.jsonl"),
                     "--summarizer", "mock", "--scores-out", str(scores_path))
    assert code == 0
    assert "mean_consistency=" in out
    scores = json.loads(scores_path.read_text())
    assert scores and all(0.0 <= s <= 1.0 for s in scores)


def test_eval_sum_feeds_ttest(workflow, tmp_path, capsys):
    a = tmp_path / "sum_scores.json"
    code, _ = _run(capsys, "eval-sum", "--corpus", str(workflow / "dev.jsonl"),
                   "--hyp", str(workflow / "decoded.jsonl"),
                   "--summarizer", "mock", "--scores-out", str(a))
    assert code == 0
    code, out = _run(capsys, "ttest", "--a", str(a), "--b", str(a))
    assert code == 0
    assert "significant_at_95=no" in out
