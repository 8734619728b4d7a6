"""End-to-end command-line workflow on a small corpus."""

from __future__ import annotations

import json

import pytest

from conftest import reference_detokenize, reference_posteriors
from fcmax.cli import run
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
], ids=["nan", "infinity", "bool", "string", "null", "float-overflow", "huge-int", "object"])
def test_ttest_refuses_a_score_that_is_not_a_finite_number(tmp_path, capsys, scores, named):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(scores)
    b.write_text(json.dumps([0.5, 0.6, 0.7]))
    assert run(["ttest", "--a", str(a), "--b", str(b)]) == 2
    assert named in capsys.readouterr().err


def test_gen_data_has_no_scorer_weights(tmp_path, capsys):
    """The content and filler weights belong to the weighted-F1 scorer; the
    corpus generator never reads them, so gen-data refuses both forms."""
    out = str(tmp_path / "c.jsonl")
    assert run(["gen-data", "--out", out, "--content-weight", "9"]) == 1
    assert "--content-weight" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"filler-weight": 0.1}))
    assert run(["gen-data", "--out", out, "--config", str(cfg)]) == 1
    assert "filler-weight" in capsys.readouterr().err
    assert not (tmp_path / "c.jsonl").exists()


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
    """With --init the checkpoint fixes d: a d from the flag or the config
    that differs is a usage error naming both, and no d, or the same d, trains."""
    corpus, init, out = (str(tmp_path / name) for name in ("c.jsonl", "a.json", "b.json"))
    assert run(["gen-data", "--n", "4", "--out", corpus]) == 0
    loaded = load_corpus(corpus)
    save_checkpoint(init_params(8, loaded.source_vocab_size, len(loaded.token_vocab), seed=0),
                    init)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 99}))
    train = ["train-ce", "--corpus", corpus, "--init", init, "--out", out, "--iters", "2"]
    capsys.readouterr()
    for given, d in ((["--d", "99"], 99), (["--config", str(cfg)], 99),
                     (["--config", str(cfg), "--d", "32"], 32)):  # the flag beats the config
        assert run(train + given) == 1, given
        assert f"d {d} differs from the d 8 of the --init checkpoint" in capsys.readouterr().err
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


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 10, "seed": 3, "negation-drop-rate": 1}))  # int for a float
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
        # nor an update cap apart from its iterations
        (train_fcm, {"max-fcm-iters": 5}),
    ]
    cfg = tmp_path / "cfg.json"
    for argv, config in cases:
        cfg.write_text(json.dumps(config))
        assert run([*argv, "--config", str(cfg)]) == 1, config
        assert "unknown config keys" in capsys.readouterr().err, config


_TRAIN_CE = ["train-ce", "--corpus", "x.jsonl", "--out", "y.json"]
_EVAL_SUM = ["eval-sum", "--corpus", "c.jsonl", "--hyp", "h.jsonl"]


@pytest.mark.parametrize("argv, config, named", [
    (_TRAIN_CE, {"iters": 2.7}, "config key 'iters' must be an integer, got 2.7"),
    (_TRAIN_CE, {"iters": 2.0}, "config key 'iters' must be an integer, got 2.0"),
    (_TRAIN_CE, {"d": True}, "config key 'd' must be an integer, got true"),
    (_TRAIN_CE, {"seed": "3"}, "config key 'seed' must be an integer, got \"3\""),
    (_TRAIN_CE, {"batch-size": None}, "config key 'batch-size' must be an integer, got null"),
    (_TRAIN_CE, {"lr": "0.1"}, "config key 'lr' must be a number in float range, got \"0.1\""),
    (_TRAIN_CE, {"lr": False}, "config key 'lr' must be a number in float range, got false"),
    (_TRAIN_CE, {"lr": 10 ** 400}, "config key 'lr' must be a number in float range, got 1000"),
    (_EVAL_SUM, {"chunk-seconds": [60]}, "config key 'chunk-seconds' must be a number"),
    (_EVAL_SUM, {"scorer-url": 5}, "config key 'scorer-url' must be a string, got 5"),
], ids=["int-gets-float", "int-gets-integral-float", "int-gets-bool", "int-gets-string",
        "int-gets-null", "float-gets-string", "float-gets-bool", "float-gets-huge-int",
        "float-gets-list", "string-gets-int"])
def test_config_value_must_fit_the_tunable_type(tmp_path, capsys, argv, config, named):
    """A config value is checked as its flag form is, never coerced: a bool is
    never a number, an int tunable takes only an int, a float tunable an int
    or a float, a string tunable only a string (or null when it has no
    default).  The refusal comes before any file is read."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([*argv, "--config", str(cfg)]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("config, flags, named", [
    ({"scorer": "bogus"}, [], "bogus"),
    ({}, ["--scorer", "remote"], "FCM_SCORER_URL"),
    ({}, ["--scorer", "remote", "--scorer-url", "localhost:8000"],
     "--scorer-url: endpoint 'localhost:8000' is not an http:// or https:// URL"),
], ids=["scorer-outside-choices", "remote-without-url", "remote-unusable-url"])
def test_eval_utt_scorer_usage_errors(tmp_path, capsys, monkeypatch, config, flags, named):
    monkeypatch.delenv("FCM_SCORER_URL", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = run(["eval-utt", "--corpus", "x.jsonl", "--hyp", "y.jsonl",
                "--config", str(cfg), *flags])
    assert code == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["train-fcm", "--corpus", "x.jsonl", "--init", "m.json", "--out", "y.json",
      "--scorer", "remote", "--scorer-url", "ftp://127.0.0.1/s"],
     "--scorer-url: endpoint 'ftp://127.0.0.1/s'"),
    ([*_EVAL_SUM, "--summarizer", "http://127.0.0.1:notaport"],
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
