"""Command-line front end for the full workflow.

Subcommands: gen-data, train-ce, train-fcm, decode, eval-utt, eval-sum,
ttest.  Each is one ``COMMANDS`` entry: handler, help, file and label flags
(required or not) and tunables with their defaults, from which
``build_parser`` makes the flags.  The defaults are the synthetic
experiment's, and ``scripts/run_synthetic_experiment.py`` reads those it
shares with the CLI from this table.  A tunable is its flag, or its
default when the flag is absent.  Evaluation settings that no program varies
are constants, not flags: ``metrics.CONSISTENT_AT``, ``summeval.CHUNK_SECONDS``,
``summeval.SUMMARIZER_SAMPLING`` and the scorer weights of
``default_token_weights``.  A checkpoint is evaluated by
``decode``, then ``eval-utt --hyp`` and ``eval-sum --hyp`` on the same decode
output, each with the ``--corpus`` it was decoded from.  Outputs are written
atomically.  Exit status: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import Callable, NamedTuple

from . import corpus as corpus_mod
from . import metrics as metrics_mod
from . import model as model_mod
from . import summeval as summeval_mod
from .corpus import SynthConfig, atomic_write_text, default_token_weights, write_jsonl
from .fcm import normalize_posteriors
from .scorers import (
    ConsistencyScorer, exact_match_scorer, lcs_scorer, remote_scorer, weighted_f1_scorer,
)
from .trainer import (
    SafeguardConfig, TrainingSchedule, TrainResult, decode_samples, train_ce, train_fcm,
)

SCORER_URL_ENV = "FCM_SCORER_URL"
SUMMARIZER_URL_ENV = "FCM_SUMMARIZER_URL"
SCORERS = ("exact", "weighted-f1", "lcs", "remote")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems instead of exiting with 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _options(args: argparse.Namespace, defaults: dict) -> dict:
    """Each tunable's flag value, or its default where the flag is absent.  A
    flag's own default stays None on ``args``, so a handler can tell a given value."""
    return {key: default if (value := getattr(args, key.replace("-", "_"))) is None else value
            for key, default in defaults.items()}


def _from_options(cls, opts: dict, **renamed: str):
    """A dataclass whose fields take the tunables named like them (dashes for underscores).

    ``renamed`` maps a field to a differently named tunable; a field with no
    tunable in ``opts`` keeps its default.
    """
    names = {f.name: renamed.get(f.name, f.name.replace("_", "-")) for f in fields(cls)}
    return cls(**{field: opts[key] for field, key in names.items() if key in opts})


def _scorer(opts: dict) -> ConsistencyScorer:
    """The scorer the options name; weighted-F1 (train-ce's only scorer) by default."""
    name = opts.get("scorer", "weighted-f1")
    if name is None:
        raise UsageError(f"a --scorer is required, one of {'|'.join(SCORERS)}")
    if name == "remote":
        endpoint = opts["scorer-url"] or os.environ.get(SCORER_URL_ENV)
        if not endpoint:
            raise UsageError(f"--scorer remote needs --scorer-url or ${SCORER_URL_ENV}")
        try:
            return remote_scorer(endpoint)
        except ValueError as exc:
            raise UsageError(f"--scorer-url: {exc}") from None
    if opts.get("scorer-url"):
        raise UsageError(f"--scorer-url is only read with --scorer remote, not --scorer {name}")
    if name != "weighted-f1":
        return {"exact": exact_match_scorer, "lcs": lcs_scorer}[name]()
    return weighted_f1_scorer(default_token_weights(SynthConfig(n_samples=0)))


def _save_trained(args, result: TrainResult) -> int:
    model_mod.save_checkpoint(result.params, args.out)
    if args.metrics_out:
        write_jsonl(args.metrics_out, result.log)
    if result.guard_tripped:
        print(result.guard_report)
    print(f"wrote checkpoint to {args.out}")
    return 0


def _cmd_gen_data(args, opts: dict) -> int:
    corpus = corpus_mod.generate_synthetic_corpus(_from_options(SynthConfig, opts, n_samples="n"))
    corpus_mod.save_corpus(corpus, args.out)
    print(f"wrote {len(corpus.samples)} samples to {args.out}")
    return 0


def _schedule(opts: dict) -> TrainingSchedule:
    return _from_options(TrainingSchedule, opts, total_iterations="iters", initial_lr="lr")


def _cmd_train_ce(args, opts: dict) -> int:
    corpus = corpus_mod.load_corpus(args.corpus)
    dev = corpus_mod.load_corpus(args.dev) if args.dev else None
    if args.init:
        params = model_mod.load_checkpoint(args.init)
        if args.d is not None and opts["d"] != params.d:
            raise UsageError(f"d {opts['d']} differs from the d {params.d} of the --init "
                             f"checkpoint {args.init}")
    else:
        params = model_mod.init_params(
            opts["d"], corpus.source_vocab_size, len(corpus.token_vocab), seed=opts["seed"],
        )
    return _save_trained(args, train_ce(params, corpus, _schedule(opts), dev=dev,
                                        scorer=_scorer(opts)))


def _cmd_train_fcm(args, opts: dict) -> int:
    scorer = _scorer(opts)
    corpus = corpus_mod.load_corpus(args.corpus)
    dev = corpus_mod.load_corpus(args.dev) if args.dev else None
    params = model_mod.load_checkpoint(args.init)
    safeguard = _from_options(SafeguardConfig, opts, max_fcm_iterations="iters",
                              ce_interpolation_weight="ce-weight")
    return _save_trained(args, train_fcm(params, corpus, scorer, _schedule(opts), safeguard,
                                         dev=dev))


def _cmd_decode(args, opts: dict) -> int:
    corpus = corpus_mod.load_corpus(args.corpus)
    params = model_mod.load_checkpoint(args.checkpoint)
    entries = []
    nbests = decode_samples(params, corpus, corpus.samples, opts["beam-size"], opts["max-len"])
    for sample, nbest in zip(corpus.samples, nbests):
        posteriors = normalize_posteriors([h.log_prob for h in nbest.hypotheses])
        entries.append({
            "id": sample.id,
            "nbest": [
                {
                    "text": corpus.decode_ids(h.tokens),
                    "tokens": list(h.tokens),
                    "log_prob": h.log_prob,
                    "posterior": float(p),
                    "finished": h.finished,
                }
                for h, p in zip(nbest.hypotheses, posteriors)
            ],
        })
    write_jsonl(args.out, entries)
    print(f"decoded {len(entries)} samples to {args.out}")
    return 0


def _load_decoded(corpus_path, hyp_path) -> tuple[corpus_mod.Corpus, dict[str, str]]:
    """A corpus and the top-1 text of each of its samples, keyed by sample id,
    from a decode output file.  A repeated id, an ``nbest`` that does not start
    with a text, or a corpus id the file lacks is refused."""
    corpus = corpus_mod.load_corpus(corpus_path)
    texts = {}
    for lineno, obj in corpus_mod.read_jsonl(hyp_path, {"id": str, "nbest": list}, ValueError):
        if obj["id"] in texts:
            raise ValueError(f"{hyp_path}, line {lineno}: duplicate sample id {obj['id']!r}")
        top = obj["nbest"][0] if obj["nbest"] else None
        if not isinstance(top, dict) or not isinstance(top.get("text"), str):
            raise ValueError(f"{hyp_path}, line {lineno}: field 'nbest' must start with an "
                             f"object holding a string 'text'")
        texts[obj["id"]] = top["text"]
    missing = [s.id for s in corpus.samples if s.id not in texts]
    if missing:
        raise ValueError(f"hypothesis file lacks ids: {missing[:5]}")
    return corpus, texts


def _cmd_eval_utt(args, opts: dict) -> int:
    scorer = _scorer(opts)
    corpus, texts = _load_decoded(args.corpus, args.hyp)
    pairs = [(texts[s.id], s.reference) for s in corpus.samples]
    row = metrics_mod.evaluate_utterances(pairs, scorer)
    breakdown, n = row.breakdown, len(pairs)
    rows = [
        ("wer", breakdown.wer, n),
        ("substitutions", float(breakdown.substitutions), n),
        ("insertions", float(breakdown.insertions), n),
        ("deletions", float(breakdown.deletions), n),
        ("avg_consistency", row.mean, n),
        ("consistent_ratio", row.ratio, n),
    ]
    if args.out:
        atomic_write_text(args.out, metrics_mod.csv_report(rows))
    if args.scores_out:
        atomic_write_text(args.scores_out, json.dumps(row.scores) + "\n")
    print(metrics_mod.markdown_report([(args.label or args.hyp, row)]))
    return 0


def _cmd_eval_sum(args, opts: dict) -> int:
    endpoint = args.summarizer or os.environ.get(SUMMARIZER_URL_ENV) or summeval_mod.MOCK_SUMMARIZER
    scorer = _scorer(opts)
    try:
        summarizer = summeval_mod.make_summarizer(endpoint)
    except ValueError as exc:
        raise UsageError(f"--summarizer: {exc}") from None
    corpus, texts = _load_decoded(args.corpus, args.hyp)
    scores, mean = summeval_mod.evaluate_summaries(
        summeval_mod.corpus_to_utterances(corpus), summeval_mod.corpus_to_utterances(corpus, texts),
        summarizer, scorer)
    if args.scores_out:
        atomic_write_text(args.scores_out, json.dumps(scores) + "\n")
    if args.out:
        atomic_write_text(args.out, metrics_mod.csv_report([
            ("summary_consistency_mean", mean, len(scores)),
        ]))
    print(f"chunks={len(scores)} mean_consistency={mean:.4f}")
    return 0


def _load_score_vector(path: str) -> list[float]:
    doc = corpus_mod.read_json(path, ValueError)
    if not isinstance(doc, list):
        raise ValueError(f"{path} must hold a JSON array of scores")
    # paired_t_test refuses a non-finite float
    bad = next((i for i, x in enumerate(doc) if not corpus_mod.is_json_float(x)), None)
    if bad is not None:
        raise ValueError(f"{path} entry {bad} must be a number in float range, got {doc[bad]!r}")
    return [float(x) for x in doc]


def _cmd_ttest(args, opts: dict) -> int:
    a = _load_score_vector(args.a)
    b = _load_score_vector(args.b)
    result = metrics_mod.paired_t_test(a, b)
    print(
        f"t={result.t_statistic:.4f} df={result.degrees_of_freedom} "
        f"p={result.p_value_two_tailed:.4f} "
        f"significant_at_95={'yes' if result.significant_at_95 else 'no'}"
    )
    if args.out:
        atomic_write_text(args.out, json.dumps({
            "t": result.t_statistic,
            "df": result.degrees_of_freedom,
            "p_two_tailed": result.p_value_two_tailed,
            "significant_at_95": result.significant_at_95,
        }) + "\n")
    return 0


class Command(NamedTuple):
    """One subcommand: handler, help, file/label flags (name -> required), tunables."""

    fn: Callable[[argparse.Namespace, dict], int]
    help: str
    files: dict[str, bool]
    options: dict[str, object]


_SCORING = {"scorer": "weighted-f1", "scorer-url": None}
_DECODING = {"beam-size": 4, "max-len": 24}
_TRAINING = {"batch-size": 4, "nbest-size": 4, **_DECODING, "seed": 0}
_TRAIN_FILES = {"corpus": True, "dev": False, "out": True, "metrics-out": False}

COMMANDS: dict[str, Command] = {
    "gen-data": Command(_cmd_gen_data, "generate a synthetic corpus", {"out": True}, {
        "n": 1000, "seed": 0, "min-len": 5, "max-len": 12,
        "negation-drop-rate": 0.3,
    }),
    "train-ce": Command(_cmd_train_ce, "likelihood pretraining",
                        {**_TRAIN_FILES, "init": False}, {
        "iters": 2000, "lr": 0.15, **_TRAINING, "checkpoint-every": 200, "d": 32,
    }),
    "train-fcm": Command(_cmd_train_fcm, "consistency fine-tuning",
                         {**_TRAIN_FILES, "init": True}, {
        "iters": 500, "lr": 0.02, **_TRAINING, "batch-size": 1,
        "deletion-rate-limit": 0.25, "dev-check-every": 50,
        "ce-weight": 0.0, **_SCORING, "scorer": None,
    }),
    "decode": Command(_cmd_decode, "emit N-best hypotheses with posteriors", {
        "corpus": True, "checkpoint": True, "out": True,
    }, _DECODING),
    "eval-utt": Command(_cmd_eval_utt, "edit error and consistency tables", {
        "corpus": True, "hyp": True, "label": False, "out": False, "scores-out": False,
    }, _SCORING),
    "eval-sum": Command(_cmd_eval_sum, 'chunked summarization consistency '
                        '(--summarizer: service base URL or "mock")', {
        "corpus": True, "hyp": True, "summarizer": False, "out": False, "scores-out": False,
    }, _SCORING),
    "ttest": Command(_cmd_ttest, "paired t-test between two score vectors",
                     {"a": True, "b": True, "out": False}, {}),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="fcmax", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, required in command.files.items():
            p.add_argument(f"--{flag}", required=required)
        for flag, default in command.options.items():
            p.add_argument(f"--{flag}", type=str if default is None else type(default),
                           choices=SCORERS if flag == "scorer" else None,
                           help=None if default is None else f"default {default}")
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return COMMANDS[args.command].fn(args, _options(args, COMMANDS[args.command].options))
    except UsageError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
