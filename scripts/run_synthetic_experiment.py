#!/usr/bin/env python3
"""End-to-end synthetic experiment: likelihood pretraining, consistency
fine-tuning, utterance-level evaluation and the chunked summarization
comparison, with paired significance tests between the stages.

It runs the ``fcmax`` CLI's pipeline at the CLI's defaults, which it
reads from ``fcmax.cli.COMMANDS``; only the seed (FCM at seed + 1), the
split sizes and the CE dev-check cadence (a quarter of the run) are the
script's own.  Every config is checked before a file is written into
--out-dir, and each file is written atomically, so a killed run leaves no
torn file.  A failure prints one ``error:`` line and exits with status 2,
as the CLI does.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from fcmax.cli import COMMANDS
from fcmax.corpus import (
    SynthConfig, atomic_write_text, default_token_weights, generate_synthetic_corpus, save_corpus,
    write_jsonl,
)
from fcmax.metrics import evaluate_utterances, markdown_report, paired_t_test
from fcmax.model import init_params, save_checkpoint
from fcmax.scorers import weighted_f1_scorer
from fcmax.summeval import corpus_to_utterances, evaluate_summaries, make_summarizer
from fcmax.trainer import (
    SafeguardConfig, TrainingSchedule, decode_corpus_top1, train_ce, train_fcm,
)

DATA, CE, FCM = (COMMANDS[name].options for name in ("gen-data", "train-ce", "train-fcm"))


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("runs/synthetic"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n-train", type=int, default=1000)
    ap.add_argument("--n-dev", type=int, default=200)
    ap.add_argument("--n-test", type=int, default=200)
    ap.add_argument("--d", type=int, default=CE["d"])
    ap.add_argument("--ce-iters", type=int, default=CE["iters"])
    ap.add_argument("--ce-lr", type=float, default=CE["lr"])
    ap.add_argument("--ce-batch", type=int, default=CE["batch-size"])
    ap.add_argument("--fcm-iters", type=int, default=FCM["iters"])
    ap.add_argument("--fcm-lr", type=float, default=FCM["lr"])
    ap.add_argument("--negation-drop-rate", type=float, default=DATA["negation-drop-rate"])
    ap.add_argument("--quiet", action="store_true")
    return ap.parse_args()


def ttest_entry(result):
    return None if result is None else {"t": result.t_statistic, "p": result.p_value_two_tailed}


def paired_or_none(a, b):
    """The paired t-test of a - b, or None where fewer than two pairs leave
    it undefined (a small test split can have one summary window)."""
    return paired_t_test(a, b) if len(a) >= 2 else None


def main():
    args = parse_args()
    for flag, size in (("--n-train", args.n_train), ("--n-dev", args.n_dev),
                       ("--n-test", args.n_test)):
        if size < 1:  # an empty split would fail only after the corpus files are written
            raise ValueError(f"{flag} must be >= 1, got {size}")
    if not 0 <= args.seed < 2**64 - 1:  # FCM runs at seed + 1, a np.uint64 too
        raise ValueError(f"--seed must be in [0, 2**64 - 1), got {args.seed}")
    cfg = SynthConfig(n_samples=args.n_train + args.n_dev + args.n_test, seed=args.seed,
                      negation_drop_rate=args.negation_drop_rate)
    decoding = {"beam_size": CE["beam-size"], "nbest_size": CE["nbest-size"],
                "max_len": CE["max-len"]}
    ce_schedule = TrainingSchedule(
        total_iterations=args.ce_iters, initial_lr=args.ce_lr, batch_size=args.ce_batch,
        seed=args.seed, checkpoint_every=max(1, args.ce_iters // 4), **decoding,
    )
    fcm_schedule = TrainingSchedule(
        total_iterations=args.fcm_iters, initial_lr=args.fcm_lr, batch_size=FCM["batch-size"],
        seed=args.seed + 1, **decoding,
    )
    safeguard = SafeguardConfig(max_fcm_iterations=args.fcm_iters,
                                deletion_rate_limit=FCM["deletion-rate-limit"],
                                dev_check_every=FCM["dev-check-every"])
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    stage_s = defaultdict(float)

    @contextmanager
    def stage(name):
        start = time.perf_counter()
        yield
        stage_s[name] += time.perf_counter() - start

    with stage("corpus"):
        full = generate_synthetic_corpus(cfg)
        train, dev, test = full.split(args.n_train, args.n_dev, args.n_test)
        save_corpus(train, out / "train.jsonl")
        save_corpus(dev, out / "dev.jsonl")
        save_corpus(test, out / "test.jsonl")
    scorer = weighted_f1_scorer(default_token_weights(cfg))

    def log(msg):
        if not args.quiet:
            print(f"[{time.time() - t0:7.1f}s] {msg}", flush=True)

    systems, top1 = {}, {}  # label -> UtteranceRow, label -> test top-1 texts

    def evaluate(label, params, name):
        log(f"evaluating {name}")
        with stage("test_eval"):
            texts = top1[label] = decode_corpus_top1(params, test, CE["beam-size"], CE["max-len"])
            pairs = [(t, s.reference) for t, s in zip(texts, test.samples)]
            systems[label] = evaluate_utterances(pairs, scorer)

    random_model = init_params(args.d, train.source_vocab_size, len(train.token_vocab),
                               seed=args.seed)
    evaluate("random-init", random_model, "random-init model")

    log(f"likelihood training: {args.ce_iters} iterations at lr {args.ce_lr}")
    with stage("ce_train"):
        ce = train_ce(random_model, train, ce_schedule, dev=dev, scorer=scorer)
        save_checkpoint(ce.params, out / "ce.json")
        write_jsonl(out / "ce_metrics.jsonl", ce.log)
    evaluate("ce", ce.params, "likelihood model")

    log(f"consistency fine-tuning: {args.fcm_iters} iterations at lr {args.fcm_lr}")
    with stage("fcm_train"):
        fcm = train_fcm(ce.params, train, scorer, fcm_schedule, safeguard, dev=dev)
        save_checkpoint(fcm.params, out / "fcm.json")
        write_jsonl(out / "fcm_metrics.jsonl", fcm.log)
    if fcm.guard_tripped:
        log(f"NOTE: {fcm.guard_report}")
    evaluate("fcm", fcm.params, "fine-tuned model")

    print(markdown_report(list(systems.items())))
    ttest = paired_or_none(systems["fcm"].scores, systems["ce"].scores)
    print("fcm vs ce consistency: " + ("n/a" if ttest is None else
          f"t={ttest.t_statistic:.3f} p={ttest.p_value_two_tailed:.5f} "
          f"significant={'yes' if ttest.significant_at_95 else 'no'}"))
    wer_delta = 100.0 * (systems["fcm"].breakdown.wer - systems["ce"].breakdown.wer)
    print(f"wer delta (fcm - ce): {wer_delta:+.2f} points")

    log("summarization comparison (mock summarizer)")
    with stage("summaries"):
        summarizer = make_summarizer("mock")
        ref_utts = corpus_to_utterances(test)
        summaries = {}  # label -> (per-window scores, mean)
        for label in ("ce", "fcm"):
            texts = top1[label]
            hyp_utts = corpus_to_utterances(test, {s.id: t for s, t in zip(test.samples, texts)})
            summaries[label] = evaluate_summaries(ref_utts, hyp_utts, summarizer, scorer)
            atomic_write_text(out / f"sum_scores_{label}.json", json.dumps(summaries[label][0]))
        gt_scores, gt_mean = evaluate_summaries(ref_utts, ref_utts, summarizer, scorer)
    print(f"summary consistency: ce={summaries['ce'][1]:.4f} fcm={summaries['fcm'][1]:.4f} "
          f"ground-truth={gt_mean:.4f} ({len(gt_scores)} chunks)")
    st = paired_or_none(summaries["fcm"][0], summaries["ce"][0])
    print("summary fcm vs ce: " + ("n/a" if st is None else
          f"t={st.t_statistic:.3f} p={st.p_value_two_tailed:.5f}"))

    report = {
        "systems": [
            {"label": label, "wer": row.breakdown.wer, "ins_rate": row.breakdown.insertion_rate,
             "del_rate": row.breakdown.deletion_rate, "mean_consistency": row.mean,
             "consistent_ratio": row.ratio} for label, row in systems.items()
        ],
        "utt_ttest_fcm_vs_ce": ttest_entry(ttest),
        "wer_delta_points": wer_delta,
        "guard_tripped": fcm.guard_tripped,
        "summary_means": {label: mean for label, (_, mean) in summaries.items()},
        "summary_mean_ground_truth": gt_mean,
        "summary_ttest_fcm_vs_ce": ttest_entry(st),
        "runtime_s": time.time() - t0,
        "stage_s": dict(stage_s),
    }
    atomic_write_text(out / "report.json", json.dumps(report, indent=2) + "\n")
    log("done")


if __name__ == "__main__":
    try:
        main()
    except Exception as exc:  # as ``fcmax.cli.run`` reports a runtime error
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
