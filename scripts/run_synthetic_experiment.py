#!/usr/bin/env python3
"""End-to-end synthetic experiment: likelihood pretraining, consistency
fine-tuning, utterance-level evaluation and the chunked summarization
comparison, with paired significance tests between the stages.

Writes checkpoints, metrics logs, reports and score vectors into --out-dir,
each file atomically, so a killed run leaves no torn file.
"""

from __future__ import annotations

import argparse
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from fcmax.corpus import (
    SynthConfig, atomic_write_text, default_token_weights, generate_synthetic_corpus, save_corpus,
    write_jsonl,
)
from fcmax.metrics import corpus_wer, avg_consistency, consistent_ratio, markdown_report, paired_t_test
from fcmax.model import init_params, save_checkpoint
from fcmax.scorers import weighted_f1_scorer
from fcmax.summeval import corpus_to_utterances, evaluate_summaries, make_summarizer
from fcmax.trainer import (
    SafeguardConfig, TrainingSchedule, decode_corpus_top1, train_ce, train_fcm,
)

# the decoding of every dev check and test evaluation
BEAM_SIZE, NBEST_SIZE, MAX_LEN = 4, 4, 24


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("runs/synthetic"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n-train", type=int, default=1000)
    ap.add_argument("--n-dev", type=int, default=200)
    ap.add_argument("--n-test", type=int, default=200)
    ap.add_argument("--d", type=int, default=32)
    ap.add_argument("--ce-iters", type=int, default=2000)
    ap.add_argument("--ce-lr", type=float, default=0.15)
    ap.add_argument("--ce-batch", type=int, default=4)
    ap.add_argument("--fcm-iters", type=int, default=500)
    ap.add_argument("--fcm-lr", type=float, default=0.02)
    ap.add_argument("--negation-drop-rate", type=float, default=0.3)
    ap.add_argument("--quiet", action="store_true")
    return ap.parse_args()


def eval_system(label, texts, corpus, scorer):
    pairs = [(t, s.reference) for t, s in zip(texts, corpus.samples)]
    breakdown = corpus_wer(pairs)
    mean, scores = avg_consistency(pairs, scorer)
    ratio = consistent_ratio(scores, 0.5)
    return {"label": label, "texts": texts, "breakdown": breakdown, "mean": mean,
            "ratio": ratio, "scores": scores}


def ttest_entry(result):
    return None if result is None else {"t": result.t_statistic, "p": result.p_value_two_tailed}


def paired_or_none(a, b):
    """The paired t-test of a - b, or None where fewer than two pairs leave
    it undefined (a small test split can have one summary window)."""
    return paired_t_test(a, b) if len(a) >= 2 else None


def main():
    args = parse_args()
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    stage_s = defaultdict(float)

    @contextmanager
    def stage(name):
        start = time.perf_counter()
        yield
        stage_s[name] += time.perf_counter() - start

    cfg = SynthConfig(
        n_samples=args.n_train + args.n_dev + args.n_test,
        seed=args.seed,
        negation_drop_rate=args.negation_drop_rate,
    )
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

    random_model = init_params(args.d, train.source_vocab_size, len(train.token_vocab),
                               seed=args.seed)
    systems = []

    log("evaluating random-init model")
    with stage("test_eval"):
        texts = decode_corpus_top1(random_model, test, BEAM_SIZE, MAX_LEN)
        systems.append(eval_system("random-init", texts, test, scorer))

    log(f"likelihood training: {args.ce_iters} iterations at lr {args.ce_lr}")
    ce_schedule = TrainingSchedule(
        total_iterations=args.ce_iters, initial_lr=args.ce_lr, batch_size=args.ce_batch,
        beam_size=BEAM_SIZE, nbest_size=NBEST_SIZE, max_len=MAX_LEN, seed=args.seed,
        checkpoint_every=max(1, args.ce_iters // 4),
    )
    with stage("ce_train"):
        ce = train_ce(random_model, train, ce_schedule, dev=dev, scorer=scorer)
        save_checkpoint(ce.params, out / "ce.json")
        write_jsonl(out / "ce_metrics.jsonl", ce.log)
    log("evaluating likelihood model")
    with stage("test_eval"):
        texts = decode_corpus_top1(ce.params, test, BEAM_SIZE, MAX_LEN)
        systems.append(eval_system("ce", texts, test, scorer))

    log(f"consistency fine-tuning: {args.fcm_iters} iterations at lr {args.fcm_lr}")
    fcm_schedule = TrainingSchedule(
        total_iterations=args.fcm_iters, initial_lr=args.fcm_lr, batch_size=1,
        beam_size=BEAM_SIZE, nbest_size=NBEST_SIZE, max_len=MAX_LEN, seed=args.seed + 1,
    )
    safeguard = SafeguardConfig(max_fcm_iterations=args.fcm_iters,
                                deletion_rate_limit=0.25, dev_check_every=50)
    with stage("fcm_train"):
        fcm = train_fcm(ce.params, train, scorer, fcm_schedule, safeguard, dev=dev)
        save_checkpoint(fcm.params, out / "fcm.json")
        write_jsonl(out / "fcm_metrics.jsonl", fcm.log)
    if fcm.guard_tripped:
        log(f"NOTE: {fcm.guard_report}")
    log("evaluating fine-tuned model")
    with stage("test_eval"):
        texts = decode_corpus_top1(fcm.params, test, BEAM_SIZE, MAX_LEN)
        systems.append(eval_system("fcm", texts, test, scorer))

    table = markdown_report([(s["label"], s["breakdown"], s["mean"], s["ratio"])
                             for s in systems])
    print(table)
    by_label = {s["label"]: s for s in systems}
    ttest = paired_or_none(by_label["fcm"]["scores"], by_label["ce"]["scores"])
    print("fcm vs ce consistency: " + ("n/a" if ttest is None else
          f"t={ttest.t_statistic:.3f} p={ttest.p_value_two_tailed:.5f} "
          f"significant={'yes' if ttest.significant_at_95 else 'no'}"))
    wer_delta = 100.0 * (by_label["fcm"]["breakdown"].wer - by_label["ce"]["breakdown"].wer)
    print(f"wer delta (fcm - ce): {wer_delta:+.2f} points")

    log("summarization comparison (mock summarizer)")
    with stage("summaries"):
        summarizer = make_summarizer("mock")
        ref_utts = corpus_to_utterances(test)
        sum_rows = []
        for label in ("ce", "fcm"):
            texts = by_label[label]["texts"]
            hyp_utts = corpus_to_utterances(test, {s.id: t for s, t in zip(test.samples, texts)})
            scores, mean = evaluate_summaries(ref_utts, hyp_utts, summarizer, scorer)
            atomic_write_text(out / f"sum_scores_{label}.json", json.dumps(scores))
            sum_rows.append((label, scores, mean))
        gt_scores, gt_mean = evaluate_summaries(ref_utts, ref_utts, summarizer, scorer)
    print(f"summary consistency: ce={sum_rows[0][2]:.4f} fcm={sum_rows[1][2]:.4f} "
          f"ground-truth={gt_mean:.4f} ({len(gt_scores)} chunks)")
    st = paired_or_none(sum_rows[1][1], sum_rows[0][1])
    print("summary fcm vs ce: " + ("n/a" if st is None else
          f"t={st.t_statistic:.3f} p={st.p_value_two_tailed:.5f}"))

    report = {
        "systems": [
            {"label": s["label"], "wer": s["breakdown"].wer,
             "ins_rate": s["breakdown"].insertion_rate,
             "del_rate": s["breakdown"].deletion_rate, "mean_consistency": s["mean"],
             "consistent_ratio": s["ratio"]} for s in systems
        ],
        "utt_ttest_fcm_vs_ce": ttest_entry(ttest),
        "wer_delta_points": wer_delta,
        "guard_tripped": fcm.guard_tripped,
        "summary_means": {label: mean for label, _, mean in sum_rows},
        "summary_mean_ground_truth": gt_mean,
        "summary_ttest_fcm_vs_ce": ttest_entry(st),
        "runtime_s": time.time() - t0,
        "stage_s": dict(stage_s),
    }
    atomic_write_text(out / "report.json", json.dumps(report, indent=2) + "\n")
    log("done")


if __name__ == "__main__":
    main()
