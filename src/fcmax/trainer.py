"""Training loops: likelihood pretraining and consistency fine-tuning.

Both loops are plain gradient ascent with a linear-decay learning rate and a
seeded shuffle, so identical inputs give bit-identical checkpoints.  Both
gradients are one weight on each whole token trajectory: the likelihood
loop puts 1 / B on each of its B reference paths, and the consistency loop
decodes the batch's samples together, scores their N-best lists as one
batch (``fcm.score_batch``: (B, N) arrays of posteriors, scores and
coefficients) and puts each hypothesis's coefficient on that hypothesis's
path.  Either way an iteration's U trajectories, each one id path
(``model.trajectory``), go padded and with (U,) weights through one forward
and one backward call (``_trajectory_gradient``).  The likelihood loop pads
its corpus's reference paths once and takes each batch's rows; the
consistency loop pads each batch's paths anew (``_minibatch_gradient``).  Dev
checks score the whole dev set's lists as one batch in the same way.  Two
safeguards bound the consistency loop: a hard iteration cap (fine-tuning
starts from a well-trained likelihood model and runs briefly) and a
deletion tripwire that halts the run if dev deletions grow past a limit,
returning the best previously-passing checkpoint instead, or the starting
model when no checkpoint ever passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .beam import Hypothesis, NBestList, beam_decode_batch
from .corpus import Corpus
from .fcm import FcmError, ScoredBatch, fcm_coefficients, fcm_corpus_objective, score_batch
from .metrics import EditBreakdown, corpus_wer
from .model import (
    ModelError, ModelParams, PaddedIds, apply_update, backward, forward_teacher, trajectory,
)
from .scorers import ConsistencyScorer


class TrainerError(ValueError):
    pass


@dataclass(frozen=True)
class TrainingSchedule:
    """Iterations, learning rate, batch and decoding sizes of a training run.
    checkpoint_every is the cadence of ``train_ce``'s dev checks;
    ``train_fcm`` reads ``SafeguardConfig.dev_check_every`` instead."""

    total_iterations: int
    initial_lr: float
    batch_size: int = 1
    beam_size: int = 4
    nbest_size: int = 4
    max_len: int = 24
    seed: int = 0
    checkpoint_every: int = 100

    def validate(self) -> None:
        if self.total_iterations < 0:
            raise TrainerError(f"total_iterations must be >= 0, got {self.total_iterations}")
        if not 0 < self.initial_lr < np.inf:
            raise TrainerError(f"initial_lr must be finite and > 0, got {self.initial_lr}")
        if self.batch_size < 1:
            raise TrainerError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.nbest_size > self.beam_size:
            raise TrainerError(
                f"nbest_size {self.nbest_size} exceeds beam_size {self.beam_size}"
            )
        if min(self.beam_size, self.nbest_size, self.max_len, self.checkpoint_every) < 1:
            raise TrainerError("beam_size, nbest_size, max_len, checkpoint_every must be >= 1")


@dataclass(frozen=True)
class SafeguardConfig:
    """Bounds on consistency fine-tuning.  max_fcm_iterations caps the updates
    but not the lr decay over total_iterations, so a lower cap never anneals."""

    max_fcm_iterations: int = 500
    deletion_rate_limit: float = 0.25
    dev_check_every: int = 50
    ce_interpolation_weight: float = 0.0

    def validate(self) -> None:
        if self.max_fcm_iterations < 1:
            raise TrainerError(
                f"max_fcm_iterations must be >= 1, got {self.max_fcm_iterations}"
            )
        if not 0.0 < self.deletion_rate_limit <= 1.0:
            raise TrainerError(
                f"deletion_rate_limit must be in (0, 1], got {self.deletion_rate_limit}"
            )
        if self.dev_check_every < 1:
            raise TrainerError(f"dev_check_every must be >= 1, got {self.dev_check_every}")
        if not 0.0 <= self.ce_interpolation_weight < 1.0:
            raise TrainerError(
                f"ce_interpolation_weight must be in [0, 1), got {self.ce_interpolation_weight}"
            )


@dataclass
class TrainResult:
    params: ModelParams
    log: list[dict] = field(default_factory=list)
    guard_tripped: bool = False
    guard_report: str | None = None


def linear_decay_lr(step: int, total: int, initial_lr: float) -> float:
    """Learning rate at a 0-based step: initial * (1 - step/total)."""
    if not 0 <= step < total:
        raise TrainerError(f"step {step} outside [0, {total})")
    return initial_lr * (1.0 - step / total)


def _batch_iterator(rng: np.random.Generator, n: int, batch_size: int):
    """Yield index batches, int64 arrays, forever, reshuffling at every epoch
    boundary."""
    while True:
        order = rng.permutation(n)
        for at in range(0, n, batch_size):
            chunk = order[at:at + batch_size]
            if len(chunk) == batch_size:
                yield chunk
        # a short final chunk is dropped; the next epoch reshuffles all n


def _trajectory_gradient(params: ModelParams, it: int, owners, inputs, paths,
                         weights) -> ModelParams:
    """The ascent gradient of U padded inputs and id paths and their (U,)
    weights, from one forward and one backward call; owners[u] is the sample
    of trajectory u.  A failing batch row is mapped back to its sample."""
    try:
        trace = forward_teacher(params, inputs, paths)
        if not np.all(np.isfinite(trace.log_probs)):
            raise TrainerError(f"non-finite loss at iteration {it}")
        return backward(params, trace, weights)
    except ModelError as exc:
        where = "" if exc.row is None else f", sample {owners[exc.row].id!r}"
        raise TrainerError(f"iteration {it}{where}: {exc}") from exc


def _minibatch_gradient(params: ModelParams, corpus: Corpus, it: int, samples, hypotheses,
                        coefficients: np.ndarray, ce_weight: float) -> ModelParams:
    """The ascent gradient of one consistency iteration.

    hypotheses[i] holds the hypotheses of samples[i], and coefficients[i, k]
    is the coefficient of hypotheses[i][k] (``fcm_coefficients``; columns
    past a row's hypotheses are ignored).  With B samples, each hypothesis
    with a nonzero coefficient is a trajectory of weight
    (1 - ce_weight) * coefficient / B, and when ce_weight > 0 the sample's
    reference is a trajectory of weight ce_weight / B.  The rows are padded
    per iteration, each sample's hypotheses then its reference, since that
    row order is part of the gradient's summation order.
    """
    scale = 1.0 / len(samples)
    weights = ((1.0 - ce_weight) * coefficients * scale).tolist()
    owners, paths, kept = [], [], []
    for sample, hyps, coeffs, row in zip(samples, hypotheses, coefficients.tolist(), weights):
        weighted = [(h.tokens, h.finished, w) for h, c, w in zip(hyps, coeffs, row)
                    if c != 0.0]  # zero adds exact zeros
        if ce_weight > 0.0:
            weighted.append((corpus.reference_ids(sample), True, ce_weight * scale))
        for tokens, finished, weight in weighted:
            owners.append(sample)
            paths.append(trajectory(tokens, finished, corpus.bos_id, corpus.eos_id))
            kept.append(weight)
    if not owners:  # every coefficient was zero, as for N-best lists of one
        return params.zeros_like()
    return _trajectory_gradient(params, it, owners, PaddedIds.of(s.input for s in owners),
                                PaddedIds.of(paths), np.array(kept))


def decode_samples(params: ModelParams, corpus: Corpus, samples, beam_size: int,
                   max_len: int) -> list[NBestList]:
    """The N-best list of every sample, decoded together by one batched beam
    search; an input that cannot be encoded raises FcmError naming its sample."""
    try:
        return beam_decode_batch(params, [s.input for s in samples], beam_size, max_len,
                                 bos_id=corpus.bos_id, eos_id=corpus.eos_id)
    except ModelError as exc:
        raise FcmError(f"sample {samples[exc.row].id!r}: {exc}") from exc


def decode_corpus_top1(params: ModelParams, corpus: Corpus, beam_size: int, max_len: int) -> list[str]:
    """The top hypothesis of every sample's beam search, as text, in corpus order."""
    return [corpus.decode_ids(nbest.hypotheses[0].tokens)
            for nbest in decode_samples(params, corpus, corpus.samples, beam_size, max_len)]


def _decode_and_score(params: ModelParams, corpus: Corpus, samples, scorer: ConsistencyScorer,
                      beam_size: int, nbest_size: int, max_len: int
                      ) -> tuple[list[list[Hypothesis]], ScoredBatch]:
    """Each sample's top nbest_size hypotheses, decoded together, and their
    scored batch (``score_batch``); a failure raises FcmError naming its
    sample."""
    hypotheses = [nbest.hypotheses[:nbest_size]
                  for nbest in decode_samples(params, corpus, samples, beam_size, max_len)]
    return hypotheses, score_batch(hypotheses, samples, scorer, corpus.token_vocab)


def evaluate_on(params: ModelParams, corpus: Corpus, scorer: ConsistencyScorer,
                beam_size: int, nbest_size: int, max_len: int) -> dict:
    """Dev-set metrics: pooled WER, deletion and insertion rates, mean
    consistency, objective, and the share of top hypotheses cut at max_len.

    The whole corpus is decoded and scored as one batch, each sample once;
    then the first column of each row gives the top hypothesis's text (for
    WER) and its consistency, and each row's expectation adds to the
    objective.
    """
    hypotheses, batch = _decode_and_score(params, corpus, corpus.samples, scorer, beam_size,
                                          nbest_size, max_len)
    firsts = (np.cumsum(batch.counts) - batch.counts).tolist()  # each row's top in texts
    breakdown = corpus_wer([(batch.texts[at], s.reference)
                            for at, s in zip(firsts, corpus.samples)])
    scores = batch.consistency[:, 0].tolist()
    return {
        "dev_wer": breakdown.wer,
        "dev_del_rate": breakdown.deletion_rate,
        "dev_ins_rate": breakdown.insertion_rate,
        "dev_unfinished_top1": sum(not hyps[0].finished for hyps in hypotheses) / len(hypotheses),
        "dev_avg_consistency": sum(scores) / len(scores),
        "dev_fcm_objective": fcm_corpus_objective(batch),
        "_breakdown": breakdown,
    }


def _log_entry(iteration: int, lr: float, dev_metrics: dict | None) -> dict:
    entry = {"iter": iteration, "lr": lr}
    if dev_metrics is not None:
        entry.update({k: v for k, v in dev_metrics.items() if not k.startswith("_")})
    return entry


def deletion_guard(dev_wer_breakdown: EditBreakdown, limit: float) -> bool:
    """True means trip: dev deletions per reference word strictly exceed the limit."""
    if dev_wer_breakdown.ref_words <= 0:
        raise TrainerError("deletion guard needs a breakdown with reference words")
    return dev_wer_breakdown.deletions / dev_wer_breakdown.ref_words > limit


def train_ce(
    params: ModelParams,
    corpus: Corpus,
    schedule: TrainingSchedule,
    dev: Corpus | None = None,
    scorer: ConsistencyScorer | None = None,
) -> TrainResult:
    """Teacher-forced likelihood training (gradient ascent on log likelihood).

    Every sample's input and reference path is padded once; an
    iteration takes its B samples' rows, each a trajectory of weight 1 / B.
    Dev checks, every checkpoint_every iterations, score with scorer (no default).
    """
    schedule.validate()
    if not corpus.samples:
        raise TrainerError("training corpus is empty")
    if dev is not None and not dev.samples:
        raise TrainerError("dev corpus is empty")
    if dev is not None and scorer is None:
        raise TrainerError("a dev corpus needs a scorer for its dev checks")
    params = params.copy()
    rng = np.random.default_rng(np.uint64(schedule.seed))
    batch_size = min(schedule.batch_size, len(corpus.samples))
    batches = _batch_iterator(rng, len(corpus.samples), batch_size)
    inputs = PaddedIds.of(s.input for s in corpus.samples)
    paths = PaddedIds.of(trajectory(corpus.reference_ids(s), True, corpus.bos_id, corpus.eos_id)
                         for s in corpus.samples)
    weights = np.full(batch_size, 1.0 / batch_size)
    log: list[dict] = []
    for it in range(schedule.total_iterations):
        lr = linear_decay_lr(it, schedule.total_iterations, schedule.initial_lr)
        rows = next(batches)
        grad = _trajectory_gradient(params, it, [corpus.samples[i] for i in rows],
                                    inputs.take(rows), paths.take(rows), weights)
        params = apply_update(params, grad, lr)
        if dev is not None and ((it + 1) % schedule.checkpoint_every == 0
                                or it + 1 == schedule.total_iterations):
            metrics = evaluate_on(params, dev, scorer, schedule.beam_size,
                                  schedule.nbest_size, schedule.max_len)
            log.append(_log_entry(it + 1, lr, metrics))
    return TrainResult(params=params, log=log)


def train_fcm(
    params: ModelParams,
    corpus: Corpus,
    scorer: ConsistencyScorer,
    schedule: TrainingSchedule,
    safeguard: SafeguardConfig = SafeguardConfig(),
    dev: Corpus | None = None,
) -> TrainResult:
    """Consistency fine-tuning of an already likelihood-trained model.

    Runs at most min(total_iterations, max_fcm_iterations) updates, but the
    learning rate decays linearly over total_iterations: a cap below it ends
    the run before the rate anneals.  When a dev corpus is given, dev
    metrics are logged every dev_check_every iterations and the deletion
    tripwire is checked; a trip ends training and the result carries the
    best passing checkpoint (highest dev objective) together with a report.
    A tripped run never returns a checkpoint whose dev deletion rate was
    above the limit, except when no checkpoint passed at all, the starting
    model included: then the starting model is returned and the report says
    so and gives its dev deletion rate.
    """
    schedule.validate()
    safeguard.validate()
    if not corpus.samples:
        raise TrainerError("training corpus is empty")
    if dev is not None and not dev.samples:
        raise TrainerError("dev corpus is empty")
    params = params.copy()
    rng = np.random.default_rng(np.uint64(schedule.seed))
    batches = _batch_iterator(rng, len(corpus.samples), min(schedule.batch_size, len(corpus.samples)))
    log: list[dict] = []
    limit = safeguard.deletion_rate_limit
    total_iters = min(schedule.total_iterations, safeguard.max_fcm_iterations)

    best_params: ModelParams | None = None
    best_objective = -np.inf
    if dev is not None:
        metrics = evaluate_on(params, dev, scorer, schedule.beam_size,
                              schedule.nbest_size, schedule.max_len)
        log.append(_log_entry(0, schedule.initial_lr, metrics))
        start_del_rate = metrics["dev_del_rate"]
        if not deletion_guard(metrics["_breakdown"], limit):
            best_params, best_objective = params.copy(), metrics["dev_fcm_objective"]

    current = params
    for it in range(total_iters):
        lr = linear_decay_lr(it, schedule.total_iterations, schedule.initial_lr)
        samples = [corpus.samples[idx] for idx in next(batches)]
        try:
            hypotheses, batch = _decode_and_score(current, corpus, samples, scorer,
                                                  schedule.beam_size, schedule.nbest_size,
                                                  schedule.max_len)
        except FcmError as exc:  # names the sample
            raise TrainerError(f"iteration {it}, {exc}") from exc
        grad = _minibatch_gradient(current, corpus, it, samples, hypotheses,
                                   fcm_coefficients(batch), safeguard.ce_interpolation_weight)
        current = apply_update(current, grad, lr)
        if dev is not None and ((it + 1) % safeguard.dev_check_every == 0
                                or it + 1 == total_iters):
            metrics = evaluate_on(current, dev, scorer, schedule.beam_size,
                                  schedule.nbest_size, schedule.max_len)
            log.append(_log_entry(it + 1, lr, metrics))
            if deletion_guard(metrics["_breakdown"], limit):
                if best_params is None:
                    fallback, returning = params, (
                        f"no checkpoint passed the guard; returning the starting model "
                        f"(dev deletion rate {start_del_rate:.4f})")
                else:
                    fallback, returning = best_params, "returning best passing checkpoint"
                report = (
                    f"deletion guard tripped at iteration {it + 1}: dev deletion rate "
                    f"{metrics['dev_del_rate']:.4f} > limit {limit:.4f}; {returning}"
                )
                return TrainResult(params=fallback, log=log, guard_tripped=True,
                                   guard_report=report)
            if metrics["dev_fcm_objective"] > best_objective:
                best_params = current.copy()
                best_objective = metrics["dev_fcm_objective"]
    return TrainResult(params=current, log=log)
