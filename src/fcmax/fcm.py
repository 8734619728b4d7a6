"""Expected-consistency training signals over N-best lists.

Given an N-best list for a sample, the raw sequence posteriors are
renormalized over the list, every hypothesis is scored against the sample's
reference, and each score is scaled by the reference word count.  The
expectation of the scaled scores under the renormalized posteriors is the
per-sample objective.  Its derivative with respect to each hypothesis's
per-step log outputs is a single coefficient

    posterior * (scaled_score - expectation)

so the gradient is that coefficient as the weight on every step of the
hypothesis's own token trajectory (``model.trajectory``: the EOS step is
included for finished hypotheses), the same form as likelihood training
with weight 1 on the reference.  The coefficients sum to zero across the
list, so the update only moves probability mass between the listed
hypotheses.

The N-best lists of S samples are scored as one batch (``score_batch``) of
(S, N) arrays, N the longest list: row s holds sample s's hypotheses in list
order, then pads.  A pad's log probability is -inf, so its posterior, and
with it its coefficient, is exactly 0.  One max/exp/sum normalizes every
row; every hypothesis is rendered, then all (hypothesis, reference) pairs go
to one ``score_all`` of the scorer, and a row mask puts the scores in place;
each row's expectation is the left-to-right sum of posterior * scaled score
over its columns, and the coefficients are one array expression.  Every
value is the one that scoring each list on its own gives, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .beam import Hypothesis, NBestList
from .corpus import Sample, id_renderer
from .scorers import ConsistencyScorer, ScorerError


class FcmError(ValueError):
    """A list that cannot be scored; ``row`` is the batch row at fault, or
    None when no single row is."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


def _posteriors(log_probs: np.ndarray, counts: list[int]) -> np.ndarray:
    """Softmax of each row of (S, N) raw log probabilities, max-subtracted for
    stability, where row s holds counts[s] entries and then -inf pads, which
    get exactly 0.  A row without entries or with a non-finite one raises
    FcmError naming the row."""
    width = log_probs.shape[1]
    # the pads are the only non-finite entries of a batch that can be normalized
    if min(counts, default=1) == 0 or np.count_nonzero(np.isfinite(log_probs)) != sum(counts):
        real = np.arange(width) < np.array(counts)[:, None]
        bad = (real & ~np.isfinite(log_probs)).any(axis=1) | ~real.any(axis=1)
        row = int(bad.argmax())
        raise FcmError("cannot normalize an empty posterior list" if counts[row] == 0
                       else "non-finite log probability in posterior list", row)
    shifted = np.exp(log_probs - np.maximum.reduce(log_probs, axis=1, keepdims=True,
                                                   initial=-np.inf))
    total = np.add.reduce(shifted, axis=1, keepdims=True)
    # numpy adds fewer than 8 terms left to right, so a row's pads add exact
    # zeros to its sum; it adds 8 or more pairwise, grouped by the row's
    # width, so there a short row is summed on its own
    if width >= 8:
        for row, n in enumerate(counts):
            if n < width:
                total[row] = shifted[row, :n].sum()
    shifted /= total
    return shifted


def normalize_posteriors(log_probs: Sequence[float]) -> np.ndarray:
    """Softmax over one list's raw sequence log probabilities: the batch
    normalization of ``score_batch`` on one row."""
    arr = np.array(log_probs, dtype=np.float64, ndmin=2)
    return _posteriors(arr, [arr.shape[1]])[0]


@dataclass
class ScoredBatch:
    """S scored N-best lists as (S, N) float64 arrays, N the longest list.

    Row s holds counts[s] hypotheses in list order, then pads: -inf in
    log_probs and 0 in the other arrays.  texts are the rendered hypotheses
    the scorer saw, row by row, without pads; scaled is the sample's
    reference word count times consistency, and expected (S,) each row's
    expectation of scaled under posteriors.
    """

    counts: np.ndarray
    texts: list[str]
    log_probs: np.ndarray
    posteriors: np.ndarray
    consistency: np.ndarray
    scaled: np.ndarray
    expected: np.ndarray


def score_batch(
    nbests: Sequence[Sequence[Hypothesis]],
    samples: Sequence[Sample],
    scorer: ConsistencyScorer,
    token_vocab: Sequence[str],
) -> ScoredBatch:
    """Score each hypothesis list nbests[s] against samples[s]'s reference and
    take its expectation.  An empty list, a non-finite log probability, a
    failing scorer and a score outside [0, 1] raise FcmError naming the
    sample."""
    counts = [len(hyps) for hyps in nbests]
    shape = len(counts), max(counts, default=0)
    pads = [-np.inf] * shape[1]
    log_probs = np.array([[h.log_prob for h in hyps] + pads[n:]
                          for hyps, n in zip(nbests, counts)]).reshape(shape)
    try:
        posteriors = _posteriors(log_probs, counts)
    except FcmError as exc:
        raise FcmError(f"sample {samples[exc.row].id!r}: {exc}") from exc
    render = id_renderer(tuple(token_vocab))
    texts: list[str] = []
    for sample, hyps in zip(samples, nbests):
        try:
            texts.extend(render(h.tokens) for h in hyps)
        except Exception as exc:
            raise FcmError(f"sample {sample.id!r}: {exc}") from exc
    owners = np.repeat(np.arange(shape[0]), counts)
    try:
        scores = scorer.score_all([(text, samples[s].reference)
                                   for text, s in zip(texts, owners.tolist())])
    except ScorerError as exc:
        raise FcmError(f"sample {samples[owners[exc.index]].id!r}: {exc.__cause__}") \
            from exc.__cause__
    consistency = np.zeros(shape)
    consistency[np.arange(shape[1]) < np.array(counts)[:, None]] = scores
    words = np.array([s.ref_word_count for s in samples], dtype=np.float64)
    scaled = words[:, None] * consistency
    # each row's sum from the left, as one list's += fold adds it
    expected = np.zeros(shape[0])
    for terms in (posteriors * scaled).T:
        expected += terms
    return ScoredBatch(counts=np.array(counts, dtype=np.int64), texts=texts,
                       log_probs=log_probs, posteriors=posteriors, consistency=consistency,
                       scaled=scaled, expected=expected)


def expected_consistency(
    nbest: NBestList,
    sample: Sample,
    scorer: ConsistencyScorer,
    token_vocab: Sequence[str],
) -> ScoredBatch:
    """Score one N-best list against the sample reference: a batch of one row.
    Kept only because the benchmark's layer trace records it by name."""
    return score_batch([nbest.hypotheses], [sample], scorer, token_vocab)


def fcm_coefficients(batch: ScoredBatch) -> np.ndarray:
    """(S, N) trajectory weights, posterior * (scaled - expected) per
    hypothesis; pads get 0."""
    return batch.posteriors * (batch.scaled - batch.expected[:, None])


# The benchmark's layer trace records the coefficient step under this name.
fcm_step_gradients = fcm_coefficients


def fcm_corpus_objective(batch: ScoredBatch) -> float:
    """Sum of per-sample expected scaled consistency, in row order."""
    total = 0.0
    for expected in batch.expected.tolist():
        total += expected
    return total
