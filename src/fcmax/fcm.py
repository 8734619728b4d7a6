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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .beam import NBestList
from .corpus import Sample, detokenize
from .scorers import ConsistencyScorer


class FcmError(ValueError):
    pass


def normalize_posteriors(log_probs: Sequence[float]) -> np.ndarray:
    """Softmax over raw sequence log probabilities, max-subtracted for stability."""
    arr = np.asarray(log_probs, dtype=np.float64)
    if arr.size == 0:
        raise FcmError("cannot normalize an empty posterior list")
    if not np.all(np.isfinite(arr)):
        raise FcmError("non-finite log probability in posterior list")
    shifted = np.exp(arr - arr.max())
    return shifted / shifted.sum()


@dataclass(frozen=True)
class ScoredHypothesis:
    tokens: tuple[int, ...]
    text: str
    log_prob: float
    posterior: float
    consistency: float
    scaled_score: float
    finished: bool


@dataclass
class ScoredNBest:
    """An N-best list with posteriors, consistency scores and the expectation."""

    hypotheses: list[ScoredHypothesis]
    ref_word_count: int
    expected_score: float


def expected_consistency(
    nbest: NBestList,
    sample: Sample,
    scorer: ConsistencyScorer,
    token_vocab: Sequence[str],
) -> ScoredNBest:
    """Score an N-best list against the sample reference and take the expectation."""
    posteriors = normalize_posteriors([h.log_prob for h in nbest.hypotheses])
    scored: list[ScoredHypothesis] = []
    expected = 0.0
    for hyp, posterior in zip(nbest.hypotheses, posteriors):
        text = detokenize(token_vocab[t] for t in hyp.tokens)
        consistency = scorer(text, sample.reference)
        scaled = sample.ref_word_count * consistency
        expected += float(posterior) * scaled
        scored.append(ScoredHypothesis(
            tokens=hyp.tokens,
            text=text,
            log_prob=hyp.log_prob,
            posterior=float(posterior),
            consistency=consistency,
            scaled_score=scaled,
            finished=hyp.finished,
        ))
    return ScoredNBest(
        hypotheses=scored,
        ref_word_count=sample.ref_word_count,
        expected_score=expected,
    )


def fcm_coefficients(scored: ScoredNBest) -> np.ndarray:
    """One trajectory weight per hypothesis: posterior * (scaled - expected)."""
    return np.array([h.posterior * (h.scaled_score - scored.expected_score)
                     for h in scored.hypotheses])


# The benchmark's layer trace records the coefficient step under this name.
fcm_step_gradients = fcm_coefficients


def fcm_corpus_objective(scored: Iterable[ScoredNBest]) -> float:
    """Sum of per-sample expected scaled consistency, in corpus order."""
    total = 0.0
    for one in scored:
        total += one.expected_score
    return total
