"""Posterior renormalization, the expected score and its gradient structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    AMBIG_VOCAB, DUNNO, KNOW, fcm_fixed_nbest_check, random_params, validate_scored,
)
from fcmax.beam import Hypothesis, NBestList
from fcmax.corpus import BOS, EOS, Corpus, Sample, SynthConfig, generate_synthetic_corpus
from fcmax.fcm import (
    FcmError, ScoredHypothesis, ScoredNBest, expected_consistency, fcm_coefficients,
    fcm_corpus_objective, normalize_posteriors,
)
from fcmax.model import trajectory
from fcmax.scorers import ConsistencyScorer, exact_match_scorer, weighted_f1_scorer
from fcmax.trainer import evaluate_on


def constant_scorer(value: float) -> ConsistencyScorer:
    return ConsistencyScorer(name=f"const-{value}", fn=lambda h, r: value)


def table_scorer(table: dict[str, float]) -> ConsistencyScorer:
    return ConsistencyScorer(name="table", fn=lambda h, r: table[h])


def test_normalize_single():
    assert normalize_posteriors([-3.7]).tolist() == [1.0]


def test_normalize_equal_pair():
    out = normalize_posteriors([-1.0, -1.0])
    assert out.tolist() == [0.5, 0.5]


def test_normalize_recovers_raw_probabilities():
    out = normalize_posteriors([np.log(0.8), np.log(0.2)])
    assert out[0] == pytest.approx(0.8, abs=1e-15)
    assert out[1] == pytest.approx(0.2, abs=1e-15)


def test_normalize_errors():
    with pytest.raises(FcmError):
        normalize_posteriors([])
    with pytest.raises(FcmError):
        normalize_posteriors([0.0, float("nan")])


@given(st.lists(st.floats(min_value=-500, max_value=0), min_size=1, max_size=8))
def test_normalize_sums_to_one(logps):
    out = normalize_posteriors(logps)
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.all(out > 0)


def _two_way_nbest() -> NBestList:
    return NBestList(
        hypotheses=[
            Hypothesis(tokens=(KNOW,), log_prob=float(np.log(0.8))),
            Hypothesis(tokens=(DUNNO,), log_prob=float(np.log(0.2))),
        ],
        beam_size=4,
    )


def _sample(words: int = 3) -> Sample:
    return Sample(id="s", input=(KNOW,), reference=" ".join(["word"] * words),
                  ref_word_count=words)


def test_constant_scorer_gives_ref_word_count():
    scored = expected_consistency(_two_way_nbest(), _sample(5), constant_scorer(1.0),
                                  AMBIG_VOCAB)
    assert scored.expected_score == pytest.approx(5.0, abs=1e-12)
    validate_scored(scored)


def test_single_hypothesis_expectation():
    nbest = NBestList([Hypothesis(tokens=(KNOW,), log_prob=-0.5)], beam_size=1)
    scored = expected_consistency(nbest, _sample(4), table_scorer({"know": 0.3}),
                                  AMBIG_VOCAB)
    assert scored.expected_score == pytest.approx(4 * 0.3)


def test_hand_computed_expectation():
    scored = expected_consistency(
        _two_way_nbest(), _sample(3), table_scorer({"know": 0.2, "dunno": 0.9}),
        AMBIG_VOCAB,
    )
    assert scored.expected_score == pytest.approx(1.02, abs=1e-12)
    assert [h.scaled_score for h in scored.hypotheses] == pytest.approx([0.6, 2.7])


def test_single_hypothesis_gradient_vanishes():
    nbest = NBestList([Hypothesis(tokens=(KNOW,), log_prob=-0.5)], beam_size=1)
    scored = expected_consistency(nbest, _sample(4), table_scorer({"know": 0.3}),
                                  AMBIG_VOCAB)
    assert fcm_coefficients(scored).tolist() == [0.0]


def test_hand_computed_gradient_coefficients():
    scored = expected_consistency(
        _two_way_nbest(), _sample(3), table_scorer({"know": 0.2, "dunno": 0.9}),
        AMBIG_VOCAB,
    )
    c_know, c_dunno = fcm_coefficients(scored)
    assert c_know == pytest.approx(-0.336, abs=1e-12)
    assert c_dunno == pytest.approx(0.336, abs=1e-12)


def test_gradient_cells_cover_trajectory_and_eos():
    nbest = NBestList(
        hypotheses=[
            Hypothesis(tokens=(KNOW, DUNNO), log_prob=-1.0, finished=True),
            Hypothesis(tokens=(DUNNO, KNOW), log_prob=-2.0, finished=False),
        ],
        beam_size=2,
    )
    scored = expected_consistency(nbest, _sample(2),
                                  table_scorer({"know dunno": 0.9, "dunno know": 0.1}),
                                  AMBIG_VOCAB)
    finished, truncated = scored.hypotheses
    # one coefficient per hypothesis, the weight on every step of its trajectory
    assert fcm_coefficients(scored).shape == (2,)
    assert trajectory(finished.tokens, finished.finished, 0, 1) == (
        (0, KNOW, DUNNO), (KNOW, DUNNO, 1))
    assert trajectory(truncated.tokens, truncated.finished, 0, 1) == (
        (0, DUNNO), (DUNNO, KNOW))


def _random_scored(rng) -> ScoredNBest:
    n = int(rng.integers(1, 6))
    logps = rng.uniform(-8, 0, size=n)
    posts = np.exp(logps - logps.max())
    posts /= posts.sum()
    words = int(rng.integers(1, 12))
    hyps = []
    expected = 0.0
    for k in range(n):
        s = float(rng.uniform())
        hyps.append(ScoredHypothesis(
            tokens=(2,) * (k + 1), text="t" * (k + 1), log_prob=float(logps[k]),
            posterior=float(posts[k]), consistency=s, scaled_score=words * s,
            finished=True,
        ))
        expected += float(posts[k]) * words * s
    return ScoredNBest(hypotheses=hyps, ref_word_count=words, expected_score=expected)


def test_zero_sum_over_random_fixtures():
    rng = np.random.default_rng(5)
    for _ in range(200):
        scored = _random_scored(rng)
        assert abs(sum(fcm_coefficients(scored))) <= 1e-9


def test_sign_structure():
    rng = np.random.default_rng(6)
    for _ in range(50):
        scored = _random_scored(rng)
        for hyp, coeff in zip(scored.hypotheses, fcm_coefficients(scored)):
            if hyp.scaled_score > scored.expected_score:
                assert coeff > 0
            elif hyp.scaled_score < scored.expected_score:
                assert coeff < 0


def _scale_scores(scored: ScoredNBest, c: float) -> ScoredNBest:
    hyps = [
        ScoredHypothesis(
            tokens=h.tokens, text=h.text, log_prob=h.log_prob, posterior=h.posterior,
            consistency=h.consistency * c, scaled_score=h.scaled_score * c,
            finished=h.finished,
        )
        for h in scored.hypotheses
    ]
    return ScoredNBest(hypotheses=hyps, ref_word_count=scored.ref_word_count,
                       expected_score=scored.expected_score * c)


def test_scale_equivariance_exact_for_power_of_two():
    rng = np.random.default_rng(7)
    for _ in range(50):
        scored = _random_scored(rng)
        base = fcm_coefficients(scored)
        doubled = fcm_coefficients(_scale_scores(scored, 2.0))
        assert doubled.tolist() == (2.0 * base).tolist()


def test_scale_equivariance_general_factor():
    rng = np.random.default_rng(8)
    scored = _random_scored(rng)
    base = fcm_coefficients(scored)
    scaled = fcm_coefficients(_scale_scores(scored, 0.37))
    for got, want in zip(scaled, base):
        assert got == pytest.approx(0.37 * want, rel=1e-12, abs=1e-15)


def _tiny_corpus(n: int, seed: int) -> Corpus:
    return generate_synthetic_corpus(SynthConfig(n_samples=n, seed=seed))


def _dev_objective(corpus, params, scorer) -> float:
    return evaluate_on(params, corpus, scorer, 2, 2, 4)["dev_fcm_objective"]


def test_corpus_objective_empty():
    assert fcm_corpus_objective([]) == 0.0


def test_corpus_objective_single_sample_constant_scorer():
    corpus = _tiny_corpus(1, 2)
    params = random_params(3, corpus.source_vocab_size, len(corpus.token_vocab), seed=2)
    total = _dev_objective(corpus, params, constant_scorer(1.0))
    assert total == pytest.approx(corpus.samples[0].ref_word_count, abs=1e-9)


def test_corpus_objective_is_additive():
    corpus = _tiny_corpus(2, 3)
    params = random_params(3, corpus.source_vocab_size, len(corpus.token_vocab), seed=3)
    scorer = weighted_f1_scorer()
    one, two = corpus.split(1, 1)
    total = _dev_objective(corpus, params, scorer)
    assert total == pytest.approx(
        _dev_objective(one, params, scorer) + _dev_objective(two, params, scorer),
        abs=1e-12,
    )


def test_corpus_objective_attaches_sample_id():
    corpus = _tiny_corpus(1, 4)
    params = random_params(3, corpus.source_vocab_size, len(corpus.token_vocab), seed=4)
    failing = ConsistencyScorer(name="boom", fn=lambda h, r: 1 / 0)
    with pytest.raises(FcmError, match=corpus.samples[0].id):
        _dev_objective(corpus, params, failing)


def test_fixed_nbest_gradient_check(ambiguity_fixture):
    corpus, params = ambiguity_fixture
    scorer = exact_match_scorer()
    worst = fcm_fixed_nbest_check(params, corpus, corpus.samples[0], scorer)
    assert worst <= 1e-3


def test_fixed_nbest_gradient_check_random_model():
    vocab = (BOS, EOS, "a", "b", "c")
    corpus = Corpus(
        samples=[Sample(id="r", input=(2, 3), reference="a b", ref_word_count=2)],
        source_vocab_size=5, token_vocab=vocab,
    )
    params = random_params(4, 5, 5, seed=31, scale=0.8)
    worst = fcm_fixed_nbest_check(params, corpus, corpus.samples[0], weighted_f1_scorer())
    assert worst <= 1e-3


def test_scored_nbest_validation():
    bad = ScoredNBest(
        hypotheses=[ScoredHypothesis(tokens=(2,), text="x", log_prob=-1.0,
                                     posterior=0.7, consistency=1.0,
                                     scaled_score=2.0, finished=True)],
        ref_word_count=2, expected_score=1.4,
    )
    with pytest.raises(AssertionError, match="sum to 1"):
        validate_scored(bad)
