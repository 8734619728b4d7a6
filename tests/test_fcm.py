"""Posterior renormalization, the expected score and its gradient structure."""

from __future__ import annotations

import dataclasses
import itertools
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    AMBIG_VOCAB, DUNNO, KNOW, fcm_fixed_nbest_check, random_params,
    reference_expected_consistency, reference_posteriors, validate_scored,
)
from fcmax.beam import Hypothesis, NBestList, beam_decode_batch
from fcmax.corpus import (
    BOS, EOS, Corpus, Sample, SynthConfig, default_token_weights, generate_synthetic_corpus,
)
from fcmax.fcm import (
    FcmError, ScoredBatch, expected_consistency, fcm_coefficients, fcm_corpus_objective,
    normalize_posteriors, score_batch,
)
from fcmax.model import init_params, trajectory
from fcmax.scorers import (
    ConsistencyScorer, ScoreRangeError, exact_match_scorer, weighted_f1_scorer,
)
from fcmax.trainer import TrainingSchedule, evaluate_on, train_ce


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
    return Sample(id="s", input=(KNOW,), reference=" ".join(["word"] * words))


def test_constant_scorer_gives_ref_word_count():
    scored = expected_consistency(_two_way_nbest(), _sample(5), constant_scorer(1.0),
                                  AMBIG_VOCAB)
    assert scored.expected[0] == pytest.approx(5.0, abs=1e-12)
    validate_scored(scored)


def test_single_hypothesis_expectation():
    nbest = NBestList([Hypothesis(tokens=(KNOW,), log_prob=-0.5)], beam_size=1)
    scored = expected_consistency(nbest, _sample(4), table_scorer({"know": 0.3}),
                                  AMBIG_VOCAB)
    assert scored.expected[0] == pytest.approx(4 * 0.3)


def test_hand_computed_expectation():
    scored = expected_consistency(
        _two_way_nbest(), _sample(3), table_scorer({"know": 0.2, "dunno": 0.9}),
        AMBIG_VOCAB,
    )
    assert scored.expected[0] == pytest.approx(1.02, abs=1e-12)
    assert scored.scaled[0].tolist() == pytest.approx([0.6, 2.7])


def test_single_hypothesis_gradient_vanishes():
    nbest = NBestList([Hypothesis(tokens=(KNOW,), log_prob=-0.5)], beam_size=1)
    scored = expected_consistency(nbest, _sample(4), table_scorer({"know": 0.3}),
                                  AMBIG_VOCAB)
    assert fcm_coefficients(scored).tolist() == [[0.0]]


def test_hand_computed_gradient_coefficients():
    scored = expected_consistency(
        _two_way_nbest(), _sample(3), table_scorer({"know": 0.2, "dunno": 0.9}),
        AMBIG_VOCAB,
    )
    c_know, c_dunno = fcm_coefficients(scored)[0]
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
    finished, truncated = nbest.hypotheses
    # one coefficient per hypothesis, the weight on every step of its trajectory
    assert fcm_coefficients(scored).shape == (1, 2)
    assert trajectory(finished.tokens, finished.finished, 0, 1) == (
        (0, KNOW, DUNNO), (KNOW, DUNNO, 1))
    assert trajectory(truncated.tokens, truncated.finished, 0, 1) == (
        (0, DUNNO), (DUNNO, KNOW))


def _random_batch(rng) -> ScoredBatch:
    """Rows of 1 to 5 hypotheses, padded to the longest, with posteriors,
    scores and expectations that agree."""
    counts = rng.integers(1, 6, size=int(rng.integers(1, 5)))
    real = np.arange(counts.max()) < counts[:, None]
    log_probs = np.where(real, rng.uniform(-8, 0, size=real.shape), -np.inf)
    posteriors = np.exp(log_probs - log_probs.max(axis=1, keepdims=True))
    posteriors /= posteriors.sum(axis=1, keepdims=True)
    consistency = np.where(real, rng.uniform(size=real.shape), 0.0)
    words = rng.integers(1, 12, size=(len(counts), 1)).astype(float)
    scaled = words * consistency
    return ScoredBatch(counts=counts, texts=["t"] * int(counts.sum()), log_probs=log_probs,
                       posteriors=posteriors, consistency=consistency, scaled=scaled,
                       expected=(posteriors * scaled).sum(axis=1))


def test_zero_sum_over_random_fixtures():
    rng = np.random.default_rng(5)
    for _ in range(200):
        batch = _random_batch(rng)
        coeffs = fcm_coefficients(batch)
        for row, n in enumerate(batch.counts.tolist()):
            assert abs(sum(coeffs[row, :n])) <= 1e-9
            assert not coeffs[row, n:].any()  # pads


def test_sign_structure():
    rng = np.random.default_rng(6)
    for _ in range(50):
        batch = _random_batch(rng)
        coeffs = fcm_coefficients(batch)
        for row, n in enumerate(batch.counts.tolist()):
            for scaled, coeff in zip(batch.scaled[row, :n], coeffs[row, :n]):
                if scaled > batch.expected[row]:
                    assert coeff > 0
                elif scaled < batch.expected[row]:
                    assert coeff < 0


def _scale_scores(batch: ScoredBatch, c: float) -> ScoredBatch:
    return ScoredBatch(counts=batch.counts, texts=batch.texts, log_probs=batch.log_probs,
                       posteriors=batch.posteriors, consistency=batch.consistency * c,
                       scaled=batch.scaled * c, expected=batch.expected * c)


def test_scale_equivariance_exact_for_power_of_two():
    rng = np.random.default_rng(7)
    for _ in range(50):
        batch = _random_batch(rng)
        base = fcm_coefficients(batch)
        doubled = fcm_coefficients(_scale_scores(batch, 2.0))
        assert doubled.tolist() == (2.0 * base).tolist()


def test_scale_equivariance_general_factor():
    rng = np.random.default_rng(8)
    batch = _random_batch(rng)
    base = fcm_coefficients(batch)
    scaled = fcm_coefficients(_scale_scores(batch, 0.37))
    for got, want in zip(scaled.ravel(), base.ravel()):
        assert got == pytest.approx(0.37 * want, rel=1e-12, abs=1e-15)


def _tiny_corpus(n: int, seed: int) -> Corpus:
    return generate_synthetic_corpus(SynthConfig(n_samples=n, seed=seed))


def _dev_objective(corpus, params, scorer) -> float:
    return evaluate_on(params, corpus, scorer, 2, 2, 4)["dev_fcm_objective"]


def test_corpus_objective_empty():
    assert fcm_corpus_objective(score_batch([], [], exact_match_scorer(), AMBIG_VOCAB)) == 0.0


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
        samples=[Sample(id="r", input=(2, 3), reference="a b")],
        source_vocab_size=5, token_vocab=vocab,
    )
    params = random_params(4, 5, 5, seed=31, scale=0.8)
    worst = fcm_fixed_nbest_check(params, corpus, corpus.samples[0], weighted_f1_scorer())
    assert worst <= 1e-3


def test_scored_nbest_validation():
    bad = ScoredBatch(counts=np.array([1]), texts=["x"], log_probs=np.array([[-1.0]]),
                      posteriors=np.array([[0.7]]), consistency=np.array([[1.0]]),
                      scaled=np.array([[2.0]]), expected=np.array([1.4]))
    with pytest.raises(AssertionError, match="sum to 1"):
        validate_scored(bad)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def _assert_rows_match_the_oracle(batch, lists, samples, scorer, vocab) -> None:
    """Every row of a scored batch, in float hex, is the per-list oracle's
    scoring of that list; its pads are -inf log probs and zeros."""
    coefficients = fcm_coefficients(batch)
    texts = iter(batch.texts)
    for row, (hyps, sample) in enumerate(zip(lists, samples)):
        want = reference_expected_consistency(hyps, sample, scorer, vocab)
        n = len(hyps)
        assert batch.counts[row] == n
        assert [next(texts) for _ in hyps] == want.texts
        assert _hex(batch.log_probs[row, :n]) == _hex([h.log_prob for h in hyps])
        assert _hex(batch.posteriors[row, :n]) == _hex(want.posteriors)
        assert _hex(batch.consistency[row, :n]) == _hex(want.consistency)
        assert _hex(batch.scaled[row, :n]) == _hex(want.scaled)
        assert _hex(batch.expected[row]) == _hex(want.expected)
        assert _hex(coefficients[row, :n]) == _hex(want.coefficients)
        assert _hex(normalize_posteriors([h.log_prob for h in hyps])) == _hex(want.posteriors)
    validate_scored(batch)


@pytest.fixture(scope="module")
def seed7_dev():
    """The benchmark's seed-7 start model (likelihood training of the
    1000/200/200 split, d 32, 1000 iterations at batch 4), its dev set and
    its content-weighted scorer."""
    cfg = SynthConfig(n_samples=1400, seed=7)
    train, dev, _ = generate_synthetic_corpus(cfg).split(1000, 200, 200)
    params = init_params(32, train.source_vocab_size, len(train.token_vocab), seed=7)
    schedule = TrainingSchedule(total_iterations=1000, initial_lr=0.15, batch_size=4, seed=7)
    params = train_ce(params, train, schedule).params
    return params, dev, weighted_f1_scorer(default_token_weights(cfg))


def test_batch_scores_the_seed7_dev_lists_as_the_per_list_oracle(seed7_dev):
    """The 200 seed-7 dev N-best lists at beam 4: each of the 800
    posteriors, consistencies, scaled scores and coefficients, each list's
    expectation and the dev objective are the per-list oracle's bits."""
    params, dev, scorer = seed7_dev
    nbests = beam_decode_batch(params, [s.input for s in dev.samples], 4, 24,
                               bos_id=dev.bos_id, eos_id=dev.eos_id)
    lists = [nbest.hypotheses for nbest in nbests]
    calls = []
    counting = ConsistencyScorer("counting", lambda h, r: calls.append(h) or scorer(h, r))
    batch = score_batch(lists, dev.samples, counting, dev.token_vocab)
    assert batch.posteriors.shape == (200, 4) and len(calls) == 800
    _assert_rows_match_the_oracle(batch, lists, dev.samples, scorer, dev.token_vocab)
    objective = 0.0
    for hyps, sample in zip(lists, dev.samples):
        objective += reference_expected_consistency(hyps, sample, scorer,
                                                    dev.token_vocab).expected
    got = evaluate_on(params, dev, scorer, 4, 4, 24)["dev_fcm_objective"]
    assert _hex(got) == _hex(objective) == _hex(fcm_corpus_objective(batch))


def _random_lists(rng, vocab_size: int, counts, tie_rows=()) -> list[list[Hypothesis]]:
    """Hypothesis lists of the given lengths over ids 2.. (no BOS or EOS),
    some unfinished; every hypothesis of a row in tie_rows has one log prob."""
    lists = []
    for row, n in enumerate(counts):
        seen, hyps = set(), []
        while len(hyps) < n:
            tokens = tuple(rng.integers(2, vocab_size, size=int(rng.integers(1, 7))).tolist())
            if tokens in seen:
                continue
            seen.add(tokens)
            log_prob = -3.25 if row in tie_rows else float(rng.uniform(-4, 0))
            hyps.append(Hypothesis(tokens, log_prob, finished=bool(rng.random() < 0.7)))
        lists.append(hyps)
    return lists


def hash_scorer() -> ConsistencyScorer:
    """A deterministic score in [0, 1] that varies with every pair, so that
    sums of scaled scores have bits to lose."""
    return ConsistencyScorer("hash", lambda h, r: zlib.crc32(f"{h}|{r}".encode()) % 997 / 996)


@pytest.mark.parametrize("counts, tie_rows", [
    ([4, 1, 2, 4, 3], (3,)),             # lists shorter than N, an all-tied list
    ([1], ()),
    # width 8: numpy sums 8 terms pairwise, and 5 to 7 left to right
    ([8, 3, 7, 1, 8, 5] + [7, 6, 5, 8] * 6, (2,)),
    ([12, 9, 11, 2], (1,)),
])
def test_batch_scores_ragged_lists_as_the_per_list_oracle(counts, tie_rows):
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=len(counts), seed=3))
    rng = np.random.default_rng(sum(counts))
    lists = _random_lists(rng, len(corpus.token_vocab), counts, tie_rows)
    for scorer in (weighted_f1_scorer(default_token_weights(SynthConfig(n_samples=0))),
                   hash_scorer(), dataclasses.replace(hash_scorer(), in_flight=3)):
        batch = score_batch(lists, corpus.samples, scorer, corpus.token_vocab)
        _assert_rows_match_the_oracle(batch, lists, corpus.samples, scorer, corpus.token_vocab)
    assert batch.posteriors.shape == (len(counts), max(counts))
    for row in tie_rows:
        assert len(set(batch.posteriors[row, :counts[row]].tolist())) == 1


@given(st.lists(st.floats(min_value=-500, max_value=0), min_size=1, max_size=12))
def test_normalize_is_the_per_list_softmax(logps):
    assert _hex(normalize_posteriors(logps)) == _hex(reference_posteriors(logps))


def test_batch_failures_name_the_sample():
    """A scorer that raises on one pair, one that returns a score outside
    [0, 1], and a non-finite log probability each name their sample, with
    the scorer's calls one at a time or three in flight."""
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=3, seed=4))
    lists = _random_lists(np.random.default_rng(0), len(corpus.token_vocab), [2, 3, 2])
    bad = corpus.samples[1]
    target = corpus.decode_ids(lists[1][2].tokens)

    def raising(hyp, ref):
        if (hyp, ref) == (target, bad.reference):
            raise RuntimeError("scorer down")
        return 0.5

    for (fn, cause), in_flight in itertools.product(
            ((raising, RuntimeError),
             (lambda h, r: 1.5 if r == bad.reference else 0.5, ScoreRangeError)), (1, 3)):
        with pytest.raises(FcmError, match=f"sample {bad.id!r}") as info:
            score_batch(lists, corpus.samples, ConsistencyScorer("s", fn, in_flight),
                        corpus.token_vocab)
        assert isinstance(info.value.__cause__, cause)
    lists[2][1] = Hypothesis(lists[2][1].tokens, float("nan"))
    with pytest.raises(FcmError, match=f"sample {corpus.samples[2].id!r}: non-finite"):
        score_batch(lists, corpus.samples, constant_scorer(0.5), corpus.token_vocab)
    with pytest.raises(FcmError, match=f"sample {corpus.samples[0].id!r}: cannot normalize"):
        score_batch([[]] + lists[1:], corpus.samples, constant_scorer(0.5), corpus.token_vocab)
