"""Beam search against greedy and exhaustive-enumeration oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import batch_of_one, random_params, reference_beam_decode
from fcmax.beam import (
    GROUP_SIZE, BeamError, Hypothesis, NBestList, beam_decode,
    beam_decode_batch, sequence_log_prob,
)
from fcmax.fcm import normalize_posteriors
from fcmax.model import ModelError, forward_teacher, init_params

BOS_ID, EOS_ID = 0, 1


def greedy_decode(params, input_ids, max_len):
    """Independent greedy reference: follow the argmax until EOS or the cap,
    replaying the growing prefix with teacher forcing at every step."""
    tokens: list[int] = []
    log_prob = 0.0
    for _ in range(max_len):
        trace = forward_teacher(params, *batch_of_one(input_ids, [BOS_ID] + tokens))
        logp = trace.log_probs[0, -1].copy()
        logp[BOS_ID] = -np.inf
        tok = int(np.argmax(logp))
        log_prob += float(logp[tok])
        if tok == EOS_ID:
            return tokens, log_prob, True
        tokens.append(tok)
    return tokens, log_prob, False


def enumerate_all(params, input_ids, max_len):
    """Every hypothesis beam search could return, scored by teacher forcing."""
    content = [t for t in range(params.target_vocab_size) if t not in (BOS_ID, EOS_ID)]
    out = []
    for length in range(0, max_len + 1):
        for seq in itertools.product(content, repeat=length):
            if length < max_len:
                lp = sequence_log_prob(params, input_ids, seq, BOS_ID, EOS_ID)
                out.append(Hypothesis(tokens=seq, log_prob=lp, finished=True))
            else:
                lp = sequence_log_prob(params, input_ids, seq, BOS_ID, EOS_ID,
                                       include_eos=False)
                out.append(Hypothesis(tokens=seq, log_prob=lp, finished=False))
    out.sort(key=lambda h: (-h.log_prob, h.tokens))
    return out


def test_beam_of_one_is_greedy():
    for seed in range(6):
        p = random_params(4, 5, 6, seed=seed, scale=1.0)
        nbest = beam_decode(p, [1, 3], beam_size=1, max_len=6,
                            bos_id=BOS_ID, eos_id=EOS_ID)
        tokens, log_prob, finished = greedy_decode(p, [1, 3], max_len=6)
        assert len(nbest.hypotheses) == 1
        top = nbest.hypotheses[0]
        assert top.tokens == tuple(tokens)
        assert top.finished == finished
        assert top.log_prob == pytest.approx(log_prob, abs=1e-12)


@pytest.mark.parametrize("tv, max_len", [(3, 3), (4, 3), (4, 4), (3, 4)])
def test_exhaustive_width_equals_enumeration(tv, max_len):
    p = random_params(3, 4, tv, seed=tv * 10 + max_len, scale=0.8)
    n_content = tv - 2
    width = sum(n_content ** k for k in range(max_len + 1))
    nbest = beam_decode(p, [0, 2], beam_size=width, max_len=max_len,
                        bos_id=BOS_ID, eos_id=EOS_ID)
    oracle = enumerate_all(p, [0, 2], max_len)
    assert len(nbest.hypotheses) == len(oracle)
    for got, want in zip(nbest.hypotheses, oracle):
        assert got.tokens == want.tokens
        assert got.finished == want.finished
        assert got.log_prob == pytest.approx(want.log_prob, abs=1e-10)


@pytest.mark.parametrize("kind", ["random", "large-scale", "zero"])
def test_batched_beam_matches_per_prefix_reference(kind):
    """500 seeded utterances per model kind, each decoded at beam 1, 2, 4 and 8."""
    rng = np.random.default_rng({"random": 1, "large-scale": 2, "zero": 3}[kind])
    for utt in range(500):
        if utt % 10 == 0:
            d, sv, tv = (int(x) for x in rng.integers([2, 3, 3], [9, 9, 12]))
            p = random_params(d, sv, tv, seed=int(rng.integers(1 << 30)),
                              scale={"random": 0.8, "large-scale": 3.0, "zero": 0.0}[kind])
            # BOS and EOS anywhere in the vocabulary, so ties between an EOS
            # extension and a content extension need the lexicographic order
            bos, eos = (int(t) for t in rng.choice(tv, size=2, replace=False))
        input_ids = rng.integers(0, sv, size=int(rng.integers(1, 7)))
        max_len = int(rng.integers(1, 7))
        for beam in (1, 2, 4, 8):
            got = beam_decode(p, input_ids, beam, max_len, bos_id=bos, eos_id=eos)
            want = reference_beam_decode(p, input_ids, beam, max_len, bos, eos)
            assert [(h.tokens, h.finished) for h in got.hypotheses] == \
                [(h.tokens, h.finished) for h in want.hypotheses], (kind, utt, beam)
            for g, w in zip(got.hypotheses, want.hypotheses):
                assert type(g.log_prob) is float
                assert abs(g.log_prob - w.log_prob) <= 1e-12, (kind, utt, beam)


@pytest.mark.parametrize("kind", ["random", "large-scale", "zero"])
def test_batch_decoding_matches_per_prefix_reference(kind):
    """Batches of ragged inputs (one input, three, more than one group) at
    beam 1, 2, 4 and 8, each utterance against the per-prefix oracle and
    against its own decode alone; some models have fewer tokens than beams,
    and some make EOS so unlikely that max_len cuts every hypothesis."""
    rng = np.random.default_rng({"random": 11, "large-scale": 12, "zero": 13}[kind])
    scale = {"random": 0.8, "large-scale": 3.0, "zero": 0.0}[kind]
    unfinished = 0
    for case in range(36):
        d, sv = (int(x) for x in rng.integers([2, 3], [9, 9]))
        # V < beam 4 and 8; or enough tokens to fill beam 8 without EOS
        tv = {0: 3, 1: 11}.get(case % 4, int(rng.integers(4, 12)))
        p = random_params(d, sv, tv, seed=int(rng.integers(1 << 30)), scale=scale)
        bos, eos = (int(t) for t in rng.choice(tv, size=2, replace=False))
        max_len = int(rng.integers(1, 6))
        if case % 4 == 1:  # EOS never wins: every hypothesis is cut at max_len
            p.out_bias[eos] -= 1e3
            max_len = int(rng.integers(1, 3))
        n_utts = (1, 3, GROUP_SIZE + 5)[case % 3]
        inputs = [rng.integers(0, sv, size=int(rng.integers(1, 8))) for _ in range(n_utts)]
        for beam in (1, 2, 4, 8):
            got = beam_decode_batch(p, inputs, beam, max_len, bos_id=bos, eos_id=eos)
            assert len(got) == n_utts
            for u, (nbest, input_ids) in enumerate(zip(got, inputs)):
                alone = beam_decode(p, input_ids, beam, max_len, bos_id=bos, eos_id=eos)
                want = reference_beam_decode(p, input_ids, beam, max_len, bos, eos)
                for other in (alone, want):
                    assert [(h.tokens, h.finished) for h in nbest.hypotheses] == \
                        [(h.tokens, h.finished) for h in other.hypotheses], (kind, case, beam, u)
                    for g, w in zip(nbest.hypotheses, other.hypotheses):
                        assert abs(g.log_prob - w.log_prob) <= 1e-12, (kind, case, beam, u)
                if case % 4 == 1:
                    assert not any(h.finished for h in nbest.hypotheses)
                unfinished += sum(not h.finished for h in nbest.hypotheses)
    assert unfinished > 0


def test_batch_decoding_reports_the_input_that_cannot_be_encoded():
    p = random_params(3, 4, 5, seed=1)
    assert beam_decode_batch(p, [], 2, 3, bos_id=BOS_ID, eos_id=EOS_ID) == []
    inputs = [[1, 2]] * (GROUP_SIZE + 3)
    for bad, ids in ((2, [1, 4]), (GROUP_SIZE + 1, []), (GROUP_SIZE + 2, [-1, 1]), (0, [])):
        with pytest.raises(ModelError, match="out of range|empty input") as err:
            beam_decode_batch(p, inputs[:bad] + [ids] + inputs[bad + 1:], 2, 3,
                              bos_id=BOS_ID, eos_id=EOS_ID)
        assert err.value.row == bad


def test_posterior_fixture_ranks_dominant_first(ambiguity_fixture):
    corpus, params = ambiguity_fixture
    sample = corpus.samples[0]
    nbest = beam_decode(params, sample.input, beam_size=4, max_len=4,
                        bos_id=corpus.bos_id, eos_id=corpus.eos_id)
    posteriors = normalize_posteriors([h.log_prob for h in nbest.hypotheses])
    texts = [corpus.decode_ids(h.tokens) for h in nbest.hypotheses]
    assert texts[0] == "know"
    assert texts[1] == "dunno"
    assert posteriors[0] == pytest.approx(0.8, abs=0.05)
    assert posteriors[1] == pytest.approx(0.2, abs=0.05)


def test_rescoring_top_hypothesis_matches_beam_score():
    p = random_params(4, 5, 7, seed=3, scale=0.9)
    nbest = beam_decode(p, [2, 4], beam_size=4, max_len=5,
                        bos_id=BOS_ID, eos_id=EOS_ID)
    top = nbest.hypotheses[0]
    assert top.finished
    rescored = sequence_log_prob(p, [2, 4], top.tokens, BOS_ID, EOS_ID)
    assert abs(rescored - top.log_prob) <= 1e-10


def test_uniform_model_sequence_log_prob():
    p = init_params(3, 4, 5, seed=0).zeros_like()
    for k in (0, 1, 3):
        lp = sequence_log_prob(p, [1, 2], [2] * k, BOS_ID, EOS_ID)
        assert lp == pytest.approx((k + 1) * -np.log(5.0), abs=1e-12)


def test_sequence_log_prob_matches_manual_accumulation():
    p = random_params(5, 6, 7, seed=9, scale=0.8)
    tokens = [3, 5, 2]
    manual = 0.0
    for n, tok in enumerate(tokens + [EOS_ID]):
        logp = forward_teacher(p, *batch_of_one([1, 4], [BOS_ID] + tokens[:n])).log_probs[0, -1]
        manual += float(logp[tok])
    assert sequence_log_prob(p, [1, 4], tokens, BOS_ID, EOS_ID) == pytest.approx(manual, abs=1e-12)


def test_sequence_log_prob_rejects_bad_token():
    p = random_params(3, 4, 5, seed=1)
    with pytest.raises(Exception, match="out of range"):
        sequence_log_prob(p, [1], [9], BOS_ID, EOS_ID)


def test_every_score_rescores_and_is_nonpositive():
    for seed in range(5):
        p = random_params(4, 5, 6, seed=seed, scale=1.1)
        nbest = beam_decode(p, [1, 2, 3], beam_size=4, max_len=5,
                            bos_id=BOS_ID, eos_id=EOS_ID)
        for h in nbest.hypotheses:
            assert h.log_prob <= 0.0
            assert BOS_ID not in h.tokens and EOS_ID not in h.tokens
            lp = sequence_log_prob(p, [1, 2, 3], h.tokens, BOS_ID, EOS_ID,
                                   include_eos=h.finished)
            assert abs(lp - h.log_prob) <= 1e-10


def test_descending_order_and_no_duplicates():
    for seed in range(5):
        p = random_params(4, 5, 6, seed=100 + seed, scale=1.0)
        nbest = beam_decode(p, [2], beam_size=6, max_len=4,
                            bos_id=BOS_ID, eos_id=EOS_ID)
        scores = [h.log_prob for h in nbest.hypotheses]
        assert scores == sorted(scores, reverse=True)
        assert len({h.tokens for h in nbest.hypotheses}) == len(nbest.hypotheses)


def test_best_score_nondecreasing_in_beam_width():
    for seed in range(8):
        p = random_params(4, 5, 6, seed=200 + seed, scale=1.0)
        best = -np.inf
        for width in range(1, 9):
            nbest = beam_decode(p, [1, 4], beam_size=width, max_len=5,
                                bos_id=BOS_ID, eos_id=EOS_ID)
            top = nbest.hypotheses[0].log_prob
            assert top >= best - 1e-12
            best = max(best, top)


def test_beam_errors():
    p = random_params(3, 4, 5, seed=1)
    with pytest.raises(BeamError):
        beam_decode(p, [1], beam_size=0, max_len=3, bos_id=BOS_ID, eos_id=EOS_ID)
    with pytest.raises(BeamError):
        beam_decode(p, [1], beam_size=2, max_len=0, bos_id=BOS_ID, eos_id=EOS_ID)
    with pytest.raises(Exception, match="empty input"):
        beam_decode(p, [], beam_size=2, max_len=3, bos_id=BOS_ID, eos_id=EOS_ID)


def test_nbest_invariants_enforced():
    with pytest.raises(BeamError):
        NBestList([], beam_size=2)
    h = Hypothesis(tokens=(2,), log_prob=-1.0)
    with pytest.raises(BeamError, match="duplicate"):
        NBestList([h, h], beam_size=3)
