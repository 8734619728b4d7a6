"""Beam search against greedy and exhaustive-enumeration oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import (
    conditioned_log_probs, random_params, reference_beam_decode, reference_padded_decode,
    sequence_log_prob,
)
from fcmax.beam import (
    GROUP_PREFIXES, BeamError, Hypothesis, NBestList, beam_decode, beam_decode_batch,
)
from fcmax.corpus import SynthConfig, generate_synthetic_corpus
from fcmax.fcm import normalize_posteriors
from fcmax.model import ModelError, init_params
from fcmax.trainer import TrainingSchedule, train_ce

BOS_ID, EOS_ID = 0, 1


def greedy_decode(params, input_ids, max_len):
    """Independent greedy reference: follow the argmax until EOS or the cap,
    replaying the growing prefix with teacher forcing at every step."""
    tokens: list[int] = []
    log_prob = 0.0
    for _ in range(max_len):
        logp = conditioned_log_probs(params, [input_ids], [[BOS_ID] + tokens])[0, -1].copy()
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
    """Batches of ragged inputs (one input, three, two groups at beam 8) at
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
        n_utts = (1, 3, GROUP_PREFIXES // 8 + 5)[case % 3]  # two groups at beam 8
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


def assert_same_bits(got, want, context) -> None:
    """Two lists of N-best lists hold the same tokens, finished flags and
    log-prob bits, hypothesis by hypothesis."""
    assert len(got) == len(want), context
    for u, (g, w) in enumerate(zip(got, want)):
        assert [(h.tokens, h.finished, h.log_prob.hex()) for h in g.hypotheses] == \
            [(h.tokens, h.finished, h.log_prob.hex()) for h in w.hypotheses], (context, u)


def group_widths(inputs, beam: int) -> list[int]:
    """Each input's padded width: the longest input of its decode group, when
    the inputs, sorted by length (stable), are cut into near-equal groups of
    at most GROUP_PREFIXES // beam."""
    order = sorted(range(len(inputs)), key=lambda i: len(inputs[i]))
    n_groups = -(-len(inputs) // max(1, GROUP_PREFIXES // beam))
    widths = [0] * len(inputs)
    for g in range(n_groups):
        group = order[g * len(order) // n_groups:(g + 1) * len(order) // n_groups]
        for i in group:
            widths[i] = len(inputs[group[-1]])
    return widths


def assert_bits_of_padded_decoding(params, inputs, beam, max_len, bos_id, eos_id, context):
    """Every hypothesis of the batch decode has the bits of decoding its input
    alone, padded to its group's width."""
    got = beam_decode_batch(params, inputs, beam, max_len, bos_id, eos_id)
    want = [reference_padded_decode(params, ids, width, beam, max_len, bos_id, eos_id)
            for ids, width in zip(inputs, group_widths(inputs, beam))]
    assert_same_bits(got, want, context)


@pytest.fixture(scope="module")
def bench_start_model():
    """The benchmark's seed-7 dev and test sets and its CE start model: split
    1000/200/200, d 32, 1000 likelihood iterations at batch 4 and lr 0.15."""
    train, dev, test = generate_synthetic_corpus(SynthConfig(n_samples=1400, seed=7)).split(
        1000, 200, 200)
    start = init_params(32, train.source_vocab_size, len(train.token_vocab), seed=7)
    schedule = TrainingSchedule(total_iterations=1000, initial_lr=0.15, batch_size=4, seed=7,
                                checkpoint_every=250)
    return train_ce(start, train, schedule).params, dev, test


@pytest.mark.parametrize("beam", [1, 4, 8])
def test_decode_groups_keep_the_bits_of_each_input_alone(bench_start_model, beam):
    """Every hypothesis of the seed-7 dev and test sets has the bits of
    decoding its input alone, padded to the width of its decode group."""
    params, dev, test = bench_start_model
    for split in (dev, test):
        inputs = [s.input for s in split.samples]
        assert_bits_of_padded_decoding(params, inputs, beam, 24, split.bos_id, split.eos_id,
                                       (split.samples[0].id, beam))


@pytest.mark.parametrize("n_inputs, longest", [
    (GROUP_PREFIXES // 8 + 1, 9),    # one input more than a group holds at beam 8
    (100, 14),                       # groups of many widths at beams 4 and 8
    (GROUP_PREFIXES + 12, 5),        # more than one group at beam 1; length ties across cuts
])
def test_decode_groups_keep_the_bits_on_ragged_batches(n_inputs, longest):
    """Ragged inputs of 1 to ``longest`` symbols, at beams 1, 4 and 8: every
    hypothesis has the bits of decoding its input alone, padded to its
    group's width."""
    rng = np.random.default_rng(n_inputs + longest)
    p = random_params(8, 12, 10, seed=int(rng.integers(1 << 30)), scale=0.8)
    inputs = [rng.integers(0, 12, size=int(n)) for n in rng.integers(1, longest + 1, n_inputs)]
    for beam in (1, 4, 8):
        assert_bits_of_padded_decoding(p, inputs, beam, 6, BOS_ID, EOS_ID, beam)


def test_batch_decoding_reports_the_input_that_cannot_be_encoded():
    p = random_params(3, 4, 5, seed=1)
    assert beam_decode_batch(p, [], 2, 3, bos_id=BOS_ID, eos_id=EOS_ID) == []
    n = GROUP_PREFIXES // 2  # the inputs of one group at beam 2
    inputs = [[1, 2]] * (n + 3)
    for bad, ids in ((2, [1, 4]), (n + 1, []), (n + 2, [-1, 1]), (0, []),
                     (n + 1, [1, 2**63])):
        with pytest.raises(ModelError, match="out of range|empty input|outside int64") as err:
            beam_decode_batch(p, inputs[:bad] + [ids] + inputs[bad + 1:], 2, 3,
                              bos_id=BOS_ID, eos_id=EOS_ID)
        assert err.value.row == bad
    # Two bad inputs, of one kind or two: the first is named.  At beam 8 the
    # inputs decode in two groups, shortest first, so a later input that is
    # shorter decodes before an earlier one; the inputs are checked before.
    inputs = [[1, 2]] * 24 + [[1, 2, 3]] * 24 + [[3, 2]] * 24
    for (first, one), (second, other), match in (
            ((2, []), (5, [1, 4]), "empty input"),
            ((2, [1, 4]), (5, []), "out of range"),
            ((25, [4, 2, 3]), (49, []), "out of range"),
            ((25, []), (49, [-1, 2]), "empty input"),
            ((25, [9]), (49, [2.0, 1]), "out of range"),
            ((25, [2.0, 1]), (49, [9]), "not an integer id"),
            ((25, [2**64]), (49, [2.0, 1]), "outside int64"),
            ((25, [1, 9]), (49, [-2**63 - 1]), "out of range")):
        bad = list(inputs)
        bad[first], bad[second] = one, other
        with pytest.raises(ModelError, match=match) as err:
            beam_decode_batch(p, bad, 8, 3, bos_id=BOS_ID, eos_id=EOS_ID)
        assert err.value.row == first, (first, second)


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
        logp = conditioned_log_probs(p, [[1, 4]], [[BOS_ID] + tokens[:n]])[0, -1]
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
