"""Training loops, the learning-rate schedule and the deletion tripwire."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    accumulate, corpus_nll, exact_match_scorer, params_allclose, random_params,
    reference_align_counts, reference_backward, reference_expected_consistency,
    reference_forward_teacher, reference_minibatch_gradient, reference_train_ce,
)
from fcmax import trainer
from fcmax.beam import Hypothesis, beam_decode, beam_decode_batch
from fcmax.corpus import (
    BOS, EOS, Corpus, CorpusError, Sample, SynthConfig, generate_synthetic_corpus, id_renderer,
    normalize_text,
)
from fcmax.fcm import FcmError, expected_consistency, fcm_coefficients, normalize_posteriors
from fcmax.model import ModelError, apply_update, init_params, trajectory
from fcmax.scorers import ConsistencyScorer, weighted_f1_scorer
from fcmax.trainer import (
    SafeguardConfig, TrainerError, TrainingSchedule, _batch_iterator, _minibatch_gradient,
    decode_corpus_top1, decode_samples, deletion_guard, evaluate_on, linear_decay_lr, train_ce,
    train_fcm,
)

LOG_KEYS = {"iter", "lr", "dev_wer", "dev_del_rate", "dev_ins_rate", "dev_unfinished_top1",
            "dev_avg_consistency", "dev_fcm_objective"}


def test_linear_decay_examples():
    assert linear_decay_lr(0, 100, 1e-5) == pytest.approx(1e-5)
    assert linear_decay_lr(50, 100, 1e-5) == pytest.approx(5e-6)
    assert linear_decay_lr(99, 100, 1e-6) == pytest.approx(1e-8)


def test_linear_decay_rejects_out_of_range_step():
    with pytest.raises(TrainerError):
        linear_decay_lr(100, 100, 1e-5)
    with pytest.raises(TrainerError):
        linear_decay_lr(-1, 100, 1e-5)


def _toy_corpus(n_samples: int = 10, seed: int = 0) -> Corpus:
    """Tiny eight-token corpus: identity mapping from inputs to references."""
    vocab = (BOS, EOS, "aa", "bb", "cc", "dd", "ee", ".")
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_samples):
        k = int(rng.integers(2, 5))
        ids = [int(rng.integers(2, 7)) for _ in range(k)] + [7]
        reference = id_renderer(vocab)(ids)
        samples.append(Sample(
            id=f"toy-{i}", input=tuple(ids), reference=reference,
        ))
    return Corpus(samples=samples, source_vocab_size=len(vocab), token_vocab=vocab)


def _toy_schedule(**over) -> TrainingSchedule:
    base = dict(total_iterations=500, initial_lr=0.08, batch_size=2, beam_size=2,
                nbest_size=2, max_len=8, seed=1, checkpoint_every=250)
    base.update(over)
    return TrainingSchedule(**base)


def test_zero_iterations_leaves_params_unchanged():
    corpus = _toy_corpus()
    params = init_params(4, corpus.source_vocab_size, len(corpus.token_vocab), seed=2)
    result = train_ce(params, corpus, _toy_schedule(total_iterations=0))
    assert params_allclose(params, result.params)


def test_ce_training_lowers_nll():
    corpus = _toy_corpus()
    params = init_params(6, corpus.source_vocab_size, len(corpus.token_vocab), seed=3)
    before = corpus_nll(params, corpus)
    result = train_ce(params, corpus, _toy_schedule())
    after = corpus_nll(result.params, corpus)
    assert after < before


def test_ce_training_is_deterministic():
    corpus = _toy_corpus()
    params = init_params(4, corpus.source_vocab_size, len(corpus.token_vocab), seed=4)
    a = train_ce(params, corpus, _toy_schedule(total_iterations=60))
    b = train_ce(params, corpus, _toy_schedule(total_iterations=60))
    for name, mat in a.params.matrices().items():
        assert np.array_equal(mat, getattr(b.params, name))


@pytest.mark.parametrize("n_samples, batch_size", [(5, 1), (7, 3), (4, 10)])
def test_ce_batches_taken_from_the_padded_corpus_match_per_iteration_padding(n_samples,
                                                                            batch_size):
    """Rows taken from the corpus padded once give the parameters, bit for bit,
    of padding each iteration's ragged reference trajectories anew: batches of
    one, of three inputs of different lengths, and one larger than the corpus
    (cut to the corpus), over several epochs."""
    corpus = _toy_corpus(n_samples, seed=6)
    assert len({len(s.input) for s in corpus.samples}) > 1
    params = random_params(4, corpus.source_vocab_size, len(corpus.token_vocab), seed=6)
    schedule = _toy_schedule(total_iterations=12, initial_lr=0.3, batch_size=batch_size)
    got = train_ce(params, corpus, schedule).params
    want = reference_train_ce(params, corpus, schedule)
    assert [x.hex() for x in got.flat.tolist()] == [x.hex() for x in want.flat.tolist()]
    assert not np.array_equal(got.flat, params.flat)


def test_ce_aborts_on_empty_corpus():
    corpus = _toy_corpus(0)
    params = init_params(4, corpus.source_vocab_size, len(corpus.token_vocab), seed=2)
    with pytest.raises(TrainerError, match="empty"):
        train_ce(params, corpus, _toy_schedule())


def test_ce_logs_dev_metrics_schema():
    corpus = _toy_corpus()
    dev = _toy_corpus(4, seed=9)
    params = init_params(4, corpus.source_vocab_size, len(corpus.token_vocab), seed=5)
    result = train_ce(params, corpus, _toy_schedule(total_iterations=40, checkpoint_every=20),
                      dev=dev, scorer=weighted_f1_scorer())
    assert len(result.log) == 2
    for entry in result.log:
        assert set(entry) == LOG_KEYS


def test_ce_refuses_a_dev_corpus_without_a_scorer():
    """Dev checks score with the scorer the caller passes; there is no default."""
    corpus = _toy_corpus()
    params = init_params(4, corpus.source_vocab_size, len(corpus.token_vocab), seed=5)
    with pytest.raises(TrainerError, match="dev corpus needs a scorer"):
        train_ce(params, corpus, _toy_schedule(total_iterations=1), dev=_toy_corpus(4, seed=9))


@pytest.mark.parametrize("trainer", ["train_ce", "train_fcm"])
def test_trainers_refuse_an_empty_dev_corpus_at_entry(trainer):
    """An empty dev corpus is refused before any training, not at the first
    dev check (after checkpoint_every iterations of train_ce)."""
    corpus, dev = _toy_corpus(), _toy_corpus(0)
    params = init_params(4, corpus.source_vocab_size, len(corpus.token_vocab), seed=5)
    with pytest.raises(TrainerError, match="^dev corpus is empty$"):
        if trainer == "train_ce":
            train_ce(params, corpus, _toy_schedule(), dev=dev, scorer=weighted_f1_scorer())
        else:
            train_fcm(params, corpus, weighted_f1_scorer(), _toy_schedule(), dev=dev)


def test_schedule_validation():
    """Both configs are checked when they are built."""
    with pytest.raises(TrainerError, match="nbest_size"):
        TrainingSchedule(total_iterations=1, initial_lr=0.1, beam_size=2, nbest_size=3)
    for lr in (0.0, float("nan"), float("inf")):
        with pytest.raises(TrainerError, match="initial_lr"):
            TrainingSchedule(total_iterations=1, initial_lr=lr)
    with pytest.raises(TrainerError, match="checkpoint_every"):
        TrainingSchedule(total_iterations=1, initial_lr=0.1, checkpoint_every=0)
    for seed in (-1, 2**64):  # outside the np.uint64 the generators take
        with pytest.raises(TrainerError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
            TrainingSchedule(total_iterations=1, initial_lr=0.1, seed=seed)
    assert TrainingSchedule(total_iterations=1, initial_lr=0.1, seed=2**64 - 1).seed == 2**64 - 1
    for bad, message in [(dict(ce_interpolation_weight=1.0), "ce_interpolation_weight"),
                         (dict(max_fcm_iterations=0), "max_fcm_iterations"),
                         (dict(deletion_rate_limit=0.0), "deletion_rate_limit"),
                         (dict(dev_check_every=0), "dev_check_every")]:
        with pytest.raises(TrainerError, match=message):
            SafeguardConfig(**bad)


def test_fcm_single_effective_hypothesis_is_a_fixed_point(ambiguity_fixture):
    corpus, params = ambiguity_fixture
    schedule = TrainingSchedule(total_iterations=5, initial_lr=0.5, beam_size=4,
                                nbest_size=1, max_len=4, seed=0)
    result = train_fcm(params, corpus, exact_match_scorer(), schedule)
    for name, mat in result.params.matrices().items():
        assert np.array_equal(mat, getattr(params, name))


def _minority_posterior(params, corpus) -> float:
    sample = corpus.samples[0]
    nbest = beam_decode(params, sample.input, 4, 4, bos_id=corpus.bos_id,
                        eos_id=corpus.eos_id)
    posts = normalize_posteriors([h.log_prob for h in nbest.hypotheses])
    for hyp, post in zip(nbest.hypotheses, posts):
        if corpus.decode_ids(hyp.tokens) == "dunno":
            return float(post)
    return 0.0


def test_fcm_steering_flips_the_ambiguous_sample(ambiguity_fixture):
    corpus, params = ambiguity_fixture
    assert _minority_posterior(params, corpus) < 0.3
    schedule = TrainingSchedule(total_iterations=200, initial_lr=0.3, beam_size=4,
                                nbest_size=4, max_len=4, seed=0, checkpoint_every=50)
    result = train_fcm(params, corpus, exact_match_scorer(), schedule,
                       SafeguardConfig(max_fcm_iterations=200), dev=corpus)
    assert not result.guard_tripped
    assert _minority_posterior(result.params, corpus) > 0.5
    greedy = beam_decode(result.params, corpus.samples[0].input, 1, 4,
                         bos_id=corpus.bos_id, eos_id=corpus.eos_id)
    assert corpus.decode_ids(greedy.hypotheses[0].tokens) == "dunno"


def test_fcm_improves_dev_objective(ambiguity_fixture):
    corpus, params = ambiguity_fixture
    scorer = exact_match_scorer()
    before = evaluate_on(params, corpus, scorer, 4, 4, 4)["dev_fcm_objective"]
    schedule = TrainingSchedule(total_iterations=100, initial_lr=0.3, beam_size=4,
                                nbest_size=4, max_len=4, seed=0)
    result = train_fcm(params, corpus, scorer, schedule)
    after = evaluate_on(result.params, corpus, scorer, 4, 4, 4)["dev_fcm_objective"]
    assert after >= before


def test_fcm_is_deterministic():
    corpus = _toy_corpus(6)
    params = train_ce(
        init_params(4, corpus.source_vocab_size, len(corpus.token_vocab), seed=1),
        corpus, _toy_schedule(total_iterations=150),
    ).params
    schedule = _toy_schedule(total_iterations=30, initial_lr=0.05, batch_size=1)
    a = train_fcm(params, corpus, weighted_f1_scorer(), schedule)
    b = train_fcm(params, corpus, weighted_f1_scorer(), schedule)
    for name, mat in a.params.matrices().items():
        assert np.array_equal(mat, getattr(b.params, name))


def test_exact_match_coefficient_positive_on_two_way_fixture(ambiguity_fixture):
    corpus, params = ambiguity_fixture
    sample = corpus.samples[0]
    nbest = beam_decode(params, sample.input, 4, 4, bos_id=corpus.bos_id,
                        eos_id=corpus.eos_id)
    scored = expected_consistency(nbest, sample, exact_match_scorer(), corpus.token_vocab)
    assert len(scored.texts) == len(nbest.hypotheses) > 1
    for text, coeff in zip(scored.texts, fcm_coefficients(scored)[0]):
        if text == sample.reference:
            assert coeff > 0
        else:
            assert coeff <= 0


def test_evaluate_on_breakdown_pools_the_per_pair_oracle():
    """A seeded corpus of more than one decode group, decoded by a random
    model into ragged top hypotheses: the dev rates are the pooled sums of
    the per-pair oracle's counts over the pooled reference words."""
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=40, seed=5))
    params = random_params(8, corpus.source_vocab_size, len(corpus.token_vocab), seed=2)
    tops = decode_corpus_top1(params, corpus, 2, 16)
    want = [reference_align_counts(normalize_text(top), normalize_text(s.reference))
            for top, s in zip(tops, corpus.samples)]
    assert len({len(normalize_text(top)) for top in tops}) > 3
    subs, ins, dels = map(sum, zip(*want))
    ref_words = sum(len(normalize_text(s.reference)) for s in corpus.samples)
    row = evaluate_on(params, corpus, weighted_f1_scorer(), 2, 2, 16)
    assert set(row) == LOG_KEYS - {"iter", "lr"}
    assert row["dev_wer"] == (subs + ins + dels) / ref_words
    assert row["dev_del_rate"] == dels / ref_words
    assert row["dev_ins_rate"] == ins / ref_words


def test_deletion_guard_examples():
    assert not deletion_guard({"dev_del_rate": 0 / 100}, 0.01)
    assert deletion_guard({"dev_del_rate": 30 / 100}, 0.2)
    assert not deletion_guard({"dev_del_rate": 20 / 100}, 0.2)  # strict inequality


def _script_dev_rows(monkeypatch, *rows: tuple[float, float]) -> None:
    """Make each dev check return the next scripted (dev_del_rate,
    dev_fcm_objective) as its row; the other metrics are zero."""
    script = iter(rows)

    def scripted(*args):
        del_rate, objective = next(script)
        return {"dev_wer": 0.0, "dev_del_rate": del_rate, "dev_ins_rate": 0.0,
                "dev_unfinished_top1": 0.0, "dev_avg_consistency": 0.0,
                "dev_fcm_objective": objective}

    monkeypatch.setattr(trainer, "evaluate_on", scripted)


def _fcm_after(params, corpus, schedule, updates: int):
    """The model of an FCM run with no dev set that the cap stops after
    ``updates`` updates."""
    return train_fcm(params, corpus, weighted_f1_scorer(), schedule,
                     SafeguardConfig(max_fcm_iterations=updates)).params


@pytest.mark.parametrize("rows, returned, returning", [
    # the start fails, check 1 passes, check 2 trips
    ([(0.5, 0.0), (0.1, 0.2), (0.5, 0.9)], 2, "returning best passing checkpoint"),
    # checks 1 and 2 pass with equal objectives, check 3 trips: the earlier wins
    ([(0.1, 0.3), (0.1, 0.5), (0.1, 0.5), (0.5, 0.9)], 2, "returning best passing checkpoint"),
    # check 1 beats check 2, which passes; check 3 trips
    ([(0.1, 0.3), (0.1, 0.5), (0.1, 0.4), (0.5, 0.9)], 2, "returning best passing checkpoint"),
    # no check passes
    ([(0.5, 0.9), (0.5, 0.9)], 0,
     "no checkpoint passed the guard; returning the starting model (dev deletion rate 0.5000)"),
], ids=["start-fails", "tie-keeps-the-earlier", "best-not-last", "none-passes"])
def test_guard_returns_the_model_of_the_best_passing_row(monkeypatch, rows, returned,
                                                         returning):
    corpus = _toy_corpus(6, seed=3)
    params = init_params(4, corpus.source_vocab_size, len(corpus.token_vocab), seed=6)
    schedule = _toy_schedule(total_iterations=8, initial_lr=0.5, batch_size=1)
    want = _fcm_after(params, corpus, schedule, returned) if returned else params
    assert not np.array_equal(want.flat, _fcm_after(params, corpus, schedule, returned + 2).flat)
    _script_dev_rows(monkeypatch, *rows)
    result = train_fcm(params, corpus, weighted_f1_scorer(), schedule,
                       SafeguardConfig(deletion_rate_limit=0.25, dev_check_every=2), dev=corpus)
    assert result.guard_tripped
    assert result.guard_report == (
        f"deletion guard tripped at iteration {2 * len(rows) - 2}: dev deletion rate "
        f"0.5000 > limit 0.2500; {returning}")
    assert [row["iter"] for row in result.log] == list(range(0, 2 * len(rows), 2))
    assert np.array_equal(result.params.flat, want.flat)


def _shortness_scorer() -> ConsistencyScorer:
    """Adversarial scorer rewarding fewer words, the known failure direction."""
    return ConsistencyScorer(name="shortness",
                             fn=lambda h, r: 1.0 / (1.0 + len(h.split())))


def test_deletion_guard_trips_and_returns_passing_checkpoint():
    corpus = _toy_corpus(6, seed=3)
    ce = train_ce(init_params(8, corpus.source_vocab_size, len(corpus.token_vocab), seed=6),
                  corpus, _toy_schedule(total_iterations=800, initial_lr=0.25,
                                        beam_size=4, nbest_size=4))
    start = evaluate_on(ce.params, corpus, weighted_f1_scorer(), 4, 4, 8)
    assert start["dev_del_rate"] <= 0.25  # healthy before fine-tuning
    schedule = _toy_schedule(total_iterations=400, initial_lr=0.3, batch_size=1,
                             beam_size=4, nbest_size=4, seed=2)
    safeguard = SafeguardConfig(max_fcm_iterations=400, deletion_rate_limit=0.25,
                                dev_check_every=25)
    result = train_fcm(ce.params, corpus, _shortness_scorer(), schedule, safeguard,
                       dev=corpus)
    assert result.guard_tripped
    assert "deletion" in result.guard_report
    assert "returning best passing checkpoint" in result.guard_report
    final = evaluate_on(result.params, corpus, weighted_f1_scorer(), 4, 4, 8)
    assert final["dev_del_rate"] <= 0.25


def test_deletion_guard_without_a_passing_checkpoint_returns_the_start_model():
    corpus = _toy_corpus(6, seed=3)
    params = init_params(4, corpus.source_vocab_size, len(corpus.token_vocab), seed=6)
    start = evaluate_on(params, corpus, weighted_f1_scorer(), 4, 4, 8)
    limit = start["dev_del_rate"] / 2
    assert limit > 0  # the start model is already over the limit
    schedule = _toy_schedule(total_iterations=4, initial_lr=1e-4, batch_size=1,
                             beam_size=4, nbest_size=4)
    safeguard = SafeguardConfig(max_fcm_iterations=4, deletion_rate_limit=limit,
                                dev_check_every=2)
    result = train_fcm(params, corpus, weighted_f1_scorer(), schedule, safeguard,
                       dev=corpus)
    assert result.guard_tripped
    assert "returning best passing checkpoint" not in result.guard_report
    assert (f"no checkpoint passed the guard; returning the starting model "
            f"(dev deletion rate {start['dev_del_rate']:.4f})") in result.guard_report
    for name, mat in result.params.matrices().items():
        assert np.array_equal(mat, getattr(params, name))


def test_fcm_respects_hard_iteration_cap():
    corpus = _toy_corpus(4, seed=5)
    params = init_params(3, corpus.source_vocab_size, len(corpus.token_vocab), seed=7)
    schedule = _toy_schedule(total_iterations=50, initial_lr=0.01, batch_size=1)
    safeguard = SafeguardConfig(max_fcm_iterations=4, dev_check_every=2)
    result = train_fcm(params, corpus, weighted_f1_scorer(), schedule, safeguard,
                       dev=corpus)
    assert result.log[-1]["iter"] == 4
    assert set(result.log[0]) == LOG_KEYS


def test_decode_failures_name_the_sample():
    """A checkpoint whose source vocabulary lacks one sample's symbol: the
    batched decode of evaluate_on and of an FCM minibatch names that sample."""
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=6, seed=4))
    bad = corpus.samples[3]
    limit = max(max(s.input) for s in corpus.samples if s is not bad) + 1
    assert limit < corpus.source_vocab_size
    samples = list(corpus.samples)
    samples[3] = Sample(id=bad.id, input=bad.input + (limit,), reference=bad.reference)
    corpus = Corpus(samples, corpus.source_vocab_size, corpus.token_vocab)
    params = random_params(3, limit, len(corpus.token_vocab), seed=5)
    with pytest.raises(FcmError, match=f"{bad.id!r}.*out of range"):
        evaluate_on(params, corpus, weighted_f1_scorer(), 2, 2, 4)
    schedule = TrainingSchedule(total_iterations=1, initial_lr=0.1, batch_size=6, beam_size=2,
                                nbest_size=2, max_len=4)
    with pytest.raises(TrainerError, match=f"iteration 0, sample {bad.id!r}.*out of range"):
        train_fcm(params, corpus, weighted_f1_scorer(), schedule)
    # an id past int64 is named as well, after an in-range sample
    huge = Sample(id=bad.id, input=(2**63,), reference=bad.reference)
    with pytest.raises(FcmError, match=f"sample {bad.id!r}: .*outside int64"):
        decode_samples(params, corpus, [corpus.samples[0], huge], 2, 4)


@pytest.mark.parametrize("matrix", ["out_bias", "dec_state", "attn"])
def test_decoding_a_non_finite_model_names_the_matrix_and_no_sample(matrix):
    """A NaN in a matrix every step reads scores no candidate: the decode
    passes on the model's ModelError, which names the matrix and no sample."""
    corpus = _toy_corpus(4)
    params = random_params(4, corpus.source_vocab_size, len(corpus.token_vocab), seed=2)
    getattr(params, matrix).flat[1] = np.nan
    with pytest.raises(ModelError, match=f"non-finite entries in matrix {matrix}$") as err:
        decode_samples(params, corpus, corpus.samples, 4, 6)
    assert err.value.row is None


def test_decoding_refuses_a_model_of_another_target_vocabulary():
    """Ids past the corpus's vocabulary name no token: decoding refuses the
    model, naming both sizes, instead of raising an IndexError."""
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=20, seed=1))
    params = init_params(8, 55, 95, seed=3)
    params.out_bias[55:] = 5.0
    with pytest.raises(FcmError, match="the model's target vocabulary has 95 tokens, the "
                                       "corpus's 55"):
        decode_corpus_top1(params, corpus, 4, 24)


def test_ce_failures_name_the_iteration_and_the_sample():
    """An input symbol the model does not have: train_ce names the iteration
    and the sample before the batched pass runs.  A reference token the model
    does not have cannot reach that pass, since a model of another target
    vocabulary is refused before any update, naming both sizes, as decoding
    refuses it."""
    corpus = _toy_corpus(6)
    bad = corpus.samples[4]
    samples = list(corpus.samples)
    samples[4] = Sample(id=bad.id, input=bad.input + (8,), reference=bad.reference)
    params = random_params(3, 8, len(corpus.token_vocab), seed=5)  # source ids 0..7
    schedule = _toy_schedule(total_iterations=3, batch_size=6)
    with pytest.raises(TrainerError, match=f"iteration 0, sample {bad.id!r}: source index out"):
        train_ce(params, Corpus(samples, 9, corpus.token_vocab), schedule)
    n = len(corpus.token_vocab)
    for size in (n - 1, n + 1):
        with pytest.raises(FcmError, match=f"^the model's target vocabulary has {size} tokens, "
                                           f"the corpus's {n}$"):
            train_ce(random_params(3, 8, size, seed=5), corpus, schedule)


@pytest.mark.parametrize("train", [
    lambda p, c, s: train_ce(p, c, s),
    lambda p, c, s: train_fcm(p, c, weighted_f1_scorer(), s,
                              SafeguardConfig(ce_interpolation_weight=0.3)),
], ids=["ce", "fcm-with-ce-weight"])
def test_out_of_vocabulary_reference_names_its_sample(train):
    corpus = _toy_corpus(8)
    bad = corpus.samples[7]
    samples = [*corpus.samples[:7], Sample(id=bad.id, input=bad.input, reference="aa zebra .")]
    corpus = Corpus(samples, corpus.source_vocab_size, corpus.token_vocab)
    params = random_params(3, corpus.source_vocab_size, len(corpus.token_vocab), seed=5)
    with pytest.raises(CorpusError, match=f"^sample {bad.id!r}: token 'zebra' not in vocabulary$"):
        train(params, corpus, _toy_schedule(total_iterations=1, batch_size=8))


def test_minibatch_failures_name_the_sample_that_owns_the_row():
    """An FCM minibatch with hypotheses and references of several samples: the
    padded batch row of a bad hypothesis or a bad reference is traced back to
    its sample, past a zero-coefficient hypothesis that adds no row.  An
    unfinished hypothesis without tokens is the path (BOS,), which has no
    step; an unfinished one whose last token is outside the vocabulary ends
    its path with an id that is only a target.  The model refuses both."""
    corpus = _toy_corpus(4)
    # token "." (id 7) ends every reference; only the sample keeping it fails
    bad_ref = corpus.samples[3]
    samples = [Sample(id=s.id, input=s.input, reference=s.reference.rstrip(" ."))
               if s is not bad_ref else s for s in corpus.samples]
    corpus = Corpus(samples, 8, corpus.token_vocab)
    params = random_params(3, 8, 7, seed=5)  # target ids 0..6
    fine = [(Hypothesis((2, 3), -1.0), 0.5), (Hypothesis((4,), -2.0, finished=False), -0.5)]
    unused = [(Hypothesis((7,), -3.0), 0.0)]  # out of range, but a zero coefficient
    bad_hyp = [(Hypothesis((2, 7), -1.0), 0.5), (Hypothesis((4,), -2.0), -0.5)]
    no_step = fine + [(Hypothesis((), -3.0, finished=False), 0.25)]
    bad_last = [(Hypothesis((2, 7), -1.0, finished=False), 0.5)] + fine
    out_of_range = "target index out"
    for paths, ce_weight, bad, match in (
        ([unused + fine, fine, bad_hyp, fine], 0.0, samples[2], out_of_range),
        ([unused + fine, fine, fine, fine], 0.3, bad_ref, out_of_range),
        ([fine, no_step, fine, fine], 0.0, samples[1], "a path needs a step"),
        ([fine, fine, bad_last, fine], 0.0, samples[2], out_of_range),
    ):
        # the coefficients padded to the longest row, as fcm_coefficients gives them
        coefficients = np.zeros((len(paths), max(map(len, paths))))
        for row, pairs in enumerate(paths):
            coefficients[row, :len(pairs)] = [c for _, c in pairs]
        hypotheses = [[h for h, _ in pairs] for pairs in paths]
        with pytest.raises(TrainerError, match=f"iteration 7, sample {bad.id!r}: {match}"):
            _minibatch_gradient(params, corpus, 7, samples, hypotheses, coefficients, ce_weight)


def test_fcm_step_with_ce_interpolation_is_the_per_trajectory_combination():
    """One FCM iteration over a whole-corpus batch with ce_interpolation_weight
    0.3: the batched update equals the per-trajectory oracle gradients of
    every hypothesis (weight 0.7 * coefficient / B) and every reference
    (weight 0.3 / B), summed."""
    corpus = _toy_corpus(3, seed=2)
    params = random_params(4, corpus.source_vocab_size, len(corpus.token_vocab), seed=8)
    schedule = _toy_schedule(total_iterations=1, initial_lr=0.05, batch_size=3)
    safeguard = SafeguardConfig(max_fcm_iterations=1, ce_interpolation_weight=0.3)
    got = train_fcm(params, corpus, weighted_f1_scorer(), schedule, safeguard).params

    total = params.zeros_like()
    n_paths = 0
    for sample in corpus.samples:
        nbest = beam_decode(params, sample.input, 2, 8, bos_id=corpus.bos_id,
                            eos_id=corpus.eos_id)
        scored = reference_expected_consistency(nbest.hypotheses, sample, weighted_f1_scorer(),
                                                corpus.token_vocab)
        paths = [(h.tokens, h.finished, 0.7 * c / 3)
                 for h, c in zip(nbest.hypotheses, scored.coefficients)]
        paths.append((corpus.reference_ids(sample), True, 0.3 / 3))
        for tokens, finished, weight in paths:
            path = trajectory(tokens, finished, corpus.bos_id, corpus.eos_id)
            trace = reference_forward_teacher(params, sample.input, path)
            accumulate(total, reference_backward(params, trace, weight))
            n_paths += weight != 0.0
    assert n_paths > 3  # hypotheses with nonzero coefficients, not only references
    want = apply_update(params, total, 0.05)
    for name, mat in got.matrices().items():
        scale = np.max(np.abs(getattr(total, name)))
        assert np.max(np.abs(mat - getattr(want, name))) <= 1e-12 * max(scale, 1.0), name


@pytest.mark.parametrize("ce_weight", [0.0, 0.3])
@pytest.mark.parametrize("beam_size, nbest_size, max_len", [(4, 4, 3), (4, 2, 8), (8, 8, 1)])
def test_fcm_iteration_is_the_per_list_oracle_update(ce_weight, beam_size, nbest_size,
                                                     max_len):
    """One FCM iteration over a whole-corpus batch: the updated parameters are,
    bit for bit, those of scoring each list on its own (the per-list oracle)
    and assembling the rows per sample.  The cases keep fewer hypotheses than
    the beam, and short max_len leaves unfinished hypotheses; at max_len 1
    the six tokens and the empty hypothesis are too few for beam 8, so the
    lists are shorter than N."""
    corpus = _toy_corpus(6, seed=3)
    params = train_ce(init_params(4, corpus.source_vocab_size, len(corpus.token_vocab), seed=2),
                      corpus, _toy_schedule(total_iterations=60)).params
    scorer = weighted_f1_scorer()
    schedule = TrainingSchedule(total_iterations=1, initial_lr=0.05, batch_size=6,
                                beam_size=beam_size, nbest_size=nbest_size, max_len=max_len,
                                seed=4)
    got = train_fcm(params, corpus, scorer, schedule,
                    SafeguardConfig(max_fcm_iterations=1, ce_interpolation_weight=ce_weight))

    rows = next(_batch_iterator(np.random.default_rng(np.uint64(4)), 6, 6))
    samples = [corpus.samples[i] for i in rows]
    nbests = beam_decode_batch(params, [s.input for s in samples], beam_size, max_len,
                               bos_id=corpus.bos_id, eos_id=corpus.eos_id)
    hypotheses = [nbest.hypotheses[:nbest_size] for nbest in nbests]
    scored = [reference_expected_consistency(hyps, s, scorer, corpus.token_vocab)
              for hyps, s in zip(hypotheses, samples)]
    grad = reference_minibatch_gradient(params, corpus, samples, scored, hypotheses, ce_weight)
    want = apply_update(params, grad, 0.05)
    assert got.params.flat.tobytes() == want.flat.tobytes()
    if max_len < 8:
        assert any(not h.finished for hyps in hypotheses for h in hyps)
    if beam_size == 8:
        assert all(len(hyps) < nbest_size for hyps in hypotheses)
