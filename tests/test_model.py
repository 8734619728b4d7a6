"""Forward/backward contracts: normalization, replay equivalence, gradients."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from conftest import (
    accumulate, batch_of_one, cells_gradient, cells_objective, central_difference_error,
    conditioned_log_probs, finite_difference_check, params_allclose, random_params,
    reference_backward, reference_forward_teacher, step_cells, step_weighted_gradient,
)
from fcmax.model import (
    MATRIX_NAMES, ModelError, ModelParams, PaddedIds, _Decoder, apply_update, backward,
    encode, forward_teacher, init_params, load_checkpoint, save_checkpoint, trajectory,
)


def test_init_deterministic():
    a = init_params(5, 4, 6, seed=42)
    b = init_params(5, 4, 6, seed=42)
    for name, mat in a.matrices().items():
        assert np.array_equal(mat, getattr(b, name))


def test_init_shapes_minimal():
    p = init_params(1, 2, 2, seed=0)
    assert p.src_emb.shape == (2, 1)
    assert p.tgt_emb.shape == (2, 1)
    assert p.enc_proj.shape == (1, 1)
    assert p.dec_in.shape == (1, 1)
    assert p.dec_state.shape == (1, 1)
    assert p.attn.shape == (1, 1)
    assert p.out_proj.shape == (1, 2)
    assert p.out_bias.shape == (2,)
    p.validate()


def test_matrices_are_views_of_the_flat_vector_in_name_order():
    p = init_params(4, 5, 6, seed=1)
    mats = p.matrices()
    assert tuple(mats) == MATRIX_NAMES
    assert all(np.shares_memory(mat, p.flat) for mat in mats.values())
    assert np.array_equal(np.concatenate([mat.ravel() for mat in mats.values()]), p.flat)
    p.attn[1, 2] = 7.0
    assert 7.0 in p.flat


def test_init_seeds_differ():
    a = init_params(3, 4, 4, seed=1)
    b = init_params(3, 4, 4, seed=2)
    assert any(
        not np.array_equal(mat, getattr(b, name)) for name, mat in a.matrices().items()
    )


def test_init_range_and_errors():
    p = init_params(8, 10, 12, seed=5)
    for mat in p.matrices().values():
        assert np.all(np.abs(mat) <= 0.08)
    with pytest.raises(ModelError):
        init_params(0, 4, 4, seed=0)
    with pytest.raises(ModelError):
        init_params(4, 0, 4, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "past-uint64"])
def test_init_refuses_a_seed_outside_uint64(seed):
    """numpy's own error for such a seed names no parameter."""
    with pytest.raises(ModelError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
        init_params(3, 5, 5, seed=seed)


def _zero_params(d, sv, tv):
    return init_params(d, sv, tv, seed=0).zeros_like()


def test_single_bos_row_normalized():
    p = random_params(4, 5, 6, seed=1)
    trace = forward_teacher(p, PaddedIds.of([[1, 2]]), PaddedIds.of([[0, 3]]))
    assert trace.log_probs.shape == (1, 1, 6)
    assert abs(np.exp(trace.log_probs[0, 0]).sum() - 1.0) < 1e-12


def test_zero_params_uniform_rows():
    p = _zero_params(3, 4, 5)
    trace = forward_teacher(p, *batch_of_one([1, 2, 3], [0, 2, 4]))
    assert np.allclose(trace.log_probs, -np.log(5.0))


def test_rows_normalized_random_models():
    for seed in range(5):
        p = random_params(6, 5, 7, seed=seed, scale=1.2)
        trace = forward_teacher(p, *batch_of_one([0, 4, 2], [0, 1, 2, 3, 4]))
        sums = np.exp(trace.log_probs).sum(axis=-1)
        assert np.allclose(sums, 1.0, atol=1e-6)


def test_steps_match_conditioning_length():
    """A path of n + 1 ids is n steps: each id but the last conditions one,
    and each id but the first is one step's target."""
    p = random_params(4, 5, 6, seed=2)
    trace = forward_teacher(p, *batch_of_one([1], [0, 3, 2, 1, 5]))
    assert trace.lengths.tolist() == [4]
    assert trace.cond_tokens.tolist() == [[0, 3, 2, 1]]
    assert trace.target_tokens.tolist() == [[3, 2, 1, 5]]


def test_out_of_range_token_rejected():
    p = random_params(4, 5, 6, seed=2)
    with pytest.raises(ModelError, match="out of range"):
        forward_teacher(p, *batch_of_one([1], [0, 6]))
    with pytest.raises(ModelError, match="out of range"):
        forward_teacher(p, *batch_of_one([5], [0]))


def test_forward_perturbation_is_first_order():
    p = random_params(4, 5, 6, seed=8)
    inp, cond = [1, 2, 0], [0, 3, 2]
    cell = (0, 1, 4)
    analytic = cells_gradient(p, [(inp, cond, {1: {4: 1.0}})]).dec_in[2, 1]

    def value(eps):
        q = p.copy()
        q.dec_in[2, 1] += eps
        return forward_teacher(q, *batch_of_one(inp, cond)).log_probs[cell]

    base = forward_teacher(p, *batch_of_one(inp, cond)).log_probs[cell]
    res1 = abs(value(1e-3) - base - 1e-3 * analytic)
    res2 = abs(value(5e-4) - base - 5e-4 * analytic)
    assert res1 / res2 == pytest.approx(4.0, rel=0.35)  # halving eps quarters the residual


def test_step_replays_teacher_and_batches_rows():
    p = random_params(5, 6, 7, seed=3, scale=0.9)
    inp, cond = [2, 5, 0, 1], [0, 4, 6, 2, 3]
    trace = forward_teacher(p, *batch_of_one(inp, cond + [1]))
    decoder = _Decoder(p, PaddedIds.of([inp]))
    # a loop of one-row steps replays forward_teacher, up to gemm rounding
    s = np.zeros((1, 1, p.d))
    rows = []
    for n, tok in enumerate(cond):
        logp, s = decoder.step(s, np.array([[tok]]))
        _, alpha, context = decoder.readout(s)
        want_rows = (trace.log_probs[0, n], trace.states[0, n], trace.attn_weights[0, n],
                     trace.contexts[0, n])
        for got, want in zip((logp, s, alpha, context), want_rows):
            assert got.shape == (1, 1) + want.shape
            assert np.max(np.abs(got[0, 0] - want)) <= 1e-12
        rows.append(s[0, 0])
    # stacked (B, d) rows give the one-row results, up to gemm rounding
    states = np.stack(rows)[None]
    tokens = np.array([[3, 0, 6, 6, 1]])
    batched = decoder.step(states, tokens)
    for b in range(tokens.shape[1]):
        for got, want in zip(batched, decoder.step(states[:, b:b + 1], tokens[:, b:b + 1])):
            assert np.max(np.abs(got[0, b] - want[0, 0])) <= 1e-12


def test_grouped_steps_match_each_input_alone():
    """A group pads ragged inputs; the mask gives padded positions exactly
    zero attention, so each input's rows are those of its decoder alone."""
    p = random_params(5, 6, 7, seed=4, scale=0.9)
    inputs = [[2, 5, 0, 1], [3], [4, 4, 1]]
    group = _Decoder(p, PaddedIds.of(inputs))
    rng = np.random.default_rng(0)
    states = rng.uniform(-1, 1, size=(3, 2, p.d))
    tokens = rng.integers(0, 7, size=(3, 2))
    log_probs, s = group.step(states, tokens)
    grouped = (log_probs, s) + group.readout(s)[1:]
    for g, ids in enumerate(inputs):
        decoder = _Decoder(p, PaddedIds.of([ids]))
        log_probs, s = decoder.step(states[g], tokens[g])
        for got, want in zip(grouped, (log_probs, s) + decoder.readout(s)[1:]):
            assert np.max(np.abs(got[g][..., :want.shape[-1]] - want)) <= 1e-12
        assert not grouped[2][g][:, len(ids):].any()  # padded attention weights


def test_group_encodes_padded_inputs_as_each_input_alone():
    """One padded encode of a ragged group gives each input's own encoder
    states bit for bit, and exact zeros on the padded rows.  A one-token
    input alone is a (1, 1, d) @ (d, d) product, which numpy computes as a
    vector-matrix product; in a group it is a row of a matrix product, so
    its states agree within rounding only."""
    p = random_params(5, 6, 7, seed=5, scale=0.9)
    inputs = [[2, 5, 0, 1, 3], [3], [4, 4, 1], [0, 1, 2, 3, 4], [5, 2]]
    group = _Decoder(p, PaddedIds.of(inputs))
    assert group.values.shape == (5, 5, p.d)
    for g, ids in enumerate(inputs):
        alone = encode(p, PaddedIds.of([ids]))[0]
        if len(ids) > 1:
            assert np.array_equal(group.values[g, :len(ids)], alone)
        else:
            assert np.max(np.abs(group.values[g, :1] - alone)) <= 1e-15
        assert np.array_equal(group.values[g, len(ids):], np.zeros((5 - len(ids), p.d)))
    for ids in inputs:
        alone = PaddedIds.of([ids])
        assert np.array_equal(_Decoder(p, alone).values, encode(p, alone))


def test_whole_trace_forward_and_backward_match_per_step_reference():
    """Whole-trace readout and backward of one weighted trajectory against
    the per-step oracles.

    The recurrence is the same per-step arithmetic, so states agree bit for
    bit; the readout's dot products are summed in another order, so log-probs
    agree within 1e-12 of max(1, the largest |log-prob|) (logits reach a few
    hundred at scale 12) and gradients within 1e-12 of the largest entry.
    """
    rng = np.random.default_rng(5150)
    for case in range(500):
        d, sv, tv = int(rng.integers(1, 33)), int(rng.integers(1, 9)), int(rng.integers(2, 40))
        p = random_params(d, sv, tv, seed=case, scale=float(rng.uniform(0.05, 12.0)))
        inp = rng.integers(0, sv, size=int(rng.integers(1, 16)))
        path = rng.integers(0, tv, size=int(rng.integers(2, 16)))
        weight = float(rng.normal()) * (rng.random() < 0.7)
        got = forward_teacher(p, *batch_of_one(inp, path))
        want = reference_forward_teacher(p, inp, path)
        assert np.array_equal(got.states, want.states), case
        lp_scale = max(1.0, np.max(np.abs(want.log_probs)))
        assert np.max(np.abs(got.log_probs - want.log_probs)) <= 1e-12 * lp_scale, case
        g = backward(p, got, np.array([weight]))
        ref = reference_backward(p, want, weight)
        scale = max(np.max(np.abs(m)) for m in ref.matrices().values())
        for name, mat in g.matrices().items():
            assert np.max(np.abs(mat - getattr(ref, name))) <= 1e-12 * scale, (case, name)


def _ragged_batch(rng, sv: int, tv: int, shared: bool):
    """2-6 trajectories with 1-7 input symbols and paths of 1-9 steps each,
    and scalar, per-step or zero weights; with shared=True they share one
    input, as the hypotheses of one FCM sample do."""
    n_traj = int(rng.integers(2, 7))
    one_input = rng.integers(0, sv, size=int(rng.integers(1, 8))).tolist()
    batch = []
    for _ in range(n_traj):
        inp = one_input if shared else rng.integers(0, sv, size=int(rng.integers(1, 8))).tolist()
        n = int(rng.integers(1, 10))
        kind = rng.integers(3)
        weight = (float(rng.normal()), rng.normal(size=n), 0.0)[kind]
        batch.append((inp, rng.integers(0, tv, size=n + 1).tolist(), weight))
    return batch


def test_batched_pass_matches_per_trajectory_oracles():
    """U trajectories of ragged inputs and lengths in one call, against the
    per-trajectory oracles: each trajectory's real steps have the oracle's
    log-probs and its padded source positions exactly zero attention, and the
    batch gradient is the sum of the oracle gradients."""
    rng = np.random.default_rng(77)
    for case in range(200):
        d, sv, tv = int(rng.integers(1, 17)), int(rng.integers(1, 9)), int(rng.integers(2, 30))
        p = random_params(d, sv, tv, seed=case, scale=float(rng.uniform(0.05, 3.0)))
        batch = _ragged_batch(rng, sv, tv, shared=case % 3 == 0)
        if case % 10 == 0:
            batch = batch[:1]  # U = 1
        inputs, paths, _ = zip(*batch)
        got = forward_teacher(p, PaddedIds.of(inputs), PaddedIds.of(paths))
        assert got.log_probs.shape == (len(batch), max(map(len, paths)) - 1, tv)
        total = p.zeros_like()
        for u, (inp, path, w) in enumerate(batch):
            want = reference_forward_teacher(p, inp, path)
            n = len(path) - 1
            lp_scale = max(1.0, np.max(np.abs(want.log_probs)))
            assert np.max(np.abs(got.log_probs[u, :n] - want.log_probs[0])) <= 1e-12 * lp_scale
            assert np.max(np.abs(got.attn_weights[u, :n, :len(inp)]
                                 - want.attn_weights[0])) <= 1e-12
            assert not got.attn_weights[u, :, len(inp):].any(), (case, u)
            accumulate(total, reference_backward(p, want, w))
        g = step_weighted_gradient(p, batch)
        scale = max(1e-300, max(np.max(np.abs(m)) for m in total.matrices().values()))
        for name, mat in g.matrices().items():
            assert np.max(np.abs(mat - getattr(total, name))) <= 1e-12 * scale, (case, name)


def test_padded_steps_and_zero_weights_give_exact_zeros():
    rng = np.random.default_rng(8)
    p = random_params(5, 6, 7, seed=3)
    batch = _ragged_batch(rng, 6, 7, shared=False)
    inputs, paths = (PaddedIds.of(seqs) for seqs in list(zip(*batch))[:2])
    trace = forward_teacher(p, inputs, paths)
    g = backward(p, trace, np.zeros(len(batch)))
    assert all(not mat.any() for mat in g.matrices().values())
    # the short trajectory alone, or padded next to a zero-weight long one
    alone = backward(p, forward_teacher(p, *batch_of_one([1, 2], [0, 3])), np.array([1.0]))
    padded = backward(p, forward_teacher(p, PaddedIds.of([[1, 2], [4, 0, 5]]),
                                         PaddedIds.of([[0, 3], [0, 3, 6, 2, 1]])),
                      np.array([1.0, 0.0]))
    for name, mat in alone.matrices().items():
        assert np.max(np.abs(mat - getattr(padded, name))) <= 1e-12 * np.max(np.abs(mat))


def test_flat_sequences_are_a_batch_of_one():
    """forward_teacher's one form besides padded ids: one flat pair of id
    sequences, an input and a path, as the benchmark's tracer test passes it."""
    p = random_params(4, 5, 6, seed=21)
    flat = forward_teacher(p, [1, 2, 4], [0, 3, 5])
    batched = forward_teacher(p, PaddedIds.of([(1, 2, 4)]), PaddedIds.of([(0, 3, 5)]))
    assert flat.lengths.tolist() == [2]
    for name in ("log_probs", "cond_tokens", "target_tokens", "lengths", "input_ids", "states"):
        assert np.array_equal(getattr(flat, name), getattr(batched, name)), name


def test_taken_rows_are_the_padding_of_their_sequences():
    """Rows taken from a set of sequences padded once (in any order, repeated,
    as a list or an array) are the arrays padding those rows' sequences
    alone gives: same int64 ids cut to the longest taken row, same lengths."""
    rng = np.random.default_rng(12)
    seqs = [rng.integers(0, 9, size=int(rng.integers(1, 12))).tolist() for _ in range(20)]
    padded = PaddedIds.of(seqs)
    assert len(padded) == 20
    for rows in ([3], [0, 19, 5], [7, 7, 2], list(range(20)), rng.permutation(20)[:6]):
        got = padded.take(rows)
        want = PaddedIds.of([seqs[r] for r in rows])
        assert len(got) == len(rows)
        assert got.ids.dtype == want.ids.dtype == np.int64
        assert got.ids.shape == want.ids.shape and np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.lengths, want.lengths)


def test_batched_backward_matches_finite_differences_on_a_ragged_batch():
    p = random_params(3, 4, 5, seed=31, scale=0.7)
    inputs = [[1, 3], [0], [2, 1, 3, 0]]
    conds = [[0, 2, 4], [0], [0, 1]]
    targets = [[2, 4, 1], [3], [4, 2]]
    weights = [0.7, np.array([-1.3]), np.array([0.4, 1.1])]
    cells = [step_cells(tgt, w) for tgt, w in zip(targets, weights)]
    analytic = cells_gradient(p, list(zip(inputs, conds, cells)))

    def objective(q):
        log_probs = conditioned_log_probs(q, inputs, conds)
        return sum(cells_objective(lp, row) for lp, row in zip(log_probs, cells))

    assert central_difference_error(p, objective, analytic) <= 1e-4


def test_batch_errors_name_the_mismatch():
    """Each batch error names what does not fit and, when one trajectory or
    input is at fault, its row: the first bad row of the padded arrays.  Ids
    come only as PaddedIds and weights only as a (U,) float64 array; any
    other form is refused, naming the expected one.  Every path id is
    checked, the last one, which is only a target, too."""
    p = random_params(3, 4, 5, seed=9)
    P = PaddedIds.of
    trace = forward_teacher(p, P([[1], [2], [3]]), P([[0, 1], [0, 1, 2], [2, 3]]))
    padded_form = r"ids must be a PaddedIds \(PaddedIds.of pads a list of id sequences\)"
    weight_form = r"weights must be a \(3,\) float64 array, one weight per trajectory"
    cases = [
        (lambda: forward_teacher(p, P([[1], [2]]), P([[0]])), "2 inputs for 1 trajectories",
         None),
        (lambda: forward_teacher(p, P([]), P([])), "no trajectories", None),
        (lambda: forward_teacher(p, P([[1], []]), P([[0], [0]])), "empty input", 1),
        (lambda: forward_teacher(p, P([[1], [2]]), P([[0, 1], []])), "a path needs a step", 1),
        (lambda: forward_teacher(p, P([[1], [2]]), P([[0, 1], [0]])), "a path needs a step", 1),
        (lambda: forward_teacher(p, P([[1], [2], [3]]), P([[0, 1], [0], []])),
         "a path needs a step", 1),
        (lambda: forward_teacher(p, P([[1], [2, 4], [4]]), P([[0]] * 3)), "source index out", 1),
        (lambda: forward_teacher(p, P([[1], [2], [3]]), P([[0], [0], [-1, 5]])),
         "target index out", 2),
        (lambda: forward_teacher(p, P([[1], [2], [3]]), P([[0, 1], [0, 2, 4], [0, 5]])),
         "target index out", 2),
        (lambda: forward_teacher(p, [[1], [2], [3, 1]], P([[0]] * 3)), "source " + padded_form,
         None),
        (lambda: forward_teacher(p, P([[1]] * 3), [[0], [0, 1], [2]]), "target " + padded_form,
         None),
        (lambda: _Decoder(p, [[1], [2, 3]]), "source " + padded_form, None),
        (lambda: backward(p, trace, np.ones(1)), weight_form, None),
        (lambda: backward(p, trace, [1.0] * 3), weight_form, None),
        (lambda: backward(p, trace, 1.0), weight_form, None),
        (lambda: backward(p, trace, np.ones(3, dtype=np.int64)), weight_form, None),
        (lambda: backward(p, trace, [1.0, np.ones(2), 1.0]), weight_form, None),
        (lambda: backward(p, trace, np.ones((3, 2))), weight_form, None),
        (lambda: PaddedIds(np.zeros((2, 3), dtype=np.int64), np.array([1, 2])),
         "padded ids must be", None),
        (lambda: PaddedIds(np.zeros((1, 2), dtype=np.int32), np.array([2])),
         "padded ids must be", None),
        (lambda: PaddedIds(np.zeros((2, 2), dtype=np.int64), np.array([-1, 2])),
         "padded ids must be", None),
        # items that are not one id each: one-element lists, ragged lists, None
        (lambda: P([[[2], [3]]]), "id sequence 0 holds an item that is not an integer id", 0),
        (lambda: P([[[2, 1], [3]]]), "id sequence 0 holds", 0),
        (lambda: P([[1, 2], [3, [4]], [[5]]]), "id sequence 1 holds", 1),
        (lambda: P([(1,), (2, None)]), "id sequence 1 holds", 1),
        (lambda: forward_teacher(p, [0, 1], [[2], [3]]), "id sequence 0 holds", 0),
        # floats and bools are not ids, in any mix; an empty sequence pads
        (lambda: P([[2.7, 1.2]]), "id sequence 0 holds an item that is not an integer id", 0),
        (lambda: P([[True, False]]), "id sequence 0 holds", 0),
        (lambda: P([[1, 2], [3, True]]), "id sequence 1 holds", 1),
        (lambda: P([[1], [], [2, np.float64(2.0)]]), "id sequence 2 holds", 2),
        (lambda: P([np.array([1, 0], dtype=bool)]), "id sequence 0 holds", 0),
        # ids outside int64, above or below, as Python or numpy integers
        (lambda: P([[1], [2, 2**63]]), "id sequence 1 holds an id outside int64", 1),
        (lambda: P([[1], [2], [-2**63 - 1]]), "id sequence 2 holds an id outside int64", 2),
        (lambda: P([[np.uint64(2**64 - 1)]]), "id sequence 0 holds an id outside int64", 0),
        # the first bad input is named, whether it is empty or out of range
        (lambda: encode(p, P([[1], [], [2, 4]])), "empty input", 1),
        (lambda: encode(p, P([[1], [2, 4], []])), "source index out", 1),
    ]
    for call, match, row in cases:
        with pytest.raises(ModelError, match=match) as err:
            call()
        assert err.value.row == row, match


def test_step_deterministic_and_uniform_for_zero_params():
    p = _zero_params(2, 3, 4)
    decoder = _Decoder(p, PaddedIds.of([[1, 2]]))
    l1 = decoder.step(np.zeros((1, 1, p.d)), np.array([[0]]))[0]
    l2 = decoder.step(np.zeros((1, 1, p.d)), np.array([[0]]))[0]
    assert np.array_equal(l1, l2)
    assert np.allclose(l1, -np.log(4.0))
    batched = decoder.step(np.zeros((1, 3, p.d)), np.array([[0, 2, 3]]))[0]
    assert np.array_equal(batched, np.broadcast_to(l1, (1, 3, 4)))


def test_trajectory_layout():
    """BOS, the tokens and EOS when finished.  An unfinished path without
    tokens has no step; forward_teacher refuses it, naming its row."""
    assert trajectory([5, 6], True, bos_id=0, eos_id=1) == (0, 5, 6, 1)
    assert trajectory((5, 6), False, bos_id=0, eos_id=1) == (0, 5, 6)
    assert trajectory((), True, bos_id=0, eos_id=1) == (0, 1)
    assert trajectory(np.array([5]), False, bos_id=0, eos_id=1) == (0, 5)
    assert trajectory((), False, bos_id=0, eos_id=1) == (0,)


def test_backward_empty_gradient_is_zero():
    p = random_params(4, 5, 6, seed=4)
    trace = forward_teacher(p, *batch_of_one([1, 2], [0, 3, 2]))
    g = backward(p, trace, np.zeros(1))
    assert all(not mat.any() for mat in g.matrices().values())


def test_backward_single_cell_matches_finite_differences():
    p = random_params(4, 5, 6, seed=6)
    assert finite_difference_check(p, [1, 2, 4], [0], {0: {3: 1.0}}, eps=1e-5) <= 1e-4


def test_backward_is_linear_in_the_gradient():
    p = random_params(3, 4, 5, seed=7)
    inp, cond = [1, 3], [0, 2, 4]
    targets = [1, 4, 3]
    w1, w2 = np.array([0.7, 0.0, -0.2]), np.array([0.0, 1.1, 0.5])
    a, b = 2.0, 3.0
    lhs = cells_gradient(p, [(inp, cond, step_cells(targets, a * w1 + b * w2))])
    rhs = cells_gradient(p, [(inp, cond, step_cells(targets, w1))])
    for name, mat in rhs.matrices().items():
        mat *= a
    accumulate(rhs, cells_gradient(p, [(inp, cond, step_cells(targets, w2))]), b)
    for name, mat in lhs.matrices().items():
        np.testing.assert_allclose(mat, getattr(rhs, name), atol=1e-8)


def test_backward_doubled_gradient_doubles_exactly():
    p = random_params(3, 4, 5, seed=7)
    w = np.array([0.7, 0.0, -0.2])
    doubled = cells_gradient(p, [([1, 3], [0, 2, 4], step_cells([1, 4, 3], 2.0 * w))])
    base = cells_gradient(p, [([1, 3], [0, 2, 4], step_cells([1, 4, 3], w))])
    for name, mat in doubled.matrices().items():
        assert np.array_equal(mat, 2.0 * getattr(base, name))


def test_backward_random_models_match_finite_differences():
    rng = np.random.default_rng(2024)
    for trial in range(8):
        d = int(rng.integers(2, 9))
        sv = int(rng.integers(2, 7))
        tv = int(rng.integers(3, 8))
        p = random_params(d, sv, tv, seed=trial, scale=0.7)
        inp = rng.integers(0, sv, size=int(rng.integers(1, 5))).tolist()
        cond = rng.integers(0, tv, size=int(rng.integers(1, 5))).tolist()
        n_cells = min(int(rng.integers(1, 5)), len(cond) * tv)
        cells = set()
        while len(cells) < n_cells:
            cells.add((int(rng.integers(len(cond))), int(rng.integers(tv))))
        rows: dict[int, dict[int, float]] = {}
        for n, i in cells:
            rows.setdefault(n, {})[i] = float(rng.normal())
        assert finite_difference_check(p, inp, cond, rows) <= 1e-4


def test_backward_rejects_nonfinite_weights():
    p = random_params(3, 4, 5, seed=9)
    trace = forward_teacher(p, PaddedIds.of([[1], [1]]), PaddedIds.of([[0, 2, 1], [0, 3]]))
    with pytest.raises(ModelError, match="non-finite"):
        backward(p, trace, np.array([1.0, np.nan]))
    with pytest.raises(ModelError, match="non-finite"):
        backward(p, trace, np.array([np.inf, 1.0]))


def test_apply_update_zero_lr_keeps_params():
    p = random_params(3, 4, 5, seed=10)
    g = p.zeros_like()
    g.out_bias += 1.0
    q = apply_update(p, g, 0.0)
    assert params_allclose(p, q)


def test_apply_update_unit_step():
    p = random_params(3, 4, 5, seed=11)
    ones = ModelParams(np.ones_like(p.flat), *p.sizes)
    q = apply_update(p, ones, 1.0)
    for name, mat in q.matrices().items():
        assert np.array_equal(mat, getattr(p, name) + 1.0)


def test_ascent_step_increases_objective():
    p = random_params(4, 5, 6, seed=12)
    inp, path = [1, 2, 3], [0, 2, 4, 1]
    cells = step_cells(path[1:], 1.0)

    def objective(params):
        return cells_objective(forward_teacher(params, *batch_of_one(inp, path)).log_probs[0],
                               cells)

    g = backward(p, forward_teacher(p, *batch_of_one(inp, path)), np.array([1.0]))
    q = apply_update(p, g, 1e-3)
    assert objective(q) > objective(p)


def test_apply_update_leaves_its_inputs_untouched():
    p = random_params(3, 4, 5, seed=12)
    g = random_params(3, 4, 5, seed=13)
    p_before, g_before = p.flat.copy(), g.flat.copy()
    q = apply_update(p, g, 0.5)
    assert not np.shares_memory(q.flat, p.flat)
    assert np.array_equal(p.flat, p_before) and np.array_equal(g.flat, g_before)


def test_apply_update_refuses_nonfinite_and_names_matrix():
    p = random_params(3, 4, 5, seed=13)
    g = p.zeros_like()
    for lr in (-0.1, np.nan, np.inf):
        with pytest.raises(ModelError, match="learning rate"):
            apply_update(p, g, lr)
    g.attn[0, 0] = np.inf
    with pytest.raises(ModelError, match="attn"):
        apply_update(p, g, 0.1)


def test_checkpoint_round_trip(tmp_path):
    p = random_params(5, 6, 7, seed=14)
    path = tmp_path / "model.json"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    for name, mat in p.matrices().items():
        assert np.array_equal(mat, getattr(q, name))
    doc_keys = set(json.loads(path.read_text()))
    assert doc_keys == {"version", "d", "vocab_sizes", "matrices"}


def test_checkpoint_bytes_are_pinned(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(init_params(8, 11, 13, seed=3), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "a53565df09049c7f479b6b1888f72114fca4e04bfc441e28f81695161520048b")


def _drop_attn(doc):
    del doc["matrices"]["attn"]


def _short_attn(doc):
    doc["matrices"]["attn"]["data"].pop()


def _bias_as_matrix(doc):
    doc["matrices"]["out_bias"] = {"shape": [2, 3], "data": [0.0] * 6}


def _set_d(doc):
    doc["d"] = 99


def _set_target(doc):
    doc["vocab_sizes"]["target"] = 99


def _set_huge_sizes(doc):
    """A header whose model would not fit in memory (36.4 TiB)."""
    doc["d"] = doc["vocab_sizes"]["source"] = 10 ** 6


def _shape(name, shape):
    def corrupt(doc):
        doc["matrices"][name]["shape"] = shape
    return corrupt


def _as_array(doc):
    return [doc]


def _version(value):
    def corrupt(doc):
        doc["version"] = value
    return corrupt


def _attn_entry(value):
    def corrupt(doc):
        doc["matrices"]["attn"]["data"][5] = value
    return corrupt


@pytest.mark.parametrize("corrupt, match", [
    (_drop_attn, "no matrix attn"),
    (_short_attn, "matrix attn must have a data list of 16 entries"),
    (_bias_as_matrix, r"matrix out_bias has shape \[2, 3\]"),
    (_set_d, "d=99"),
    (_set_target, "target=99"),
    (_set_huge_sizes, r"matrix src_emb has shape \[5, 4\], but a header of d=1000000, "
                      r"source=1000000, target=6 needs \[1000000, 1000000\]"),
    (_as_array, "JSON object"),
    (_attn_entry("x"), "matrix attn entry 5 must be a number in float range, got 'x'"),
    (_attn_entry([1.0]), r"matrix attn entry 5 .*, got \[1.0\]"),
    (_attn_entry(True), "matrix attn entry 5 .*, got True"),
    (_attn_entry(None), "matrix attn entry 5 .*, got None"),
    (_attn_entry(10 ** 400), "matrix attn entry 5 .*, got 1000"),
    (_version(True), "^unsupported checkpoint version True$"),  # True == 1 in Python
    (_version(1.0), r"^unsupported checkpoint version 1\.0$"),
    (_shape("out_bias", [True, 6]), r"matrix out_bias has shape \[True, 6\]"),  # True == 1
    (_shape("enc_proj", [4.0, 4]), r"matrix enc_proj has shape \[4\.0, 4\]"),  # 4.0 == 4
], ids=["missing-matrix", "short-data", "bias-shape", "header-d", "header-target",
        "huge-header", "json-array", "string-entry", "list-entry", "bool-entry", "null-entry",
        "huge-int-entry", "version-true", "version-float", "shape-true", "shape-float"])
def test_load_checkpoint_refuses_a_document_that_does_not_fit_its_header(
        tmp_path, corrupt, match):
    path = tmp_path / "model.json"
    save_checkpoint(random_params(4, 5, 6, seed=15), path)
    doc = json.loads(path.read_text())
    doc = corrupt(doc) or doc
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match=match):
        load_checkpoint(path)
