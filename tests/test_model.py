"""Forward/backward contracts: normalization, replay equivalence, gradients."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    cell_terms, finite_difference_check, params_allclose, random_params,
    reference_backward, reference_forward_teacher, terms_objective,
)
from fcmax.model import (
    ModelError, ModelParams, _step, accumulate, apply_update, backward, encode,
    forward_teacher, init_params, load_checkpoint, save_checkpoint, trajectory,
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


def _zero_params(d, sv, tv):
    return init_params(d, sv, tv, seed=0).zeros_like()


def test_single_bos_row_normalized():
    p = random_params(4, 5, 6, seed=1)
    trace = forward_teacher(p, [1, 2], [0])
    assert trace.log_probs.shape == (1, 6)
    assert abs(np.exp(trace.log_probs[0]).sum() - 1.0) < 1e-12


def test_zero_params_uniform_rows():
    p = _zero_params(3, 4, 5)
    trace = forward_teacher(p, [1, 2, 3], [0, 2, 4])
    assert np.allclose(trace.log_probs, -np.log(5.0))


def test_rows_normalized_random_models():
    for seed in range(5):
        p = random_params(6, 5, 7, seed=seed, scale=1.2)
        trace = forward_teacher(p, [0, 4, 2], [0, 1, 2, 3, 4])
        sums = np.exp(trace.log_probs).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-6)


def test_steps_match_conditioning_length():
    p = random_params(4, 5, 6, seed=2)
    trace = forward_teacher(p, [1], [0, 3, 2, 1])
    assert trace.n_steps == 4
    assert list(trace.cond_tokens) == [0, 3, 2, 1]


def test_out_of_range_token_rejected():
    p = random_params(4, 5, 6, seed=2)
    with pytest.raises(ModelError, match="out of range"):
        forward_teacher(p, [1], [0, 6])
    with pytest.raises(ModelError, match="out of range"):
        forward_teacher(p, [5], [0])


def test_forward_perturbation_is_first_order():
    p = random_params(4, 5, 6, seed=8)
    inp, cond = [1, 2, 0], [0, 3, 2]
    cell = (1, 4)
    analytic = backward(
        p, forward_teacher(p, inp, cond), [0, 4, 0], np.array([0.0, 1.0, 0.0])
    ).dec_in[2, 1]

    def value(eps):
        q = p.copy()
        q.dec_in[2, 1] += eps
        return forward_teacher(q, inp, cond).log_probs[cell]

    base = forward_teacher(p, inp, cond).log_probs[cell]
    res1 = abs(value(1e-3) - base - 1e-3 * analytic)
    res2 = abs(value(5e-4) - base - 5e-4 * analytic)
    assert res1 / res2 == pytest.approx(4.0, rel=0.35)  # halving eps quarters the residual


def test_step_replays_teacher_and_batches_rows():
    p = random_params(5, 6, 7, seed=3, scale=0.9)
    inp, cond = [2, 5, 0, 1], [0, 4, 6, 2, 3]
    trace = forward_teacher(p, inp, cond)
    enc = encode(p, inp)
    # a loop of one-row steps replays forward_teacher, up to gemm rounding
    s = np.zeros((1, p.d))
    rows = []
    for n, tok in enumerate(cond):
        logp, s, alpha, context = _step(p, enc, s, np.array([tok]))
        want_rows = (trace.log_probs[n], trace.states[n], trace.attn_weights[n],
                     trace.contexts[n])
        for got, want in zip((logp, s, alpha, context), want_rows):
            assert got.shape == (1,) + want.shape
            assert np.max(np.abs(got[0] - want)) <= 1e-12
        rows.append(s[0])
    # stacked (B, d) rows give the one-row results, up to gemm rounding
    states = np.stack(rows)
    tokens = np.array([3, 0, 6, 6, 1])
    batched = _step(p, enc, states, tokens)
    for b in range(len(tokens)):
        for got, want in zip(batched, _step(p, enc, states[b:b + 1], tokens[b:b + 1])):
            assert np.max(np.abs(got[b] - want[0])) <= 1e-12


def test_whole_trace_forward_and_backward_match_per_step_reference():
    """Whole-trace readout and backward against the per-step oracles.

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
        cond = rng.integers(0, tv, size=int(rng.integers(1, 15)))
        targets = rng.integers(0, tv, size=cond.size)
        weights = rng.normal(size=cond.size) * (rng.random(cond.size) < 0.7)
        got = forward_teacher(p, inp, cond)
        want = reference_forward_teacher(p, inp, cond)
        assert np.array_equal(got.states, want.states), case
        lp_scale = max(1.0, np.max(np.abs(want.log_probs)))
        assert np.max(np.abs(got.log_probs - want.log_probs)) <= 1e-12 * lp_scale, case
        g = backward(p, got, targets, weights)
        ref = reference_backward(p, want, targets, weights)
        scale = max(np.max(np.abs(m)) for m in ref.matrices().values())
        for name, mat in g.matrices().items():
            assert np.max(np.abs(mat - getattr(ref, name))) <= 1e-12 * scale, (case, name)


def test_step_deterministic_and_uniform_for_zero_params():
    p = _zero_params(2, 3, 4)
    enc = encode(p, [1, 2])
    l1 = _step(p, enc, np.zeros((1, p.d)), np.array([0]))[0]
    l2 = _step(p, enc, np.zeros((1, p.d)), np.array([0]))[0]
    assert np.array_equal(l1, l2)
    assert np.allclose(l1, -np.log(4.0))
    batched = _step(p, enc, np.zeros((3, p.d)), np.array([0, 2, 3]))[0]
    assert np.array_equal(batched, np.broadcast_to(l1, (3, 4)))


def test_trajectory_layout():
    assert trajectory([5, 6], True, bos_id=0, eos_id=1) == ((0, 5, 6), (5, 6, 1))
    assert trajectory((5, 6), False, bos_id=0, eos_id=1) == ((0, 5), (5, 6))
    assert trajectory((), True, bos_id=0, eos_id=1) == ((0,), (1,))
    with pytest.raises(ModelError, match="unfinished"):
        trajectory((), False, bos_id=0, eos_id=1)


def test_backward_empty_gradient_is_zero():
    p = random_params(4, 5, 6, seed=4)
    trace = forward_teacher(p, [1, 2], [0, 3])
    g = backward(p, trace, [3, 2], 0.0)
    assert all(not mat.any() for mat in g.matrices().values())


def test_backward_single_cell_matches_finite_differences():
    p = random_params(4, 5, 6, seed=6)
    assert finite_difference_check(p, [1, 2, 4], [0], [([3], 1.0)], eps=1e-5) <= 1e-4


def test_backward_is_linear_in_the_gradient():
    p = random_params(3, 4, 5, seed=7)
    inp, cond = [1, 3], [0, 2, 4]
    trace = forward_teacher(p, inp, cond)
    targets = [1, 4, 3]
    w1, w2 = np.array([0.7, 0.0, -0.2]), np.array([0.0, 1.1, 0.5])
    a, b = 2.0, 3.0
    lhs = backward(p, trace, targets, a * w1 + b * w2)
    rhs = backward(p, trace, targets, w1)
    for name, mat in rhs.matrices().items():
        mat *= a
    accumulate(rhs, backward(p, trace, targets, w2), b)
    for name, mat in lhs.matrices().items():
        np.testing.assert_allclose(mat, getattr(rhs, name), atol=1e-8)


def test_backward_doubled_gradient_doubles_exactly():
    p = random_params(3, 4, 5, seed=7)
    trace = forward_teacher(p, [1, 3], [0, 2, 4])
    w = np.array([0.7, 0.0, -0.2])
    doubled = backward(p, trace, [1, 4, 3], 2.0 * w)
    base = backward(p, trace, [1, 4, 3], w)
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
        assert finite_difference_check(p, inp, cond, cell_terms(len(cond), rows)) <= 1e-4


def test_backward_rejects_out_of_trace_cells():
    p = random_params(3, 4, 5, seed=9)
    trace = forward_teacher(p, [1], [0])
    with pytest.raises(ModelError, match="2 targets for a trace of 1 steps"):
        backward(p, trace, [0, 1], 1.0)
    with pytest.raises(ModelError, match="out of range"):
        backward(p, trace, [5], 1.0)
    with pytest.raises(ModelError, match="1 steps"):
        backward(p, trace, [0], np.ones(2))


def test_backward_rejects_nonfinite_weights():
    p = random_params(3, 4, 5, seed=9)
    trace = forward_teacher(p, [1], [0, 2])
    with pytest.raises(ModelError, match="non-finite"):
        backward(p, trace, [2, 1], np.array([1.0, np.nan]))
    with pytest.raises(ModelError, match="non-finite"):
        backward(p, trace, [2, 1], np.inf)


def test_apply_update_zero_lr_keeps_params():
    p = random_params(3, 4, 5, seed=10)
    g = p.zeros_like()
    g.out_bias += 1.0
    q = apply_update(p, g, 0.0)
    assert params_allclose(p, q)


def test_apply_update_unit_step():
    p = random_params(3, 4, 5, seed=11)
    ones = ModelParams(**{k: np.ones_like(v) for k, v in p.matrices().items()})
    q = apply_update(p, ones, 1.0)
    for name, mat in q.matrices().items():
        assert np.array_equal(mat, getattr(p, name) + 1.0)


def test_ascent_step_increases_objective():
    p = random_params(4, 5, 6, seed=12)
    inp, cond = [1, 2, 3], [0, 2, 4]
    terms = [([2, 4, 1], 1.0)]

    def objective(params):
        return terms_objective(forward_teacher(params, inp, cond), terms)

    g = backward(p, forward_teacher(p, inp, cond), *terms[0])
    q = apply_update(p, g, 1e-3)
    assert objective(q) > objective(p)


def test_apply_update_refuses_nonfinite_and_names_matrix():
    p = random_params(3, 4, 5, seed=13)
    g = p.zeros_like()
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
    doc_keys = set(__import__("json").loads(path.read_text()))
    assert doc_keys == {"version", "d", "vocab_sizes", "matrices"}
