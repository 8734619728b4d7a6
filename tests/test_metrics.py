"""Edit-error scoring against brute force, reporting and the paired t-test."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import stats as scipy_stats

from conftest import align_counts, reference_align_counts
from fcmax import metrics
from fcmax.metrics import (
    EditBreakdown, MetricsError, avg_consistency, consistent_ratio,
    corpus_wer, csv_report, markdown_report, paired_t_test, student_t_p_value,
)
from fcmax.scorers import exact_match_score, weighted_token_f1


def brute_force_edit_distance(hyp, ref) -> int:
    """Minimum cost over every alignment, enumerated recursively (no memo)."""
    best = math.inf

    def walk(i, j, cost):
        nonlocal best
        if i == len(hyp) and j == len(ref):
            best = min(best, cost)
            return
        if i < len(hyp) and j < len(ref):
            walk(i + 1, j + 1, cost + (hyp[i] != ref[j]))
        if i < len(hyp):
            walk(i + 1, j, cost + 1)
        if j < len(ref):
            walk(i, j + 1, cost + 1)

    walk(0, 0, 0)
    return int(best)


def test_wer_deletion_example():
    b = corpus_wer([("I know.", "I don't know.")])
    assert (b.substitutions, b.insertions, b.deletions) == (0, 0, 1)
    assert b.wer == pytest.approx(1 / 3)


def test_wer_sub_plus_deletion_example():
    b = corpus_wer([("I dunno.", "I don't know.")])
    assert b.edits == 2
    assert (b.substitutions, b.insertions, b.deletions) == (1, 0, 1)
    assert b.wer == pytest.approx(2 / 3)


def test_wer_identity():
    b = corpus_wer([("Same text here.", "Same text here.")])
    assert b.edits == 0 and b.wer == 0.0


def test_wer_invariant_under_prenormalization():
    raw = corpus_wer([("I DON'T know!", "Fine, we KNOW.")])
    pre = corpus_wer([("i don't know", "fine we know")])
    assert raw == pre


def test_wer_empty_reference_rejected():
    with pytest.raises(MetricsError, match="zero tokens"):
        corpus_wer([("hello", "...")])


def test_alignment_tie_break_prefers_fewer_substitutions():
    # swapped pair: one substitution-free alignment exists at the same cost
    assert align_counts(["a", "b"], ["b", "a"]) == (0, 1, 1)


def test_alignment_tie_break_prefers_fewer_deletions_second():
    # hyp empty vs ref: deletions are forced; sanity of the second key
    assert align_counts([], ["x", "y"]) == (0, 0, 2)
    assert align_counts(["x", "y"], []) == (0, 2, 0)


def test_align_counts_against_brute_force_small():
    symbols = "abc"
    seqs = [
        list(s)
        for n in range(0, 4)
        for s in itertools.product(symbols, repeat=n)
    ]
    for hyp in seqs:
        for ref in seqs:
            subs, ins, dels = align_counts(hyp, ref)
            assert subs + ins + dels == brute_force_edit_distance(hyp, ref)


@given(
    st.lists(st.sampled_from("abc"), max_size=5),
    st.lists(st.sampled_from("abc"), max_size=5),
)
def test_align_counts_brute_force_property(hyp, ref):
    subs, ins, dels = align_counts(hyp, ref)
    assert subs + ins + dels == brute_force_edit_distance(hyp, ref)


def _ragged_pairs(rng, n_pairs: int, empty_hyps: bool) -> list[tuple[list[str], list[str]]]:
    """Token-list pairs of 0-30 hypothesis and 1-30 reference tokens over 2-4
    symbols, so that tied alignments are common."""
    pairs = []
    for _ in range(n_pairs):
        symbols = "abcd"[:int(rng.integers(2, 5))]
        m = 0 if empty_hyps and rng.random() < 0.2 else int(rng.integers(0, 31))
        pairs.append((list(rng.choice(list(symbols), size=m)),
                      list(rng.choice(list(symbols), size=int(rng.integers(1, 31))))))
    return pairs


@pytest.mark.parametrize("n_pairs", [1, 2, 7, 150])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_alignment_matches_per_pair_oracle(n_pairs, seed):
    """Every pair of a ragged batch gets exactly the oracle's (subs, ins,
    dels), and corpus_wer pools exactly the oracle's counts."""
    pairs = _ragged_pairs(np.random.default_rng(seed), n_pairs, empty_hyps=seed > 0)
    want = [reference_align_counts(hyp, ref) for hyp, ref in pairs]
    hyps, refs = zip(*pairs)
    assert list(zip(*(c.tolist() for c in metrics._align_batch(hyps, refs)))) == want
    assert [align_counts(hyp, ref) for hyp, ref in pairs] == want
    pooled = corpus_wer([(" ".join(hyp), " ".join(ref)) for hyp, ref in pairs])
    assert (pooled.substitutions, pooled.insertions, pooled.deletions) == tuple(
        map(sum, zip(*want)))
    assert pooled.ref_words == sum(len(ref) for _, ref in pairs)


@given(st.lists(st.tuples(st.lists(st.sampled_from("abc"), max_size=8),
                          st.lists(st.sampled_from("abc"), max_size=8)),
                min_size=1, max_size=6))
def test_batched_alignment_oracle_property(pairs):
    hyps, refs = zip(*pairs)
    got = list(zip(*(c.tolist() for c in metrics._align_batch(hyps, refs))))
    assert got == [reference_align_counts(hyp, ref) for hyp, ref in pairs]


def test_alignment_limit_names_the_pair(monkeypatch):
    monkeypatch.setattr(metrics, "ALIGN_TOKEN_LIMIT", 6)
    ok = ("a b", "a b c")  # 5 tokens, one under the limit
    assert corpus_wer([ok, ok]).deletions == 2
    with pytest.raises(MetricsError, match="pair 2: 3 \\+ 3 tokens"):
        corpus_wer([ok, ok, ("a b c", "a b c")])
    with pytest.raises(MetricsError, match="pair 0: 6 \\+ 0 tokens"):
        align_counts(list("abcdef"), [])


def test_corpus_wer_names_the_pair_with_an_empty_reference():
    with pytest.raises(MetricsError, match="pair 1: reference normalizes to zero tokens: '...'"):
        corpus_wer([("a", "a"), ("hello", "..."), ("b", "b")])


def test_corpus_wer_single_pair():
    pair = ("I know.", "I don't know.")
    assert corpus_wer([pair]) == EditBreakdown(substitutions=0, insertions=0, deletions=1,
                                               ref_words=3)


def test_corpus_wer_duplication_invariance():
    pairs = [("a b", "a c"), ("x", "x y")]
    assert corpus_wer(pairs).wer == corpus_wer(pairs * 3).wer


def test_corpus_wer_pools_counts():
    # breakdowns (1,0,0)/2 words and (0,0,1)/4 words pool to 2/6
    pooled = corpus_wer([("a x", "a b"), ("p q r", "p q r s")])
    assert pooled.substitutions == 1 and pooled.deletions == 1 and pooled.insertions == 0
    assert pooled.ref_words == 6
    assert pooled.wer == pytest.approx(2 / 6)


def test_corpus_wer_empty_rejected():
    with pytest.raises(MetricsError):
        corpus_wer([])


def test_avg_consistency_identical_pairs():
    mean, scores = avg_consistency([("x", "x")] * 4, exact_match_score)
    assert mean == 1.0 and scores == [1.0] * 4


def test_avg_consistency_mean():
    table = {"a": 0.2, "b": 0.9}
    mean, scores = avg_consistency([("a", "r"), ("b", "r")], lambda h, r: table[h])
    assert mean == pytest.approx(0.55)
    assert scores == [0.2, 0.9]


def test_avg_consistency_matches_resummation():
    import numpy as np

    rng = np.random.default_rng(3)
    pairs = [
        (" ".join(rng.choice(["a", "b", "c"], size=3)),
         " ".join(rng.choice(["a", "b", "c"], size=3)))
        for _ in range(100)
    ]
    mean, scores = avg_consistency(pairs, weighted_token_f1)
    assert abs(mean - sum(scores) / len(scores)) <= 1e-12


def test_avg_consistency_reports_failing_pair():
    with pytest.raises(MetricsError, match="pair 1"):
        avg_consistency([("a", "a"), ("b", "b")],
                        lambda h, r: 1.0 if h == "a" else 1 / 0)


def test_consistent_ratio_boundaries():
    scores = [0.4, 0.6, 0.9]
    assert consistent_ratio(scores, 0.0) == 1.0
    assert consistent_ratio(scores, 1.0) < 1.0
    assert consistent_ratio(scores, 0.5) == pytest.approx(2 / 3)
    assert consistent_ratio(scores, 0.6) == pytest.approx(2 / 3)  # inclusive
    with pytest.raises(MetricsError):
        consistent_ratio(scores, 1.5)
    with pytest.raises(MetricsError):
        consistent_ratio([], 0.5)


def test_t_test_identical_vectors():
    r = paired_t_test([0.1, 0.4, 0.9], [0.1, 0.4, 0.9])
    assert r.t_statistic == 0.0
    assert r.p_value_two_tailed == 1.0
    assert not r.significant_at_95


def test_t_test_hand_example():
    r = paired_t_test([2, 4, 6], [1, 2, 3])
    assert r.t_statistic == pytest.approx(2 * math.sqrt(3), abs=1e-12)
    assert r.degrees_of_freedom == 2
    assert r.p_value_two_tailed == pytest.approx(0.0742, abs=5e-4)


def test_t_test_critical_point_df9():
    assert student_t_p_value(2.262, 9) == pytest.approx(0.05, abs=5e-4)


def test_t_test_zero_variance_nonzero_mean():
    r = paired_t_test([1.0, 1.0], [0.0, 0.0])
    assert r.t_statistic == math.inf
    assert r.p_value_two_tailed == 0.0
    assert r.significant_at_95
    r = paired_t_test([0.0, 0.0], [1.0, 1.0])
    assert r.t_statistic == -math.inf


def test_t_test_errors():
    with pytest.raises(MetricsError, match="length"):
        paired_t_test([1, 2], [1, 2, 3])
    with pytest.raises(MetricsError, match="n >= 2"):
        paired_t_test([1], [2])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(MetricsError, match="vector a entry 1 is not finite"):
            paired_t_test([0.1, bad, 0.3], [0.2, 0.2, 0.2])
        with pytest.raises(MetricsError, match="vector b entry 2 is not finite"):
            paired_t_test([0.1, 0.2, 0.3], [0.2, 0.2, bad])
    for df in (2.0, 0, True):
        with pytest.raises(MetricsError, match="degrees of freedom"):
            student_t_p_value(1.0, df)
    with pytest.raises(MetricsError, match="t statistic is NaN"):  # the differences overflow
        paired_t_test([1e308, -1e308], [-1e308, 1e308])


vectors = st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=12)


@given(vectors)
def test_t_test_antisymmetry(a):
    b = [x + 0.3 * ((-1) ** i) for i, x in enumerate(a)]
    fwd = paired_t_test(a, b)
    rev = paired_t_test(b, a)
    assert fwd.t_statistic == pytest.approx(-rev.t_statistic, abs=1e-12)
    assert fwd.p_value_two_tailed == pytest.approx(rev.p_value_two_tailed, abs=1e-12)


@given(st.integers(min_value=1, max_value=60),
       st.floats(min_value=0.0, max_value=8.0),
       st.floats(min_value=0.01, max_value=8.0))
def test_p_value_monotone_in_t(df, t, bump):
    assert student_t_p_value(t + bump, df) <= student_t_p_value(t, df) + 1e-12


@given(st.floats(min_value=-12.0, max_value=12.0), st.integers(min_value=1, max_value=80))
@example(t=5.960464477539063e-08, df=32)  # t*t is lost in df + t*t
@example(t=0.7, df=1)  # the odd series without cos terms
@example(t=0.7, df=2)  # the even series with its one leading term
@example(t=1.97, df=199)
@example(t=-2.5, df=1000)
@example(t=3.1, df=10000)
def test_p_value_matches_reference_distribution(t, df):
    ours = student_t_p_value(t, df)
    reference = 2.0 * scipy_stats.t.sf(abs(t), df)
    assert ours == pytest.approx(reference, abs=1e-8)


@pytest.mark.parametrize("df", [1, 2, 3, 9, 80, 199, 200, 1000, 10000, 100000])
def test_p_value_is_close_to_the_reference_out_to_the_far_tail(df):
    """Within 1e-12 of scipy from t = 0 to far out in the tail, where the
    p-value rounds to 0 but never below it."""
    for t in (0.0, 0.01, 0.5, 1.0, 2.0, 2.262, 3.0, 5.0, 12.0, 30.0, 1e6, math.inf):
        ours = student_t_p_value(t, df)
        assert ours >= 0.0, (t, df)
        assert ours == pytest.approx(2.0 * scipy_stats.t.sf(t, df), abs=1e-12), (t, df)


def test_reports_render():
    b = EditBreakdown(substitutions=1, insertions=0, deletions=1, ref_words=6)
    csv = csv_report([("wer", b.wer, 2)])
    assert csv.startswith("metric,value,n\n")
    assert "wer,0.333333,2" in csv
    table = markdown_report([("ce", b, 0.812, 0.9),
                             ("fcm", EditBreakdown(0, 3, 0, 8), 0.5, 0.25)])
    assert table.startswith("| System | WER (%) | Ins (%) | Avg consistency |")
    assert "| ce | 33.3 | 0.0 | 0.812 | 0.900 |" in table
    assert "| fcm | 37.5 | 37.5 | 0.500 | 0.250 |" in table
