"""Edit-error scoring against brute force, reporting and the paired t-test."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import example, given, strategies as st
from scipy import stats as scipy_stats

from fcmax.metrics import (
    EditBreakdown, MetricsError, align_counts, avg_consistency, consistent_ratio,
    corpus_wer, csv_report, markdown_report, paired_t_test,
    regularized_incomplete_beta, student_t_p_value, wer,
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
    b = wer("I know.", "I don't know.")
    assert (b.substitutions, b.insertions, b.deletions) == (0, 0, 1)
    assert b.wer == pytest.approx(1 / 3)


def test_wer_sub_plus_deletion_example():
    b = wer("I dunno.", "I don't know.")
    assert b.edits == 2
    assert (b.substitutions, b.insertions, b.deletions) == (1, 0, 1)
    assert b.wer == pytest.approx(2 / 3)


def test_wer_identity():
    b = wer("Same text here.", "Same text here.")
    assert b.edits == 0 and b.wer == 0.0


def test_wer_invariant_under_prenormalization():
    raw = wer("I DON'T know!", "Fine, we KNOW.")
    pre = wer("i don't know", "fine we know")
    assert raw == pre


def test_wer_empty_reference_rejected():
    with pytest.raises(MetricsError, match="zero tokens"):
        wer("hello", "...")


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


def test_corpus_wer_single_pair():
    pair = ("I know.", "I don't know.")
    assert corpus_wer([pair]) == wer(*pair)


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
def test_p_value_matches_reference_distribution(t, df):
    ours = student_t_p_value(t, df)
    reference = 2.0 * scipy_stats.t.sf(abs(t), df)
    assert ours == pytest.approx(reference, abs=1e-8)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.05, max_value=30.0),
       st.floats(min_value=0.05, max_value=30.0))
def test_incomplete_beta_matches_reference(x, a, b):
    assert regularized_incomplete_beta(x, a, b) == pytest.approx(
        scipy_stats.beta.cdf(x, a, b), abs=1e-8
    )


def test_reports_render():
    b = EditBreakdown(substitutions=1, insertions=0, deletions=1, ref_words=6)
    csv = csv_report([("wer", b.wer, 2)])
    assert csv.startswith("metric,value,n\n")
    assert "wer,0.333333,2" in csv
    table = markdown_report([("ce", b, 0.812, 0.9)])
    assert "| ce | 33.3 | 0.812 | 0.900 |" in table
