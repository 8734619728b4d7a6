"""Utterance-level evaluation: edit-error scoring, consistency reporting and
paired significance tests.

Word error rates are computed on normalized token lists with a canonical
alignment: among minimum-edit alignments the one with fewer substitutions is
preferred, then the one with fewer deletions, so the error breakdown that
feeds the deletion tripwire is deterministic.  The paired t-test evaluates
its two-tailed p-value through the regularized incomplete beta function,
implemented here with the standard continued-fraction expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .corpus import normalize_text


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class EditBreakdown:
    substitutions: int
    insertions: int
    deletions: int
    ref_words: int

    @property
    def edits(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def wer(self) -> float:
        return self.edits / self.ref_words

    @property
    def deletion_rate(self) -> float:
        return self.deletions / self.ref_words


def align_counts(hyp_tokens: Sequence[str], ref_tokens: Sequence[str]) -> tuple[int, int, int]:
    """Minimum-edit alignment counts (substitutions, insertions, deletions).

    Cell costs are lexicographic (edits, substitutions, deletions) triples,
    which realizes the canonical tie-break without a backtrace.
    """
    m, n = len(hyp_tokens), len(ref_tokens)
    # row j=0..n over ref; prev[j] aligns hyp[:i] with ref[:j]
    prev = [(j, 0, j) for j in range(n + 1)]
    for i in range(1, m + 1):
        cur = [(i, 0, 0)]
        h = hyp_tokens[i - 1]
        for j in range(1, n + 1):
            pd = prev[j - 1]
            if h == ref_tokens[j - 1]:
                diag = pd
            else:
                diag = (pd[0] + 1, pd[1] + 1, pd[2])
            up = (prev[j][0] + 1, prev[j][1], prev[j][2])        # insertion
            left = (cur[j - 1][0] + 1, cur[j - 1][1], cur[j - 1][2] + 1)  # deletion
            cur.append(min(diag, up, left))
        prev = cur
    edits, subs, dels = prev[n]
    return subs, edits - subs - dels, dels


def wer(hyp: str, ref: str) -> EditBreakdown:
    """Edit-error breakdown on normalized tokens; the reference must be non-empty."""
    hyp_tokens = normalize_text(hyp)
    ref_tokens = normalize_text(ref)
    if not ref_tokens:
        raise MetricsError(f"reference normalizes to zero tokens: {ref!r}")
    subs, ins, dels = align_counts(hyp_tokens, ref_tokens)
    return EditBreakdown(
        substitutions=subs, insertions=ins, deletions=dels, ref_words=len(ref_tokens),
    )


def corpus_wer(pairs: Sequence[tuple[str, str]]) -> EditBreakdown:
    """Pooled-count error rate: sum the edit counts, then divide once."""
    if not pairs:
        raise MetricsError("corpus_wer needs at least one (hypothesis, reference) pair")
    subs = ins = dels = words = 0
    for hyp, ref in pairs:
        b = wer(hyp, ref)
        subs += b.substitutions
        ins += b.insertions
        dels += b.deletions
        words += b.ref_words
    return EditBreakdown(substitutions=subs, insertions=ins, deletions=dels, ref_words=words)


def avg_consistency(
    pairs: Sequence[tuple[str, str]],
    scorer: Callable[[str, str], float],
) -> tuple[float, list[float]]:
    """Mean consistency plus the per-pair vector for significance testing."""
    if not pairs:
        raise MetricsError("avg_consistency needs at least one pair")
    scores: list[float] = []
    for idx, (hyp, ref) in enumerate(pairs):
        try:
            scores.append(scorer(hyp, ref))
        except Exception as exc:
            raise MetricsError(f"scorer failed on pair {idx}: {exc}") from exc
    return sum(scores) / len(scores), scores


def consistent_ratio(scores: Sequence[float], threshold: float = 0.5) -> float:
    """Fraction of avg_consistency's per-pair scores that reach the threshold (inclusive)."""
    if not 0.0 <= threshold <= 1.0:
        raise MetricsError(f"threshold must be in [0, 1], got {threshold}")
    if not scores:
        raise MetricsError("consistent_ratio needs at least one score")
    return sum(1 for s in scores if s >= threshold) / len(scores)


_BETA_FPMIN = 1e-300
_BETA_EPS = 1e-15


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            break
    return h


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) by continued fraction, accurate to well below 1e-8."""
    if not 0.0 <= x <= 1.0:
        raise MetricsError(f"incomplete beta argument x={x} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: int
    p_value_two_tailed: float

    @property
    def significant_at_95(self) -> bool:
        return self.p_value_two_tailed < 0.05


def student_t_p_value(t: float, df: int) -> float:
    """Two-tailed p-value of Student's t with df degrees of freedom."""
    if df < 1:
        raise MetricsError(f"degrees of freedom must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0
    x, y = df / (df + t * t), t * t / (df + t * t)
    if y < x:
        # Near x = 1, I_x(df/2, 1/2) would form 1 - x by cancellation; y is 1 - x without it.
        return 1.0 - regularized_incomplete_beta(y, 0.5, df / 2.0)
    return regularized_incomplete_beta(x, df / 2.0, 0.5)


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Classical paired Student's t on the differences a - b.

    Zero-variance differences degenerate: all-zero gives t=0, p=1; a constant
    nonzero difference gives t of the appropriate infinite sign and p=0.
    """
    if len(a) != len(b):
        raise MetricsError(f"paired vectors differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise MetricsError(f"paired t-test needs n >= 2, got {n}")
    diffs = [x - y for x, y in zip(a, b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    df = n - 1
    if var == 0.0:
        if mean == 0.0:
            return TTestResult(t_statistic=0.0, degrees_of_freedom=df, p_value_two_tailed=1.0)
        t = math.inf if mean > 0 else -math.inf
        return TTestResult(t_statistic=t, degrees_of_freedom=df, p_value_two_tailed=0.0)
    t = mean / math.sqrt(var / n)
    return TTestResult(
        t_statistic=t,
        degrees_of_freedom=df,
        p_value_two_tailed=student_t_p_value(t, df),
    )


def csv_report(rows: Sequence[tuple[str, float, int]]) -> str:
    """metric,value,n lines for machine consumption."""
    out = ["metric,value,n"]
    for metric, value, n in rows:
        out.append(f"{metric},{value:.6f},{n}")
    return "\n".join(out) + "\n"


def markdown_report(systems: Sequence[tuple[str, EditBreakdown, float, float]]) -> str:
    """One table row per system: WER %, mean consistency, consistent ratio."""
    lines = [
        "| System | WER (%) | Avg consistency | Consistent ratio |",
        "| --- | --- | --- | --- |",
    ]
    for name, breakdown, avg, ratio in systems:
        lines.append(
            f"| {name} | {100.0 * breakdown.wer:.1f} | {avg:.3f} | {ratio:.3f} |"
        )
    return "\n".join(lines) + "\n"
