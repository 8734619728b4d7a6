"""Utterance-level evaluation: edit-error scoring, consistency reporting and
paired significance tests.

Word error rates are computed on normalized token lists with a canonical
alignment: among minimum-edit alignments the one with fewer substitutions is
preferred, then the one with fewer deletions, so the error breakdown that
feeds the deletion tripwire is deterministic.  A corpus is aligned in one
DP over all its pairs, vectorised across pairs and reference positions.
Each cell's (edits, substitutions, deletions) cost is packed into one int64
as edits * 2**42 + substitutions * 2**21 + deletions, so the plain minimum
is the canonical tie-break; a pair of m hypothesis and n reference tokens
needs m + n < 2**21 (ALIGN_TOKEN_LIMIT), so no field carries into the next,
and a longer pair is refused.  The paired t-test's two-tailed p-value is
one minus the finite cos^2 series of Student's t for integer df, accurate
to about 1e-13 absolute; a p-value below about 1e-15, the rounding floor of
that one minus, comes out as exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

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

    @property
    def insertion_rate(self) -> float:
        return self.insertions / self.ref_words


# packed costs of one insertion, substitution and deletion (see the module docstring)
_FIELD = 1 << 21
_INS = _FIELD * _FIELD
_SUB = _INS + _FIELD
_DEL = _INS + 1
ALIGN_TOKEN_LIMIT = _FIELD


def _align_batch(hyps: Sequence[Sequence[str]],
                 refs: Sequence[Sequence[str]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(substitutions, insertions, deletions) arrays of the canonical
    alignment of every (hypothesis, reference) token-list pair.

    Tokens are interned to ids and padded, hypotheses with -1 and references
    with -2, so a pad never matches and every cell is an alignment cost of
    the padded sequences.  The DP runs one hypothesis position at a time
    over the rows of every pair: a cell takes the smaller of its diagonal
    (match or substitution) and upper (insertion) costs, then the deletion
    chain along the row is one running minimum.  Pair p's counts are read
    at row len(hyp_p), column len(ref_p); no cell past them feeds that cell.
    """
    m = np.fromiter(map(len, hyps), dtype=np.int64, count=len(hyps))
    n = np.fromiter(map(len, refs), dtype=np.int64, count=len(refs))
    over = np.flatnonzero(m + n >= ALIGN_TOKEN_LIMIT)
    if over.size:
        idx = over[0]
        raise MetricsError(f"pair {idx}: {m[idx]} + {n[idx]} tokens reach the "
                           f"alignment limit of {ALIGN_TOKEN_LIMIT}")
    tokens = list(chain.from_iterable(hyps)) + list(chain.from_iterable(refs))
    ids = {tok: i for i, tok in enumerate(set(tokens))}
    codes = np.fromiter(map(ids.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    hyp_ids = np.full((len(hyps), int(m.max(initial=0))), -1, dtype=np.int64)
    ref_ids = np.full((len(refs), int(n.max(initial=0))), -2, dtype=np.int64)
    hyp_ids[np.arange(hyp_ids.shape[1]) < m[:, None]] = codes[:m.sum()]
    ref_ids[np.arange(ref_ids.shape[1]) < n[:, None]] = codes[m.sum():]
    ramp = np.arange(ref_ids.shape[1] + 1, dtype=np.int64) * _DEL
    cost = np.tile(ramp, (len(hyps), 1))  # row 0: the first j reference tokens are deleted
    # pairs in order of hypothesis length, so those that end at row i are one slice
    order = np.argsort(m)
    ends = np.searchsorted(m[order], np.arange(hyp_ids.shape[1] + 2))
    packed = np.empty(len(hyps), dtype=np.int64)
    for i in range(hyp_ids.shape[1] + 1):
        if i:
            base = np.empty_like(cost)
            base[:, 0] = i * _INS
            np.minimum(cost[:, :-1] + np.where(hyp_ids[:, i - 1, None] == ref_ids, 0, _SUB),
                       cost[:, 1:] + _INS, out=base[:, 1:])
            cost = np.minimum.accumulate(base - ramp, axis=1) + ramp
        done = order[ends[i]:ends[i + 1]]
        packed[done] = cost[done, n[done]]
    edits, subs, dels = packed // _INS, packed // _FIELD % _FIELD, packed % _FIELD
    return subs, edits - subs - dels, dels


def corpus_wer(pairs: Sequence[tuple[str, str]]) -> EditBreakdown:
    """Pooled-count error rate: sum the edit counts, then divide once.

    Every pair is normalized once and all pairs are aligned together; a
    reference that normalizes to zero tokens is refused with its pair index.
    """
    if not pairs:
        raise MetricsError("corpus_wer needs at least one (hypothesis, reference) pair")
    hyps = [normalize_text(hyp) for hyp, _ in pairs]
    refs = [normalize_text(ref) for _, ref in pairs]
    for idx, tokens in enumerate(refs):
        if not tokens:
            raise MetricsError(
                f"pair {idx}: reference normalizes to zero tokens: {pairs[idx][1]!r}")
    subs, ins, dels = (int(c.sum()) for c in _align_batch(hyps, refs))
    return EditBreakdown(substitutions=subs, insertions=ins, deletions=dels,
                         ref_words=sum(len(r) for r in refs))


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


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: int
    p_value_two_tailed: float

    @property
    def significant_at_95(self) -> bool:
        return self.p_value_two_tailed < 0.05


def student_t_p_value(t: float, df: int) -> float:
    """Two-tailed p-value of Student's t with an integer df >= 1 degrees of
    freedom, from the finite series of Abramowitz & Stegun 26.7.3 (odd df)
    and 26.7.4 (even df) in theta = atan(|t| / sqrt(df))."""
    if isinstance(df, bool) or not isinstance(df, int) or df < 1:
        raise MetricsError(f"degrees of freedom must be an integer >= 1, got {df!r}")
    if math.isnan(t):
        raise MetricsError("t statistic is NaN")
    theta = math.atan2(abs(t), math.sqrt(df))
    sin = math.sin(theta)
    odd = df % 2
    term = math.cos(theta) if odd else 1.0
    total = term if df > 1 else 0.0
    for k in range(2, df - 1, 2):
        term *= (k - 1 + odd) / (k + odd)
        term -= term * sin * sin  # times cos^2 unrounded: a rounded cos^2 errs k/2-fold here
        total += term
    mass = sin * total
    if odd:
        mass = (theta + mass) * 2.0 / math.pi
    return max(0.0, 1.0 - mass)


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Classical paired Student's t on the differences a - b.

    Zero-variance differences degenerate: all-zero gives t=0, p=1; a constant
    nonzero difference gives t of the appropriate infinite sign and p=0.  A
    NaN or infinite score raises MetricsError naming its vector and index.
    """
    if len(a) != len(b):
        raise MetricsError(f"paired vectors differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise MetricsError(f"paired t-test needs n >= 2, got {n}")
    for name, vec in (("a", a), ("b", b)):
        bad = next((i for i, x in enumerate(vec) if not math.isfinite(x)), None)
        if bad is not None:
            raise MetricsError(f"score vector {name} entry {bad} is not finite: {vec[bad]!r}")
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
    """One table row per system: WER %, insertions per reference word %,
    mean consistency, consistent ratio."""
    lines = [
        "| System | WER (%) | Ins (%) | Avg consistency | Consistent ratio |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name, breakdown, avg, ratio in systems:
        lines.append(
            f"| {name} | {100.0 * breakdown.wer:.1f} | {100.0 * breakdown.insertion_rate:.1f} "
            f"| {avg:.3f} | {ratio:.3f} |"
        )
    return "\n".join(lines) + "\n"
