"""Pluggable consistency scoring: (hypothesis, reference) -> score in [0, 1].

Deterministic proxy scorers keep training and tests hermetic; a small HTTP
client lets a real learned evaluator be plugged in behind the same
interface.  The proxies normalize text before scoring; the remote scorer
sends the raw cased, punctuated strings because learned evaluators are
typically case and punctuation sensitive.  The wire client's modules
(``urllib.request``, ``http.client`` and, through them, ``ssl`` and
``email``) load on the first remote call, so local scoring never pays for
them.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .corpus import normalize_text

SCORE_CLAMP_SLACK = 1e-9


class ScorerError(Exception):
    """Base class for scoring failures."""


class RemoteProtocolError(ScorerError):
    """Malformed response: bad JSON, wrong fields, or a non-200 status."""


class RemoteNetworkError(ScorerError):
    pass


class RemoteTimeoutError(ScorerError):
    pass


class ScoreRangeError(ScorerError):
    """A scorer produced a value outside [0, 1] beyond serialization slack."""


@dataclass(frozen=True)
class TokenWeights:
    """Per-token weights for the weighted bag-of-tokens scorer."""

    weights: Mapping[str, float] = field(default_factory=dict)
    default: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.default) and self.default > 0):
            raise ValueError(f"default token weight must be finite and > 0, got {self.default}")
        for tok, w in self.weights.items():
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"weight for token {tok!r} must be finite and > 0, got {w}")


UNIFORM_WEIGHTS = TokenWeights()


def exact_match_score(hyp: str, ref: str) -> float:
    """1.0 iff the strings are byte-identical. A degenerate scorer for tests."""
    return 1.0 if hyp == ref else 0.0


def weighted_token_f1(hyp: str, ref: str, weights: TokenWeights = UNIFORM_WEIGHTS) -> float:
    """Weighted bag-of-tokens F1 with per-token multiset clipping.

    Both sides are normalized first.  Matched weight for a token is clipped
    at the smaller of its two occurrence counts, so repeating a correct word
    earns no extra credit.  Two empty texts score 1.0, exactly one empty
    scores 0.0.
    """
    return _f1_against(hyp, _reference_side(ref, weights), weights)


def _reference_side(ref: str, weights: TokenWeights) -> tuple[Counter, float]:
    """(ref's normalized token counts, their total weight)."""
    ref_counts = Counter(normalize_text(ref))
    weight, default = weights.weights.get, weights.default
    return ref_counts, sum(c * weight(tok, default) for tok, c in ref_counts.items())


def _f1_against(hyp: str, reference: tuple[Counter, float], weights: TokenWeights) -> float:
    ref_counts, ref_total = reference
    hyp_counts = Counter(normalize_text(hyp))
    if not hyp_counts and not ref_counts:
        return 1.0
    if not hyp_counts or not ref_counts:
        return 0.0
    weight, default = weights.weights.get, weights.default
    # One pass collects the terms in first-occurrence order, and sum() adds
    # them as a sum() per side did: from Python 3.12 sum() compensates float
    # rounding, so a running += would change the last bits there.
    matched_terms: list[float] = []
    hyp_terms: list[float] = []
    for tok, c in hyp_counts.items():
        w = weight(tok, default)
        hyp_terms.append(c * w)
        if tok in ref_counts:
            matched_terms.append(min(c, ref_counts[tok]) * w)
    matched = sum(matched_terms)
    precision = matched / sum(hyp_terms)
    recall = matched / ref_total
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def lcs_ratio(hyp: str, ref: str) -> float:
    """Order-sensitive proxy: 2 * LCS length / (|hyp| + |ref|) over tokens."""
    a = normalize_text(hyp)
    b = normalize_text(ref)
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return 2.0 * prev[len(b)] / (len(a) + len(b))


def post_json(url: str, payload: dict, timeout: float) -> dict:
    """POST a JSON document and return the parsed JSON response.

    Shared by the scorer and summarizer clients; raises the distinct wire
    errors this package reports.  The HTTP client modules load on the first
    call, so a process that only scores locally never imports them.
    """
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            status, body = resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        raise RemoteProtocolError(f"{url} returned HTTP {exc.code}") from exc
    except OSError as exc:
        # A timeout surfaces raw while the response is read, wrapped while connecting.
        if isinstance(exc, TimeoutError) or isinstance(getattr(exc, "reason", None), TimeoutError):
            raise RemoteTimeoutError(f"request to {url} timed out") from exc
        raise RemoteNetworkError(f"cannot reach {url}: {exc}") from exc
    except http.client.HTTPException as exc:
        raise RemoteProtocolError(f"{url} sent a malformed HTTP response: {exc}") from exc
    if status != 200:
        raise RemoteProtocolError(f"{url} returned HTTP {status}")
    try:
        doc = json.loads(body)
    except ValueError as exc:
        raise RemoteProtocolError(f"{url} returned invalid JSON") from exc
    if not isinstance(doc, dict):
        raise RemoteProtocolError(f"{url} returned a non-object JSON document")
    return doc


def _validate_score(raw, source: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise RemoteProtocolError(f"{source} returned a non-numeric consistency value")
    # Compared before float(): NaN fails every comparison, and an integer too
    # large for a float compares exactly instead of overflowing.
    if not -SCORE_CLAMP_SLACK <= raw <= 1.0 + SCORE_CLAMP_SLACK:
        raise ScoreRangeError(f"{source} returned out-of-range consistency {raw}")
    return min(1.0, max(0.0, float(raw)))


def remote_score(endpoint: str, hyp: str, ref: str, timeout: float = 10.0) -> float:
    """Score via the wire protocol: POST {endpoint}/score with raw texts.

    The endpoint is the service base URL.  Values that stray outside [0, 1]
    by at most 1e-9 are clamped (serialization noise); anything worse is an
    error.
    """
    url = endpoint.rstrip("/") + "/score"
    doc = post_json(url, {"hypothesis": hyp, "reference": ref}, timeout)
    if "consistency" not in doc:
        raise RemoteProtocolError(f"{url} response is missing the 'consistency' field")
    return _validate_score(doc["consistency"], url)


@dataclass(frozen=True)
class ConsistencyScorer:
    """A named scoring function whose scores are checked to lie in [0, 1]."""

    name: str
    fn: Callable[[str, str], float]

    def __call__(self, hyp: str, ref: str) -> float:
        score = self.fn(hyp, ref)
        if not 0.0 <= score <= 1.0:
            raise ScoreRangeError(f"scorer {self.name!r} produced {score}, outside [0, 1]")
        return score


def exact_match_scorer() -> ConsistencyScorer:
    return ConsistencyScorer(name="exact-match", fn=exact_match_score)


def weighted_f1_scorer(weights: TokenWeights = UNIFORM_WEIGHTS) -> ConsistencyScorer:
    """weighted_token_f1 that keeps its last reference's counts and total weight:
    the hypotheses of an N-best list are scored one after another against one."""
    reference_side = functools.lru_cache(maxsize=1)(lambda ref: _reference_side(ref, weights))
    return ConsistencyScorer(name="weighted-f1",
                             fn=lambda hyp, ref: _f1_against(hyp, reference_side(ref), weights))


def lcs_scorer() -> ConsistencyScorer:
    return ConsistencyScorer(name="lcs", fn=lcs_ratio)


def remote_scorer(endpoint: str, timeout: float = 10.0) -> ConsistencyScorer:
    return ConsistencyScorer(
        name=f"remote({endpoint})",
        fn=lambda hyp, ref: remote_score(endpoint, hyp, ref, timeout),
    )
