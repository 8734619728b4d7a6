"""Pluggable consistency scoring: (hypothesis, reference) -> score in [0, 1].

Deterministic proxy scorers keep training and tests hermetic; a small HTTP
client lets a real learned evaluator be plugged in behind the same
interface.  The proxies normalize text before scoring; the remote scorer
sends the raw cased, punctuated strings because learned evaluators are
typically case and punctuation sensitive.

The wire client sends each call as one HTTP/1.0 request on a new
connection of the stdlib ``socket``, written with one send.  It reads the
reply to its ``Content-Length``, or to the close when that header is
absent, and refuses a chunked one.  ``ssl`` loads only for an https
endpoint, and the ``*_proxy`` environment variables are not read.  An
unreachable service or a timeout is retried twice, after 0.05 s and then
0.1 s; a malformed reply, a bad status or an out-of-range score is not.
A client parses its endpoint once, when it is built, and refuses one that is
not an http(s) URL with a host (and a numeric port, if it names one) there.
"""

from __future__ import annotations

import functools
import json
import math
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping
from urllib.parse import urlsplit

from .corpus import normalize_text

SCORE_CLAMP_SLACK = 1e-9
RETRY_PAUSES_S = (0.05, 0.1)  # the sleeps between a remote call's three attempts
_URL_CHARS = re.compile(r"[!-~]+")  # printable ASCII, no space
_HEADER_END = re.compile(rb"\r?\n\r?\n")
_MAX_HEADER_BYTES = 65536
_RECV_BYTES = 65536


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


@dataclass(frozen=True)
class _Target:
    """Where one URL's request goes (address and request line), and the URL itself."""

    url: str
    tls: bool
    host: str
    port: int
    host_header: str
    path: str


def parse_target(endpoint: str, route: str) -> _Target:
    """Where requests to {endpoint}/{route} go; ``ValueError`` names an
    endpoint that is not an http(s) URL with a valid host name, and a numeric
    port if it names one."""
    if not _URL_CHARS.fullmatch(endpoint):
        raise ValueError(f"endpoint {endpoint!r} holds a space, control or non-ASCII character")
    parts = urlsplit(endpoint)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"endpoint {endpoint!r} is not an http:// or https:// URL with a host")
    try:
        port = parts.port
    except ValueError as exc:
        raise ValueError(f"endpoint {endpoint!r} has an invalid port: {exc}") from None
    try:
        parts.hostname.encode("idna")  # as the connect will
    except UnicodeError:
        raise ValueError(f"endpoint {endpoint!r} has an invalid host name") from None
    tls = parts.scheme == "https"
    url = endpoint.rstrip("/") + "/" + route
    request = urlsplit(url)  # a path segment added at the end leaves the host as it is
    return _Target(url, tls, parts.hostname, (443 if tls else 80) if port is None else port,
                   parts.netloc.rpartition("@")[2],
                   (request.path or "/") + (f"?{request.query}" if request.query else ""))


@functools.lru_cache(maxsize=1)
def _tls_context():
    # Built once: loading the system's certificates takes tens of milliseconds.
    import ssl

    return ssl.create_default_context()


class _Malformed(Exception):
    """The reply breaks HTTP/1.x framing; post_json reports it with the URL."""


def _read_reply(sock) -> tuple[int, bytes]:
    """(status, body) of the HTTP/1.x reply on ``sock``: the body ends at its
    ``Content-Length`` or, when the header is absent, where the server closes."""
    buf = b""
    while (end := _HEADER_END.search(buf)) is None:
        if len(buf) > _MAX_HEADER_BYTES:
            raise _Malformed(f"header longer than {_MAX_HEADER_BYTES} bytes")
        chunk = sock.recv(_RECV_BYTES)
        if not chunk:
            raise _Malformed("the reply ended inside its header" if buf else "empty reply")
        buf += chunk
    status_line, *lines = buf[:end.start()].decode("latin-1").split("\n")
    version, _, rest = status_line.rstrip("\r").partition(" ")
    code = rest[:3]
    if not (version.startswith("HTTP/1.") and code.isdigit() and rest[3:4] in ("", " ")):
        raise _Malformed(f"bad status line {status_line[:80]!r}")
    headers = {}
    for line in lines:
        name, colon, value = line.partition(":")
        if not colon:
            raise _Malformed(f"bad header line {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding", "identity").lower() != "identity":
        raise _Malformed(f"unsupported Transfer-Encoding {headers['transfer-encoding']!r}")
    body = buf[end.end():]
    if "content-length" not in headers:
        chunks = [body]
        while chunk := sock.recv(_RECV_BYTES):
            chunks.append(chunk)
        return int(code), b"".join(chunks)
    length = headers["content-length"]
    if not length.isdigit():
        raise _Malformed(f"bad Content-Length {length[:80]!r}")
    want, chunks, have = int(length), [body], len(body)
    while have < want:
        chunk = sock.recv(max(_RECV_BYTES, want - have))
        if not chunk:
            raise _Malformed(f"the body ended after {have} of its {want} bytes")
        chunks.append(chunk)
        have += len(chunk)
    return int(code), b"".join(chunks)[:want]


def _exchange(target: _Target, request: bytes, timeout: float) -> tuple[int, bytes]:
    """One connection: send ``request`` in one write and read the reply."""
    import socket  # here, so that a process that only scores locally never loads it

    sock = socket.create_connection((target.host, target.port), timeout=timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if target.tls:
            sock = _tls_context().wrap_socket(sock, server_hostname=target.host)
        sock.sendall(request)
        return _read_reply(sock)
    finally:
        sock.close()


def post_json(target: _Target, payload: dict, timeout: float) -> dict:
    """POST a JSON document to ``target`` and return the parsed JSON response.

    Shared by the scorer and summarizer clients, which parse their endpoint
    once, when they are built (``parse_target``), and pass the target to
    every call.  Raises the distinct wire errors this package reports, each
    naming ``target.url``.  Each attempt is one HTTP/1.0 request on a new
    connection, written with one send; the reply ends at its
    ``Content-Length``, or at the close without one, and a chunked reply is
    refused.  ``ssl`` loads only for an https target, and ``*_proxy``
    variables are not read.  ``timeout`` bounds each connect, send and
    receive.  A network error or a timeout is retried after 0.05 s and then
    0.1 s, three attempts in all; a malformed reply or a bad status is not.
    """
    url = target.url
    body = json.dumps(payload).encode("utf-8")
    request = (f"POST {target.path} HTTP/1.0\r\nHost: {target.host_header}\r\n"
               f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
               ).encode("ascii") + body
    for attempt, pause in enumerate(RETRY_PAUSES_S + (None,), start=1):
        try:
            status, reply = _exchange(target, request, timeout)
            break
        except _Malformed as exc:
            raise RemoteProtocolError(f"{url} sent a malformed HTTP response: {exc}") from exc
        except TimeoutError as exc:
            if pause is None:
                raise RemoteTimeoutError(
                    f"request to {url} timed out on all {attempt} attempts") from exc
        except OSError as exc:
            if pause is None:
                raise RemoteNetworkError(
                    f"cannot reach {url} after {attempt} attempts: {exc}") from exc
        time.sleep(pause)
    if status != 200:
        raise RemoteProtocolError(f"{url} returned HTTP {status}")
    try:
        doc = json.loads(reply)
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
    """Scores from the service at ``endpoint``: each call POSTs the raw texts
    to {endpoint}/score.  ``ValueError`` names an endpoint that is not an
    http(s) URL with a host.  Values that stray outside [0, 1] by at most
    1e-9 are clamped (serialization noise); anything worse is an error."""
    target = parse_target(endpoint, "score")

    def score(hyp: str, ref: str) -> float:
        doc = post_json(target, {"hypothesis": hyp, "reference": ref}, timeout)
        if "consistency" not in doc:
            raise RemoteProtocolError(f"{target.url} response is missing the 'consistency' field")
        return _validate_score(doc["consistency"], target.url)

    return ConsistencyScorer(name=f"remote({endpoint})", fn=score)
