"""Pluggable consistency scoring: (hypothesis, reference) -> score in [0, 1].

Deterministic proxy scorers keep training and tests hermetic; a small HTTP
client lets a real learned evaluator be plugged in behind the same
interface.  The proxies normalize text before scoring; the remote scorer
sends the raw cased, punctuated strings because learned evaluators are
typically case and punctuation sensitive.

The wire client sends each call as one HTTP/1.0 request on a new
connection of the stdlib ``socket``, written with one send.  It reads the
reply to its ``Content-Length``, or to the close when that header is
absent, and refuses a chunked one or a body over ``_MAX_BODY_BYTES``.
``ssl`` loads only for an https endpoint, and the ``*_proxy`` environment
variables are not read.  The timeout bounds each attempt as a whole.  An
unreachable service or a timeout is retried twice, after 0.05 s and then
0.1 s; a malformed reply, a bad status or an out-of-range score is not.
A client parses its endpoint once, when it is built, and refuses one that is
not an http(s) URL with a host (and a numeric port, if it names one), or that
has a fragment, there.  The route joins the endpoint's path, before its query.

Callers score many pairs at once through ``ConsistencyScorer.score_all``.  A
scorer with ``in_flight`` 1 (every local one) scores them one after another;
a remote one keeps up to ``REMOTE_IN_FLIGHT`` calls open at once, on a thread
pool kept per ``in_flight`` value and with a few more queued, so the service
works on one request while the client sends the next.  Each call still goes
through ``fn`` with one pair, so ``fn`` must be thread-safe when
``in_flight`` > 1; the remote client's is, as it opens a new connection per
call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import re
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence
from urllib.parse import urlsplit

from .corpus import normalize_text

SCORE_CLAMP_SLACK = 1e-9
RETRY_PAUSES_S = (0.05, 0.1)  # the sleeps between a remote call's three attempts
REMOTE_IN_FLIGHT = 3  # remote calls open at once in score_all
_URL_CHARS = re.compile(r"[!-~]+")  # printable ASCII, no space
_HEADER_END = re.compile(rb"\r?\n\r?\n")
_MAX_HEADER_BYTES = 65536
_MAX_BODY_BYTES = 1 << 20  # far above any scorer or summarizer reply
_RECV_BYTES = 65536


class ScorerError(Exception):
    """Base class for scoring failures; ``index`` is the failing pair of a
    ``score_all`` call, or None outside one."""

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


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
    """Where requests to {endpoint}/{route} go: the route joins the endpoint's
    path, and its query, if any, follows.  ``ValueError`` names an endpoint
    that is not an http(s) URL with a valid host name, and a numeric port if
    it names one, or that has a fragment."""
    if not _URL_CHARS.fullmatch(endpoint):
        raise ValueError(f"endpoint {endpoint!r} holds a space, control or non-ASCII character")
    if "#" in endpoint:
        raise ValueError(f"endpoint {endpoint!r} has a fragment")
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
    query = f"?{parts.query}" if parts.query else ""
    # netloc ends at the first "/" or "?", so only the path loses trailing slashes
    url = endpoint.partition("?")[0].rstrip("/") + "/" + route + query
    return _Target(url, tls, parts.hostname, (443 if tls else 80) if port is None else port,
                   parts.netloc.rpartition("@")[2],
                   parts.path.rstrip("/") + "/" + route + query)


@functools.lru_cache(maxsize=1)
def _tls_context():
    # Built once: loading the system's certificates takes tens of milliseconds.
    import ssl

    return ssl.create_default_context()


@functools.lru_cache(maxsize=None)
def _pool(workers: int):
    # Kept across calls: an FCM step may score too few pairs to pay for
    # starting threads each time.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="fcmax-score")


# A forked child inherits the pools but not their threads; it builds its own.
os.register_at_fork(after_in_child=_pool.cache_clear)


class _Malformed(Exception):
    """The reply breaks HTTP/1.x framing; post_json reports it with the URL."""


def _by(sock, deadline: float):
    """``sock``, its timeout set to the time left before ``deadline`` (a
    ``time.monotonic`` value); TimeoutError when none is left."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("the exchange did not end within the timeout")
    sock.settimeout(left)
    return sock


def _read_reply(sock, deadline: float) -> tuple[int, bytes]:
    """(status, body) of the HTTP/1.x reply on ``sock``, read by ``deadline``:
    the body ends at its ``Content-Length`` or, when the header is absent,
    where the server closes, and is at most ``_MAX_BODY_BYTES`` long."""
    buf = b""
    while (end := _HEADER_END.search(buf)) is None:
        if len(buf) > _MAX_HEADER_BYTES:
            raise _Malformed(f"header longer than {_MAX_HEADER_BYTES} bytes")
        chunk = _by(sock, deadline).recv(_RECV_BYTES)
        if not chunk:
            raise _Malformed("the reply ended inside its header" if buf else "empty reply")
        buf += chunk
    status_line, *lines = buf[:end.start()].decode("latin-1").split("\n")
    version, _, rest = status_line.rstrip("\r").partition(" ")
    code = rest[:3]
    # str.isdigit alone also takes a latin-1 '²', which int() refuses
    if not (version.startswith("HTTP/1.") and code.isascii() and code.isdigit()
            and rest[3:4] in ("", " ")):
        raise _Malformed(f"bad status line {status_line[:80]!r}")
    headers = {}
    for line in lines:
        name, colon, value = line.partition(":")
        if not colon:
            raise _Malformed(f"bad header line {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding", "identity").lower() != "identity":
        raise _Malformed(f"unsupported Transfer-Encoding {headers['transfer-encoding']!r}")
    length = headers.get("content-length")
    if length is not None and not (length.isascii() and length.isdigit()):
        raise _Malformed(f"bad Content-Length {length[:80]!r}")
    want = None if length is None else int(length)  # None: the body ends at the close
    if want is not None and want > _MAX_BODY_BYTES:
        raise _Malformed(f"Content-Length {want} is over the {_MAX_BODY_BYTES}-byte bound")
    body = buf[end.end():]
    chunks, have = [body], len(body)
    while want is None or have < want:
        chunk = _by(sock, deadline).recv(_RECV_BYTES)
        if not chunk:
            if want is None:
                break
            raise _Malformed(f"the body ended after {have} of its {want} bytes")
        chunks.append(chunk)
        have += len(chunk)
        if have > _MAX_BODY_BYTES and want is None:
            raise _Malformed(f"the body is longer than {_MAX_BODY_BYTES} bytes")
    return int(code), b"".join(chunks)[:want]


def _exchange(target: _Target, request: bytes, timeout: float) -> tuple[int, bytes]:
    """One connection: send ``request`` in one write and read the reply, all
    within ``timeout`` seconds."""
    import socket  # here, so that a process that only scores locally never loads it

    deadline = time.monotonic() + timeout
    sock = socket.create_connection((target.host, target.port), timeout=timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if target.tls:
            sock = _tls_context().wrap_socket(_by(sock, deadline), server_hostname=target.host)
        _by(sock, deadline).sendall(request)
        return _read_reply(sock, deadline)
    finally:
        sock.close()


def post_json(target: _Target, payload: dict, timeout: float) -> dict:
    """POST a JSON document to ``target`` and return the parsed JSON response.

    Shared by the scorer and summarizer clients, which parse their endpoint
    once, when they are built (``parse_target``), and pass the target to
    every call.  Raises the distinct wire errors this package reports, each
    naming ``target.url``.  Each attempt is one request on a new connection,
    in the wire form of the module docstring, and ``timeout`` bounds the
    whole attempt: its connect, its send and its reply up to the last byte.
    A network error or a timeout is retried after 0.05 s and then 0.1 s,
    three attempts in all; a malformed reply (a chunked one, or a body over
    ``_MAX_BODY_BYTES``, say) or a bad status is not.
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
    """A named scoring function whose scores are checked to lie in [0, 1].

    ``score_all`` keeps up to ``in_flight`` calls of ``fn`` open at once, so
    ``fn`` must be thread-safe when it is above 1."""

    name: str
    fn: Callable[[str, str], float]
    in_flight: int = 1

    def __post_init__(self) -> None:
        if type(self.in_flight) is not int or self.in_flight < 1:  # bool is no count
            raise ValueError(f"in_flight must be an integer >= 1, got {self.in_flight!r}")

    def __call__(self, hyp: str, ref: str) -> float:
        score = self.fn(hyp, ref)
        if not 0.0 <= score <= 1.0:
            raise ScoreRangeError(f"scorer {self.name!r} produced {score}, outside [0, 1]")
        return score

    def score_all(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        """The score of each (hypothesis, reference) pair, in pair order.

        With ``in_flight`` 1 the pairs are scored one after another; above 1,
        up to ``in_flight`` at once.  A failure raises ScorerError whose
        ``index`` is the first failing pair in pair order, chained from what
        that pair raised; no call is still running when it is raised.
        """
        if self.in_flight == 1 or len(pairs) < 2:
            results = (functools.partial(self, hyp, ref) for hyp, ref in pairs)
        else:
            results = self._submitted(pairs)
        scores: list[float] = []
        with contextlib.closing(results):  # on a failure, _submitted stops its calls first
            for index, result in enumerate(results):
                try:
                    scores.append(result())
                except Exception as exc:
                    raise ScorerError(f"scorer {self.name!r} failed on pair {index}: {exc}",
                                      index) from exc
        return scores

    def _submitted(self, pairs: Sequence[tuple[str, str]]):
        """Each pair's ``Future.result`` in pair order, with at most twice
        ``in_flight`` calls submitted and not yet handed out (a future costs
        about 2 kB, and a dev check scores hundreds of pairs).  Closed early,
        it cancels the calls that have not started and waits for the rest."""
        pool, window = _pool(self.in_flight), deque()
        try:
            for hyp, ref in pairs:
                window.append(pool.submit(self, hyp, ref))
                if len(window) == 2 * self.in_flight:
                    yield window.popleft().result
            while window:
                yield window.popleft().result
        finally:
            from concurrent.futures import wait

            wait([future for future in window if not future.cancel()])


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
    to {endpoint}/score, and ``score_all`` keeps ``REMOTE_IN_FLIGHT`` calls
    open at once.  ``ValueError`` names an endpoint that is not an http(s)
    URL with a host.  Values that stray outside [0, 1] by at most 1e-9 are
    clamped (serialization noise); anything worse is an error."""
    target = parse_target(endpoint, "score")

    def score(hyp: str, ref: str) -> float:
        doc = post_json(target, {"hypothesis": hyp, "reference": ref}, timeout)
        if "consistency" not in doc:
            raise RemoteProtocolError(f"{target.url} response is missing the 'consistency' field")
        return _validate_score(doc["consistency"], target.url)

    return ConsistencyScorer(name=f"remote({endpoint})", fn=score, in_flight=REMOTE_IN_FLIGHT)
