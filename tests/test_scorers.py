"""Proxy scorer arithmetic, invariants and the remote wire client."""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import (
    RawReplyServer, exact_match_score, exact_match_scorer, reference_weighted_token_f1,
)
from fcmax import scorers
from fcmax.scorers import (
    REMOTE_IN_FLIGHT, UNIFORM_WEIGHTS, ConsistencyScorer, RemoteNetworkError,
    RemoteProtocolError, RemoteTimeoutError, ScoreRangeError, ScorerError, TokenWeights,
    remote_scorer, weighted_f1_scorer, weighted_token_f1,
)
from fcmax.summeval import make_summarizer

texts = st.text(
    alphabet=st.characters(codec="ascii", categories=("L", "N", "P", "Z")),
    max_size=40,
)


def test_exact_match_examples():
    assert exact_match_score("I don't know.", "I don't know.") == 1.0
    assert exact_match_score("I know.", "I don't know.") == 0.0
    assert exact_match_score("", "") == 1.0


def test_weighted_f1_identity_and_disjoint():
    assert weighted_token_f1("same words here", "same words here") == 1.0
    assert weighted_token_f1("alpha beta", "gamma delta") == 0.0


def test_weighted_f1_hand_computed():
    # precision 2/2, recall 2/3: harmonic mean 0.8
    assert weighted_token_f1("I know.", "I don't know.") == pytest.approx(0.8)


def test_weighted_f1_clips_repeats():
    # hyp "a a" vs ref "a": matched weight clipped at one occurrence
    score = weighted_token_f1("a a", "a")
    precision, recall = 0.5, 1.0
    assert score == pytest.approx(2 * precision * recall / (precision + recall))


def test_weighted_f1_empty_cases():
    assert weighted_token_f1("", "") == 1.0
    assert weighted_token_f1("word", "") == 0.0
    assert weighted_token_f1("", "word") == 0.0
    # punctuation-only strings normalize to nothing
    assert weighted_token_f1("...", "...") == 1.0


def test_weighted_f1_weights_shift_the_score():
    weights = TokenWeights(weights={"don't": 8.0}, default=1.0)
    heavy = weighted_token_f1("I know.", "I don't know.", weights)
    uniform = weighted_token_f1("I know.", "I don't know.")
    assert heavy < uniform  # missing a heavy token hurts recall more


# Non-dyadic weights, so that adding the terms in another order changes bits.
ODD_WEIGHTS = TokenWeights(weights={"a": 0.1, "b": 1 / 3, "don't": 0.7}, default=0.1)
f1_texts = st.lists(
    st.sampled_from(["a", "b", "c", "don't", "A.", "b,", "'c'", "x_y", "?"]), max_size=8,
).map(" ".join)


@given(f1_texts, f1_texts, st.sampled_from([UNIFORM_WEIGHTS, ODD_WEIGHTS]))
def test_weighted_f1_matches_the_three_sum_reference(hyp, ref, weights):
    want = reference_weighted_token_f1(hyp, ref, weights)
    assert weighted_token_f1(hyp, ref, weights).hex() == float(want).hex()
    assert weighted_f1_scorer(weights)(hyp, ref).hex() == float(want).hex()


@given(st.lists(st.tuples(f1_texts, st.sampled_from(["a b c", "b b don't", "", "c a."])),
                max_size=12))
def test_weighted_f1_scorer_reuse_matches_fresh_calls(pairs):
    # alternating and repeated references: a kept reference side must never
    # be applied to another reference
    scorer = weighted_f1_scorer(ODD_WEIGHTS)
    got = [scorer(hyp, ref) for hyp, ref in pairs]
    assert got == [weighted_f1_scorer(ODD_WEIGHTS)(hyp, ref) for hyp, ref in pairs]


def test_weighted_f1_scorer_shared_by_threads_matches_fresh_calls():
    refs = ["a b c", "b b don't", "c a.", "don't a"]
    hyps = ["a b", "b don't b", "c", "a don't x_y"]
    want = {(h, r): weighted_token_f1(h, r, ODD_WEIGHTS) for h in hyps for r in refs}
    scorer = weighted_f1_scorer(ODD_WEIGHTS)
    wrong = []

    def work(offset):
        for i in range(1500):
            pair = (hyps[(i + offset) % 4], refs[(i // 3 + offset) % 4])
            if scorer(*pair) != want[pair]:
                wrong.append(pair)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def _fresh_python(script: str) -> list[str]:
    """The stdout lines of ``script`` run in a fresh interpreter on ``src/``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_the_scorer_service_imports_stay_light():
    """What the benchmark's scorer service imports loads no training,
    decoding or evaluation module."""
    loaded = set(_fresh_python("""
        import sys
        import fcmax.corpus, fcmax.scorers
        print(" ".join(m for m in sys.modules if m.startswith("fcmax.")))
    """)[0].split())
    heavy = {f"fcmax.{name}" for name in ("trainer", "beam", "fcm", "metrics", "summeval")}
    assert {"fcmax.corpus", "fcmax.scorers"} <= loaded and heavy.isdisjoint(loaded)


def test_local_work_does_not_load_the_wire_client():
    # In a fresh interpreter: this process has http.server loaded by conftest.
    lines = _fresh_python("""
        import sys
        from fcmax.metrics import corpus_wer
        from fcmax.scorers import RemoteNetworkError, remote_scorer, weighted_f1_scorer
        from fcmax.summeval import Utterance, evaluate_summaries, make_summarizer

        wire = ("http.client", "urllib.request", "email.parser", "ssl", "socket")
        scorer = weighted_f1_scorer()
        assert scorer("I know.", "I don't know.") > 0.0
        assert corpus_wer([("I know.", "I don't know.")]).deletions == 1
        utts = [Utterance(0, 0.0, "I know. It is late."), Utterance(1, 3.0, "We plan.")]
        evaluate_summaries(utts, utts, make_summarizer("mock"), scorer)
        print(sorted(m for m in wire if m in sys.modules))
        remote_scorer("https://127.0.0.1:1")
        make_summarizer("https://127.0.0.1:1")
        print(sorted(m for m in wire if m in sys.modules))
        try:
            remote_scorer("http://127.0.0.1:1", timeout=0.5)("h", "r")
        except RemoteNetworkError:
            pass
        print(sorted(m for m in wire if m in sys.modules))
    """)
    # building an https:// client connects nothing, so it loads neither socket
    # nor ssl; an http:// call loads the socket and no HTTP library
    assert lines == ["[]", "[]", "['socket']"]


def test_token_weights_validation():
    with pytest.raises(ValueError):
        TokenWeights(weights={"x": 0.0})
    with pytest.raises(ValueError):
        TokenWeights(default=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="'x'"):
            TokenWeights(weights={"x": bad})
        with pytest.raises(ValueError, match="default"):
            TokenWeights(default=bad)


@given(texts, texts)
def test_scorers_stay_in_range(hyp, ref):
    for fn in (exact_match_score, weighted_token_f1):
        assert 0.0 <= fn(hyp, ref) <= 1.0


@given(texts)
def test_pure_scorers_identity(text):
    for scorer in (exact_match_scorer(), weighted_f1_scorer()):
        assert scorer(text, text) == 1.0


@given(texts, texts)
def test_symmetry_under_uniform_weights(a, b):
    assert weighted_token_f1(a, b) == pytest.approx(weighted_token_f1(b, a))


@given(st.sampled_from(["plan", "budget", "know", "word"]),
       st.sampled_from(["plan", "budget", "know", "word"]))
def test_uniform_f1_on_single_tokens_is_exact_match(a, b):
    assert weighted_token_f1(a, b) == exact_match_score(a, b)


def test_scorer_wrapper_validates_range():
    bad = ConsistencyScorer(name="bad", fn=lambda h, r: 1.5)
    with pytest.raises(ScoreRangeError):
        bad("x", "y")


def test_remote_score_passthrough(wire_server):
    wire_server.respond({"consistency": 0.5})
    assert remote_scorer(wire_server.url)("hyp text", "ref text") == 0.5
    path, body = wire_server.requests[-1]
    assert path == "/score"
    assert body == {"hypothesis": "hyp text", "reference": "ref text"}


def test_remote_score_clamps_serialization_noise(wire_server):
    wire_server.respond({"consistency": 1.0 + 5e-10})
    assert remote_scorer(wire_server.url)("h", "r") == 1.0
    wire_server.respond({"consistency": -5e-10})
    assert remote_scorer(wire_server.url)("h", "r") == 0.0


def test_remote_score_out_of_range(wire_server):
    wire_server.respond({"consistency": 1.2})
    with pytest.raises(ScoreRangeError):
        remote_scorer(wire_server.url)("h", "r")
    assert len(wire_server.requests) == 1, "an out-of-range score is not retried"


@pytest.mark.parametrize("value", [b"NaN", b"1" + b"0" * 400], ids=["nan", "huge-int"])
def test_remote_score_refuses_nan_and_huge_values(wire_server, value):
    # Python's json reads the NaN token, which must not become 0.0, and
    # integers of any size, which must not overflow float()
    wire_server.respond_raw(b'{"consistency": ' + value + b"}")
    with pytest.raises(ScoreRangeError, match="out-of-range"):
        remote_scorer(wire_server.url)("h", "r")


def test_remote_score_missing_field(wire_server):
    wire_server.respond({"score": 0.4})
    with pytest.raises(RemoteProtocolError, match="consistency"):
        remote_scorer(wire_server.url)("h", "r")


@pytest.mark.parametrize("reply, named", [
    (b"[0.5]", "non-object JSON document"),
    (b'{"consistency": "0.5"}', "non-numeric consistency value"),
], ids=["array", "string-score"])
def test_remote_score_refuses_a_reply_that_is_not_a_score_object(wire_server, reply, named):
    wire_server.respond_raw(reply)
    with pytest.raises(RemoteProtocolError, match=named):
        remote_scorer(wire_server.url)("h", "r")
    assert len(wire_server.requests) == 1, "a malformed reply is not retried"


def test_remote_score_invalid_json(wire_server):
    wire_server.respond_raw(b"this is not json")
    with pytest.raises(RemoteProtocolError, match="invalid JSON"):
        remote_scorer(wire_server.url)("h", "r")


def test_remote_score_http_error(wire_server):
    wire_server.respond({"consistency": 0.4}, status=500)
    with pytest.raises(RemoteProtocolError, match="500"):
        remote_scorer(wire_server.url)("h", "r")
    assert len(wire_server.requests) == 1, "a bad status is not retried"


def test_remote_score_timeout(wire_server):
    wire_server.respond({"consistency": 0.4}, delay=0.5)
    with pytest.raises(RemoteTimeoutError, match="timed out"):
        remote_scorer(wire_server.url, timeout=0.1)("h", "r")


def test_remote_score_unreachable_names_endpoint():
    with pytest.raises(RemoteNetworkError, match="127.0.0.1:1"):
        remote_scorer("http://127.0.0.1:1", timeout=0.5)("h", "r")


OK_BODY = b'{"consistency": 0.5}'


def _reply(*headers: bytes, body: bytes = OK_BODY, status: bytes = b"HTTP/1.0 200 OK") -> bytes:
    return b"\r\n".join([status, *headers, b"", body])


@pytest.mark.parametrize("reply, named", [
    (b"HTTP/1.0 OK\r\n\r\n{}", "bad status line"),
    (b"", "empty reply"),
    (_reply(b"Content-Length: 50"), "ended after 20 of its 50 bytes"),
    (_reply(b"Transfer-Encoding: chunked", body=b"14\r\n" + OK_BODY + b"\r\n0\r\n\r\n"),
     "Transfer-Encoding 'chunked'"),
    # a huge length is refused before any of the body is read
    (_reply(b"Content-Length: 10000000000000"),
     "Content-Length 10000000000000 is over the 1048576-byte bound"),
    # latin-1 digits that are not ASCII ones
    (_reply(status="HTTP/1.0 \xb2\xb2\xb2 OK".encode("latin-1")), "bad status line"),
    (_reply("Content-Length: \xb2".encode("latin-1")), "bad Content-Length"),
    (_reply(b"Content-Length 20"), "bad header line 'Content-Length 20'"),
    # no blank line ends this header before the bound
    (b"HTTP/1.0 200 OK\r\nX-Pad: " + b"a" * 70000, "header longer than 65536 bytes"),
], ids=["bad-status-line", "empty", "short-body", "chunked", "huge-length", "superscript-status",
        "superscript-length", "header-line-without-colon", "overlong-header"])
def test_remote_score_refuses_a_malformed_reply(raw_server, reply, named):
    server = raw_server([reply])
    with pytest.raises(RemoteProtocolError, match=named):
        remote_scorer(server.url, timeout=5.0)("h", "r")
    assert len(server.requests) == 1, "a malformed reply is not retried"


def test_remote_score_times_out_on_a_trickled_reply(raw_server):
    """The timeout bounds each attempt's whole reply, not each receive: a
    60-byte body sent one byte every 0.1 s outlasts three 0.5 s attempts."""
    body = b'{"consistency": 0.5' + b" " * 40 + b"}"
    head = _reply(b"Content-Length: %d" % len(body), body=b"")
    server = raw_server([head, *(body[k:k + 1] for k in range(len(body)))], pause=0.1)
    start = time.perf_counter()
    with pytest.raises(RemoteTimeoutError, match="timed out on all 3 attempts"):
        remote_scorer(server.url, timeout=0.5)("h", "r")
    assert time.perf_counter() - start < 2.5
    assert len(server.requests) == 3


def test_remote_score_refuses_an_overlong_body_without_a_length(raw_server):
    """A body read to the close is cut off past 1 MiB, not read whole."""
    server = raw_server([_reply(body=b""), *[b" " * 65536] * 256])  # 16 MiB
    with pytest.raises(RemoteProtocolError, match="body is longer than 1048576 bytes"):
        remote_scorer(server.url, timeout=5.0)("h", "r")
    assert len(server.requests) == 1, "a malformed reply is not retried"


def test_remote_score_returns_at_the_content_length(raw_server):
    """The body ends at its Content-Length, not where the server closes."""
    server = raw_server([_reply(b"Content-Length: %d" % len(OK_BODY))], hold=True)
    start = time.perf_counter()
    assert remote_scorer(server.url, timeout=5.0)("h", "r") == 0.5
    assert time.perf_counter() - start < 2.0


def test_remote_score_parses_a_reply_sent_byte_by_byte(raw_server):
    reply = _reply(b"Content-Type: application/json")
    server = raw_server([reply[k:k + 1] for k in range(len(reply))])
    assert remote_scorer(server.url, timeout=5.0)("h", "r") == 0.5
    head, _, body = server.requests[0].partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0] == b"POST /score HTTP/1.0"
    assert b"Content-Length: %d" % len(body) in head.split(b"\r\n")


def test_remote_score_posts_under_the_endpoint_path(wire_server):
    wire_server.respond({"consistency": 0.5})
    assert remote_scorer(wire_server.url + "/api/")("h", "r") == 0.5
    assert wire_server.requests[-1][0] == "/api/score"
    assert remote_scorer(wire_server.url + "/api?k=v")("h", "r") == 0.5
    assert wire_server.requests[-1][0] == "/api/score?k=v"


def test_remote_score_https_to_a_plain_http_server_names_it(wire_server):
    url = wire_server.url.replace("http://", "https://")
    with pytest.raises(RemoteNetworkError, match=re.escape(url)):
        remote_scorer(url, timeout=2.0)("h", "r")


def test_remote_score_retries_a_reset_connection(raw_server):
    server = raw_server(RawReplyServer.RESET, [_reply()])
    assert remote_scorer(server.url, timeout=5.0)("h", "r") == 0.5
    assert len(server.requests) == 2


def test_remote_score_gives_up_after_three_attempts(raw_server):
    server = raw_server(RawReplyServer.RESET)
    start = time.perf_counter()
    with pytest.raises(RemoteNetworkError,
                       match=re.escape(f"{server.url}/score after 3 attempts")):
        remote_scorer(server.url, timeout=5.0)("h", "r")
    assert len(server.requests) == 3
    assert time.perf_counter() - start >= 0.15, "backs off 0.05 s, then 0.1 s"


@pytest.mark.parametrize("endpoint", [
    "localhost:8000", "ftp://127.0.0.1/x", "http://127.0.0.1:notaport", "http://:80",
    "http://127.0.0.1:80/a b", "http://a..b:80", "http://127.0.0.1/api#x",
])
def test_an_unusable_endpoint_is_refused_before_any_request(endpoint):
    with pytest.raises(ValueError, match=re.escape(repr(endpoint))):
        remote_scorer(endpoint)
    with pytest.raises(ValueError, match=re.escape(repr(endpoint))):
        make_summarizer(endpoint)


def test_remote_scorer_passes_the_service_score_through(wire_server):
    wire_server.respond({"consistency": 0.25})
    scorer = remote_scorer(wire_server.url)
    assert scorer("a", "b") == 0.25
    assert scorer.name == f"remote({wire_server.url})"


def test_remote_clients_call_post_json_through_the_module(monkeypatch):
    """Both clients parse their endpoint when built and look ``post_json`` up
    per call, so a wrapper installed afterwards (the benchmark's tracer)
    sees every request."""
    scorer = remote_scorer("http://127.0.0.1:1/api/?k=v")
    summarizer = make_summarizer("https://127.0.0.1:1", 3.0)
    calls = []

    def fake_post_json(target, payload, timeout):
        calls.append((target.url, target.tls, target.path, payload, timeout))
        return {"consistency": 0.75, "summary": "S."}

    monkeypatch.setattr(scorers, "post_json", fake_post_json)
    assert scorer("h", "r") == 0.75
    assert summarizer("p") == "S."
    assert calls == [
        ("http://127.0.0.1:1/api/score?k=v", False, "/api/score?k=v",
         {"hypothesis": "h", "reference": "r"}, 10.0),
        ("https://127.0.0.1:1/summarize", True, "/summarize",
         {"prompt": "p", "temperature": 0.0, "top_p": 1.0, "max_tokens": 200}, 3.0),
    ]


class OverlapProbe:
    """A thread-safe scorer fn that sleeps a random 0 to ``most_s`` seconds
    per call and records how many calls were open at once.  ``fail`` maps a
    hypothesis to the seconds after which its call raises instead of scoring."""

    def __init__(self, seed: int = 0, fail: dict[str, float] | None = None,
                 most_s: float = 0.004):
        self.lock = threading.Lock()
        self.rng = random.Random(seed)
        self.fail, self.most_s = fail or {}, most_s
        self.open = self.most_open = self.started = self.ended = 0
        self.failed: list[str] = []  # hypotheses whose call raised, in time order

    def __call__(self, hyp: str, ref: str) -> float:
        with self.lock:
            self.open += 1
            self.started += 1
            self.most_open = max(self.most_open, self.open)
            pause = self.fail.get(hyp, self.rng.uniform(0.0, self.most_s))
        try:
            time.sleep(pause)
            if hyp in self.fail:
                with self.lock:
                    self.failed.append(hyp)
                raise RuntimeError(f"no score for {hyp}")
            return weighted_token_f1(hyp, ref)
        finally:
            with self.lock:
                self.open -= 1
                self.ended += 1


def _pairs(n: int, seed: int = 0) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    words = ["we", "plan", "plant", "not", "the", "late", "know"]
    return [(f"h{k} " + " ".join(rng.choices(words, k=4)), " ".join(rng.choices(words, k=5)))
            for k in range(n)]


@pytest.mark.parametrize("in_flight", [2, 3])
def test_score_all_keeps_pair_order_and_at_most_in_flight_calls_open(in_flight):
    pairs = _pairs(40)
    serial = ConsistencyScorer("f1", weighted_token_f1).score_all(pairs)
    probe = OverlapProbe(seed=in_flight)
    scores = ConsistencyScorer("probe", probe, in_flight=in_flight).score_all(pairs)
    assert [x.hex() for x in scores] == [x.hex() for x in serial]
    assert serial == [weighted_token_f1(h, r) for h, r in pairs]
    assert probe.started == len(pairs)
    assert 2 <= probe.most_open <= in_flight


class ReadCountingPairs(list):
    """A list of pairs that counts how many pairs its iterators handed out."""

    read = 0

    def __iter__(self):
        for pair in super().__iter__():
            self.read += 1
            yield pair


def test_score_all_submits_a_bounded_number_of_calls_ahead():
    """A submitted call holds a future of about 2 kB, so score_all reads at
    most 2 * in_flight pairs beyond those whose results it handed back."""
    pairs = ReadCountingPairs(_pairs(60))
    ahead = []

    def fn(hyp, ref):
        ahead.append(pairs.read - int(hyp.split()[0][1:]))  # pairs read past this one
        return 0.5

    assert ConsistencyScorer("s", fn, in_flight=3).score_all(pairs) == [0.5] * 60
    assert len(ahead) == 60 and max(ahead) <= 2 * 3 + 1


def test_score_all_names_the_first_failing_pair_in_pair_order():
    pairs = _pairs(8)
    late, early = pairs[2][0], pairs[4][0]  # pair 4 fails at once, pair 2 after 0.2 s
    probe = OverlapProbe(fail={late: 0.2, early: 0.0})
    with pytest.raises(ScorerError, match="'probe' failed on pair 2: no score for h2") as info:
        ConsistencyScorer("probe", probe, in_flight=3).score_all(pairs)
    assert info.value.index == 2
    assert isinstance(info.value.__cause__, RuntimeError)
    assert probe.failed == [early, late]


def test_score_all_leaves_no_call_running_when_it_raises():
    pairs = _pairs(30)
    probe = OverlapProbe(fail={pairs[0][0]: 0.0}, most_s=0.05)
    with pytest.raises(ScorerError, match="pair 0"):
        ConsistencyScorer("probe", probe, in_flight=3).score_all(pairs)
    with probe.lock:
        assert probe.open == 0 and probe.ended == probe.started
    assert probe.started < len(pairs), "calls that had not started are cancelled"


def test_score_all_serial_path_names_the_failing_pair():
    with pytest.raises(ScorerError, match="pair 1: scorer 'bad' produced 1.5") as info:
        ConsistencyScorer("bad", lambda h, r: 1.5 if h == "b" else 0.5).score_all(
            [("a", "r"), ("b", "r"), ("c", "r")])
    assert info.value.index == 1
    assert isinstance(info.value.__cause__, ScoreRangeError)


def _score_in_child(pairs, expected):
    assert ConsistencyScorer("probe", OverlapProbe(), in_flight=3).score_all(pairs) == expected


def test_a_forked_child_scores_with_its_own_pool():
    pairs = _pairs(12)
    expected = [weighted_token_f1(h, r) for h, r in pairs]
    # the parent's pool is running before the fork
    assert ConsistencyScorer("probe", OverlapProbe(), in_flight=3).score_all(pairs) == expected
    child = multiprocessing.get_context("fork").Process(target=_score_in_child,
                                                        args=(pairs, expected))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0
    child.close()


@pytest.mark.parametrize("bad", [0, -1, 1.5, "3", True, None])
def test_in_flight_must_be_a_positive_integer(bad):
    with pytest.raises(ValueError, match="in_flight must be an integer >= 1"):
        ConsistencyScorer("s", exact_match_score, in_flight=bad)


def test_remote_score_all_keeps_calls_in_flight_in_pair_order(wire_server):
    wire_server.httpd.script = lambda path, body: (
        200, {"consistency": float(json.loads(body)["hypothesis"])}, None)
    scorer = remote_scorer(wire_server.url)
    assert scorer.in_flight == REMOTE_IN_FLIGHT == 3
    values = [k / 16 for k in range(16)]
    random.Random(0).shuffle(values)
    assert scorer.score_all([(repr(v), "r") for v in values]) == values
    assert len(wire_server.requests) == len(values)
