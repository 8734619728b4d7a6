"""Proxy scorer arithmetic, invariants and the remote wire client."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from fcmax.scorers import (
    ConsistencyScorer, RemoteNetworkError, RemoteProtocolError, RemoteTimeoutError,
    ScoreRangeError, TokenWeights, exact_match_score, exact_match_scorer,
    lcs_ratio, lcs_scorer, remote_score, weighted_f1_scorer, weighted_token_f1,
)

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


def test_token_weights_validation():
    with pytest.raises(ValueError):
        TokenWeights(weights={"x": 0.0})
    with pytest.raises(ValueError):
        TokenWeights(default=-1.0)


def test_lcs_examples():
    assert lcs_ratio("a b c", "a b c") == 1.0
    assert lcs_ratio("a b c", "c b a") == pytest.approx(2 * 1 / 6)
    assert lcs_ratio("", "a b") == 0.0
    assert lcs_ratio("", "") == 1.0


def test_lcs_order_sensitivity():
    assert lcs_ratio("a b c d", "a c b d") == pytest.approx(2 * 3 / 8)


@given(texts, texts)
def test_scorers_stay_in_range(hyp, ref):
    for fn in (exact_match_score, weighted_token_f1, lcs_ratio):
        assert 0.0 <= fn(hyp, ref) <= 1.0


@given(texts)
def test_pure_scorers_identity(text):
    for scorer in (exact_match_scorer(), weighted_f1_scorer(), lcs_scorer()):
        assert scorer(text, text) == 1.0


@given(texts, texts)
def test_symmetry_under_uniform_weights(a, b):
    assert weighted_token_f1(a, b) == pytest.approx(weighted_token_f1(b, a))
    assert lcs_ratio(a, b) == pytest.approx(lcs_ratio(b, a))


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
    assert remote_score(wire_server.url, "hyp text", "ref text") == 0.5
    path, body = wire_server.requests[-1]
    assert path == "/score"
    assert body == {"hypothesis": "hyp text", "reference": "ref text"}


def test_remote_score_clamps_serialization_noise(wire_server):
    wire_server.respond({"consistency": 1.0 + 5e-10})
    assert remote_score(wire_server.url, "h", "r") == 1.0
    wire_server.respond({"consistency": -5e-10})
    assert remote_score(wire_server.url, "h", "r") == 0.0


def test_remote_score_out_of_range(wire_server):
    wire_server.respond({"consistency": 1.2})
    with pytest.raises(ScoreRangeError):
        remote_score(wire_server.url, "h", "r")


def test_remote_score_missing_field(wire_server):
    wire_server.respond({"score": 0.4})
    with pytest.raises(RemoteProtocolError, match="consistency"):
        remote_score(wire_server.url, "h", "r")


def test_remote_score_invalid_json(wire_server):
    wire_server.respond_raw(b"this is not json")
    with pytest.raises(RemoteProtocolError, match="invalid JSON"):
        remote_score(wire_server.url, "h", "r")


def test_remote_score_http_error(wire_server):
    wire_server.respond({"consistency": 0.4}, status=500)
    with pytest.raises(RemoteProtocolError, match="500"):
        remote_score(wire_server.url, "h", "r")


def test_remote_score_timeout(wire_server):
    wire_server.respond({"consistency": 0.4}, delay=0.5)
    with pytest.raises(RemoteTimeoutError, match="timed out"):
        remote_score(wire_server.url, "h", "r", timeout=0.1)


def test_remote_score_unreachable_names_endpoint():
    with pytest.raises(RemoteNetworkError, match="127.0.0.1:1"):
        remote_score("http://127.0.0.1:1", "h", "r", timeout=0.5)


def test_remote_scorer_passes_the_service_score_through(wire_server):
    wire_server.respond({"consistency": 0.25})
    scorer = ConsistencyScorer(name="r", fn=lambda h, r: remote_score(wire_server.url, h, r))
    assert scorer("a", "b") == 0.25
