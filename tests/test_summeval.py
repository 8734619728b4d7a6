"""Chunking, speaker-attributed formatting and the summarization pipeline."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from conftest import reference_evaluate_summaries
from fcmax.corpus import SynthConfig, default_token_weights, generate_synthetic_corpus
from fcmax.scorers import RemoteNetworkError, RemoteProtocolError, weighted_f1_scorer
from fcmax.summeval import (
    SessionChunk, SummarizerParams, SummEvalError, Utterance, _chunk, _windows, build_prompt,
    corpus_to_utterances, evaluate_summaries, format_speaker_attributed, load_utterances,
    make_summarizer, mock_summarize, parse_speaker_attributed, save_utterances, summarize,
)

THREE_UTTS = [
    Utterance(speaker=1, start_s=1.0, text="Hello."),
    Utterance(speaker=2, start_s=3.0, text="Hi, how are you?"),
    Utterance(speaker=1, start_s=5.0, text="I'm fine."),
]
THREE_LINES = "Speaker 1: Hello.\nSpeaker 2: Hi, how are you?\nSpeaker 1: I'm fine.\n"


def test_single_chunk_when_all_start_early():
    windows = _windows(THREE_UTTS, 60.0)
    assert list(windows) == [("", 0)]
    chunk = _chunk(windows, ("", 0), 60.0)
    assert (chunk.start, chunk.end) == (0.0, 60.0)
    assert len(chunk.utterances) == 3


def test_three_windows():
    utts = [Utterance(speaker=0, start_s=t, text=f"u{t}") for t in (10.0, 70.0, 130.0)]
    windows = _windows(utts, 60.0)
    assert windows == {("", 0): utts[:1], ("", 1): utts[1:2], ("", 2): utts[2:]}
    chunks = [_chunk(windows, key, 60.0) for key in windows]
    assert [(c.start, c.end) for c in chunks] == [(0, 60), (60, 120), (120, 180)]


def test_empty_utterance_list():
    assert _windows([], 60.0) == {}


def test_empty_windows_omitted_and_partial_kept():
    utts = [Utterance(speaker=0, start_s=t, text="x") for t in (5.0, 125.0)]
    windows = _windows(utts, 60.0)
    assert list(windows) == [("", 0), ("", 2)]
    chunk = _chunk(windows, ("", 2), 60.0)
    assert (chunk.start, chunk.end) == (120, 180)


@pytest.mark.parametrize("chunk_seconds", [0.0, -60.0, float("nan"), float("inf")])
def test_non_positive_window_is_refused(chunk_seconds):
    refs = [Utterance(speaker=0, start_s=1.0, text="Words.")]
    with pytest.raises(SummEvalError, match="chunk_seconds must be > 0"):
        _windows(refs, chunk_seconds)
    with pytest.raises(SummEvalError, match="chunk_seconds must be > 0"):
        evaluate_summaries(refs, refs, make_summarizer("mock"), weighted_f1_scorer(),
                           chunk_seconds)


@pytest.mark.parametrize("start_s, chunk_seconds", [(1623.5, 0.1), (922.8, 0.3),
                                                     (9244 * 0.7, 0.7)])
def test_start_on_a_rounded_window_bound_joins_the_window_that_holds_it(start_s, chunk_seconds):
    """start // w floors to the window before the one whose float bounds
    [k * w, (k + 1) * w) hold the start; the window grouping uses the bounds."""
    utts = [Utterance(speaker=0, start_s=start_s, text="We know the plan.")]
    windows = _windows(utts, chunk_seconds)
    (key,) = windows
    chunk = _chunk(windows, key, chunk_seconds)
    assert chunk.start <= start_s < chunk.end
    assert chunk.utterances == utts
    at_zero = [Utterance(speaker=0, start_s=0.0, text="We know the plan.")]
    summarizer, scorer = make_summarizer("mock"), weighted_f1_scorer()
    assert (evaluate_summaries(utts, utts, summarizer, scorer, chunk_seconds)
            == evaluate_summaries(at_zero, at_zero, summarizer, scorer, chunk_seconds))


@pytest.mark.parametrize("start_s", [-1.0, float("nan"), float("inf")])
def test_utterance_refuses_a_start_time_that_is_not_finite_and_non_negative(start_s):
    with pytest.raises(SummEvalError, match="start time must be finite and >= 0"):
        Utterance(speaker=0, start_s=start_s, text="x")


def test_formatting_matches_template():
    chunk = _chunk(_windows(THREE_UTTS, 60.0), ("", 0), 60.0)
    assert format_speaker_attributed(chunk) == THREE_LINES


def test_formatting_empty_and_single():
    assert format_speaker_attributed(SessionChunk("", 0, 60, [])) == ""
    one = SessionChunk("", 0, 60, [Utterance(speaker=3, start_s=2, text="Yes?")])
    assert format_speaker_attributed(one) == "Speaker 3: Yes?\n"


def test_format_sorts_by_start_time():
    chunk = SessionChunk("", 0, 60, list(reversed(THREE_UTTS)))
    assert format_speaker_attributed(chunk) == THREE_LINES


def test_build_prompt_exact_bytes():
    assert build_prompt("") == "\nSummarize the conversation above.\n"
    assert build_prompt("Speaker 1: Hello.\n") == (
        "Speaker 1: Hello.\n\nSummarize the conversation above.\n"
    )


def test_build_prompt_not_idempotent():
    once = build_prompt("x")
    assert build_prompt(once) == once + "\nSummarize the conversation above.\n"


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=9),
              st.floats(min_value=0, max_value=299),
              st.text(alphabet=st.characters(codec="ascii", exclude_characters="\n\r"),
                      max_size=20)),
    max_size=15,
))
def test_chunk_partitioning_property(raw):
    utts = [Utterance(speaker=s, start_s=t, text=txt) for s, t, txt in raw]
    windows = _windows(utts, 60.0)
    chunks = [_chunk(windows, key, 60.0) for key in sorted(windows)]
    assert sum(len(c.utterances) for c in chunks) == len(utts)
    spans = [(c.start, c.end) for c in chunks]
    assert all(b1 <= a2 for (_, b1), (a2, _) in zip(spans, spans[1:]))
    for c in chunks:
        for u in c.utterances:
            assert c.start <= u.start_s < c.end


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=9),
              st.text(alphabet=st.characters(codec="ascii", exclude_characters="\n\r"),
                      max_size=20)),
    max_size=8,
))
def test_format_parse_round_trip(raw):
    utts = [Utterance(speaker=s, start_s=float(i), text=t) for i, (s, t) in enumerate(raw)]
    chunk = SessionChunk("", 0, max(60.0, len(raw) + 1), utts)
    parsed = parse_speaker_attributed(format_speaker_attributed(chunk))
    assert parsed == [(u.speaker, u.text) for u in chunk.utterances]


def test_mock_summarizer_takes_first_sentences():
    prompt = build_prompt(THREE_LINES)
    assert mock_summarize(prompt) == "Hello. Hi, how are you?"


def test_mock_summarizer_truncates_to_first_sentence():
    prompt = build_prompt("Speaker 2: One. Two.\nSpeaker 1: Fine then!\n")
    assert mock_summarize(prompt) == "Fine then! One."


def test_summarize_mock_endpoint():
    assert summarize("mock", build_prompt(THREE_LINES)) == "Hello. Hi, how are you?"


def test_make_summarizer_refuses_an_unusable_endpoint():
    with pytest.raises(ValueError, match="'localhost:8000'"):
        make_summarizer("localhost:8000")


def test_summarize_remote_passthrough(wire_server):
    wire_server.respond({"summary": "SUMMARY"})
    params = SummarizerParams()
    out = summarize(wire_server.url, "some prompt", params)
    assert out == "SUMMARY"
    path, body = wire_server.requests[-1]
    assert path == "/summarize"
    assert body == {"prompt": "some prompt", "temperature": 0.0, "top_p": 1.0,
                    "max_tokens": 200}


def test_summarize_remote_missing_field(wire_server):
    wire_server.respond({"text": "x"})
    with pytest.raises(RemoteProtocolError, match="summary"):
        summarize(wire_server.url, "p")


def test_summarize_unreachable_names_endpoint():
    with pytest.raises(RemoteNetworkError, match="127.0.0.1:1"):
        summarize("http://127.0.0.1:1", "p", timeout=0.5)


def test_summarizer_params_validation():
    with pytest.raises(SummEvalError):
        SummarizerParams(temperature=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(SummEvalError, match="temperature must be finite"):
            SummarizerParams(temperature=bad)
        with pytest.raises(SummEvalError, match="max_tokens must be an integer"):
            SummarizerParams(max_tokens=bad)
    with pytest.raises(SummEvalError):
        SummarizerParams(top_p=0.0)
    with pytest.raises(SummEvalError):
        SummarizerParams(max_tokens=0)


def _session_utts(session: str, texts: dict[float, str], speaker: int = 0):
    return [Utterance(speaker=speaker, start_s=t, text=x, session=session)
            for t, x in sorted(texts.items())]


def test_evaluate_summaries_reference_input_reproduces_exactly():
    """The second case is a window whose start, 9244 * 0.7, floors back to
    window 9243: each utterance's window is its own start time's, never one
    recomputed from a chunk's start."""
    summarizer = make_summarizer("mock")
    scorer = weighted_f1_scorer()
    for texts, chunk_seconds, n_chunks in [
        ({1.0: "We know the plan.", 70.0: "They trust the budget."}, 60.0, 2),
        ({6471.0: "We know the plan.", 6471.4: "They trust the budget."}, 0.7, 1),
    ]:
        refs = _session_utts("s", texts)
        scores, mean = evaluate_summaries(refs, refs, summarizer, scorer, chunk_seconds)
        again, mean_again = evaluate_summaries(refs, refs, summarizer, scorer, chunk_seconds)
        assert scores == again and mean == mean_again
        assert len(scores) == n_chunks


def test_evaluate_summaries_corruption_scores_lower():
    refs = _session_utts("s", {1.0: "We know the plan.", 70.0: "They trust the budget."})
    hyps = _session_utts("s", {1.0: "We know the plant.", 70.0: "They thrust the bucket."})
    summarizer = make_summarizer("mock")
    scorer = weighted_f1_scorer()
    clean_scores, clean = evaluate_summaries(refs, refs, summarizer, scorer)
    bad_scores, corrupted = evaluate_summaries(refs, hyps, summarizer, scorer)
    assert corrupted < clean
    assert all(c >= b for c, b in zip(clean_scores, bad_scores))


def test_evaluate_summaries_no_chunks_is_error():
    with pytest.raises(SummEvalError, match="no chunks"):
        evaluate_summaries([], [], make_summarizer("mock"), weighted_f1_scorer())


def _same_error(refs, hyps, match: str) -> None:
    """evaluate_summaries and the per-session reference raise the same message."""
    with pytest.raises(SummEvalError, match=match) as ours:
        evaluate_summaries(refs, hyps, make_summarizer("mock"), weighted_f1_scorer())
    with pytest.raises(SummEvalError) as reference:
        reference_evaluate_summaries(refs, hyps, make_summarizer("mock"), weighted_f1_scorer())
    assert str(ours.value) == str(reference.value)


def test_evaluate_summaries_rejects_unmatched_windows():
    """The message names the first such session by name and, in it, the first
    such utterance in input order."""
    _same_error(_session_utts("s", {1.0: "Early words."}),
                _session_utts("s", {100.0: "Late words."}), "window 1, which has no reference")
    refs = _session_utts("b", {1.0: "B."}) + _session_utts("a", {1.0: "A."})
    hyps = [Utterance(speaker=0, start_s=t, text="x", session=s)
            for s, t in [("b", 300.0), ("a", 1.0), ("a", 200.0), ("a", 100.0)]]
    _same_error(refs, hyps, "session 'a': hypothesis utterance at 200.0s falls in window 3")


def test_evaluate_summaries_rejects_unknown_session():
    _same_error(_session_utts("s", {1.0: "Words."}), _session_utts("other", {1.0: "Words."}),
                "other")


def _corrupted(text: str, rng: random.Random) -> str:
    words = text.split()
    rng.shuffle(words)
    return " ".join(words[: max(1, len(words) - rng.randrange(3))])


# start // w floors these to the window before the one whose bounds hold them
_BOUND_STARTS = {0.7: 9244 * 0.7, 0.1: 1623.5}


@pytest.mark.parametrize("chunk_seconds", [60.0, 37.5, 0.7, 0.1])
def test_evaluate_summaries_matches_the_per_session_reference(chunk_seconds):
    """Five sessions of a seeded corpus, hypotheses in shuffled order with
    corrupted texts, one utterance dropped and one window with no hypothesis
    utterance: the prompts and every chunk score equal those of the
    per-session reference, bit for bit.  At the widths that are not dyadic,
    one more utterance starts on a window bound."""
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=220, seed=5))
    refs = corpus_to_utterances(corpus)
    if chunk_seconds in _BOUND_STARTS:
        refs.append(Utterance(0, _BOUND_STARTS[chunk_seconds], "We know the plan.",
                              "session-000"))
    # every session-001 hypothesis in the window of its eleventh utterance is dropped
    emptied = [u for u in refs if u.session == "session-001"][10].start_s // chunk_seconds
    rng = random.Random(5)
    hyps = [Utterance(u.speaker, u.start_s, _corrupted(u.text, rng) if i % 3 else u.text,
                      u.session)
            for i, u in enumerate(refs)
            if i != 7 and not (u.session == "session-001"
                               and u.start_s // chunk_seconds == emptied)]
    rng.shuffle(hyps)
    assert len({u.session for u in refs}) == 5
    scorer = weighted_f1_scorer(default_token_weights(SynthConfig(n_samples=0)))
    ours_prompts: list[str] = []
    reference_prompts: list[str] = []
    ours, mean = evaluate_summaries(
        refs, hyps, lambda p: ours_prompts.append(p) or mock_summarize(p), scorer, chunk_seconds)
    reference, reference_mean = reference_evaluate_summaries(
        refs, hyps, lambda p: reference_prompts.append(p) or mock_summarize(p), scorer,
        chunk_seconds)
    assert [s.hex() for s in ours] == [s.hex() for s in reference]
    assert mean.hex() == reference_mean.hex()
    assert ours_prompts == reference_prompts
    assert build_prompt("") in ours_prompts  # the window with no hypothesis side
    assert 0.0 < mean < 1.0


def test_empty_hypothesis_chunk_still_summarized():
    refs = _session_utts("s", {1.0: "We know the plan."})
    scores, mean = evaluate_summaries(refs, [], make_summarizer("mock"),
                                      weighted_f1_scorer())
    assert scores == [0.0]  # empty summary scored against real transcript


def test_utterance_round_trip(tmp_path):
    path = tmp_path / "utts.jsonl"
    utts = _session_utts("sess", {0.0: "One.", 61.0: "Two."}, speaker=2)
    save_utterances(utts, path)
    assert load_utterances(path) == utts


def test_load_utterances_missing_field(tmp_path):
    path = tmp_path / "utts.jsonl"
    path.write_text('{"speaker": 0, "start_s": 1.0, "session": "s"}\n')
    with pytest.raises(SummEvalError, match="text"):
        load_utterances(path)
