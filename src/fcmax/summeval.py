"""Chunked summarization evaluation over speaker-attributed transcripts.

Session recordings are cut into fixed non-overlapping windows (60 s by
default) by utterance start time, and each side of a comparison is grouped
by (session, window) once.  Each window's hypothesis utterances become
"Speaker N: text" lines in start-time order, are wrapped in a summarization
prompt and summarized, and the summary is scored for consistency against the
window's ground-truth transcript formatted the same way.  The per-window
score vector feeds paired significance tests between systems.

A deterministic built-in mock summarizer (first sentence spoken by each
speaker, in speaker order) keeps the whole pipeline offline and
byte-reproducible; a real model is reached through the same HTTP interface
as a remote summarizer.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .corpus import NUMBER, Corpus, atomic_write_text, read_jsonl
from .scorers import ConsistencyScorer, RemoteProtocolError, check_endpoint, post_json

MOCK_SUMMARIZER = "mock"
PROMPT_INSTRUCTION = "\nSummarize the conversation above.\n"


class SummEvalError(ValueError):
    pass


@dataclass(frozen=True)
class Utterance:
    speaker: int
    start_s: float
    text: str
    session: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start_s) and self.start_s >= 0):
            raise SummEvalError(f"utterance start time must be finite and >= 0, got {self.start_s}")
        if self.speaker < 0:
            raise SummEvalError(f"speaker index must be >= 0, got {self.speaker}")


@dataclass
class SessionChunk:
    session: str
    start: float
    end: float
    utterances: list[Utterance]

    def __post_init__(self) -> None:
        for u in self.utterances:
            if not self.start <= u.start_s < self.end:
                raise SummEvalError(
                    f"utterance at {u.start_s}s outside window [{self.start}, {self.end})"
                )
        self.utterances = sorted(self.utterances, key=lambda u: (u.start_s, u.speaker))


@dataclass(frozen=True)
class SummarizerParams:
    temperature: float = 0.0
    top_p: float = 1.0
    max_tokens: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise SummEvalError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 0.0 < self.top_p <= 1.0:
            raise SummEvalError(f"top_p must be in (0, 1], got {self.top_p}")
        if not (isinstance(self.max_tokens, int) and self.max_tokens >= 1):
            raise SummEvalError(f"max_tokens must be an integer >= 1, got {self.max_tokens}")


def _windows(utterances: Sequence[Utterance], chunk_seconds: float) -> dict[tuple[str, int], list]:
    """Utterances grouped by (session, window index), each group in input order.

    Window k is [k * w, (k + 1) * w) in floats, the bounds ``_chunk`` checks;
    where start // w rounds to a neighbour, k steps to the one holding the start.
    """
    if not (math.isfinite(chunk_seconds) and chunk_seconds > 0):
        raise SummEvalError(f"chunk_seconds must be > 0 and finite, got {chunk_seconds}")
    windows: dict[tuple[str, int], list[Utterance]] = {}
    for u in utterances:
        k = int(u.start_s // chunk_seconds)
        k += (u.start_s >= (k + 1) * chunk_seconds) - (u.start_s < k * chunk_seconds)
        windows.setdefault((u.session, k), []).append(u)
    return windows


def _chunk(windows: dict, key: tuple[str, int], chunk_seconds: float) -> SessionChunk:
    session, k = key
    return SessionChunk(session, k * chunk_seconds, (k + 1) * chunk_seconds, windows.get(key, []))


def format_speaker_attributed(chunk: SessionChunk) -> str:
    """Render "Speaker {index}: {text}" lines in start-time order."""
    return "".join(f"Speaker {u.speaker}: {u.text}\n" for u in chunk.utterances)


_SPEAKER_LINE_RE = re.compile(r"^Speaker (\d+): (.*)$")


def parse_speaker_attributed(transcript: str) -> list[tuple[int, str]]:
    """Recover (speaker, text) pairs from a formatted transcript."""
    pairs = []
    for line in transcript.split("\n"):
        m = _SPEAKER_LINE_RE.match(line)
        if m:
            pairs.append((int(m.group(1)), m.group(2)))
    return pairs


def build_prompt(transcript: str) -> str:
    return transcript + PROMPT_INSTRUCTION


_SENTENCE_END_RE = re.compile(r"[.?!]")


def mock_summarize(prompt: str) -> str:
    """Deterministic stand-in: each speaker's first sentence, in speaker order.

    Deliberately crude; it exists so the pipeline is testable offline, not to
    approximate a language model.
    """
    firsts: dict[int, str] = {}
    for speaker, text in parse_speaker_attributed(prompt):
        if speaker in firsts:
            continue
        m = _SENTENCE_END_RE.search(text)
        firsts[speaker] = text[: m.end()] if m else text
    return " ".join(firsts[s] for s in sorted(firsts))


def summarize(
    endpoint: str,
    prompt: str,
    params: SummarizerParams = SummarizerParams(),
    timeout: float = 30.0,
) -> str:
    """Produce a summary via the wire protocol, or via the built-in mock.

    The endpoint "mock" selects the offline backend; anything else is taken
    as a service base URL and POSTed to {endpoint}/summarize.
    """
    if endpoint == MOCK_SUMMARIZER:
        return mock_summarize(prompt)
    url = endpoint.rstrip("/") + "/summarize"
    doc = post_json(url, {
        "prompt": prompt,
        "temperature": params.temperature,
        "top_p": params.top_p,
        "max_tokens": params.max_tokens,
    }, timeout)
    if "summary" not in doc or not isinstance(doc["summary"], str):
        raise RemoteProtocolError(f"{url} response is missing a string 'summary' field")
    return doc["summary"]


def make_summarizer(
    endpoint: str,
    params: SummarizerParams = SummarizerParams(),
    timeout: float = 30.0,
) -> Callable[[str], str]:
    """``summarize`` bound to ``endpoint``; ``ValueError`` names an endpoint that
    is neither "mock" nor an http(s) URL with a host."""
    if endpoint != MOCK_SUMMARIZER:
        check_endpoint(endpoint)
    return lambda prompt: summarize(endpoint, prompt, params, timeout)


def evaluate_summaries(
    reference_utterances: Sequence[Utterance],
    hypothesis_utterances: Sequence[Utterance],
    summarizer: Callable[[str], str],
    scorer: ConsistencyScorer,
    chunk_seconds: float = 60.0,
) -> tuple[list[float], float]:
    """Run the chunked pipeline and score summaries against the ground truth.

    Windows are derived from reference timings and shared with the hypothesis
    side; a hypothesis utterance falling into a window with no reference
    material is a chunk mismatch.  Windows whose hypothesis side is empty are
    still summarized so that missing output cannot inflate the mean.
    Returns the per-chunk score vector (chunk order: session, then window)
    and its mean.
    """
    refs = _windows(reference_utterances, chunk_seconds)
    hyps = _windows(hypothesis_utterances, chunk_seconds)
    extra = sorted({session for session, _ in hyps} - {session for session, _ in refs})
    if extra:
        raise SummEvalError(f"hypothesis sessions {extra} have no reference side")
    for session, k in sorted(hyps, key=lambda key: key[0]):  # stable: input order in a session
        if (session, k) not in refs:
            raise SummEvalError(f"session {session!r}: hypothesis utterance at "
                                f"{hyps[session, k][0].start_s}s falls in window {k}, "
                                f"which has no reference chunk")
    scores: list[float] = []
    for key in sorted(refs):
        hyp_text = format_speaker_attributed(_chunk(hyps, key, chunk_seconds))
        summary = summarizer(build_prompt(hyp_text))
        scores.append(scorer(summary, format_speaker_attributed(_chunk(refs, key, chunk_seconds))))
    if not scores:
        raise SummEvalError("no chunks to evaluate")
    return scores, sum(scores) / len(scores)


def corpus_to_utterances(corpus: Corpus, texts: dict[str, str] | None = None) -> list[Utterance]:
    """View corpus samples as utterances; texts override the references.

    With texts=None the result is the ground-truth side of the pipeline; pass
    a sample-id to decoded-text mapping to build the hypothesis side.
    """
    out = []
    for s in corpus.samples:
        text = s.reference if texts is None else texts[s.id]
        out.append(Utterance(speaker=s.speaker, start_s=s.start_s, text=text, session=s.session))
    return out


_UTTERANCE_FIELDS = {"speaker": int, "start_s": NUMBER, "session": str, "text": str}


def load_utterances(path) -> list[Utterance]:
    """Read the utterance JSONL (corpus schema plus a "text" field)."""
    return [Utterance(speaker=obj["speaker"], start_s=float(obj["start_s"]), text=obj["text"],
                      session=obj["session"])
            for _, obj in read_jsonl(path, _UTTERANCE_FIELDS, SummEvalError)]


def save_utterances(utterances: Sequence[Utterance], path) -> None:
    atomic_write_text(path, "".join(
        json.dumps({"speaker": u.speaker, "start_s": u.start_s, "session": u.session,
                    "text": u.text}, ensure_ascii=False) + "\n"
        for u in utterances))
