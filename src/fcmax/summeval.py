"""Chunked summarization evaluation over speaker-attributed transcripts.

Session recordings are cut into non-overlapping ``CHUNK_SECONDS`` (60 s)
windows by utterance start time, and each side of a comparison is grouped
by (session, window) once, into a list of utterances in transcript order
(start time, then speaker).  Each window's hypothesis utterances become
"Speaker N: text" lines, are wrapped in a summarization prompt and
summarized, and the summary is scored for consistency against the window's
ground-truth transcript formatted the same way.  The per-window score vector
feeds paired significance tests between systems.

A deterministic built-in mock summarizer (first sentence spoken by each
speaker, in speaker order) keeps the whole pipeline offline and
byte-reproducible; a real model is reached through the same HTTP interface
as a remote summarizer, whose endpoint is parsed once, when it is built,
and each request carries the fixed ``SUMMARIZER_SAMPLING`` settings.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .corpus import Corpus
from . import scorers

MOCK_SUMMARIZER = "mock"
CHUNK_SECONDS = 60.0
SUMMARIZER_SAMPLING = {"temperature": 0.0, "top_p": 1.0, "max_tokens": 200}
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
        if "\n" in self.text or "\r" in self.text:  # a transcript holds one line per utterance
            raise SummEvalError(f"utterance text must hold no line break, got {self.text!r}")


def _windows(utterances: Sequence[Utterance], seconds: float) -> dict[tuple[str, int], list]:
    """Utterances grouped by (session, window index), each group stably sorted
    by (start time, speaker).  Window k is [k * w, (k + 1) * w) in floats, w =
    ``seconds``; where start // w rounds to a neighbour, k steps to the one
    whose bounds hold it."""
    windows: dict[tuple[str, int], list[Utterance]] = {}
    for u in utterances:
        k = int(u.start_s // seconds)
        k += (u.start_s >= (k + 1) * seconds) - (u.start_s < k * seconds)
        windows.setdefault((u.session, k), []).append(u)
    for group in windows.values():
        group.sort(key=lambda u: (u.start_s, u.speaker))
    return windows


def format_speaker_attributed(utterances: Sequence[Utterance]) -> str:
    """Render "Speaker {index}: {text}" lines in the order given."""
    return "".join(f"Speaker {u.speaker}: {u.text}\n" for u in utterances)


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


def make_summarizer(endpoint: str, timeout: float = 30.0) -> Callable[[str], str]:
    """The summarizer that ``endpoint`` names: ``mock_summarize`` for "mock",
    else a client that POSTs each prompt to {endpoint}/summarize.
    ``ValueError`` names an endpoint that is neither "mock" nor an http(s)
    URL with a host."""
    if endpoint == MOCK_SUMMARIZER:
        return mock_summarize
    target = scorers.parse_target(endpoint, "summarize")

    def summarize(prompt: str) -> str:
        # scorers.post_json is looked up per call, so a wrapper installed later sees it
        doc = scorers.post_json(target, {"prompt": prompt, **SUMMARIZER_SAMPLING}, timeout)
        if "summary" not in doc or not isinstance(doc["summary"], str):
            raise scorers.RemoteProtocolError(
                f"{target.url} response is missing a string 'summary' field")
        return doc["summary"]

    return summarize


def evaluate_summaries(
    reference_utterances: Sequence[Utterance],
    hypothesis_utterances: Sequence[Utterance],
    summarizer: Callable[[str], str],
    scorer: scorers.ConsistencyScorer,
) -> tuple[list[float], float]:
    """Run the chunked pipeline and score summaries against the ground truth.

    Windows of ``CHUNK_SECONDS`` are derived from reference timings and shared with the hypothesis
    side; a hypothesis utterance falling into a window with no reference
    material is a chunk mismatch.  Windows whose hypothesis side is empty are
    still summarized so that missing output cannot inflate the mean.  Every
    window is summarized first, then all summaries are scored with one
    ``scorer.score_all``, whose ScorerError names the failing chunk's
    position.  Returns the per-chunk score vector (chunk order: session, then
    window) and its mean.
    """
    refs = _windows(reference_utterances, CHUNK_SECONDS)
    hyps = _windows(hypothesis_utterances, CHUNK_SECONDS)
    extra = sorted({session for session, _ in hyps} - {session for session, _ in refs})
    if extra:
        raise SummEvalError(f"hypothesis sessions {extra} have no reference side")
    for session, k in sorted(hyps, key=lambda key: key[0]):  # stable: input order in a session
        if (session, k) not in refs:  # name the window's first utterance in input order
            first = next(u for u in hypothesis_utterances if u in hyps[session, k])
            raise SummEvalError(f"session {session!r}: hypothesis utterance at "
                                f"{first.start_s}s falls in window {k}, "
                                f"which has no reference chunk")
    if not refs:
        raise SummEvalError("no chunks to evaluate")
    scores = scorer.score_all([
        (summarizer(build_prompt(format_speaker_attributed(hyps.get(key, [])))),
         format_speaker_attributed(refs[key]))
        for key in sorted(refs)])
    return scores, sum(scores) / len(scores)


def corpus_to_utterances(corpus: Corpus, texts: dict[str, str] | None = None) -> list[Utterance]:
    """View corpus samples as utterances; texts override the references.

    With texts=None the result is the ground-truth side of the pipeline; pass
    a sample-id to decoded-text mapping to build the hypothesis side.  A text
    that an utterance refuses raises SummEvalError naming its sample.
    """
    out = []
    for s in corpus.samples:
        text = s.reference if texts is None else texts[s.id]
        try:
            out.append(Utterance(speaker=s.speaker, start_s=s.start_s, text=text,
                                 session=s.session))
        except SummEvalError as exc:
            raise SummEvalError(f"sample {s.id!r}: {exc}") from None
    return out

