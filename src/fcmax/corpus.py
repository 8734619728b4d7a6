"""Training samples, synthetic corpus generation, JSONL I/O and text normalization.

The synthetic corpus is a desk-scale stand-in for a meeting-transcription
dataset: each sample pairs a cased, punctuated reference sentence with a
discrete "acoustic" input sequence produced by passing the reference tokens
through a stochastic confusion channel.  The channel can replace content
words with confusable words and can drop the acoustic evidence for negation
words, so a decoder working from the input alone faces hypotheses whose edit
error and whose semantic fidelity rank in opposite orders.  Its confusions
are the fixed ``DEFAULT_CONFUSION_TABLE``, so every corpus shares
``DEFAULT_TOKEN_VOCAB`` and ``load_corpus`` reads back what the generator
wrote; only the negation drop rate is a setting.

Draw contract: one seeded ``numpy.random.Generator`` serves the whole
corpus, and each sample makes its draws in a fixed order (negation flag,
length, sentence grammar, channel, start time, speaker).  The channel makes
one uniform draw per negation token and one per confusable token; the latter
is inverted through the CDF that ``Generator.choice(p=...)`` would build from
the word's weights, with the same right-side search, so it picks what
``choice`` would have picked.  Any change to a draw changes every seeded
corpus, and with it every checkpoint and benchmark quality number.

JSON I/O: ``read_json`` and ``read_jsonl`` are where program code reads
files; they name the file and line of bytes that are not UTF-8 or text that
is not JSON.  ``write_jsonl`` writes every JSONL output of the package and
its script, one ``json.dumps`` line per row with non-ASCII text kept as
UTF-8, through ``atomic_write_text``, so a killed run leaves the old file or
the new one.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import secrets
import stat
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BOS = "<s>"
EOS = "</s>"

PUNCTUATION_TOKENS = (".", ",", "?", "!")

# Word inventory for the sentence grammar.  Subjects are capitalized when they
# open a sentence; the second clause of a compound sentence uses the lowercase
# forms ("I" stays capitalized).
_SUBJECTS = ("I", "We", "They", "You")
_SUBJECTS_CLAUSE2 = ("I", "we", "they", "you")
_NEGATIONS = ("don't", "never", "won't")
_VERBS = ("know", "like", "need", "remember", "support", "trust", "understand", "want")
_ADVERBS = ("really", "just", "still", "also", "probably")
_DETERMINERS = ("the", "this", "that")
_NOUNS = (
    "plan", "answer", "budget", "schedule", "report",
    "deadline", "proposal", "meeting", "contract", "forecast",
)
_TAILS = ("anyway", "though", "somehow")
_CONJUNCTION = "but"

# Acoustically plausible mishearings.  Targets live in the token vocabulary so
# the decoder is able to emit them, but they (almost) never occur in
# references; emitting one is the desk-scale analog of a hallucinated word.
DEFAULT_CONFUSION_TABLE: dict[str, list[tuple[str, float]]] = {
    "plan": [("plant", 0.6)],
    "budget": [("bucket", 0.6)],
    "report": [("resort", 0.6)],
    "deadline": [("headline", 0.6)],
    "contract": [("contrast", 0.6)],
    "forecast": [("forest", 0.6)],
    "know": [("owe", 0.5)],
    "need": [("knead", 0.5)],
    "trust": [("thrust", 0.5)],
}

_CONFUSABLES = frozenset(alt for options in DEFAULT_CONFUSION_TABLE.values() for alt, _ in options)
# Confusable targets count as content so a hallucinated content word costs as
# much as a dropped one.
_CONTENT_TOKENS = frozenset(_NEGATIONS) | frozenset(_VERBS) | frozenset(_NOUNS) | _CONFUSABLES

# Every sentence has 5 to 12 words, drawn uniformly.
_MIN_WORDS = 5
_MAX_WORDS = 12


class CorpusError(ValueError):
    """Raised for invalid corpus files or invalid generator configuration."""


def _base_vocab() -> list[str]:
    """BOS, EOS, punctuation and the grammar's words in first-use order, then
    the confusable targets that are not grammar words, sorted."""
    grammar = dict.fromkeys([
        BOS, EOS, *PUNCTUATION_TOKENS, *_SUBJECTS, *_SUBJECTS_CLAUSE2, *_NEGATIONS, *_VERBS,
        *_ADVERBS, *_DETERMINERS, *_NOUNS, *_TAILS, _CONJUNCTION,
    ])
    return [*grammar, *sorted(_CONFUSABLES - grammar.keys())]


DEFAULT_TOKEN_VOCAB: tuple[str, ...] = tuple(_base_vocab())


@dataclass(frozen=True)
class Sample:
    """One training pair: discrete acoustic input and its reference transcript."""

    id: str
    input: tuple[int, ...]
    reference: str
    speaker: int = 0
    start_s: float = 0.0
    session: str = ""

    @property
    def ref_word_count(self) -> int:
        return len(normalize_text(self.reference))  # the words WER divides by

    def validate(self, source_vocab_size: int) -> None:
        if not normalize_text(self.reference):  # WER divides by these tokens
            raise CorpusError(f"sample {self.id!r}: reference has no words once normalized")
        if self.speaker < 0:
            raise CorpusError(f"sample {self.id!r}: speaker must be >= 0, got {self.speaker}")
        if not (math.isfinite(self.start_s) and self.start_s >= 0):  # summary windows need it
            raise CorpusError(
                f"sample {self.id!r}: start time must be finite and >= 0, got {self.start_s}")
        if len(self.input) == 0:
            raise CorpusError(f"sample {self.id!r}: empty input sequence")
        for idx in self.input:
            if not 0 <= idx < source_vocab_size:
                raise CorpusError(
                    f"sample {self.id!r}: input symbol {idx} outside source vocabulary "
                    f"of size {source_vocab_size}"
                )


@dataclass
class Corpus:
    """An ordered collection of samples plus the shared vocabularies."""

    samples: list[Sample]
    source_vocab_size: int
    token_vocab: tuple[str, ...]
    _token_to_id: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.token_vocab = tuple(self.token_vocab)
        if self.token_vocab.count(BOS) != 1 or self.token_vocab.count(EOS) != 1:
            raise CorpusError("token_vocab must contain exactly one BOS and one EOS entry")
        ids = set()
        for s in self.samples:
            if s.id in ids:
                raise CorpusError(f"duplicate sample id {s.id!r}")
            ids.add(s.id)
            s.validate(self.source_vocab_size)
        self._token_to_id = {tok: i for i, tok in enumerate(self.token_vocab)}

    @property
    def bos_id(self) -> int:
        return self._token_to_id[BOS]

    @property
    def eos_id(self) -> int:
        return self._token_to_id[EOS]

    def decode_ids(self, ids) -> str:
        return id_renderer(self.token_vocab)(ids)

    def reference_ids(self, sample: Sample) -> list[int]:
        """The reference's token ids, without BOS and EOS."""
        try:
            return [self._token_to_id[t] for t in surface_tokens(sample.reference)]
        except KeyError as exc:
            token = exc.args[0]
            raise CorpusError(f"sample {sample.id!r}: token {token!r} not in vocabulary") from None

    def split(self, *sizes: int) -> list["Corpus"]:
        """Partition samples by position into consecutive sub-corpora."""
        if sizes and min(sizes) < 0:
            raise CorpusError(f"a split size must be >= 0, got {min(sizes)}")
        if sum(sizes) > len(self.samples):
            raise CorpusError(f"cannot split {len(self.samples)} samples into parts of {sizes}")
        out, at = [], 0
        for n in sizes:
            out.append(Corpus(self.samples[at:at + n], self.source_vocab_size, self.token_vocab))
            at += n
        return out


def _positive_finite(x: float) -> bool:
    return math.isfinite(x) and x > 0


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic noisy-transcription generator, whose confusions
    are the fixed ``DEFAULT_CONFUSION_TABLE``.  ``content_weight`` and
    ``filler_weight`` are not generator settings but the scorer weights that
    ``default_token_weights`` reads.  A config is checked when it is built."""

    n_samples: int
    seed: int = 0
    negation_drop_rate: float = 0.3
    content_weight: float = 3.0
    filler_weight: float = 0.5

    def __post_init__(self) -> None:
        if self.n_samples < 0:
            raise CorpusError(f"n_samples must be >= 0, got {self.n_samples}")
        if not 0 <= self.seed < 2**64:  # the range of the np.uint64 the generator takes
            raise CorpusError(f"seed must be in [0, 2**64), got {self.seed}")
        if not 0.0 <= self.negation_drop_rate <= 1.0:
            raise CorpusError(f"negation_drop_rate must be in [0, 1], got "
                              f"{self.negation_drop_rate}")
        if not (_positive_finite(self.content_weight) and _positive_finite(self.filler_weight)):
            raise CorpusError(f"token weights must be finite and > 0, got "
                              f"content={self.content_weight} filler={self.filler_weight}")


@functools.lru_cache(maxsize=8)  # a process uses one vocabulary or a few
def id_renderer(token_vocab: tuple[str, ...]):
    """The surface text of a sequence of ids of one vocabulary: words joined
    by single spaces, punctuation attached to the word before it.  The table
    is built once per vocabulary: each token's surface string after another
    token, with its joining space (none before punctuation), so a text is its
    first token and one join of table entries."""
    later = tuple(tok if tok in PUNCTUATION_TOKENS else " " + tok for tok in token_vocab)

    def render(ids) -> str:
        return "".join([token_vocab[ids[0]], *map(later.__getitem__, ids[1:])]) if len(ids) else ""

    return render


def surface_tokens(text: str) -> list[str]:
    """Split surface text back into grammar tokens (inverse of ``id_renderer``)."""
    toks: list[str] = []
    for word in text.split():
        suffix: list[str] = []
        while word and word[-1] in PUNCTUATION_TOKENS:
            suffix.append(word[-1])
            word = word[:-1]
        if word:
            toks.append(word)
        toks.extend(reversed(suffix))
    return toks


# Punctuation, and apostrophes not embedded in a word.  Every character the
# pattern replaces is a non-word character, and so is the space it becomes,
# so one pass sees the same apostrophe neighbours as stripping first would.
_STRIP_RE = re.compile(r"[.,?!;:\"()\-]|(?<!\w)'|'(?!\w)")


def normalize_text(text: str) -> list[str]:
    """Lowercased token list used for edit-error scoring and by the weighted
    token F1 consistency scorer.

    Lowercases, deletes underscores inside words, replaces the punctuation
    characters . , ? ! ; : " ( ) and hyphens with spaces, drops apostrophes
    that are not embedded inside a word, and collapses whitespace.  Only the
    remote scorer sends the raw text.
    """
    return _STRIP_RE.sub(" ", text.lower().replace("_", "")).split()


def _allocate(rng: np.random.Generator, needed: int, caps: list[int]) -> list[int]:
    counts = [0] * len(caps)
    while needed > 0:
        open_slots = [i for i in range(len(caps)) if counts[i] < caps[i]]
        if not open_slots:
            break
        pick = open_slots[int(rng.integers(len(open_slots)))]
        counts[pick] += 1
        needed -= 1
    return counts


def _choose(rng: np.random.Generator, pool: tuple[str, ...]) -> str:
    return pool[int(rng.integers(len(pool)))]


def _choose_distinct(rng: np.random.Generator, pool: tuple[str, ...], k: int) -> list[str]:
    if k == 0:
        return []
    idx = rng.choice(len(pool), size=k, replace=False)
    return [pool[int(i)] for i in idx]


def _build_clause(rng, subject: str, negation: str | None, n_adverbs: int) -> list[str]:
    toks = [subject]
    if negation is not None:
        toks.append(negation)
    toks.extend(_choose_distinct(rng, _ADVERBS, n_adverbs))
    return toks + [_choose(rng, _VERBS), _choose(rng, _DETERMINERS), _choose(rng, _NOUNS)]


def _build_sentence(rng: np.random.Generator, target_words: int, negated: bool) -> list[str]:
    """Assemble one sentence's token list with exactly target_words words."""
    negation = _choose(rng, _NEGATIONS) if negated else None
    base = 4 + (1 if negated else 0)
    needed = target_words - base
    use_second = needed >= 5
    if use_second:
        needed -= 5
        c1_adv, c2_adv, tail = _allocate(rng, needed, [3, 2, 1])
    else:
        c1_adv, tail = _allocate(rng, needed, [3, 1])
        c2_adv = 0
    toks = _build_clause(rng, _choose(rng, _SUBJECTS), negation, c1_adv)
    if use_second:
        toks += [",", _CONJUNCTION]
        toks.extend(_build_clause(rng, _choose(rng, _SUBJECTS_CLAUSE2), None, c2_adv))
    if tail:
        toks.append(_choose(rng, _TAILS))
    end = rng.random()
    toks.append("." if end < 0.8 else ("?" if end < 0.95 else "!"))
    return toks


def _pick_tables(token_to_id: dict[str, int]) -> dict[str, tuple[list[float], list[int]]]:
    """For each word of ``DEFAULT_CONFUSION_TABLE``, the CDF that
    ``Generator.choice(p=...)`` builds from its weights (keep weight 1.0
    first) and the token id each pick emits."""
    tables = {}
    for word, options in DEFAULT_CONFUSION_TABLE.items():
        weights = np.array([1.0] + [w for _, w in options])
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        emits = [token_to_id[word]] + [token_to_id[alt] for alt, _ in options]
        tables[word] = (cdf.tolist(), emits)
    return tables


def _channel(rng, tokens: list[str], negation_drop_rate: float,
             picks: dict[str, tuple[list[float], list[int]]],
             token_to_id: dict[str, int]) -> list[int]:
    """Pass reference tokens through the confusion channel, yielding input
    symbols.  A confusable token draws one uniform and emits the pick whose
    CDF entry is the first one above it, as ``Generator.choice`` does."""
    out: list[int] = []
    for tok in tokens:
        if tok in _NEGATIONS:
            if rng.random() < negation_drop_rate:
                continue
            out.append(token_to_id[tok])
            continue
        pick = picks.get(tok)
        if pick is None:
            out.append(token_to_id[tok])
        else:
            cdf, emits = pick
            out.append(emits[bisect_right(cdf, rng.random())])
    return out


def generate_synthetic_corpus(config: SynthConfig) -> Corpus:
    """Deterministically generate a noisy-transcription corpus from a seed.

    Every tenth sample is forced to contain a negation word so the corpus
    always carries sentences where a dropped negation makes the short, low
    edit-error hypothesis the semantically wrong one.

    Each sample makes its draws in a fixed order, with one uniform per
    confusable token inverted through the CDF that ``Generator.choice(p=...)``
    would build (see the module docstring).  Any change to a draw changes
    every seeded corpus, and with it every checkpoint and benchmark quality
    number.
    """
    token_to_id = {tok: i for i, tok in enumerate(DEFAULT_TOKEN_VOCAB)}
    render = id_renderer(DEFAULT_TOKEN_VOCAB)
    picks = _pick_tables(token_to_id)
    rng = np.random.default_rng(np.uint64(config.seed))
    samples: list[Sample] = []
    for i in range(config.n_samples):
        negated = (i % 10 == 0) or rng.random() < 0.45
        target = int(rng.integers(_MIN_WORDS, _MAX_WORDS + 1))
        tokens = _build_sentence(rng, target, negated)
        reference = render([token_to_id[tok] for tok in tokens])
        input_ids = _channel(rng, tokens, config.negation_drop_rate, picks, token_to_id)
        start = round(float(i % 50) * 4.0 + float(rng.random()) * 2.0, 3)
        samples.append(Sample(
            id=f"synth-{config.seed}-{i:06d}",
            input=tuple(input_ids),
            reference=reference,
            speaker=int(rng.integers(4)),
            start_s=start,
            session=f"session-{i // 50:03d}",
        ))
    return Corpus(samples=samples, source_vocab_size=len(DEFAULT_TOKEN_VOCAB),
                  token_vocab=DEFAULT_TOKEN_VOCAB)


def default_token_weights(config: SynthConfig):
    """TokenWeights matching the generator: content words (confusable targets
    included) heavy, fillers light."""
    from .scorers import TokenWeights

    weights = {tok.lower(): config.content_weight for tok in _CONTENT_TOKENS}
    return TokenWeights(weights=weights, default=config.filler_weight)


def is_json_float(value) -> bool:
    """Whether a loaded JSON value is a number float() takes: an int or a
    float, never a bool, and an int only inside the float range."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


NUMBER = (int, float)  # a read_jsonl field type: a finite number in float range

_SAMPLE_FIELDS = {
    "id": str,
    "input": list,
    "reference": str,
    "speaker": int,
    "start_s": NUMBER,
    "session": str,
}


def _decoded(path, data: bytes, error: type[Exception]) -> str:
    """A file's bytes as text-mode reading returns them: UTF-8, with each CR
    LF pair or lone CR read as one LF.  Bytes that are not UTF-8 raise
    ``error`` naming the file and the line of the first bad byte."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")  # the bytes up to the bad one decode
        lineno = before.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        raise error(f"{path}, line {lineno}: not UTF-8 text ({exc.reason} at byte "
                    f"{exc.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_json(path, error: type[Exception]):
    """The JSON document in a file; text that is not UTF-8 or not JSON raises
    ``error`` naming the file and line."""
    try:
        return json.loads(_decoded(path, Path(path).read_bytes(), error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}, line {exc.lineno}: invalid JSON ({exc.msg})") from exc


def read_jsonl(path, fields: dict, error: type[Exception]):
    """Yield (line number, object) for each non-blank line of a JSONL file.

    Each line must be a JSON object holding every field of ``fields`` with a
    value of that field's type or types, where a bool is never a number and
    a ``NUMBER`` is finite and in float range.  A missing file, bytes that
    are not UTF-8 or a bad line raise ``error`` naming the file and the line.
    """
    path = Path(path)
    if not path.exists():
        raise error(f"file not found: {path}")
    lines = _decoded(path, path.read_bytes(), error).split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise error(f"{path}, line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise error(f"{path}, line {lineno}: expected a JSON object")
        for name, typ in fields.items():
            if name not in obj:
                raise error(f"{path}, line {lineno}: missing field {name!r}")
            value = obj[name]
            if not isinstance(value, typ) or isinstance(value, bool):
                raise error(f"{path}, line {lineno}: field {name!r} has wrong type")
            if typ is NUMBER and not (is_json_float(value) and math.isfinite(value)):
                raise error(f"{path}, line {lineno}: field {name!r} must be a finite "
                            f"number in float range, got {value!r}")
        yield lineno, obj


def load_corpus(path) -> Corpus:
    """Load a JSONL corpus.

    The JSONL file carries samples only; the token vocabulary is the
    generator's ``DEFAULT_TOKEN_VOCAB``.
    """
    samples = []
    for lineno, obj in read_jsonl(path, _SAMPLE_FIELDS, CorpusError):
        if not all(type(x) is int for x in obj["input"]):
            raise CorpusError(f"{path}, line {lineno}: field 'input' must be a list of integers")
        samples.append(Sample(
            id=obj["id"],
            input=tuple(obj["input"]),
            reference=obj["reference"],
            speaker=obj["speaker"],
            start_s=float(obj["start_s"]),
            session=obj["session"],
        ))
    return Corpus(samples=samples, source_vocab_size=len(DEFAULT_TOKEN_VOCAB),
                  token_vocab=DEFAULT_TOKEN_VOCAB)


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file in the same directory plus rename.

    A new file gets the mode ``open(path, "w")`` would give it, 0666 less the
    umask, and an overwritten file keeps its mode."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        if path.exists():
            os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_jsonl(path, rows) -> None:
    """Write each row as one line of JSON (non-ASCII kept as UTF-8) through
    ``atomic_write_text``: the one JSONL writer, beside ``read_jsonl``."""
    atomic_write_text(path, "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


def save_corpus(corpus: Corpus, path) -> None:
    """Write the corpus in the JSONL form ``load_corpus`` reads."""
    write_jsonl(path, ({"id": s.id, "input": list(s.input), "reference": s.reference,
                        "speaker": s.speaker, "start_s": s.start_s, "session": s.session}
                       for s in corpus.samples))
