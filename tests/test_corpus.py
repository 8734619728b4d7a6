"""Corpus generation, JSONL round trips and text normalization."""

from __future__ import annotations

import hashlib
import json
import os
import stat
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import reference_channel, reference_detokenize, reference_normalize_text
from fcmax import corpus as corpus_module
from fcmax.cli import _load_decoded
from fcmax.corpus import (
    _NEGATIONS as NEGATION_TOKENS, BOS, DEFAULT_CONFUSION_TABLE, DEFAULT_TOKEN_VOCAB, EOS,
    Corpus, CorpusError, Sample, SynthConfig, generate_synthetic_corpus, id_renderer,
    load_corpus, normalize_text, save_corpus, surface_tokens,
)
from fcmax.summeval import corpus_to_utterances


def test_empty_corpus_has_populated_vocab():
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=0, seed=1))
    assert corpus.samples == []
    assert BOS in corpus.token_vocab and EOS in corpus.token_vocab
    assert corpus.source_vocab_size == len(corpus.token_vocab)


def test_same_seed_is_byte_identical():
    cfg = SynthConfig(n_samples=40, seed=123)
    a = generate_synthetic_corpus(cfg)
    b = generate_synthetic_corpus(cfg)
    assert a.samples == b.samples


def test_different_seeds_differ():
    a = generate_synthetic_corpus(SynthConfig(n_samples=1, seed=1))
    b = generate_synthetic_corpus(SynthConfig(n_samples=1, seed=2))
    assert a.samples != b.samples


def test_saved_corpus_bytes_are_pinned(tmp_path):
    """The digest of the JSONL that save_corpus writes for a small seeded
    corpus: a change to a draw, a field, the key order or the line format
    moves it."""
    path = tmp_path / "corpus.jsonl"
    save_corpus(generate_synthetic_corpus(SynthConfig(n_samples=50, seed=5)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "83e28a6af5000479c35c50c473398d5b4f205dcac40d763ccf8c12d75f29cc97")


def _negation_drop_stats(corpus: Corpus) -> tuple[int, int]:
    """(samples with a negation in the reference, those whose input lost it)."""
    neg_ids = {corpus.token_vocab.index(t) for t in NEGATION_TOKENS}
    present = dropped = 0
    for s in corpus.samples:
        ref_ids = set(corpus.reference_ids(s))
        neg_in_ref = ref_ids & neg_ids
        if not neg_in_ref:
            continue
        present += 1
        if not neg_in_ref & set(s.input):
            dropped += 1
    return present, dropped


def test_negation_drop_rate_matches_config():
    corpus = generate_synthetic_corpus(
        SynthConfig(n_samples=1000, seed=7, negation_drop_rate=0.5)
    )
    present, dropped = _negation_drop_stats(corpus)
    assert present >= 100  # at least 10% of samples carry a negation
    assert abs(dropped / present - 0.5) <= 0.05


def test_references_are_cased_and_punctuated():
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=50, seed=3))
    for s in corpus.samples:
        assert s.reference[0].isupper()
        assert s.reference[-1] in ".?!"
        assert s.ref_word_count == len(normalize_text(s.reference)) == len(s.reference.split())
        assert s.ref_word_count >= 1


def test_clean_channel_reproduces_reference_tokens():
    """With no negation dropped, the channel emits each reference token or
    one of its ``DEFAULT_CONFUSION_TABLE`` alternatives."""
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=30, seed=9, negation_drop_rate=0.0))
    for s in corpus.samples:
        ref = corpus.reference_ids(s)
        assert len(s.input) == len(ref)
        for got, want in zip(s.input, ref):
            word = corpus.token_vocab[want]
            allowed = {word} | {alt for alt, _ in DEFAULT_CONFUSION_TABLE.get(word, [])}
            assert corpus.token_vocab[got] in allowed


def test_length_bounds_respected():
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=200, seed=5, min_len=6, max_len=9))
    for s in corpus.samples:
        assert 6 <= s.ref_word_count <= 9


@pytest.mark.parametrize("bad, message", [
    (dict(n_samples=-1), "n_samples"),
    (dict(n_samples=1, negation_drop_rate=1.5), "negation_drop_rate"),
    (dict(n_samples=1, min_len=9, max_len=8), "min_len"),
    (dict(n_samples=1, min_len=2, max_len=8), "min_len"),
    (dict(n_samples=1, content_weight=0.0), "weights"),
    (dict(n_samples=1, content_weight=float("nan")), "weights"),
    (dict(n_samples=1, filler_weight=float("inf")), "weights"),
    (dict(n_samples=1, max_len=16), "max_len must be <= 15"),
    (dict(n_samples=1, min_len=4, max_len=4), "max_len must be >= 5"),
])
def test_invalid_config_reports_bound(bad, message):
    """A config is checked when it is built, before any generator sees it."""
    with pytest.raises(CorpusError, match=message):
        SynthConfig(**bad)


def _reference_corpus(cfg: SynthConfig) -> Corpus:
    """The corpus the per-token ``Generator.choice`` channel makes from cfg."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_module, "_channel",
                   lambda rng, tokens, _rate, _picks, token_to_id:
                   reference_channel(rng, tokens, cfg, token_to_id))
        return generate_synthetic_corpus(cfg)


def _custom_confusion_table() -> dict[str, list[tuple[str, float]]]:
    """1-3 alternatives for most grammar words, weights log-uniform in [1e-6, 1e6]."""
    rng = np.random.default_rng(2302)
    words = [t for t in DEFAULT_TOKEN_VOCAB[6:] if t not in NEGATION_TOKENS][:30]
    table = {}
    for k, word in enumerate(words):
        n_alt = 1 + k % 3
        table[word] = [(f"{word}-{j}", float(10.0 ** rng.uniform(-6, 6))) for j in range(n_alt)]
    return table


@pytest.mark.parametrize("custom", [False, True], ids=["default-table", "custom-table"])
@pytest.mark.parametrize("drop", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 7, 11, 123])
def test_channel_matches_per_token_choice_oracle(seed, drop, custom, monkeypatch):
    """The custom table stands in for the module's fixed one, so the whole
    generator is checked on extreme weights too."""
    if custom:
        table = _custom_confusion_table()
        alts = sorted({alt for options in table.values() for alt, _ in options})
        monkeypatch.setattr(corpus_module, "DEFAULT_CONFUSION_TABLE", table)
        monkeypatch.setattr(corpus_module, "DEFAULT_TOKEN_VOCAB", (*DEFAULT_TOKEN_VOCAB, *alts))
    cfg = SynthConfig(n_samples=300, seed=seed, negation_drop_rate=drop)
    assert generate_synthetic_corpus(cfg).samples == _reference_corpus(cfg).samples


def test_pick_table_draws_what_choice_draws(monkeypatch):
    weights_rng = np.random.default_rng(5)
    for seed in range(40):
        options = [(f"alt{j}", float(10.0 ** weights_rng.uniform(-6, 6)))
                   for j in range(1 + seed % 3)]
        monkeypatch.setattr(corpus_module, "DEFAULT_CONFUSION_TABLE", {"w": options})
        (cdf, emits), = corpus_module._pick_tables(
            {"w": 0, "alt0": 1, "alt1": 2, "alt2": 3}).values()
        weights = np.array([1.0] + [w for _, w in options])
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            assert emits[bisect_right(cdf, a.random())] == int(
                b.choice(len(weights), p=weights / weights.sum()))
        assert a.random() == b.random()  # both streams consumed one double per draw


class _FixedUniform:
    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def test_channel_draw_on_a_cdf_step_takes_the_next_pick(monkeypatch):
    token_to_id = {"plan": 0, "plant": 1}
    monkeypatch.setattr(corpus_module, "DEFAULT_CONFUSION_TABLE", {"plan": [("plant", 1.0)]})
    picks = corpus_module._pick_tables(token_to_id)
    assert picks["plan"] == ([0.5, 1.0], [0, 1])
    # searchsorted(side='right'), as Generator.choice uses, puts u == 0.5 past the step
    assert int(np.searchsorted([0.5, 1.0], 0.5, side="right")) == 1
    assert corpus_module._channel(_FixedUniform(0.5), ["plan"], 0.0, picks, token_to_id) == [1]
    assert corpus_module._channel(
        _FixedUniform(np.nextafter(0.5, 0.0)), ["plan"], 0.0, picks, token_to_id) == [0]


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    corpus = load_corpus(path)
    assert corpus.samples == []


def test_load_missing_field_names_field_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "input": [1], "speaker": 0, "start_s": 0.0, "session": "s"}\n')
    with pytest.raises(CorpusError, match=r"line 1.*'reference'"):
        load_corpus(path)


def test_load_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = '{"id": "a", "input": [1], "reference": "Hi.", "speaker": 0, "start_s": 0.0, "session": "s"}'
    path.write_text(good + "\n{not json\n")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


_HYP = {"id": "a", "nbest": [{"text": "hi"}]}
_SAMPLE = {"id": "a", "input": [1], "reference": "Hi.", "speaker": 0, "start_s": 0.0,
           "session": "s"}
_HUGE = "1" + "0" * 400  # an integer past the float range


@pytest.mark.parametrize("reader, line, message", [
    ("hyp", json.dumps({"id": "b"}), "line 2: missing field 'nbest'"),
    ("hyp", "[1]", "line 2: expected a JSON object"),
    ("hyp", json.dumps({"id": 2, "nbest": [{"text": "hi"}]}), "line 2: field 'id' has wrong"),
    ("hyp", json.dumps({"id": "b", "nbest": {"text": "hi"}}), "line 2: field 'nbest' has wrong"),
    ("hyp", json.dumps({"id": "b", "nbest": []}), "line 2: field 'nbest' must start with"),
    ("hyp", json.dumps({"id": "b", "nbest": ["hi"]}), "line 2: field 'nbest' must start with"),
    ("hyp", json.dumps({"id": "b", "nbest": [{"text": 7}]}), "line 2: field 'nbest' must start"),
    ("corpus", "5", "line 2: expected a JSON object"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b", "speaker": "x"}),
     "line 2: field 'speaker' has wrong type"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b", "speaker": True, "session": 7}),
     "line 2: field 'speaker' has wrong type"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b", "reference": 7}),
     "line 2: field 'reference' has wrong type"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b", "session": None}),
     "line 2: field 'session' has wrong type"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b"}).replace("0.0", "NaN"),
     "line 2: field 'start_s' must be a finite number in float range, got nan"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b"}).replace("0.0", "Infinity"),
     "line 2: field 'start_s' must be a finite number in float range, got inf"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b"}).replace("0.0", "-Infinity"),
     "line 2: field 'start_s' must be a finite number in float range, got -inf"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b"}).replace("0.0", _HUGE),
     "line 2: field 'start_s' must be a finite number in float range, got 1000"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b", "start_s": "0"}),
     "line 2: field 'start_s' has wrong type"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b", "reference": " "}), "sample 'b': ref"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b", "reference": "..."}), "sample 'b': ref"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b", "speaker": -1}),
     "sample 'b': speaker must be >= 0, got -1"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b", "start_s": -5.0}),
     "sample 'b': start time must be finite and >= 0, got -5.0"),
    ("utt", json.dumps({**_SAMPLE, "id": "b", "start_s": "0"}),
     "line 2: field 'start_s' has wrong type"),
    ("utt", json.dumps({**_SAMPLE, "id": "b"}).replace("0.0", _HUGE),
     "line 2: field 'start_s' must be a finite number in float range, got 1000"),
], ids=["hyp-no-nbest", "hyp-array", "hyp-id-int", "hyp-nbest-object",
        "hyp-nbest-empty", "hyp-nbest-str", "hyp-text-int", "corpus-number", "corpus-speaker-str",
        "corpus-speaker-bool", "corpus-reference-int", "corpus-session-null", "corpus-start-nan",
        "corpus-start-inf", "corpus-start-minus-inf", "corpus-start-huge-int",
        "corpus-start-str", "corpus-reference-blank",
        "corpus-reference-punctuation", "corpus-speaker-negative", "corpus-start-negative",
        "utt-start-str", "utt-start-huge-int"])
def test_jsonl_readers_refuse_malformed_lines(tmp_path, reader, line, message):
    """The decode output and corpus readers share the corpus reader's line
    checks: each bad line raises the reader's error naming the line, instead
    of a bare TypeError, KeyError, OverflowError or a silently coerced or
    non-finite value.  The decode output is read against a corpus of sample
    "a"; the utterances the evaluations build are read from a corpus against
    a decode output of samples "a" and "b", so a start time no summary window
    can place is refused before any utterance is built."""
    corpus, decoded = tmp_path / "corpus.jsonl", tmp_path / "decoded.jsonl"
    corpus.write_text(json.dumps(_SAMPLE) + "\n")
    decoded.write_text(json.dumps(_HYP) + "\n" + json.dumps({**_HYP, "id": "b"}) + "\n")
    load, good, error = {
        "hyp": (lambda p: _load_decoded(corpus, p)[1], _HYP, ValueError),
        "corpus": (lambda p: load_corpus(p).samples, _SAMPLE, CorpusError),
        "utt": (lambda p: corpus_to_utterances(*_load_decoded(p, decoded)), _SAMPLE, CorpusError),
    }[reader]
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(good) + "\n" + line + "\n")
    with pytest.raises(error, match=message):
        load(path)
    path.write_text(json.dumps(good) + "\n")
    assert len(load(path)) == 1


def test_load_duplicate_id(tmp_path):
    path = tmp_path / "dup.jsonl"
    line = '{"id": "a", "input": [1], "reference": "Hi.", "speaker": 0, "start_s": 0.0, "session": "s"}'
    path.write_text(line + "\n" + line + "\n")
    with pytest.raises(CorpusError, match="duplicate"):
        load_corpus(path)


def test_missing_file():
    with pytest.raises(CorpusError, match="not found"):
        load_corpus("/nonexistent/corpus.jsonl")


def test_round_trip(tmp_path):
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=25, seed=21))
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded.samples == corpus.samples
    assert loaded.token_vocab == corpus.token_vocab
    assert loaded.source_vocab_size == corpus.source_vocab_size


def test_round_trip_keeps_non_ascii_text(tmp_path):
    """The file holds the text as UTF-8, not as \\u escapes, and reads back."""
    path = tmp_path / "corpus.jsonl"
    samples = [Sample(id="ñ-1", input=(2,), reference="Señor, 東京 — naïve “quote”.",
                      speaker=1, start_s=0.25, session="sesión-1"),
               Sample(id="ñ-2", input=(3,), reference="Plain.", start_s=3.0, session="sesión-1")]
    save_corpus(Corpus(samples, len(DEFAULT_TOKEN_VOCAB), DEFAULT_TOKEN_VOCAB), path)
    assert load_corpus(path).samples == samples
    raw = path.read_bytes()
    assert "Señor, 東京 — naïve “quote”.".encode("utf-8") in raw and b"\\u" not in raw
    assert raw.count(b"\n") == 2 and raw.endswith(b"\n")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_atomic_write_gives_the_modes_open_would(tmp_path, umask, mode):
    """A new file gets 0666 less the umask, as ``open(path, "w")`` gives it,
    and an overwritten file keeps its mode; no temp file is left behind."""
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("x")
    old.chmod(0o640)
    saved = os.umask(umask)
    try:
        corpus_module.atomic_write_text(new, "a")
        corpus_module.atomic_write_text(old, "b")
    finally:
        os.umask(saved)
    assert stat.S_IMODE(new.stat().st_mode) == mode
    assert stat.S_IMODE(old.stat().st_mode) == 0o640 and old.read_text() == "b"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["new.json", "old.json"]


def test_word_count_recomputed_not_trusted(tmp_path):
    path = tmp_path / "c.jsonl"
    obj = {"id": "a", "input": [1], "reference": "Two words.", "speaker": 0,
           "start_s": 0.0, "session": "s", "ref_word_count": 99}
    path.write_text(json.dumps(obj) + "\n")
    corpus = load_corpus(path)
    assert corpus.samples[0].ref_word_count == 2


def test_normalize_contraction():
    assert normalize_text("I don't know.") == ["i", "don't", "know"]


def test_normalize_empty():
    assert normalize_text("") == []


def test_normalize_underscores_and_punctuation():
    assert normalize_text("X_M_L_ file, OK?") == ["xml", "file", "ok"]


def test_normalize_hyphens_and_quote_marks():
    assert normalize_text('A well-known "fact"; right!') == ["a", "well", "known", "fact", "right"]
    assert normalize_text("'tis the rock 'n' roll") == ["tis", "the", "rock", "n", "roll"]


@given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
def test_normalize_idempotent(text):
    once = normalize_text(text)
    assert normalize_text(" ".join(once)) == once


# Apostrophes next to letters, underscores, punctuation and non-ASCII letters
# (ß, and İ, whose lowercase form grows a combining dot), mixed with any
# other character.
normalize_texts = st.text(
    alphabet=st.one_of(st.sampled_from("ab'_.,?!;:\"()- \tßİ9"), st.characters()),
    max_size=40,
)


@given(normalize_texts)
def test_normalize_matches_the_two_pass_reference(text):
    assert normalize_text(text) == reference_normalize_text(text)


@given(st.lists(st.integers(0, len(DEFAULT_TOKEN_VOCAB) - 1), max_size=12))
def test_id_renderer_is_detokenize_over_the_vocabulary(ids):
    """The per-vocabulary surface table renders an id sequence (tuple, list
    or array, punctuation first or repeated, empty) as the per-token
    reference does."""
    want = reference_detokenize(DEFAULT_TOKEN_VOCAB[i] for i in ids)
    for form in (tuple(ids), list(ids), np.array(ids, dtype=np.int64)):
        assert id_renderer(DEFAULT_TOKEN_VOCAB)(form) == want


def test_detokenize_surface_round_trip():
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=60, seed=17))
    for s in corpus.samples:
        assert reference_detokenize(surface_tokens(s.reference)) == s.reference
        assert corpus.decode_ids(corpus.reference_ids(s)) == s.reference


def test_sample_invariants_enforced():
    with pytest.raises(CorpusError, match="empty input"):
        Corpus(
            samples=[Sample(id="x", input=(), reference="Hi.")],
            source_vocab_size=4,
            token_vocab=(BOS, EOS, "Hi", "."),
        )
    with pytest.raises(CorpusError, match="outside source vocabulary"):
        Corpus(
            samples=[Sample(id="x", input=(9,), reference="Hi.")],
            source_vocab_size=4,
            token_vocab=(BOS, EOS, "Hi", "."),
        )
    with pytest.raises(CorpusError, match="sample 'x': ref"):
        Corpus(
            samples=[Sample(id="x", input=(2,), reference=" \t ")],
            source_vocab_size=4,
            token_vocab=(BOS, EOS, "Hi", "."),
        )


@pytest.mark.parametrize("field, value, message", [
    ("speaker", -1, "speaker must be >= 0, got -1"),
    ("start_s", -0.5, "start time must be finite and >= 0, got -0.5"),
    ("start_s", float("nan"), "start time must be finite and >= 0, got nan"),
    ("start_s", float("inf"), "start time must be finite and >= 0, got inf"),
])
def test_sample_refuses_what_summary_windows_cannot_place(field, value, message):
    """A speaker or a start time that an utterance would refuse is refused
    when the corpus is built, naming the sample, not at summary evaluation."""
    with pytest.raises(CorpusError, match=f"^sample 'x': {message}$"):
        Corpus(samples=[Sample(id="x", input=(2,), reference="Hi.", **{field: value})],
               source_vocab_size=4, token_vocab=(BOS, EOS, "Hi", "."))


def test_vocab_needs_one_bos_one_eos():
    with pytest.raises(CorpusError, match="BOS"):
        Corpus(samples=[], source_vocab_size=2, token_vocab=(BOS, BOS, EOS))


def test_split_partitions_in_order():
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=10, seed=2))
    a, b = corpus.split(7, 3)
    assert [s.id for s in a.samples] + [s.id for s in b.samples] == \
        [s.id for s in corpus.samples]


@pytest.mark.parametrize("sizes, match", [
    ((-2, 5, 4), "a split size must be >= 0, got -2"),
    ((7, 4), r"cannot split 10 samples into parts of \(7, 4\)"),
], ids=["negative-size", "over-size"])
def test_split_refuses_a_negative_or_too_large_size(sizes, match):
    """A negative size would return a short part whose successor overlaps an
    earlier part; a sum past the corpus would return short parts."""
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=10, seed=2))
    with pytest.raises(CorpusError, match=f"^{match}$"):
        corpus.split(*sizes)
