"""Corpus generation, JSONL round trips and text normalization."""

from __future__ import annotations

import json
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import reference_channel, reference_detokenize, reference_normalize_text
from fcmax import corpus as corpus_module
from fcmax.cli import _load_hyp_texts
from fcmax.corpus import (
    _NEGATIONS as NEGATION_TOKENS, BOS, DEFAULT_CONFUSION_TABLE, DEFAULT_TOKEN_VOCAB, EOS,
    PUNCTUATION_TOKENS, Corpus, CorpusError, Sample, SynthConfig,
    corpus_to_jsonl, detokenize, generate_synthetic_corpus, id_renderer, load_corpus,
    normalize_text, save_corpus, surface_tokens,
)
from fcmax.summeval import SummEvalError, load_utterances


def test_empty_corpus_has_populated_vocab():
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=0, seed=1))
    assert corpus.samples == []
    assert BOS in corpus.token_vocab and EOS in corpus.token_vocab
    assert corpus.source_vocab_size == len(corpus.token_vocab)


def test_same_seed_is_byte_identical():
    cfg = SynthConfig(n_samples=40, seed=123)
    a = generate_synthetic_corpus(cfg)
    b = generate_synthetic_corpus(cfg)
    assert corpus_to_jsonl(a) == corpus_to_jsonl(b)


def test_different_seeds_differ():
    a = generate_synthetic_corpus(SynthConfig(n_samples=1, seed=1))
    b = generate_synthetic_corpus(SynthConfig(n_samples=1, seed=2))
    assert corpus_to_jsonl(a) != corpus_to_jsonl(b)


def _negation_drop_stats(corpus: Corpus) -> tuple[int, int]:
    """(samples with a negation in the reference, those whose input lost it)."""
    neg_ids = {corpus.token_id(t) for t in NEGATION_TOKENS}
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
])
def test_invalid_config_reports_bound(bad, message):
    with pytest.raises(CorpusError, match=message):
        generate_synthetic_corpus(SynthConfig(**bad))


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
    assert corpus_to_jsonl(generate_synthetic_corpus(cfg)) == corpus_to_jsonl(
        _reference_corpus(cfg))


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


_UTT = {"speaker": 1, "start_s": 0.5, "session": "s", "text": "Hi."}
_HYP = {"id": "a", "nbest": [{"text": "hi"}]}
_SAMPLE = {"id": "a", "input": [1], "reference": "Hi.", "speaker": 0, "start_s": 0.0,
           "session": "s"}
_HUGE = "1" + "0" * 400  # an integer past the float range


@pytest.mark.parametrize("reader, line, message", [
    ("utterances", "5", "line 2: expected a JSON object"),
    ("utterances", json.dumps({**_UTT, "speaker": "x"}), "line 2: field 'speaker' has wrong type"),
    ("utterances", json.dumps({**_UTT, "speaker": True, "text": 7}),
     "line 2: field 'speaker' has wrong type"),
    ("utterances", json.dumps({**_UTT, "text": 7}), "line 2: field 'text' has wrong type"),
    ("utterances", json.dumps({**_UTT, "start_s": "0"}), "line 2: field 'start_s' has wrong type"),
    ("utterances", json.dumps({**_UTT, "session": None}), "line 2: field 'session' has wrong"),
    ("hyp", json.dumps({"id": "b"}), "line 2: missing field 'nbest'"),
    ("hyp", "[1]", "line 2: expected a JSON object"),
    ("hyp", json.dumps({"id": 2, "nbest": [{"text": "hi"}]}), "line 2: field 'id' has wrong"),
    ("hyp", json.dumps({"id": "b", "nbest": {"text": "hi"}}), "line 2: field 'nbest' has wrong"),
    ("hyp", json.dumps({"id": "b", "nbest": []}), "line 2: field 'nbest' must start with"),
    ("hyp", json.dumps({"id": "b", "nbest": ["hi"]}), "line 2: field 'nbest' must start with"),
    ("hyp", json.dumps({"id": "b", "nbest": [{"text": 7}]}), "line 2: field 'nbest' must start"),
    ("utterances", '{"speaker": 1, "start_s": NaN, "session": "s", "text": "Hi."}',
     "line 2: field 'start_s' must be a finite number in float range, got nan"),
    ("utterances", '{"speaker": 1, "start_s": Infinity, "session": "s", "text": "Hi."}',
     "line 2: field 'start_s' must be a finite number in float range, got inf"),
    ("utterances", '{"speaker": 1, "start_s": ' + _HUGE + ', "session": "s", "text": "Hi."}',
     "line 2: field 'start_s' must be a finite number in float range, got 1000"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b"}).replace("0.0", "-Infinity"),
     "line 2: field 'start_s' must be a finite number in float range, got -inf"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b"}).replace("0.0", _HUGE),
     "line 2: field 'start_s' must be a finite number in float range"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b", "start_s": "0"}),
     "line 2: field 'start_s' has wrong type"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b", "reference": " "}), "sample 'b': ref"),
    ("corpus", json.dumps({**_SAMPLE, "id": "b", "reference": "..."}), "sample 'b': ref"),
], ids=["utt-number", "utt-speaker-str", "utt-speaker-bool", "utt-text-int", "utt-start-str",
        "utt-session-null", "hyp-no-nbest", "hyp-array", "hyp-id-int", "hyp-nbest-object",
        "hyp-nbest-empty", "hyp-nbest-str", "hyp-text-int", "utt-start-nan", "utt-start-inf",
        "utt-start-huge-int", "corpus-start-minus-inf", "corpus-start-huge-int",
        "corpus-start-str", "corpus-reference-blank",
        "corpus-reference-punctuation"])
def test_jsonl_readers_refuse_malformed_lines(tmp_path, reader, line, message):
    """The utterance, hypothesis and corpus readers share the corpus reader's
    line checks: each bad line raises the reader's error naming the line,
    instead of a bare TypeError, KeyError, OverflowError or a silently coerced
    or non-finite value."""
    load, good, error = {"utterances": (load_utterances, _UTT, SummEvalError),
                         "hyp": (_load_hyp_texts, _HYP, ValueError),
                         "corpus": (lambda p: load_corpus(p).samples, _SAMPLE, CorpusError)}[reader]
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


@given(st.lists(st.one_of(st.sampled_from(["", "I", "know", "don't", *PUNCTUATION_TOKENS]),
                          st.text(max_size=3)), max_size=12))
def test_detokenize_matches_the_per_token_reference(tokens):
    want = reference_detokenize(tokens)
    assert detokenize(tokens) == want
    assert detokenize(iter(tokens)) == want


@given(st.lists(st.integers(0, len(DEFAULT_TOKEN_VOCAB) - 1), max_size=12))
def test_id_renderer_is_detokenize_over_the_vocabulary(ids):
    """The per-vocabulary surface table renders an id sequence (tuple, list
    or array, punctuation first or repeated, empty) as detokenize does."""
    want = reference_detokenize(DEFAULT_TOKEN_VOCAB[i] for i in ids)
    for form in (tuple(ids), list(ids), np.array(ids, dtype=np.int64)):
        assert id_renderer(DEFAULT_TOKEN_VOCAB)(form) == want


def test_detokenize_surface_round_trip():
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=60, seed=17))
    for s in corpus.samples:
        toks = surface_tokens(s.reference)
        assert detokenize(toks) == s.reference
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


def test_vocab_needs_one_bos_one_eos():
    with pytest.raises(CorpusError, match="BOS"):
        Corpus(samples=[], source_vocab_size=2, token_vocab=(BOS, BOS, EOS))


def test_split_partitions_in_order():
    corpus = generate_synthetic_corpus(SynthConfig(n_samples=10, seed=2))
    a, b = corpus.split(7, 3)
    assert [s.id for s in a.samples] + [s.id for s in b.samples] == \
        [s.id for s in corpus.samples]
