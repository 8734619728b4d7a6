"""Shared fixtures: random models, batches in the model's one padded form
(per-step weights as prefix paths, per-cell weights as path pairs),
gradient-check harness, a fitted
two-way ambiguity fixture, a scriptable in-process HTTP server and a raw-reply
TCP server for wire tests, and
the reference helpers (parameter comparison, gradient accumulation, N-best
consistency check, per-list N-best scoring and minibatch assembly, sequence
log-probabilities and corpus NLL, per-pair alignment, per-prefix and
padded one-input beam search,
per-trajectory per-step teacher forcing and backward, per-iteration padded
likelihood training, per-token confusion channel, two-pass text normalization, three-sum weighted F1, per-token
detokenization, per-session summary evaluation) that only tests use."""

from __future__ import annotations

import json
import re
import socket
import struct
import threading
import time
from collections import Counter
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fcmax import corpus as corpus_module, metrics
from fcmax.beam import Hypothesis, NBestList, _decode_group
from fcmax.corpus import (
    _NEGATIONS as NEGATION_TOKENS, BOS, EOS, PUNCTUATION_TOKENS, Corpus, Sample, SynthConfig,
)
from fcmax.model import (
    ForwardTrace, ModelParams, PaddedIds, _Decoder, _log_softmax, apply_update, backward,
    encode, forward_teacher, param_count, trajectory,
)
from fcmax.summeval import SummEvalError, build_prompt, format_speaker_attributed

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")


def random_params(d: int, src_vocab: int, tgt_vocab: int, seed: int,
                  scale: float = 0.6) -> ModelParams:
    """Random weights big enough that every parameter visibly moves the output."""
    rng = np.random.default_rng(seed)
    flat = rng.uniform(-scale, scale, size=param_count(d, src_vocab, tgt_vocab))
    return ModelParams(flat, d, src_vocab, tgt_vocab)


def batch_of_one(*seqs) -> list[PaddedIds]:
    """Each id sequence as a padded batch of one."""
    return [PaddedIds.of([seq]) for seq in seqs]


def step_weighted_batch(rows):
    """Rows of (input_ids, path, weights) in the one batch form the model
    takes: (inputs, paths) padded and one weight per trajectory.  A row's
    weights are one float, or one per step, w[0..n-1] for a path of n + 1
    ids; per-step weights become the row's n prefix paths, prefix k (its
    first k steps, path[:k + 1]) of weight w[k-1] - w[k], with w[n] = 0.  A
    prefix's steps are those of the whole path, so the prefixes' weighted
    log-likelihoods sum to sum_n w[n] * log L[n, path[n + 1]], and backward
    on them gives the per-step weighted gradient."""
    batch = []
    for inp, path, w in rows:
        if np.ndim(w) == 0:
            batch.append((inp, path, float(w)))
            continue
        w = np.asarray(w, dtype=np.float64).tolist() + [0.0]
        assert len(w) == len(path), "one weight per step"
        batch += [(inp, path[:k + 1], w[k - 1] - w[k]) for k in range(1, len(path))]
    inputs, paths, weights = zip(*batch)
    return PaddedIds.of(inputs), PaddedIds.of(paths), np.array(weights)


def step_weighted_gradient(params: ModelParams, rows) -> ModelParams:
    """backward over ``step_weighted_batch(rows)``: the gradient of the sum
    over rows and steps of w[n] * log L[n, path[n + 1]]."""
    inputs, paths, weights = step_weighted_batch(rows)
    return backward(params, forward_teacher(params, inputs, paths), weights)


def params_allclose(a: ModelParams, b: ModelParams) -> bool:
    return bool(np.array_equal(a.flat, b.flat))


def accumulate(total: ModelParams, part: ModelParams, scale: float = 1.0) -> None:
    """In-place total += scale * part over every matrix."""
    total.flat += scale * part.flat


def validate_scored(batch) -> None:
    """Each row of a scored batch: its posteriors are positive and sum to 1,
    they give its expectation, and its pads are -inf log probs and zeros."""
    for row, n in enumerate(batch.counts.tolist()):
        posteriors, scaled = batch.posteriors[row, :n], batch.scaled[row, :n]
        assert abs(posteriors.sum() - 1.0) <= 1e-9 and np.all(posteriors > 0), (
            "normalized posteriors must be positive and sum to 1")
        expected = float(sum(posteriors * scaled))
        assert abs(expected - batch.expected[row]) <= 1e-9, (
            f"expected score {batch.expected[row]} inconsistent with hypothesis set "
            f"(recomputed {expected})")
        assert np.all(batch.log_probs[row, n:] == -np.inf)
        for pads in (batch.posteriors, batch.consistency, batch.scaled):
            assert not pads[row, n:].any()


def reference_posteriors(log_probs) -> np.ndarray:
    """Softmax over one list's raw sequence log probabilities, max-subtracted,
    on its own 1-D array: the oracle for the batch normalization."""
    arr = np.asarray(log_probs, dtype=np.float64)
    shifted = np.exp(arr - arr.max())
    return shifted / shifted.sum()


@dataclass
class ReferenceScored:
    """One list scored on its own: per hypothesis, in list order."""

    texts: list
    posteriors: list
    consistency: list
    scaled: list
    expected: float
    coefficients: np.ndarray


def reference_expected_consistency(hypotheses, sample, scorer, token_vocab) -> ReferenceScored:
    """Per-list, per-hypothesis scoring: texts by ``reference_detokenize``,
    one scorer call per hypothesis, the expectation as a left-to-right +=
    fold and the coefficients per hypothesis.  The oracle for
    ``fcm.score_batch`` and ``fcm.fcm_coefficients``."""
    posteriors = reference_posteriors([h.log_prob for h in hypotheses])
    out = ReferenceScored([], [], [], [], 0.0, None)
    for hyp, posterior in zip(hypotheses, posteriors):
        text = reference_detokenize(token_vocab[t] for t in hyp.tokens)
        consistency = scorer(text, sample.reference)
        scaled = sample.ref_word_count * consistency
        out.expected += float(posterior) * scaled
        out.texts.append(text)
        out.posteriors.append(float(posterior))
        out.consistency.append(consistency)
        out.scaled.append(scaled)
    out.coefficients = np.array([p * (s - out.expected)
                                 for p, s in zip(out.posteriors, out.scaled)])
    return out


def reference_minibatch_gradient(params: ModelParams, corpus: Corpus, samples, scored,
                                 hypotheses, ce_weight: float) -> ModelParams:
    """One consistency iteration's gradient from per-list oracle scores: the
    rows of each sample's hypotheses with a nonzero coefficient, weight
    (1 - ce_weight) * coefficient / B, then its reference, weight
    ce_weight / B, padded in that order."""
    scale = 1.0 / len(samples)
    owners, paths, weights = [], [], []
    for sample, one, hyps in zip(samples, scored, hypotheses):
        weighted = [(h.tokens, h.finished, (1.0 - ce_weight) * c * scale)
                    for h, c in zip(hyps, one.coefficients) if c != 0.0]
        if ce_weight > 0.0:
            weighted.append((corpus.reference_ids(sample), True, ce_weight * scale))
        for tokens, finished, weight in weighted:
            owners.append(sample)
            paths.append(trajectory(tokens, finished, corpus.bos_id, corpus.eos_id))
            weights.append(weight)
    if not owners:
        return params.zeros_like()
    trace = forward_teacher(params, PaddedIds.of(s.input for s in owners), PaddedIds.of(paths))
    return backward(params, trace, np.array(weights))


def sequence_log_prob(params: ModelParams, input_ids, tokens, bos_id: int, eos_id: int,
                      include_eos: bool = True) -> float:
    """Raw log posterior of a token sequence, EOS step included by default:
    one teacher-forced forward pass."""
    path = trajectory(tokens, include_eos, bos_id, eos_id)
    trace = forward_teacher(params, *batch_of_one(input_ids, path))
    return float(trace.log_probs[0, np.arange(len(path) - 1), list(path[1:])].sum())


def corpus_nll(params: ModelParams, corpus: Corpus) -> float:
    """Total teacher-forced negative log likelihood over a corpus."""
    return -sum(
        sequence_log_prob(params, s.input, corpus.reference_ids(s), corpus.bos_id, corpus.eos_id)
        for s in corpus.samples
    )


def align_counts(hyp_tokens, ref_tokens) -> tuple[int, int, int]:
    """Minimum-edit alignment counts (substitutions, insertions, deletions)
    of one token-list pair: ``metrics._align_batch`` over a batch of one."""
    return tuple(int(c[0]) for c in metrics._align_batch([hyp_tokens], [ref_tokens]))


def reference_align_counts(hyp_tokens, ref_tokens) -> tuple[int, int, int]:
    """Per-pair, per-cell tuple DP of the canonical alignment: cell costs are
    lexicographic (edits, substitutions, deletions) triples.  The oracle for
    the batched ``metrics._align_batch``."""
    m, n = len(hyp_tokens), len(ref_tokens)
    # row j=0..n over ref; prev[j] aligns hyp[:i] with ref[:j]
    prev = [(j, 0, j) for j in range(n + 1)]
    for i in range(1, m + 1):
        cur = [(i, 0, 0)]
        h = hyp_tokens[i - 1]
        for j in range(1, n + 1):
            pd = prev[j - 1]
            if h == ref_tokens[j - 1]:
                diag = pd
            else:
                diag = (pd[0] + 1, pd[1] + 1, pd[2])
            up = (prev[j][0] + 1, prev[j][1], prev[j][2])        # insertion
            left = (cur[j - 1][0] + 1, cur[j - 1][1], cur[j - 1][2] + 1)  # deletion
            cur.append(min(diag, up, left))
        prev = cur
    edits, subs, dels = prev[n]
    return subs, edits - subs - dels, dels


_REFERENCE_STRIP_RE = re.compile(r"[.,?!;:\"()\-]")
_REFERENCE_EDGE_APOSTROPHE_RE = re.compile(r"(?<!\w)'|'(?!\w)")


def reference_normalize_text(text: str) -> list[str]:
    """Two regex passes, punctuation first and edge apostrophes second: the
    oracle for the one-pass ``corpus.normalize_text``."""
    t = text.lower().replace("_", "")
    t = _REFERENCE_STRIP_RE.sub(" ", t)
    t = _REFERENCE_EDGE_APOSTROPHE_RE.sub(" ", t)
    return t.split()


def reference_weighted_token_f1(hyp: str, ref: str, weights) -> float:
    """One generator sum each for matched, hypothesis and reference weight:
    the oracle for the one-pass ``scorers.weighted_token_f1``."""
    hyp_tokens = reference_normalize_text(hyp)
    ref_tokens = reference_normalize_text(ref)
    if not hyp_tokens and not ref_tokens:
        return 1.0
    if not hyp_tokens or not ref_tokens:
        return 0.0
    hyp_counts = Counter(hyp_tokens)
    ref_counts = Counter(ref_tokens)
    weight, default = weights.weights.get, weights.default
    matched = sum(
        min(c, ref_counts[tok]) * weight(tok, default)
        for tok, c in hyp_counts.items()
        if tok in ref_counts
    )
    hyp_total = sum(c * weight(tok, default) for tok, c in hyp_counts.items())
    ref_total = sum(c * weight(tok, default) for tok, c in ref_counts.items())
    precision = matched / hyp_total
    recall = matched / ref_total
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def reference_detokenize(tokens) -> str:
    """Per-token appends: the oracle for ``corpus.detokenize``."""
    out: list[str] = []
    for tok in tokens:
        if tok in PUNCTUATION_TOKENS or not out:
            out.append(tok)
        else:
            out.append(" " + tok)
    return "".join(out)


def _reference_window(start_s: float, chunk_seconds: float) -> int:
    """The k with k * w <= start_s < (k + 1) * w in floats, found by bisection
    over k (k * w grows with k), not from start_s // w."""
    lo, hi = 0, 1
    while hi * chunk_seconds <= start_s:
        hi *= 2
    while hi - lo > 1:  # lo * w <= start_s < hi * w
        mid = (lo + hi) // 2
        if mid * chunk_seconds <= start_s:
            lo = mid
        else:
            hi = mid
    return lo


def _in_transcript_order(utterances) -> list:
    """Sorted by start time, then speaker; ties keep their order."""
    return sorted(utterances, key=lambda u: (u.start_s, u.speaker))


def _reference_chunk_session(utterances, chunk_seconds: float) -> dict[int, list]:
    """One session's window utterance lists by window index, in index order."""
    if chunk_seconds <= 0:
        raise SummEvalError(f"chunk_seconds must be > 0, got {chunk_seconds}")
    buckets: dict = {}
    for u in utterances:
        buckets.setdefault(_reference_window(u.start_s, chunk_seconds), []).append(u)
    return {idx: _in_transcript_order(buckets[idx]) for idx in sorted(buckets)}


def reference_evaluate_summaries(reference_utterances, hypothesis_utterances, summarizer,
                                 scorer, chunk_seconds: float = 60.0):
    """Groups each side by session, chunks each reference session on its own
    and buckets the hypotheses by window by hand: the oracle for
    ``summeval.evaluate_summaries``, which groups each side by (session,
    window) once."""
    ref_groups: dict = {}
    for u in reference_utterances:
        ref_groups.setdefault(u.session, []).append(u)
    hyp_groups: dict = {}
    for u in hypothesis_utterances:
        hyp_groups.setdefault(u.session, []).append(u)
    if set(hyp_groups) - set(ref_groups):
        extra = sorted(set(hyp_groups) - set(ref_groups))
        raise SummEvalError(f"hypothesis sessions {extra} have no reference side")
    scores: list[float] = []
    for session in sorted(ref_groups):
        ref_chunks = _reference_chunk_session(ref_groups[session], chunk_seconds)
        hyp_buckets: dict = {w: [] for w in ref_chunks}
        for u in hyp_groups.get(session, []):
            w = _reference_window(u.start_s, chunk_seconds)
            if w not in ref_chunks:
                raise SummEvalError(
                    f"session {session!r}: hypothesis utterance at {u.start_s}s falls in "
                    f"window {w}, which has no reference chunk"
                )
            hyp_buckets[w].append(u)
        for w, ref_chunk in ref_chunks.items():
            hyp_chunk = _in_transcript_order(hyp_buckets[w])
            summary = summarizer(build_prompt(format_speaker_attributed(hyp_chunk)))
            scores.append(scorer(summary, format_speaker_attributed(ref_chunk)))
    if not scores:
        raise SummEvalError("no chunks to evaluate")
    return scores, sum(scores) / len(scores)


def reference_channel(rng, tokens: list[str], cfg: SynthConfig,
                      token_to_id: dict[str, int]) -> list[int]:
    """Per-token confusion channel: each confusable token builds its weight
    array and picks with ``Generator.choice(p=...)``.  The oracle for the
    table-inverting ``corpus._channel``, over the module's confusion table."""
    out: list[int] = []
    for tok in tokens:
        if tok in NEGATION_TOKENS:
            if rng.random() < cfg.negation_drop_rate:
                continue
            out.append(token_to_id[tok])
            continue
        options = corpus_module.DEFAULT_CONFUSION_TABLE.get(tok)
        if options:
            weights = np.array([1.0] + [w for _, w in options])
            pick = int(rng.choice(len(weights), p=weights / weights.sum()))
            emitted = tok if pick == 0 else options[pick - 1][0]
            out.append(token_to_id[emitted])
        else:
            out.append(token_to_id[tok])
    return out


def reference_beam_decode(params: ModelParams, input_ids, beam_size: int, max_len: int,
                          bos_id: int, eos_id: int) -> NBestList:
    """Per-prefix beam search: one 1-D decoder step per live prefix, and every
    (score, tokens) candidate of the round sorted in full.  The oracle for
    the batched ``beam_decode_batch``."""
    decoder = _Decoder(params, PaddedIds.of([input_ids]))
    live: list[tuple[tuple[int, ...], float, np.ndarray]] = [((), 0.0, np.zeros(params.d))]
    done: list[tuple[float, tuple[int, ...]]] = []
    for _ in range(max_len):
        if not live:
            break
        candidates = [(lp, toks, None, True) for lp, toks in done]
        for toks, lp, s in live:
            logp, s_new = decoder.step(s[None, None], [[toks[-1] if toks else bos_id]])
            logp, s_new = logp[0, 0], s_new[0, 0]
            for tok in range(params.target_vocab_size):
                if tok == bos_id:
                    continue
                if tok == eos_id:
                    candidates.append((lp + logp[tok], toks, None, True))
                else:
                    candidates.append((lp + logp[tok], toks + (tok,), s_new, False))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        kept = candidates[:beam_size]
        done = [(lp, toks) for lp, toks, _, fin in kept if fin]
        live = [(toks, lp, s) for lp, toks, s, fin in kept if not fin]
    final = [Hypothesis(tokens=toks, log_prob=float(lp)) for lp, toks in done]
    final.extend(Hypothesis(tokens=toks, log_prob=float(lp), finished=False)
                 for toks, lp, _ in live)
    final.sort(key=lambda h: (-h.log_prob, h.tokens))
    return NBestList(final[:beam_size], beam_size=beam_size)


def reference_padded_decode(params: ModelParams, input_ids, width: int, beam_size: int,
                            max_len: int, bos_id: int, eos_id: int) -> NBestList:
    """Beam search of one input alone, padded to ``width``: it is encoded next
    to a filler input of that width, which leaves the group before the first
    step.  The oracle for ``beam_decode_batch``, which pads every input to
    the longest of its decode group."""
    decoder = _Decoder(params, PaddedIds.of([input_ids, [0] * width]))
    decoder.select([0])
    return _decode_group(decoder, beam_size, max_len, bos_id, eos_id)[0]


def reference_forward_teacher(params: ModelParams, input_ids, path) -> ForwardTrace:
    """Per-step teacher forcing of one id path: the recurrence and the
    readout of one 1-D state at a time, returned as a batch of one, with the
    model's input terms (rows of tgt_emb @ dec_in) and attention keys
    (H @ attn).  The oracle for each trajectory of the batched
    ``forward_teacher``."""
    path = np.asarray(path, dtype=np.int64)
    cond = path[:-1]
    enc = encode(params, PaddedIds.of([input_ids]))[0]
    inputs, keys = params.tgt_emb @ params.dec_in, enc @ params.attn
    n, d, v = cond.size, params.d, params.target_vocab_size
    log_probs, states = np.empty((n, v)), np.empty((n, d))
    alphas, contexts = np.empty((n, enc.shape[0])), np.empty((n, d))
    s = np.zeros(d)
    for step in range(n):
        s = np.tanh(inputs[cond[step]] + s @ params.dec_state)
        scores = keys @ s
        alpha = np.exp(scores - scores.max())
        alpha /= alpha.sum()
        context = alpha @ enc
        log_probs[step] = _log_softmax((s + context) @ params.out_proj + params.out_bias)
        states[step], alphas[step], contexts[step] = s, alpha, context
    return ForwardTrace(log_probs=log_probs[None], cond_tokens=cond[None],
                        target_tokens=path[None, 1:], lengths=np.array([n]),
                        input_ids=np.asarray(input_ids, dtype=np.int64)[None],
                        enc_states=enc[None], states=states[None],
                        attn_weights=alphas[None], contexts=contexts[None])


def reference_backward(params: ModelParams, trace: ForwardTrace, weights) -> ModelParams:
    """Per-step backward of a one-trajectory trace, with one weight or one per
    step: every gradient term accumulated one step at a time, back to front.
    The oracle for each trajectory of the batched ``backward``."""
    log_probs, states, contexts = trace.log_probs[0], trace.states[0], trace.contexts[0]
    cond_tokens, targets, input_ids = (trace.cond_tokens[0], trace.target_tokens[0],
                                       trace.input_ids[0])
    n_steps = log_probs.shape[0]
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), (n_steps,))
    g = params.zeros_like()
    H = trace.enc_states[0]
    HA = H @ params.attn
    dH = np.zeros_like(H)
    ds_next = np.zeros(params.d)
    for n in range(n_steps - 1, -1, -1):
        s, c, alpha = states[n], contexts[n], trace.attn_weights[0, n]
        dz = -w[n] * np.exp(log_probs[n])
        dz[targets[n]] += w[n]
        g.out_proj += (s + c)[:, None] * dz
        g.out_bias += dz
        dc = params.out_proj @ dz
        dalpha = H @ dc
        dH += alpha[:, None] * dc
        da = alpha * (dalpha - alpha @ dalpha)
        ds = dc + ds_next + HA.T @ da
        g.attn += (H.T @ da)[:, None] * s
        dH += da[:, None] * (params.attn @ s)
        dq = ds * (1.0 - s * s)
        u = params.tgt_emb[cond_tokens[n]]
        s_prev = states[n - 1] if n > 0 else np.zeros(params.d)
        g.dec_in += u[:, None] * dq
        g.dec_state += s_prev[:, None] * dq
        np.add.at(g.tgt_emb, cond_tokens[n], dq @ params.dec_in.T)
        ds_next = dq @ params.dec_state.T
    dq_enc = dH * (1.0 - H * H)
    g.enc_proj += params.src_emb[input_ids].T @ dq_enc
    np.add.at(g.src_emb, input_ids, dq_enc @ params.enc_proj.T)
    return g


def reference_train_ce(params: ModelParams, corpus: Corpus, schedule) -> ModelParams:
    """Likelihood training without dev checks that pads each iteration's
    reference trajectories anew: the oracle for ``trainer.train_ce``, which
    pads the corpus once and takes each batch's rows.  Same seeded shuffle
    (a short final chunk of an epoch is dropped), weights 1 / B and
    linear-decay learning rate."""
    rng = np.random.default_rng(np.uint64(schedule.seed))
    n = len(corpus.samples)
    batch_size = min(schedule.batch_size, n)
    order: list[int] = []
    for it in range(schedule.total_iterations):
        if len(order) < batch_size:
            perm = rng.permutation(n).tolist()
            order = perm[:n - n % batch_size]
        samples = [corpus.samples[i] for i in order[:batch_size]]
        order = order[batch_size:]
        paths = [trajectory(corpus.reference_ids(s), True, corpus.bos_id, corpus.eos_id)
                 for s in samples]
        trace = forward_teacher(params, PaddedIds.of(s.input for s in samples),
                                PaddedIds.of(paths))
        grad = backward(params, trace, np.array([1.0 / len(samples)] * len(samples)))
        lr = schedule.initial_lr * (1.0 - it / schedule.total_iterations)
        params = apply_update(params, grad, lr)
    return params


def step_cells(targets, weights) -> dict[int, dict[int, float]]:
    """{step: {token: weight}} of one target per step, with one weight for
    every step or one per step."""
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), (len(targets),))
    return {n: {int(t): float(w)} for n, (t, w) in enumerate(zip(targets, weights))}


def cell_batch(rows):
    """Rows of (input_ids, cond_tokens, cells) in the one batch form, cells
    {step: {token: weight}}: each cell is the term w * log L[n, t] of the
    trajectory that cond_tokens conditions, written as two paths.  The path
    cond[:n + 1] + (t,), weight w, is scored on cond[1..n] and then on t; for
    n >= 1 its prefix cond[:n + 1], weight -w, takes the first n steps'
    terms away again.  Step k of a path consumes cond[k], as the trajectory
    does, so backward on the batch gives the gradient of the cells' sum."""
    batch = []
    for inp, cond, cells in rows:
        cond = list(cond)
        for n, row in cells.items():
            for t, w in row.items():
                batch.append((inp, cond[:n + 1] + [t], w))
                if n:
                    batch.append((inp, cond[:n + 1], -w))
    inputs, paths, weights = zip(*batch)
    return PaddedIds.of(inputs), PaddedIds.of(paths), np.array(weights, dtype=np.float64)


def cells_gradient(params: ModelParams, rows) -> ModelParams:
    """One batched forward and backward over ``cell_batch(rows)``."""
    inputs, paths, weights = cell_batch(rows)
    return backward(params, forward_teacher(params, inputs, paths), weights)


def conditioned_log_probs(params: ModelParams, inputs, conds) -> np.ndarray:
    """The (U, N, V) log outputs of the trajectories that conds condition: each
    padded as a path with one more id, which conditions no step."""
    return forward_teacher(params, PaddedIds.of(inputs),
                           PaddedIds.of([*cond, 0] for cond in conds)).log_probs


def cells_objective(log_probs, cells) -> float:
    """The function cells_gradient differentiates, for one trajectory's (N, V)
    log outputs: sum of w * log L[n, t] over its cells."""
    return sum(w * log_probs[n, t] for n, row in cells.items() for t, w in row.items())


def central_difference_error(params: ModelParams, objective, analytic: ModelParams,
                             eps: float = 1e-5, floor: float = 1e-8) -> float:
    """Max relative error between analytic gradients and central differences
    of objective(params), perturbing one parameter at a time in place."""
    worst = 0.0
    for name, mat in params.matrices().items():
        amat = getattr(analytic, name)
        for idx in np.ndindex(mat.shape):
            orig = mat[idx]
            mat[idx] = orig + eps
            fp = objective(params)
            mat[idx] = orig - eps
            fm = objective(params)
            mat[idx] = orig
            fd = (fp - fm) / (2 * eps)
            worst = max(worst, abs(fd - amat[idx]) / max(abs(fd), abs(amat[idx]), floor))
    return worst


def finite_difference_check(params: ModelParams, input_ids, cond_tokens,
                            cells, eps: float = 1e-5) -> float:
    """Max relative error between backward() and central differences."""
    analytic = cells_gradient(params, [(input_ids, cond_tokens, cells)])

    def objective(p):
        return cells_objective(conditioned_log_probs(p, [input_ids], [cond_tokens])[0], cells)

    return central_difference_error(params, objective, analytic, eps)


def fit_step_targets(params: ModelParams, input_ids, target_rows,
                     iters: int = 1500, lr: float = 0.5) -> ModelParams:
    """Drive per-step output distributions toward soft targets by ascent.

    target_rows is a list of (cond_tokens, {step: {token: prob}}); each row's
    probabilities must sum to 1 so the fitted optimum is the target itself.
    Each iteration is one batched forward and backward over every cell of
    every row.
    """
    rows = [(input_ids, cond, cells) for cond, cells in target_rows]
    for _ in range(iters):
        params = apply_update(params, cells_gradient(params, rows), lr)
    return params


# Two-way ambiguity fixture: a model decoding one input into two candidate
# words with posteriors near 0.8 / 0.2, reference equal to the minority word.
AMBIG_VOCAB = (BOS, EOS, "know", "dunno")
KNOW, DUNNO = 2, 3


@pytest.fixture(scope="session")
def ambiguity_fixture():
    corpus = Corpus(
        samples=[Sample(id="ambig-0", input=(KNOW,), reference="dunno")],
        source_vocab_size=len(AMBIG_VOCAB),
        token_vocab=AMBIG_VOCAB,
    )
    params = random_params(4, len(AMBIG_VOCAB), len(AMBIG_VOCAB), seed=11, scale=0.1)
    eps_row = {0: 0.001, 1: 0.004, KNOW: 0.795, DUNNO: 0.2}
    eos_row = {0: 0.0005, 1: 0.9985, KNOW: 0.0005, DUNNO: 0.0005}
    params = fit_step_targets(
        params,
        input_ids=corpus.samples[0].input,
        target_rows=[
            ((0, KNOW), {0: eps_row, 1: eos_row}),
            ((0, DUNNO), {0: eps_row, 1: eos_row}),
        ],
    )
    return corpus, params


def fcm_fixed_nbest_check(params, corpus, sample, scorer,
                          beam_size: int = 4, max_len: int = 6,
                          eps: float = 1e-5) -> float:
    """Gradient check for the expected-score objective with a frozen N-best set.

    Consistency scores are constants; only the renormalized posteriors depend
    on the parameters.  The finite-difference oracle recomputes the raw
    sequence log probabilities and their softmax for every perturbation and
    is compared against backward() along each hypothesis's trajectory,
    weighted by its coefficient.
    """
    from fcmax.beam import beam_decode
    from fcmax.fcm import expected_consistency, fcm_coefficients

    nbest = beam_decode(params, sample.input, beam_size, max_len,
                        bos_id=corpus.bos_id, eos_id=corpus.eos_id)
    scored = expected_consistency(nbest, sample, scorer, corpus.token_vocab)
    n = len(nbest.hypotheses)
    scaled = scored.scaled[0, :n].tolist()
    hyps = [(h.tokens, h.finished) for h in nbest.hypotheses]

    paths = [trajectory(h.tokens, h.finished, corpus.bos_id, corpus.eos_id)
             for h in nbest.hypotheses]
    trace = forward_teacher(params, PaddedIds.of([sample.input] * n), PaddedIds.of(paths))
    analytic = backward(params, trace, fcm_coefficients(scored)[0, :n])

    def objective(p):
        logps = [
            sequence_log_prob(p, sample.input, toks, corpus.bos_id, corpus.eos_id,
                              include_eos=fin)
            for toks, fin in hyps
        ]
        posts = reference_posteriors(logps)
        return float(sum(q * s for q, s in zip(posts, scaled)))

    return central_difference_error(params, objective, analytic, eps, floor=1e-7)


class _ScriptedHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        self.server.requests.append((self.path, json.loads(body.decode("utf-8"))))
        if self.server.delay:
            time.sleep(self.server.delay)
        status, payload, raw = self.server.script(self.path, body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        if raw is not None:
            self.wfile.write(raw)
        else:
            self.wfile.write(json.dumps(payload).encode("utf-8"))

    def log_message(self, *args):
        pass


class ScriptedServer:
    """Tiny HTTP server whose responses are driven by a per-test callable.

    The script gets (path, request_body) and returns (status, payload, raw);
    raw bytes win over the JSON payload when both are given.
    """

    def __init__(self):
        self.httpd = HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
        self.httpd.requests = []
        self.httpd.delay = 0.0
        self.httpd.script = lambda path, body: (200, {}, None)
        # a short poll interval keeps shutdown() (one poll at most) fast
        self.thread = threading.Thread(target=self.httpd.serve_forever, args=(0.05,),
                                       daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}"

    @property
    def requests(self):
        return self.httpd.requests

    def respond(self, payload, status: int = 200, delay: float = 0.0):
        self.httpd.delay = delay
        self.httpd.script = lambda path, body: (status, payload, None)

    def respond_raw(self, raw: bytes, status: int = 200):
        self.httpd.delay = 0.0
        self.httpd.script = lambda path, body: (status, None, raw)

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def wire_server():
    server = ScriptedServer()
    yield server
    server.close()


class RawReplyServer:
    """Loopback TCP server that answers each connection with scripted raw bytes.

    ``actions`` holds one action per connection, the last one repeating: a
    list of byte segments, written one at a time after the request is read,
    or ``RESET``, which closes the connection with a TCP reset instead.
    With ``hold`` a connection stays open after its reply until the client
    closes it.  ``requests`` holds the raw request of each connection.
    """

    RESET = "reset"

    def __init__(self, *actions, hold: bool = False):
        self.actions, self.hold, self.requests = actions, hold, []
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.05)  # so the accept loop sees close() within one poll
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.sock.getsockname()
        return f"http://{host}:{port}"

    def _serve(self):
        while not self.stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except TimeoutError:
                continue
            with conn:
                try:
                    self._answer(conn)
                except OSError:
                    pass  # the client gave up first

    def _answer(self, conn):
        conn.settimeout(5.0)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        action = self.actions[min(len(self.requests), len(self.actions) - 1)]
        request = b""
        while not self._complete(request):
            chunk = conn.recv(65536)
            if not chunk:
                return
            request += chunk
        self.requests.append(request)
        if action == self.RESET:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            return
        for segment in action:
            conn.sendall(segment)
            if len(action) > 1:
                time.sleep(0.001)  # lets each segment leave on its own
        while self.hold and conn.recv(65536):
            pass

    @staticmethod
    def _complete(request: bytes) -> bool:
        head, end, body = request.partition(b"\r\n\r\n")
        length = re.search(rb"(?i)content-length: *(\d+)", head)
        return bool(end) and len(body) >= int(length.group(1) if length else 0)

    def close(self):
        self.stop.set()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()
        self.sock.close()


@pytest.fixture
def raw_server():
    """Builds ``RawReplyServer``s and closes each one after the test."""
    servers = []

    def make(*actions, hold: bool = False) -> RawReplyServer:
        servers.append(RawReplyServer(*actions, hold=hold))
        return servers[-1]

    yield make
    for server in servers:
        server.close()
