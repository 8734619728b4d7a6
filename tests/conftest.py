"""Shared fixtures: random models, gradient-check harness, a fitted two-way
ambiguity fixture, a scriptable in-process HTTP server for wire tests, and
the reference helpers (parameter comparison, N-best consistency check,
corpus NLL, per-prefix beam search, per-step teacher forcing and backward)
that only tests use."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fcmax.beam import Hypothesis, NBestList, sequence_log_prob
from fcmax.corpus import BOS, EOS, Corpus, Sample
from fcmax.model import (
    ForwardTrace, ModelParams, _log_softmax, _step, accumulate, apply_update, backward,
    encode, forward_teacher, trajectory,
)

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")


def random_params(d: int, src_vocab: int, tgt_vocab: int, seed: int,
                  scale: float = 0.6) -> ModelParams:
    """Random weights big enough that every parameter visibly moves the output."""
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-scale, scale, size=shape)

    return ModelParams(
        src_emb=u(src_vocab, d), tgt_emb=u(tgt_vocab, d),
        enc_proj=u(d, d), dec_in=u(d, d), dec_state=u(d, d), attn=u(d, d),
        out_proj=u(d, tgt_vocab), out_bias=u(tgt_vocab),
    )


def params_allclose(a: ModelParams, b: ModelParams) -> bool:
    return all(
        np.allclose(mat, getattr(b, name), rtol=0.0, atol=0.0)
        for name, mat in a.matrices().items()
    )


def validate_scored(scored) -> None:
    """A scored N-best list's posteriors sum to 1 and give its expectation."""
    posteriors = np.array([h.posterior for h in scored.hypotheses])
    assert abs(posteriors.sum() - 1.0) <= 1e-9 and np.all(posteriors > 0), (
        "normalized posteriors must be positive and sum to 1")
    expected = float(sum(h.posterior * h.scaled_score for h in scored.hypotheses))
    assert abs(expected - scored.expected_score) <= 1e-9, (
        f"expected score {scored.expected_score} inconsistent with hypothesis set "
        f"(recomputed {expected})")


def corpus_nll(params: ModelParams, corpus: Corpus) -> float:
    """Total teacher-forced negative log likelihood over a corpus."""
    return -sum(
        sequence_log_prob(params, s.input, corpus.reference_ids(s), corpus.bos_id, corpus.eos_id)
        for s in corpus.samples
    )


def reference_beam_decode(params: ModelParams, input_ids, beam_size: int, max_len: int,
                          bos_id: int, eos_id: int) -> NBestList:
    """Per-prefix beam search: one 1-D decoder step per live prefix, and every
    (score, tokens) candidate of the round sorted in full.  The oracle for
    the row-batched ``beam_decode``."""
    enc = encode(params, input_ids)
    live: list[tuple[tuple[int, ...], float, np.ndarray]] = [((), 0.0, np.zeros(params.d))]
    done: list[tuple[float, tuple[int, ...]]] = []
    for _ in range(max_len):
        if not live:
            break
        candidates = [(lp, toks, None, True) for lp, toks in done]
        for toks, lp, s in live:
            logp, s_new, _, _ = _step(params, enc, s[None], [toks[-1] if toks else bos_id])
            logp, s_new = logp[0], s_new[0]
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


def reference_forward_teacher(params: ModelParams, input_ids, target_ids) -> ForwardTrace:
    """Per-step teacher forcing: the recurrence and the readout of one 1-D
    state at a time.  The oracle for the whole-trace ``forward_teacher``."""
    cond = np.asarray(target_ids, dtype=np.int64)
    enc = encode(params, input_ids)
    n, d, v = cond.size, params.d, params.target_vocab_size
    log_probs, states = np.empty((n, v)), np.empty((n, d))
    alphas, contexts = np.empty((n, enc.shape[0])), np.empty((n, d))
    s = np.zeros(d)
    for step in range(n):
        s = np.tanh(params.tgt_emb[cond[step]] @ params.dec_in + s @ params.dec_state)
        scores = enc @ (params.attn @ s)
        alpha = np.exp(scores - scores.max())
        alpha /= alpha.sum()
        context = alpha @ enc
        log_probs[step] = _log_softmax((s + context) @ params.out_proj + params.out_bias)
        states[step], alphas[step], contexts[step] = s, alpha, context
    return ForwardTrace(log_probs=log_probs, cond_tokens=cond,
                        input_ids=np.asarray(input_ids, dtype=np.int64), enc_states=enc,
                        states=states, attn_weights=alphas, contexts=contexts)


def reference_backward(params: ModelParams, trace: ForwardTrace, targets, weights) -> ModelParams:
    """Per-step backward: every gradient term accumulated one step at a time,
    back to front.  The oracle for the whole-trace ``backward``."""
    n_steps = trace.log_probs.shape[0]
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), (n_steps,))
    g = params.zeros_like()
    H = trace.enc_states
    HA = H @ params.attn
    dH = np.zeros_like(H)
    ds_next = np.zeros(params.d)
    for n in range(n_steps - 1, -1, -1):
        s, c, alpha = trace.states[n], trace.contexts[n], trace.attn_weights[n]
        dz = -w[n] * np.exp(trace.log_probs[n])
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
        u = params.tgt_emb[trace.cond_tokens[n]]
        s_prev = trace.states[n - 1] if n > 0 else np.zeros(params.d)
        g.dec_in += u[:, None] * dq
        g.dec_state += s_prev[:, None] * dq
        np.add.at(g.tgt_emb, trace.cond_tokens[n], dq @ params.dec_in.T)
        ds_next = dq @ params.dec_state.T
    dq_enc = dH * (1.0 - H * H)
    g.enc_proj += params.src_emb[trace.input_ids].T @ dq_enc
    np.add.at(g.src_emb, trace.input_ids, dq_enc @ params.enc_proj.T)
    return g


def cell_terms(n_steps: int, cells: dict[int, dict[int, float]]) -> list:
    """Write {step: {token: weight}} as a sum of (targets, weights) terms.

    backward takes one target per step, so the k-th cell of every step goes
    into term k; a step with fewer cells gets weight 0 in the later terms.
    """
    per_step = [sorted(cells.get(n, {}).items()) for n in range(n_steps)]
    terms = []
    for k in range(max(map(len, per_step))):
        picked = [cs[k] if k < len(cs) else (0, 0.0) for cs in per_step]
        terms.append(([t for t, _ in picked], np.array([w for _, w in picked])))
    return terms


def terms_backward(params: ModelParams, trace, terms) -> ModelParams:
    total = params.zeros_like()
    for targets, weights in terms:
        accumulate(total, backward(params, trace, targets, weights))
    return total


def terms_objective(trace, terms) -> float:
    """The function terms_backward differentiates: sum of w[n] * log L[n, t[n]]."""
    return sum(
        float(w) * trace.log_probs[n, t]
        for targets, weights in terms
        for n, (t, w) in enumerate(zip(targets, np.broadcast_to(weights, len(targets))))
    )


def finite_difference_check(params: ModelParams, input_ids, cond_tokens,
                            terms, eps: float = 1e-5) -> float:
    """Max relative error between backward() and central differences."""
    analytic = terms_backward(params, forward_teacher(params, input_ids, cond_tokens), terms)

    def objective(p):
        return terms_objective(forward_teacher(p, input_ids, cond_tokens), terms)

    worst = 0.0
    for name, mat in params.matrices().items():
        amat = getattr(analytic, name)
        it = np.nditer(mat, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = mat[idx]
            mat[idx] = orig + eps
            fp = objective(params)
            mat[idx] = orig - eps
            fm = objective(params)
            mat[idx] = orig
            fd = (fp - fm) / (2 * eps)
            rel = abs(fd - amat[idx]) / max(abs(fd), abs(amat[idx]), 1e-8)
            worst = max(worst, rel)
    return worst


def fit_step_targets(params: ModelParams, input_ids, target_rows,
                     iters: int = 1500, lr: float = 0.5) -> ModelParams:
    """Drive per-step output distributions toward soft targets by ascent.

    target_rows is a list of (cond_tokens, {step: {token: prob}}); each row's
    probabilities must sum to 1 so the fitted optimum is the target itself.
    """
    for _ in range(iters):
        total = params.zeros_like()
        for cond, rowspec in target_rows:
            trace = forward_teacher(params, input_ids, cond)
            accumulate(total, terms_backward(params, trace, cell_terms(len(cond), rowspec)))
        params = apply_update(params, total, lr)
    return params


# Two-way ambiguity fixture: a model decoding one input into two candidate
# words with posteriors near 0.8 / 0.2, reference equal to the minority word.
AMBIG_VOCAB = (BOS, EOS, "know", "dunno")
KNOW, DUNNO = 2, 3


@pytest.fixture(scope="session")
def ambiguity_fixture():
    corpus = Corpus(
        samples=[Sample(id="ambig-0", input=(KNOW,), reference="dunno", ref_word_count=1)],
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
    from fcmax.fcm import expected_consistency, fcm_coefficients, normalize_posteriors

    nbest = beam_decode(params, sample.input, beam_size, max_len,
                        bos_id=corpus.bos_id, eos_id=corpus.eos_id)
    scored = expected_consistency(nbest, sample, scorer, corpus.token_vocab)
    scaled = [h.scaled_score for h in scored.hypotheses]
    hyps = [(h.tokens, h.finished) for h in scored.hypotheses]

    analytic = params.zeros_like()
    for hyp, coeff in zip(scored.hypotheses, fcm_coefficients(scored)):
        cond, targets = trajectory(hyp.tokens, hyp.finished, corpus.bos_id, corpus.eos_id)
        trace = forward_teacher(params, sample.input, cond)
        accumulate(analytic, backward(params, trace, targets, coeff))

    def objective(p):
        logps = [
            sequence_log_prob(p, sample.input, toks, corpus.bos_id, corpus.eos_id,
                              include_eos=fin)
            for toks, fin in hyps
        ]
        posts = normalize_posteriors(logps)
        return float(sum(q * s for q, s in zip(posts, scaled)))

    worst = 0.0
    for name, mat in params.matrices().items():
        amat = getattr(analytic, name)
        it = np.nditer(mat, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = mat[idx]
            mat[idx] = orig + eps
            fp = objective(params)
            mat[idx] = orig - eps
            fm = objective(params)
            mat[idx] = orig
            fd = (fp - fm) / (2 * eps)
            rel = abs(fd - amat[idx]) / max(abs(fd), abs(amat[idx]), 1e-7)
            worst = max(worst, rel)
    return worst


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
