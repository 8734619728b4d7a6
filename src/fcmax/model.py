"""A small attention encoder-decoder over discrete symbol sequences.

The decoder is a single tanh recurrence with bilinear attention over encoder
states.  The forward pass exposes per-step log output distributions along a
token trajectory (see ``trajectory``); the backward pass takes one target
token and one weight per step and returns the gradient of the weighted sum
of the targets' log probabilities.  Likelihood training puts weight 1 on the
reference path and consistency training puts one coefficient on each N-best
path, so sequence-level objectives are composed without knowing anything
about the network internals.  All arithmetic is float64.

Only the recurrence loops over steps.  The readout (attention, context,
output) depends only on the states and H, so it runs on a whole trace or on
all live beam prefixes at once, and backward carries only ds step by step.

Shapes (d is the hidden width, row-vector convention):
    encoder states   H[t]   = tanh(src_emb[x_t] @ enc_proj)
    decoder state    s_n    = tanh(tgt_emb[y_n] @ dec_in + s_{n-1} @ dec_state)
    attention score  a_t    = h_t @ attn @ s_n
    context          c_n    = softmax(a) @ H
    log outputs      L[n]   = log_softmax((s_n + c_n) @ out_proj + out_bias)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

MATRIX_NAMES = (
    "src_emb", "tgt_emb", "enc_proj", "dec_in", "dec_state",
    "attn", "out_proj", "out_bias",
)


class ModelError(ValueError):
    pass


@dataclass
class ModelParams:
    """Parameter set; also used as the container for parameter gradients."""

    src_emb: np.ndarray
    tgt_emb: np.ndarray
    enc_proj: np.ndarray
    dec_in: np.ndarray
    dec_state: np.ndarray
    attn: np.ndarray
    out_proj: np.ndarray
    out_bias: np.ndarray

    @property
    def d(self) -> int:
        return self.enc_proj.shape[0]

    @property
    def source_vocab_size(self) -> int:
        return self.src_emb.shape[0]

    @property
    def target_vocab_size(self) -> int:
        return self.tgt_emb.shape[0]

    def matrices(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def validate(self) -> None:
        d = self.d
        expected = {
            "src_emb": (self.source_vocab_size, d),
            "tgt_emb": (self.target_vocab_size, d),
            "enc_proj": (d, d),
            "dec_in": (d, d),
            "dec_state": (d, d),
            "attn": (d, d),
            "out_proj": (d, self.target_vocab_size),
            "out_bias": (self.target_vocab_size,),
        }
        for name, mat in self.matrices().items():
            if mat.shape != expected[name]:
                raise ModelError(
                    f"matrix {name} has shape {mat.shape}, expected {expected[name]}"
                )
            if not np.all(np.isfinite(mat)):
                raise ModelError(f"matrix {name} contains non-finite entries")

    def copy(self) -> "ModelParams":
        return ModelParams(**{k: v.copy() for k, v in self.matrices().items()})

    def zeros_like(self) -> "ModelParams":
        return ModelParams(**{k: np.zeros_like(v) for k, v in self.matrices().items()})


def init_params(d: int, source_vocab_size: int, target_vocab_size: int, seed: int) -> ModelParams:
    """Uniform init in [-0.08, 0.08], deterministic in the seed."""
    if d < 1:
        raise ModelError(f"hidden width must be >= 1, got {d}")
    if source_vocab_size < 1 or target_vocab_size < 1:
        raise ModelError(
            f"vocabulary sizes must be >= 1, got source={source_vocab_size} "
            f"target={target_vocab_size}"
        )
    rng = np.random.default_rng(np.uint64(seed))

    def u(*shape):
        return rng.uniform(-0.08, 0.08, size=shape)

    return ModelParams(
        src_emb=u(source_vocab_size, d),
        tgt_emb=u(target_vocab_size, d),
        enc_proj=u(d, d),
        dec_in=u(d, d),
        dec_state=u(d, d),
        attn=u(d, d),
        out_proj=u(d, target_vocab_size),
        out_bias=u(target_vocab_size),
    )


@dataclass
class ForwardTrace:
    """Per-step log distributions plus the activations backward needs."""

    log_probs: np.ndarray      # (N, V), rows are log-softmax outputs
    cond_tokens: np.ndarray    # (N,), token that conditioned each step
    input_ids: np.ndarray      # (T,)
    enc_states: np.ndarray     # (T, d)
    states: np.ndarray         # (N, d), post-tanh decoder states
    attn_weights: np.ndarray   # (N, T)
    contexts: np.ndarray       # (N, d)

    @property
    def n_steps(self) -> int:
        return self.log_probs.shape[0]


def trajectory(tokens, finished: bool, bos_id: int, eos_id: int):
    """The (conditioning, target) token pair sequences of a decoded path.

    Step n consumes cond[n] and is scored on targets[n].  A finished path
    ends with an EOS target; an unfinished one (cut at the length cap) has
    no EOS step, so its last token conditions nothing.
    """
    tokens = tuple(int(t) for t in tokens)
    if finished:
        return (bos_id,) + tokens, tokens + (eos_id,)
    if not tokens:
        raise ModelError("an unfinished trajectory needs at least one token")
    return (bos_id,) + tokens[:-1], tokens


def _check_ids(ids: np.ndarray, size: int, what: str) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise ModelError(f"{what} index out of range for vocabulary of size {size}")


def encode(params: ModelParams, input_ids) -> np.ndarray:
    ids = np.asarray(input_ids, dtype=np.int64)
    if ids.size == 0:
        raise ModelError("empty input sequence")
    _check_ids(ids, params.source_vocab_size, "source")
    return np.tanh(params.src_emb[ids] @ params.enc_proj)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    return z - (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))


def _readout(params: ModelParams, enc_states: np.ndarray, states: np.ndarray):
    """Attention, context and output of (N, d) decoder states; returns
    (log_probs, alpha, context) of shapes (N, V), (N, T), (N, d)."""
    scores = (enc_states @ (params.attn @ states.T)).T
    scores = scores - scores.max(axis=-1, keepdims=True)
    alpha = np.exp(scores)
    alpha /= alpha.sum(axis=-1, keepdims=True)
    context = alpha @ enc_states
    logits = (states + context) @ params.out_proj + params.out_bias
    return _log_softmax(logits), alpha, context


def _step(params: ModelParams, enc_states: np.ndarray, s_prev: np.ndarray, tokens):
    """One decoder step of B prefixes; returns (log_probs, s, alpha, context).

    s_prev is (B, d) and tokens (B,); the outputs are (B, V), (B, d), (B, T)
    and (B, d).
    """
    s = np.tanh(params.tgt_emb[tokens] @ params.dec_in + s_prev @ params.dec_state)
    log_probs, alpha, context = _readout(params, enc_states, s)
    return log_probs, s, alpha, context


def forward_teacher(params: ModelParams, input_ids, target_ids) -> ForwardTrace:
    """Teacher-forced forward pass along a conditioning token sequence.

    Row n of the trace is the log distribution produced after consuming
    target_ids[n], the conditioning half of a ``trajectory``.  Only the
    recurrence runs step by step; the whole trace is read out at once.
    """
    cond = np.asarray(target_ids, dtype=np.int64)
    if cond.size == 0:
        raise ModelError("empty conditioning sequence")
    _check_ids(cond, params.target_vocab_size, "target")
    enc = encode(params, input_ids)
    emb = params.tgt_emb[cond]
    states = np.empty_like(emb)
    s = np.zeros(params.d)
    for step in range(cond.size):
        # input term per step: a whole-trace product reorders sums the recurrence amplifies
        s = states[step] = np.tanh(emb[step] @ params.dec_in + s @ params.dec_state)
    log_probs, alphas, contexts = _readout(params, enc, states)
    return ForwardTrace(
        log_probs=log_probs,
        cond_tokens=cond,
        input_ids=np.asarray(input_ids, dtype=np.int64),
        enc_states=enc,
        states=states,
        attn_weights=alphas,
        contexts=contexts,
    )


def backward(params: ModelParams, trace: ForwardTrace, targets, weights) -> ModelParams:
    """Parameter gradients of F = sum over steps n of w[n] * log_output[n, targets[n]].

    targets holds one token per trace row, the target half of a
    ``trajectory``; weights is one float for every step or an (N,) array.
    At each step the log-softmax Jacobian gives dF/dz = w * (onehot - p).
    The readout's gradients are formed over the whole trace at once; only
    the state gradient is carried back step by step through the recurrence.
    """
    n_steps, v = trace.log_probs.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n_steps,):
        raise ModelError(f"{targets.size} targets for a trace of {n_steps} steps")
    _check_ids(targets, v, "target")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape not in ((), (n_steps,)):
        raise ModelError(f"{w.size} weights for a trace of {n_steps} steps")
    if not np.all(np.isfinite(w)):
        raise ModelError("non-finite gradient weight")
    w = np.broadcast_to(w, (n_steps,))

    H, S, A = trace.enc_states, trace.states, trace.attn_weights
    dz = -w[:, None] * np.exp(trace.log_probs)
    dz[np.arange(n_steps), targets] += w
    # readout: z = (s + c) @ out_proj + out_bias, c = alpha @ H, a_t = h_t @ attn @ s
    dc = dz @ params.out_proj.T
    dalpha = dc @ H.T
    da = A * (dalpha - (A * dalpha).sum(axis=1, keepdims=True))
    ds_readout = dc + da @ (H @ params.attn)
    # recurrence: s_n = tanh(u_n @ dec_in + s_{n-1} @ dec_state), carried back to front
    gate = 1.0 - S * S
    dq = np.empty_like(S)
    ds_next = np.zeros(params.d)
    for n in range(n_steps - 1, -1, -1):
        dq[n] = (ds_readout[n] + ds_next) * gate[n]
        ds_next = dq[n] @ params.dec_state.T
    s_prev = np.vstack([np.zeros((1, params.d)), S[:-1]])
    dH = A.T @ dc + da.T @ (S @ params.attn.T)
    dq_enc = dH * (1.0 - H * H)
    tgt_emb = np.zeros_like(params.tgt_emb)
    np.add.at(tgt_emb, trace.cond_tokens, dq @ params.dec_in.T)
    src_emb = np.zeros_like(params.src_emb)
    np.add.at(src_emb, trace.input_ids, dq_enc @ params.enc_proj.T)
    return ModelParams(
        src_emb=src_emb, tgt_emb=tgt_emb,
        enc_proj=params.src_emb[trace.input_ids].T @ dq_enc,
        dec_in=params.tgt_emb[trace.cond_tokens].T @ dq, dec_state=s_prev.T @ dq,
        attn=(da @ H).T @ S, out_proj=(S + trace.contexts).T @ dz, out_bias=dz.sum(axis=0),
    )


def accumulate(total: ModelParams, part: ModelParams, scale: float = 1.0) -> None:
    """In-place total += scale * part over every matrix."""
    for name, mat in total.matrices().items():
        mat += scale * getattr(part, name)


def apply_update(params: ModelParams, gradients: ModelParams, learning_rate: float) -> ModelParams:
    """Gradient-ascent step: theta + lr * grad, refusing non-finite gradients."""
    if learning_rate < 0:
        raise ModelError(f"learning rate must be >= 0, got {learning_rate}")
    new = {}
    for name, mat in params.matrices().items():
        gmat = getattr(gradients, name)
        if gmat.shape != mat.shape:
            raise ModelError(
                f"gradient matrix {name} has shape {gmat.shape}, expected {mat.shape}"
            )
        if not np.all(np.isfinite(gmat)):
            raise ModelError(f"non-finite gradient entries in matrix {name}")
        new[name] = mat + learning_rate * gmat
    return ModelParams(**new)


def save_checkpoint(params: ModelParams, path) -> None:
    from .corpus import atomic_write_text

    doc = {
        "version": 1,
        "d": params.d,
        "vocab_sizes": {
            "source": params.source_vocab_size,
            "target": params.target_vocab_size,
        },
        "matrices": {
            name: {
                "shape": list(mat.shape) if mat.ndim == 2 else [1, mat.shape[0]],
                "data": [float(x) for x in mat.reshape(-1)],
            }
            for name, mat in params.matrices().items()
        },
    }
    atomic_write_text(path, json.dumps(doc) + "\n")


def load_checkpoint(path) -> ModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("version") != 1:
        raise ModelError(f"unsupported checkpoint version {doc.get('version')!r}")
    mats = {}
    for name in MATRIX_NAMES:
        entry = doc["matrices"][name]
        arr = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        if name == "out_bias":
            arr = arr.reshape(-1)
        mats[name] = arr
    params = ModelParams(**mats)
    params.validate()
    return params
