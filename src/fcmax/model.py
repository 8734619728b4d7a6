"""A small attention encoder-decoder over discrete symbol sequences.

The decoder is a single tanh recurrence with bilinear attention over encoder
states.  The forward pass exposes per-step log output distributions along
token trajectories, each one id path (``trajectory``) whose step n consumes
path[n] and is scored on path[n + 1]; the backward pass takes one weight
per trajectory and returns the gradient of the weighted sum of the scored
ids' log probabilities.  Likelihood training puts a weight on each
reference path and consistency training puts one coefficient on each N-best
path, so sequence-level objectives are composed without knowing anything
about the network internals.  All arithmetic is float64.

Teacher forcing and beam search share one decoder, ``_Decoder``: its
``recur`` is one recurrence step and its ``readout`` the attention, context
and output of any number of states.  ``forward_teacher`` loops ``recur``
and reads the whole batch out at once; a beam-search step is
``readout(recur(...))`` on all live prefixes.  Backward carries only ds
step by step.

Shapes (d is the hidden width, row-vector convention):
    encoder states   H[t]   = tanh(src_emb[x_t] @ enc_proj)
    input terms      X      = tgt_emb @ dec_in
    decoder state    s_n    = tanh(X[y_n] + s_{n-1} @ dec_state)
    attention score  a_t    = (h_t @ attn) @ s_n
    context          c_n    = softmax(a) @ H
    log outputs      L[n]   = log_softmax((s_n + c_n) @ out_proj + out_bias)

``forward_teacher`` and ``backward`` take a batch of U trajectories, each
with its own input, id path and weight.  Inputs are padded at the end to the
longest, T, and paths to the longest, N + 1 ids for N steps: input ids are
(U, T), encoder states (U, T, d), log outputs (U, N, V), decoder states and
contexts (U, N, d) and attention weights (U, N, T).  Padding rule: padded
source positions get a -inf attention score before the softmax, so they get
exactly zero attention; a path's last id conditions no step, so the trace's
conditioning ids are 0 from its place on; padded steps get weight 0, so
backward writes exact zeros for them.

The model takes one batch form and one weight form.  Inputs and paths come
padded, as a ``PaddedIds`` (a (U, L) id array and the U lengths); weights
are a (U,) float64 array, one weight per trajectory, which all its steps
take.  A caller that draws batches from a fixed set of sequences, as
likelihood training does from its corpus, pads them once and passes
``take(rows)`` of each batch; others pad each batch with ``PaddedIds.of``.
Ids are checked on every call, on the padded arrays, and a ``ModelError``
about one trajectory or input names its batch row.

The parameters are one contiguous float64 vector, and ``ModelParams`` names
the eight matrices above as views into it, in MATRIX_NAMES order.  Gradients
are the same type: backward writes into the views of one zero vector, and an
update, copy or finiteness check is one operation on the whole vector.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import atomic_write_text, is_json_float, read_json

MATRIX_NAMES = (
    "src_emb", "tgt_emb", "enc_proj", "dec_in", "dec_state",
    "attn", "out_proj", "out_bias",
)


class ModelError(ValueError):
    """Parameters or a batch the model cannot use; ``row`` is the batch row at
    fault, or None when no single row is."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


@functools.lru_cache(maxsize=None)
def _layout(d: int, source_vocab_size: int, target_vocab_size: int):
    """The layout of the flat vector: its length, and each matrix's (name,
    start, stop, shape) in MATRIX_NAMES order.  Formed once per sizes, since
    every gradient and update builds a ``ModelParams``."""
    if min(d, source_vocab_size, target_vocab_size) < 1:
        raise ModelError(f"hidden width and vocabulary sizes must be >= 1, got d={d} "
                         f"source={source_vocab_size} target={target_vocab_size}")
    sv, tv = source_vocab_size, target_vocab_size
    shapes = (sv, d), (tv, d), (d, d), (d, d), (d, d), (d, d), (d, tv), (tv,)
    views, start = [], 0
    for name, shape in zip(MATRIX_NAMES, shapes):
        stop = start + math.prod(shape)
        views.append((name, start, stop, shape))
        start = stop
    return start, tuple(views)


def param_count(d: int, source_vocab_size: int, target_vocab_size: int) -> int:
    """Length of the flat parameter vector of a model of these sizes."""
    return _layout(d, source_vocab_size, target_vocab_size)[0]


class ModelParams:
    """Parameters, or parameter gradients: the float64 vector ``flat`` and the
    eight matrices as views into it, in MATRIX_NAMES order, with the shapes
    that ``sizes`` (d and the source and target vocabulary sizes) fix."""

    def __init__(self, flat: np.ndarray, d: int, source_vocab_size: int,
                 target_vocab_size: int) -> None:
        size, views = _layout(d, source_vocab_size, target_vocab_size)
        if flat.shape != (size,):
            raise ModelError(f"flat parameter vector has shape {flat.shape}, expected ({size},)")
        self.flat = flat
        self.sizes = (d, source_vocab_size, target_vocab_size)
        self.d, self.source_vocab_size, self.target_vocab_size = self.sizes
        for name, start, stop, shape in views:
            setattr(self, name, flat[start:stop].reshape(shape))

    def matrices(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in MATRIX_NAMES}

    def _like(self, flat: np.ndarray) -> "ModelParams":
        return ModelParams(flat, *self.sizes)

    def validate(self) -> None:
        """Raise ModelError naming the first matrix with a non-finite entry."""
        if not np.isfinite(self.flat).all():
            bad = next(name for name, mat in self.matrices().items() if not np.isfinite(mat).all())
            raise ModelError(f"non-finite entries in matrix {bad}")

    def copy(self) -> "ModelParams":
        return self._like(self.flat.copy())

    def zeros_like(self) -> "ModelParams":
        return self._like(np.zeros_like(self.flat))


def init_params(d: int, source_vocab_size: int, target_vocab_size: int, seed: int) -> ModelParams:
    """Uniform init in [-0.08, 0.08], deterministic in the seed."""
    rng = np.random.default_rng(np.uint64(seed))
    size = param_count(d, source_vocab_size, target_vocab_size)
    return ModelParams(rng.uniform(-0.08, 0.08, size=size), d, source_vocab_size,
                       target_vocab_size)


@dataclass
class ForwardTrace:
    """Per-step log distributions of U padded trajectories plus the
    activations backward needs."""

    log_probs: np.ndarray      # (U, N, V), rows are log-softmax outputs
    cond_tokens: np.ndarray    # (U, N), token that conditioned each step, 0 when padded
    target_tokens: np.ndarray  # (U, N), token each step is scored on, 0 when padded
    lengths: np.ndarray        # (U,), the real steps of each trajectory
    input_ids: np.ndarray      # (U, T), 0 when padded
    enc_states: np.ndarray     # (U, T, d), exact zeros on padded source positions
    states: np.ndarray         # (U, N, d), post-tanh decoder states
    attn_weights: np.ndarray   # (U, N, T), exactly 0 on padded source positions
    contexts: np.ndarray       # (U, N, d)


def trajectory(tokens, finished: bool, bos_id: int, eos_id: int) -> tuple[int, ...]:
    """The id path of a decoded path: BOS, its tokens and, when it finished,
    EOS.  Step n consumes path[n] and is scored on path[n + 1], so an
    unfinished path (cut at the length cap) has no EOS step and its last
    token conditions nothing.
    """
    return (bos_id, *map(int, tokens)) + ((eos_id,) if finished else ())


@dataclass(frozen=True)
class PaddedIds:
    """U id sequences as one (U, L) int64 array, padded with 0 at the end to
    the longest, L, and their (U,) int64 lengths.  Arrays that do not fit
    that shape raise ModelError; ``of`` and ``take`` build ones that do."""

    ids: np.ndarray
    lengths: np.ndarray

    def __post_init__(self) -> None:
        lengths = self.lengths.tolist()
        if (self.ids.dtype != np.int64 or self.lengths.dtype != np.int64
                or self.ids.shape != (len(lengths), max(lengths, default=0))
                or min(lengths, default=0) < 0):
            raise ModelError("padded ids must be a (U, L) int64 array and U int64 lengths >= 0 "
                             "whose longest is L")

    @classmethod
    def of(cls, seqs) -> "PaddedIds":
        """Pad a list of U id sequences; a sequence holding an item that is
        not an integer id (a float, a bool, a list, None) or an id outside
        int64 raises ModelError naming its row."""
        seqs = [list(ids) for ids in seqs]
        if not all(map(_is_id_type, set(map(type, chain.from_iterable(seqs))))):
            row = next(i for i, ids in enumerate(seqs)
                       if not all(_is_id_type(type(item)) for item in ids))
            raise ModelError(f"id sequence {row} holds an item that is not an integer id", row)
        lengths = [len(ids) for ids in seqs]
        width = max(lengths, default=0)
        rows = [ids + [0] * (width - n) for ids, n in zip(seqs, lengths)]
        try:
            ids = np.array(rows, dtype=np.int64).reshape(len(rows), width)
        except OverflowError:
            row = next(i for i, seq in enumerate(seqs)
                       if not all(-2**63 <= item < 2**63 for item in seq))
            raise ModelError(f"id sequence {row} holds an id outside int64", row) from None
        return cls(ids, np.array(lengths, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.lengths)

    def take(self, rows) -> "PaddedIds":
        """The given rows, cut to the longest of them: the arrays ``of``
        builds from those rows' sequences."""
        lengths = self.lengths[rows]
        return PaddedIds(self.ids[rows, :max(lengths.tolist(), default=0)], lengths)


def _is_id_type(kind: type) -> bool:
    """Whether items of this type are integer ids: Python and numpy integers,
    but not bool (numpy's bool is no numpy integer)."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _checked(batch, size: int, what: str, empty: str | None = None) -> PaddedIds:
    """batch, refused with a ModelError unless it is a PaddedIds whose ids are
    all in [0, size) and, when ``empty`` is the message for an empty
    sequence, whose sequences are all non-empty; the error names the first
    row at fault."""
    if not isinstance(batch, PaddedIds):
        raise ModelError(f"{what} ids must be a PaddedIds (PaddedIds.of pads a list of id "
                         f"sequences), got {type(batch).__name__}")
    # as uint64 a negative int64 id is above any size, so one max checks both ends
    if ((batch.ids.size and batch.ids.view(np.uint64).max() >= size)
            or (empty and not batch.lengths.all())):
        bad = ((batch.ids < 0) | (batch.ids >= size)).any(axis=1)
        if empty:
            bad |= batch.lengths == 0
        row = int(bad.argmax())
        # an empty row holds only padding, which is in range
        if batch.lengths[row]:
            raise ModelError(f"{what} index out of range for vocabulary of size {size}", row)
        raise ModelError(empty, row)
    return batch


def encode(params: ModelParams, input_ids: PaddedIds) -> np.ndarray:
    """Encoder states (U, T, d) of U padded inputs; an empty input or an
    out-of-range id raises ModelError naming the first such row."""
    src = _checked(input_ids, params.source_vocab_size, "source", "empty input sequence")
    return np.tanh(params.src_emb[src.ids] @ params.enc_proj)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """log_softmax over the last axis, written into z."""
    m = np.maximum.reduce(z, axis=-1, keepdims=True)
    shifted = z - m
    lse = np.add.reduce(np.exp(shifted, out=shifted), axis=-1, keepdims=True)
    np.log(lse, out=lse)
    lse += m
    z -= lse
    return z


class _Decoder:
    """The decoder of U padded inputs, formed once for all steps: the input-term
    table, the (U, T, d) encoder states (values), exact zeros on padded
    positions, the attention keys and the (U, 1, T) padding bias src_bias,
    -inf on padded positions (None when no input is padded), so they get
    exactly zero attention.  ``recur`` and ``readout`` take (U, N, d) states,
    N trajectory steps or beam prefixes per input.  An empty input or an
    out-of-range id raises ModelError naming its row.
    """

    def __init__(self, params: ModelParams, inputs: PaddedIds) -> None:
        self.params = params
        self.inputs = params.tgt_emb @ params.dec_in
        self.values = encode(params, inputs)
        self.src_bias = None
        width = inputs.ids.shape[1]
        if inputs.lengths.min(initial=width) < width:
            valid = np.arange(width) < inputs.lengths[:, None]
            self.values[~valid] = 0.0
            self.src_bias = np.where(valid, 0.0, -np.inf)[:, None, :]
        self.keys = (self.values @ params.attn).swapaxes(-1, -2)

    def select(self, rows: list[int]) -> None:
        """Keep only the given inputs."""
        self.values, self.keys = self.values[rows], self.keys[rows]
        if self.src_bias is not None:
            self.src_bias = self.src_bias[rows]

    def recur(self, s_prev: np.ndarray, x: np.ndarray, out: np.ndarray | None = None):
        """The states tanh(x + s_prev @ dec_state) of one step, given its
        input terms x (rows of ``inputs``), written into out when given."""
        s = np.matmul(s_prev, self.params.dec_state, out=out)
        s += x
        return np.tanh(s, out=s)

    def readout(self, states: np.ndarray):
        """(logits, alpha, context) of (U, N, d) states: attention over the
        (U, N, T) scores states @ keys, its context and the output logits,
        of shapes (U, N, V), (U, N, T) and (U, N, d)."""
        scores = states @ self.keys
        if self.src_bias is not None:
            scores += self.src_bias
        scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
        alpha = np.exp(scores, out=scores)
        alpha /= np.add.reduce(alpha, axis=-1, keepdims=True)
        context = alpha @ self.values
        logits = (states + context) @ self.params.out_proj
        logits += self.params.out_bias
        return logits, alpha, context

    def step(self, s_prev: np.ndarray, tokens):
        """One step from (G, B, d) states s_prev and (G, B) tokens; returns
        the (G, B, V) log outputs and the (G, B, d) states.  The attention and
        context are dropped before the log-softmax."""
        s = self.recur(s_prev, self.inputs[tokens])
        return _log_softmax(self.readout(s)[0]), s


def forward_teacher(params: ModelParams, input_ids, paths) -> ForwardTrace:
    """Teacher-forced forward pass of U trajectories at once.

    input_ids holds the U inputs and paths their U id paths (``trajectory``),
    both padded; every path id must be in the target vocabulary and every
    path needs a step, two ids.  Row n of trajectory u is the log
    distribution produced after consuming paths[u][n].  The recurrence runs step by step on time-major (U, d)
    rows, and the whole batch is read out at once, by the decoder that beam
    search steps (see the padding rule above).
    """
    # one flat pair of id sequences is a batch of one: the benchmark's tracer test passes one
    if not isinstance(input_ids, PaddedIds) and all(map(np.isscalar, input_ids)):
        input_ids, paths = PaddedIds.of([input_ids]), PaddedIds.of([paths])
    dec = _Decoder(params, input_ids)
    paths = _checked(paths, params.target_vocab_size, "target")
    if len(paths) != len(dec.values):
        raise ModelError(f"{len(dec.values)} inputs for {len(paths)} trajectories")
    if not len(paths):
        raise ModelError("no trajectories")
    steps = paths.lengths - 1
    if steps.min() < 1:
        raise ModelError("a path needs a step, two ids", int((steps < 1).argmax()))
    ids = paths.ids
    cond = np.where(np.arange(ids.shape[1] - 1) < steps[:, None], ids[:, :-1], 0)
    inputs = dec.inputs[cond.T]
    states = np.empty_like(inputs)
    s = np.zeros((len(paths), params.d))
    for x, out in zip(inputs, states):
        s = dec.recur(s, x, out=out)
    states = states.swapaxes(0, 1)
    logits, alphas, contexts = dec.readout(states)
    return ForwardTrace(log_probs=_log_softmax(logits), cond_tokens=cond,
                        target_tokens=ids[:, 1:], lengths=steps, input_ids=input_ids.ids,
                        enc_states=dec.values, states=states, attn_weights=alphas,
                        contexts=contexts)


def _id_sums(ids: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """(size, d) sums of the (..., d) rows that share an id in the matching
    (...) ids, as one one-hot product."""
    onehot = np.zeros((size, ids.size))
    onehot[ids.ravel(), np.arange(ids.size)] = 1.0
    return onehot @ rows.reshape(ids.size, -1)


def backward(params: ModelParams, trace: ForwardTrace, weights) -> ModelParams:
    """Gradients of F = sum over trajectories u and their steps n of
    weights[u] * log_output[u, n, path[u][n + 1]], summed over the batch.

    weights is a (U,) float64 array, one weight per trajectory of the trace,
    which holds the scored ids.  Padded steps get weight 0.  At each step the
    log-softmax Jacobian gives dF/dz = w * (onehot - p).  The readout's
    gradients are formed over the whole batch at once; only the state
    gradient is carried back step by step through the recurrence, on (U, d)
    rows.
    """
    n_traj, n_steps, v = trace.log_probs.shape
    if not (isinstance(weights, np.ndarray) and weights.dtype == np.float64
            and weights.shape == (n_traj,)):
        raise ModelError(f"weights must be a ({n_traj},) float64 array, one weight per "
                         "trajectory")
    if not np.isfinite(weights).all():
        raise ModelError("non-finite gradient weight")
    w = np.where(np.arange(n_steps) < trace.lengths[:, None], weights[:, None], 0.0)

    d = params.d
    H, S, A = trace.enc_states, trace.states, trace.attn_weights
    dz = np.exp(trace.log_probs)
    dz *= -w[..., None]
    dz.reshape(-1, v)[np.arange(w.size), trace.target_tokens.ravel()] += w.ravel()
    # readout: z = (s + c) @ out_proj + out_bias, c = alpha @ H, a_t = h_t @ attn @ s
    dc = dz @ params.out_proj.T
    dalpha = dc @ H.swapaxes(1, 2)
    da = A * (dalpha - (A * dalpha).sum(axis=-1, keepdims=True))
    ds_readout = dc + da @ (H @ params.attn)
    # recurrence: s_n = tanh(u_n @ dec_in + s_{n-1} @ dec_state), carried back
    # to front over time-major (N, U, d) arrays, so every step is contiguous
    states_t = S.swapaxes(0, 1)
    gate = 1.0 - states_t * states_t
    dq = np.empty_like(gate)
    ds_next = np.zeros((n_traj, d))
    dec_state_t = params.dec_state.T
    for ds, g, q in zip(np.ascontiguousarray(ds_readout.swapaxes(0, 1))[::-1], gate[::-1],
                        dq[::-1]):
        np.add(ds, ds_next, out=q)
        q *= g
        np.matmul(q, dec_state_t, out=ds_next)
    dH = A.swapaxes(1, 2) @ dc + da.swapaxes(1, 2) @ (S @ params.attn.T)
    dq_enc = dH * (1.0 - H * H)
    # sums of the step and source-position terms by token id
    g_tgt = _id_sums(trace.cond_tokens.T, dq, params.target_vocab_size)
    g_src = _id_sums(trace.input_ids, dq_enc, params.source_vocab_size)
    dz = dz.reshape(-1, v)
    g = params._like(np.empty_like(params.flat))  # every matrix is written below
    np.matmul(g_src, params.enc_proj.T, out=g.src_emb)
    np.matmul(g_tgt, params.dec_in.T, out=g.tgt_emb)
    np.matmul(params.src_emb.T, g_src, out=g.enc_proj)
    np.matmul(params.tgt_emb.T, g_tgt, out=g.dec_in)
    np.matmul(states_t[:-1].reshape(-1, d).T, dq[1:].reshape(-1, d), out=g.dec_state)
    np.matmul((da @ H).reshape(-1, d).T, S.reshape(-1, d), out=g.attn)
    np.matmul((S + trace.contexts).reshape(-1, d).T, dz, out=g.out_proj)
    dz.sum(axis=0, out=g.out_bias)
    return g


def apply_update(params: ModelParams, gradients: ModelParams, learning_rate: float) -> ModelParams:
    """Gradient-ascent step: theta + lr * grad, refusing a negative or
    non-finite learning rate and non-finite gradients.  Neither input changes."""
    if not 0 <= learning_rate < math.inf:
        raise ModelError(f"learning rate must be finite and >= 0, got {learning_rate}")
    if gradients.sizes != params.sizes:
        raise ModelError(f"gradients of (d, source, target) sizes {gradients.sizes} for "
                         f"parameters of sizes {params.sizes}")
    gradients.validate()
    # grad * lr + theta: the same bits as theta + lr * grad, one array fewer
    step = gradients.flat * learning_rate
    step += params.flat
    return params._like(step)


def _file_shape(shape: tuple[int, ...]) -> list[int]:
    """A matrix's shape as a checkpoint stores it: the bias vector is one row."""
    return list(shape) if len(shape) == 2 else [1, shape[0]]


def save_checkpoint(params: ModelParams, path) -> None:
    doc = {
        "version": 1,
        "d": params.d,
        "vocab_sizes": {
            "source": params.source_vocab_size,
            "target": params.target_vocab_size,
        },
        "matrices": {
            name: {"shape": _file_shape(mat.shape), "data": mat.ravel().tolist()}
            for name, mat in params.matrices().items()
        },
    }
    atomic_write_text(path, json.dumps(doc) + "\n")


def load_checkpoint(path) -> ModelParams:
    """Parameters from a checkpoint whose header (d and the vocabulary sizes)
    fixes every matrix's shape; a mismatch raises ModelError naming the field."""
    doc = read_json(path, ModelError)
    if not isinstance(doc, dict):
        raise ModelError(f"checkpoint must be a JSON object, got a JSON {type(doc).__name__}")
    if type(doc.get("version")) is not int or doc["version"] != 1:  # not true, not 1.0
        raise ModelError(f"unsupported checkpoint version {doc.get('version')!r}")
    vocab = doc["vocab_sizes"] if isinstance(doc.get("vocab_sizes"), dict) else {}
    header = {"d": doc.get("d"), "vocab_sizes.source": vocab.get("source"),
              "vocab_sizes.target": vocab.get("target")}
    for field, value in header.items():
        if type(value) is not int:
            raise ModelError(f"checkpoint field {field} must be an integer, got {value!r}")
    d, sv, tv = header.values()
    matrices = doc.get("matrices")
    size, views = _layout(d, sv, tv)
    for name, start, stop, shape in views:  # check all before allocating what the header asks
        entry = matrices.get(name) if isinstance(matrices, dict) else None
        if not isinstance(entry, dict):
            raise ModelError(f"checkpoint has no matrix {name}")
        want = _file_shape(shape)
        if entry.get("shape") != want or any(type(n) is not int for n in entry["shape"]):
            raise ModelError(f"matrix {name} has shape {entry.get('shape')!r}, but a header of "
                             f"d={d}, source={sv}, target={tv} needs {want}")
        data = entry.get("data")
        if not isinstance(data, list) or len(data) != stop - start:
            raise ModelError(f"matrix {name} must have a data list of {stop - start} entries")
        # a bool is an int to numpy, and an int past the float range would
        # overflow numpy's copy
        bad = next((i for i, v in enumerate(data) if not is_json_float(v)), None)
        if bad is not None:
            raise ModelError(f"matrix {name} entry {bad} must be a number in float range, "
                             f"got {data[bad]!r}")
    flat = np.empty(size)
    for name, start, stop, _ in views:
        flat[start:stop] = matrices[name]["data"]
    params = ModelParams(flat, d, sv, tv)
    params.validate()
    return params
