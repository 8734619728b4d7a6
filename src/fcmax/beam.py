"""Beam search decoding returning N-best hypotheses with raw log posteriors.

Scores are plain sums of per-step log probabilities (no length
normalization); the end-of-sequence step is part of the score so
the model defines a proper distribution over variable-length sequences.
Hypotheses that hit the length cap without emitting EOS are kept and marked
unfinished.  Ties are broken by lexicographic token order so results are
deterministic across platforms.

``beam_decode_batch`` cuts its inputs into blocks of GROUP_SIZE, in input
order, and ``beam_decode`` is its call on one input.  A block's longest
input is the padded width of all its inputs, and that width alone fixes an
utterance's bits: blocks of one width decode together, in near-equal groups
of whole blocks under a cap of GROUP_PREFIXES live prefixes, and the N-best
lists come back in input order.  A group checks and encodes its padded
inputs in one call and sets the attention scores of the padded positions to
-inf before the softmax, so every utterance attends to exactly its own
states (``model._Decoder``); an input that cannot be encoded fails the
batch with a ModelError naming the first such input.  Each utterance owns
beam_size slots of the group's (G, beam_size, d) state array, and each round
advances every live prefix of every utterance with one batched decoder
step, giving (G, beam_size, V) candidate scores in which BOS and unused
slots score -inf.  Per utterance, only candidates at or above its
beam_size-th largest score (one np.partition along each utterance's row)
can survive, so the exact (-score, tokens) sort runs over its finished
hypotheses plus that shortlist.  The shortlist is widened to every
candidate tied with the cut-off (a zero-parameter model ties them all), so
order, tie-break and beam 1 = greedy are those of sorting every candidate.
An utterance whose prefixes have all finished leaves the group, so the
arrays shrink as the group decodes."""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .model import ModelError, ModelParams, PaddedIds, _Decoder, encode
# Not called here any more, but the benchmark's tracer test checks that its
# wrapper replaces this binding too; it goes when that test is re-pointed.
from .model import forward_teacher  # noqa: F401


# Inputs padded together.  A block of GROUP_SIZE inputs, in input order, is
# padded to its longest input, and the attention reductions run over that
# padded width, so the blocks fix the result: another block size pads some
# inputs to another width and can change log-prob bits (on the seed-7 dev
# set at beam 1, blocks of 256 and 24 decode the same tokens with different
# log-prob bits).  How many blocks of one width decode together does not
# change a bit, so they share decoder rounds: a round's numpy calls cost
# about 50 us whatever the group's size.
GROUP_SIZE = 24
# Live prefixes of one decode group: the per-round arrays hold this many
# rows, so peak memory grows with it.  Blocks of one width merge while the
# group stays under it (three blocks at beam 4); a block alone may exceed it.
GROUP_PREFIXES = 288


class BeamError(ValueError):
    pass


@dataclass(frozen=True)
class Hypothesis:
    """A decoded token sequence (no BOS, no EOS) and its raw log posterior."""

    tokens: tuple[int, ...]
    log_prob: float
    finished: bool = True


@dataclass
class NBestList:
    hypotheses: list[Hypothesis]
    beam_size: int

    def __post_init__(self) -> None:
        if not 1 <= len(self.hypotheses) <= self.beam_size:
            raise BeamError(
                f"N-best list holds {len(self.hypotheses)} hypotheses for beam size "
                f"{self.beam_size}"
            )
        seen = set()
        for h in self.hypotheses:
            if h.tokens in seen:
                raise BeamError(f"duplicate hypothesis tokens {h.tokens}")
            seen.add(h.tokens)

    def top(self, n: int) -> "NBestList":
        return NBestList(self.hypotheses[:n], beam_size=self.beam_size)


def beam_decode(
    params: ModelParams,
    input_ids,
    beam_size: int,
    max_len: int,
    bos_id: int,
    eos_id: int,
) -> NBestList:
    """Beam search of one input: ``beam_decode_batch`` over a batch of one."""
    return beam_decode_batch(params, [input_ids], beam_size, max_len, bos_id, eos_id)[0]


def beam_decode_batch(
    params: ModelParams,
    inputs,
    beam_size: int,
    max_len: int,
    bos_id: int,
    eos_id: int,
) -> list[NBestList]:
    """Standard beam search over the token vocabulary, one N-best list per input.

    Each round every live prefix is extended by one token (BOS is never
    emitted; EOS finishes a prefix) and the union of finished and live
    hypotheses is pruned to beam_size, so beam_size=1 reproduces greedy
    decoding exactly.  Prefixes still live after max_len tokens are returned
    unfinished.  The inputs are padded in blocks of GROUP_SIZE and decoded in
    groups of equal-width blocks (see the module docstring); an empty input or
    an out-of-range id raises ``ModelError`` whose ``row`` is the position in
    ``inputs`` of the first input at fault.
    """
    if beam_size < 1:
        raise BeamError(f"beam size must be >= 1, got {beam_size}")
    if max_len < 1:
        raise BeamError(f"max length must be >= 1, got {max_len}")
    out: list = [None] * len(inputs)
    try:
        for rows, ids in _width_groups(inputs, beam_size):
            decoder = _Decoder(params, ids)
            for row, nbest in zip(rows, _decode_group(decoder, beam_size, max_len, bos_id,
                                                      eos_id)):
                out[row] = nbest
    except ModelError:
        # groups decode out of input order, so find the first input at fault
        _raise_first_fault(params, inputs)
        raise
    return out


def _width_groups(inputs, beam_size: int):
    """(input positions, padded ids) of each decode group: the GROUP_SIZE
    blocks of inputs by padded width, in order of each width's first block,
    and the blocks of one width in near-equal runs of whole blocks, at most
    GROUP_PREFIXES // (GROUP_SIZE * beam_size) blocks (and at least one) per
    run.  Every block holds an input of its width, so a run pads to it."""
    widths: dict[int, list[tuple[int, PaddedIds]]] = {}
    for at in range(0, len(inputs), GROUP_SIZE):
        block = PaddedIds.of(inputs[at:at + GROUP_SIZE])
        widths.setdefault(block.ids.shape[1], []).append((at, block))
    per_group = max(1, GROUP_PREFIXES // (GROUP_SIZE * beam_size))
    for blocks in widths.values():
        n_groups = -(-len(blocks) // per_group)
        for g in range(n_groups):
            run = blocks[g * len(blocks) // n_groups:(g + 1) * len(blocks) // n_groups]
            yield ([at + i for at, block in run for i in range(len(block))],
                   PaddedIds(np.concatenate([block.ids for _, block in run]),
                             np.concatenate([block.lengths for _, block in run])))


def _raise_first_fault(params: ModelParams, inputs) -> None:
    """Raise the ModelError of the first input that cannot be padded or
    encoded: the GROUP_SIZE blocks are checked in input order."""
    for at in range(0, len(inputs), GROUP_SIZE):
        try:
            encode(params, PaddedIds.of(inputs[at:at + GROUP_SIZE]))
        except ModelError as exc:  # a block's row is never None
            raise ModelError(str(exc), exc.row + at) from exc


def _decode_group(decoder: _Decoder, beam_size: int, max_len: int, bos_id: int,
                  eos_id: int) -> list[NBestList]:
    vocab, d = decoder.params.target_vocab_size, decoder.params.d

    # Group row g decodes utterance owner[g] in `slots` slots (one for the
    # empty prefix in the first round, beam_size after): slot
    # r = g * slots + b holds prefix prefixes[r], state states[g, b], score
    # log_probs[g, b] and last token last[g, b].  Unused slots score -inf.
    owner = list(range(len(decoder.values)))
    slots = 1
    states = np.zeros((len(owner), 1, d))
    log_probs = np.zeros((len(owner), 1, 1))  # trailing axis broadcasts over the vocabulary
    last = np.zeros((len(owner), 1), dtype=np.int64) + bos_id
    prefixes: list[tuple[int, ...]] = [()] * len(owner)
    # Per utterance, the latest ranking of (-score, tokens, index into that
    # round's scores, or -1 once finished): tuple order is the beam's order,
    # best score first and ties by tokens.
    ranking: list[list[tuple[float, tuple[int, ...], int]]] = [[] for _ in owner]

    for round_ in range(max_len):
        # only the scores and states: the rest of a step would live a round longer
        scores, s_new = decoder.step(states, last)[:2]
        scores += log_probs
        scores[..., bos_id] = -np.inf  # BOS is never emitted
        # Per utterance, only scores at or above the beam_size-th best can
        # survive; >= keeps ties.
        per_row = scores.reshape(len(owner), -1)
        kth = max(per_row.shape[1] - beam_size, 0)
        # a copy, as a view would keep the whole partitioned copy alive
        cut = np.partition(per_row, kth, axis=1)[:, kth].copy()
        shortlist = (per_row >= cut[:, None]).ravel().nonzero()[0]
        candidates: list[list] = [[] for _ in owner]
        for lp, at in zip(scores.ravel()[shortlist].tolist(), shortlist.tolist()):
            if lp == -inf:  # BOS or an unused slot, let in by a -inf cut
                continue
            slot, tok = divmod(at, vocab)
            if tok == eos_id:
                candidates[slot // slots].append((-lp, prefixes[slot], -1))
            else:
                candidates[slot // slots].append((-lp, prefixes[slot] + (tok,), at))
        keep, picked, prefixes = [], [], []
        for g, u in enumerate(owner):
            finished = [c for c in ranking[u] if c[2] < 0]
            ranking[u] = sorted(finished + candidates[g])[:beam_size]
            live = [c for c in ranking[u] if c[2] >= 0]
            if live:
                keep.append(g)
                # an unused slot points at the BOS entry of slot 0, scored -inf
                picked += [at for _, _, at in live] + [bos_id] * (beam_size - len(live))
                prefixes += [toks for _, toks, _ in live] + [()] * (beam_size - len(live))
        if not keep or round_ == max_len - 1:
            break
        if len(keep) < len(owner):
            owner = [owner[g] for g in keep]
            decoder.select(keep)
        slots = beam_size
        shape = (len(owner), slots)
        picked = np.array(picked)
        log_probs = scores.ravel()[picked].reshape(shape + (1,))
        rows, tokens = np.divmod(picked, vocab)
        states = s_new.reshape(-1, d)[rows].reshape(shape + (d,))
        last = tokens.reshape(shape)
        del scores, per_row, s_new  # not held through the next step

    # the last ranking is in order; its live entries were cut at max_len
    return [NBestList([Hypothesis(tokens=toks, log_prob=-cost, finished=at < 0)
                       for cost, toks, at in hyps], beam_size=beam_size)
            for hyps in ranking]

