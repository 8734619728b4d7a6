"""Beam search decoding returning N-best hypotheses with raw log posteriors.

Scores are plain sums of per-step log probabilities (no length
normalization); the end-of-sequence step is part of the score so
the model defines a proper distribution over variable-length sequences.
Hypotheses that hit the length cap without emitting EOS are kept and marked
unfinished.  Ties are broken by lexicographic token order so results are
deterministic across platforms.

``beam_decode_batch`` pads its inputs once and checks them in input order,
so an input that cannot be decoded fails the batch with a ModelError naming
the first such input; ``beam_decode`` is its call on one input.  The inputs
are then sorted by length and cut into near-equal groups of at most
GROUP_PREFIXES // beam_size, and the N-best lists come back in input order.
A group is padded to its longest input, and that width alone fixes an
utterance's bits; its padded positions get -inf attention scores before the
softmax, so every utterance attends to exactly its own states
(``model._Decoder``).  Each utterance owns beam_size slots of the group's
(G, beam_size, d) state array, and each round advances every live prefix of
every utterance with one batched decoder step, giving (G, beam_size, V)
candidate scores in which BOS and unused slots score -inf.  Per utterance,
only candidates at or above its beam_size-th largest score (one
np.partition along each utterance's row) can survive.  The utterance's own
list of finished hypotheses takes that shortlist, is sorted in place by
(-score, tokens) and cut to beam_size, and its live survivors refill the
utterance's slots.  The shortlist is widened to every candidate tied with
the cut-off (a zero-parameter model ties them all), so order, tie-break and
beam 1 = greedy are those of sorting every candidate.  An utterance whose
prefixes have all finished leaves the group, so the arrays shrink as the
group decodes."""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .model import ModelError, ModelParams, PaddedIds, _checked, _Decoder
# Not called here any more, but the benchmark's tracer test checks that its
# wrapper replaces this binding too; it goes when that test is re-pointed.
from .model import forward_teacher  # noqa: F401


# Live prefixes of one decode group.  The per-round arrays hold this many
# rows, so peak memory grows with it, while a round's numpy calls cost about
# 50 us whatever the group's size, so larger groups take fewer rounds.  A
# group holds GROUP_PREFIXES // beam_size inputs (72 at beam 4), and at least
# one.  Its padded width fixes its utterances' bits, so another cap can
# change log-prob bits.
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
        if len({h.tokens for h in self.hypotheses}) < len(self.hypotheses):
            raise BeamError(f"duplicate hypothesis tokens in {[h.tokens for h in self.hypotheses]}")


def beam_decode(
    params: ModelParams,
    input_ids,
    beam_size: int,
    max_len: int,
    bos_id: int,
    eos_id: int,
) -> NBestList:
    """Beam search of one input: ``beam_decode_batch`` over a batch of one.
    Kept only because the benchmark's layer trace records it by name."""
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
    unfinished.  The inputs decode in groups of similar length (see the
    module docstring); an input that holds a non-id, is empty or holds an
    out-of-range id raises ``ModelError`` whose ``row`` is the position in
    ``inputs`` of the first input at fault.  A model whose non-finite entries
    leave an N-best list empty raises ``ModelParams.validate``'s ModelError,
    which names the matrix; the check runs only then.
    """
    if beam_size < 1:
        raise BeamError(f"beam size must be >= 1, got {beam_size}")
    if max_len < 1:
        raise BeamError(f"max length must be >= 1, got {max_len}")
    padded = _checked_inputs(params, inputs)
    order = np.argsort(padded.lengths, kind="stable")
    n_groups = -(-len(order) // max(1, GROUP_PREFIXES // beam_size))
    out: list = [None] * len(order)
    for g in range(n_groups):
        rows = order[g * len(order) // n_groups:(g + 1) * len(order) // n_groups]
        decoder = _Decoder(params, padded.take(rows))
        try:
            nbests = _decode_group(decoder, beam_size, max_len, bos_id, eos_id)
        except BeamError:  # an empty list: a non-finite model scores no candidate
            params.validate()
            raise
        for row, nbest in zip(rows.tolist(), nbests):
            out[row] = nbest
    return out


def _checked_inputs(params: ModelParams, inputs) -> PaddedIds:
    """The inputs padded together, refused with a ModelError naming the first
    input, in input order, that holds a non-id, is empty or holds an
    out-of-range id."""
    try:
        padded = PaddedIds.of(inputs)
    except ModelError as exc:
        _checked_inputs(params, inputs[:exc.row])  # an earlier input may be at fault
        raise
    return _checked(padded, params.source_vocab_size, "source", "empty input sequence")


def _decode_group(decoder: _Decoder, beam_size: int, max_len: int, bos_id: int,
                  eos_id: int) -> list[NBestList]:
    vocab, d = decoder.params.target_vocab_size, decoder.params.d

    # Per utterance, its ranked hypotheses as (-score, tokens, index into that
    # round's scores, or -1 once finished): tuple order is the beam's order,
    # best score first and ties by tokens.  Between rounds a list holds only
    # its finished hypotheses, as the live ones are in the slots.
    ranked: list[list[tuple[float, tuple[int, ...], int]]] = [[] for _ in decoder.values]
    # Group row g decodes the utterance whose list is pools[g], in `slots`
    # slots (one for the empty prefix in the first round, beam_size after):
    # slot r = g * slots + b holds prefix prefixes[r], state states[g, b],
    # score log_probs[g, b] and last token last[g, b].  Unused slots score -inf.
    pools = list(ranked)
    slots = 1
    states = np.zeros((len(pools), 1, d))
    log_probs = np.zeros((len(pools), 1, 1))  # trailing axis broadcasts over the vocabulary
    last = np.zeros((len(pools), 1), dtype=np.int64) + bos_id
    prefixes: tuple[tuple[int, ...], ...] = ((),) * len(pools)

    for round_ in range(max_len):
        scores, s_new = decoder.step(states, last)
        scores += log_probs
        scores[..., bos_id] = -np.inf  # BOS is never emitted
        # Per utterance, only scores at or above the beam_size-th best can
        # survive; >= keeps ties.
        per_row = scores.reshape(len(pools), -1)
        kth = max(per_row.shape[1] - beam_size, 0)
        # a copy, as a view would keep the whole partitioned copy alive
        cut = np.partition(per_row, kth, axis=1)[:, kth].copy()
        shortlist = (per_row >= cut[:, None]).ravel().nonzero()[0]
        for lp, at in zip(scores.ravel()[shortlist].tolist(), shortlist.tolist()):
            if lp == -inf:  # BOS or an unused slot, let in by a -inf cut
                continue
            slot, tok = divmod(at, vocab)
            if tok == eos_id:
                pools[slot // slots].append((-lp, prefixes[slot], -1))
            else:
                pools[slot // slots].append((-lp, prefixes[slot] + (tok,), at))
        keep, alive = [], []
        for g, hyps in enumerate(pools):
            hyps.sort()
            del hyps[beam_size:]
            live = [c for c in hyps if c[2] >= 0]
            if live and round_ < max_len - 1:
                keep.append(g)
                alive += live
                if len(live) < beam_size:
                    # an unused slot points at the BOS entry of slot 0, scored -inf
                    alive += [(inf, (), bos_id)] * (beam_size - len(live))
                if len(live) < len(hyps):
                    hyps[:] = [c for c in hyps if c[2] < 0]
                else:
                    hyps.clear()
        if not keep:
            break
        if len(keep) < len(pools):
            pools = [pools[g] for g in keep]
            decoder.select(keep)
        slots = beam_size
        shape = (len(pools), slots)
        _, prefixes, picked = zip(*alive)
        picked = np.array(picked)
        log_probs = scores.ravel()[picked].reshape(shape + (1,))
        rows, tokens = np.divmod(picked, vocab)
        states = s_new.reshape(-1, d)[rows].reshape(shape + (d,))
        last = tokens.reshape(shape)
        del scores, per_row, s_new  # not held through the next step

    # the lists are in order; live entries left in them were cut at max_len
    return [NBestList([Hypothesis(tokens=toks, log_prob=-cost, finished=at < 0)
                       for cost, toks, at in hyps], beam_size=beam_size)
            for hyps in ranked]
