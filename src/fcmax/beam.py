"""Beam search decoding returning N-best hypotheses with raw log posteriors.

Scores are plain sums of per-step log probabilities (no length
normalization); the end-of-sequence step is part of the score so
the model defines a proper distribution over variable-length sequences.
Hypotheses that hit the length cap without emitting EOS are kept and marked
unfinished.  Ties are broken by lexicographic token order so results are
deterministic across platforms.

Each round advances every live prefix with one row-batched decoder step,
giving a (live, V) array of candidate scores.  Only candidates at or above
the beam_size-th largest score can survive, so the exact (-score, tokens)
sort runs over the finished hypotheses plus that shortlist.  The shortlist
is widened to every candidate tied with the cut-off (a zero-parameter model
ties them all), so order, tie-break and beam 1 = greedy are those of
sorting every candidate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, encode, forward_teacher, trajectory, _step


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
    """Standard beam search over the token vocabulary.

    Each round every live prefix is extended by one token (BOS is never
    emitted; EOS finishes a prefix) and the union of finished and live
    hypotheses is pruned to beam_size, so beam_size=1 reproduces greedy
    decoding exactly.  Prefixes still live after max_len tokens are returned
    unfinished.
    """
    if beam_size < 1:
        raise BeamError(f"beam size must be >= 1, got {beam_size}")
    if max_len < 1:
        raise BeamError(f"max length must be >= 1, got {max_len}")
    enc = encode(params, input_ids)

    # live prefix i: decoder state states[i], score log_probs[i], tokens prefixes[i]
    states = np.zeros((1, params.d))
    log_probs = np.zeros(1)
    prefixes: list[tuple[int, ...]] = [()]
    done: list[tuple[float, tuple[int, ...]]] = []

    for _ in range(max_len):
        if not prefixes:
            break
        last = [toks[-1] if toks else bos_id for toks in prefixes]
        logp, s_new, _, _ = _step(params, enc, states, last)
        scores = log_probs[:, None] + logp
        scores[:, bos_id] = -np.inf  # BOS is never emitted
        flat = scores.ravel()
        # only scores at or above the beam_size-th best can survive; >= keeps ties
        k = min(beam_size, flat.size)
        cut = np.partition(flat, flat.size - k)[flat.size - k]
        shortlist = scores >= cut
        shortlist[:, bos_id] = False  # the cut is -inf with fewer than k real candidates
        rows, cols = np.nonzero(shortlist)
        # (score, tokens, live row or -1 when finished), ordered exactly
        candidates = [(lp, toks, -1) for lp, toks in done]
        for lp, r, tok in zip(scores[rows, cols].tolist(), rows.tolist(), cols.tolist()):
            if tok == eos_id:
                candidates.append((lp, prefixes[r], -1))
            else:
                candidates.append((lp, prefixes[r] + (tok,), r))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        kept = candidates[:beam_size]
        done = [(lp, toks) for lp, toks, r in kept if r < 0]
        live = [c for c in kept if c[2] >= 0]
        states = s_new[[r for _, _, r in live]]
        log_probs = np.array([lp for lp, _, _ in live])
        prefixes = [toks for _, toks, _ in live]

    final = [Hypothesis(tokens=toks, log_prob=lp, finished=True) for lp, toks in done]
    final.extend(
        Hypothesis(tokens=toks, log_prob=lp, finished=False)
        for lp, toks in zip(log_probs.tolist(), prefixes)
    )
    final.sort(key=lambda h: (-h.log_prob, h.tokens))
    return NBestList(final[:beam_size], beam_size=beam_size)


def sequence_log_prob(params: ModelParams, input_ids, tokens, bos_id: int, eos_id: int,
                      include_eos: bool = True) -> float:
    """Raw log posterior of a token sequence, EOS step included by default."""
    cond, targets = trajectory(tokens, include_eos, bos_id, eos_id)
    trace = forward_teacher(params, input_ids, cond)
    return float(trace.log_probs[np.arange(len(targets)), targets].sum())
