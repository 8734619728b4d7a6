"""Beam search decoding returning N-best hypotheses with raw log posteriors.

Scores are plain sums of per-step log probabilities (no length
normalization); the end-of-sequence step is part of the score so
the model defines a proper distribution over variable-length sequences.
Hypotheses that hit the length cap without emitting EOS are kept and marked
unfinished.  Ties are broken by lexicographic token order so results are
deterministic across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, forward_teacher, init_decode_state, trajectory, _step


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
    state0 = init_decode_state(params, input_ids)

    # (tokens, log_prob, recurrent state); all live prefixes share enc_states.
    live: list[tuple[tuple[int, ...], float, np.ndarray]] = [((), 0.0, state0.state)]
    done: list[tuple[float, tuple[int, ...]]] = []
    vocab = params.target_vocab_size

    for _ in range(max_len):
        if not live:
            break
        candidates: list[tuple[float, tuple[int, ...], np.ndarray | None, bool]] = [
            (lp, toks, None, True) for lp, toks in done
        ]
        for toks, lp, s in live:
            prev = toks[-1] if toks else bos_id
            logp, s_new, _, _ = _step(params, state0.enc_states, s, prev)
            for tok in range(vocab):
                if tok == bos_id:
                    continue
                score = lp + logp[tok]
                if tok == eos_id:
                    candidates.append((score, toks, None, True))
                else:
                    candidates.append((score, toks + (tok,), s_new, False))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        kept = candidates[:beam_size]
        done = [(lp, toks) for lp, toks, _, fin in kept if fin]
        live = [(toks, lp, s) for lp, toks, s, fin in kept if not fin]

    final: list[Hypothesis] = [
        Hypothesis(tokens=toks, log_prob=lp, finished=True) for lp, toks in done
    ]
    final.extend(
        Hypothesis(tokens=toks, log_prob=lp, finished=False) for toks, lp, _ in live
    )
    final.sort(key=lambda h: (-h.log_prob, h.tokens))
    return NBestList(final[:beam_size], beam_size=beam_size)


def sequence_log_prob(params: ModelParams, input_ids, tokens, bos_id: int, eos_id: int,
                      include_eos: bool = True) -> float:
    """Raw log posterior of a token sequence, EOS step included by default."""
    cond, targets = trajectory(tokens, include_eos, bos_id, eos_id)
    trace = forward_teacher(params, input_ids, cond)
    return float(sum(trace.log_probs[n, tok] for n, tok in enumerate(targets)))
