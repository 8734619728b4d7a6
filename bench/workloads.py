"""The three benchmark workloads, driven through fcmax's public API.

Every call into fcmax goes through a module attribute (``trainer.train_ce``,
not a name imported once), so the tracer's wrappers see it.  The sizes are
the synthetic experiment's defaults (``scripts/run_synthetic_experiment.py``):
split 1000/200/200, d=32, beam 4, N 4, max_len 24, CE at batch 4 and
lr 0.15, FCM at batch 1 and lr 0.02.  The runs are shorter, so that one
run fits the benchmark's time budget: fewer iterations, and dev checks
only at the start and end of the 100 FCM iterations.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from clock import Interval
from fcmax import corpus, metrics, model, scorers, summeval, trainer

BEAM, NBEST, MAX_LEN = 4, 4, 24
CE_LR, CE_BATCH = 0.15, 4
FCM_LR, FCM_BATCH = 0.02, 1
DELETION_LIMIT = 0.25
# The eval block is short (about a second), so an untraced repeat times it twice.
EVAL_REPEATS = 2
SERVICE = Path(__file__).resolve().parent / "scorer_service.py"


@dataclass(frozen=True)
class Size:
    n_train: int
    n_dev: int
    n_test: int
    d: int
    ce_iters: int         # the timed CE call of ce_pretrain, and the FCM start model
    fcm_iters: int
    dev_check_every: int


SIZES = {
    "full": Size(n_train=1000, n_dev=200, n_test=200, d=32, ce_iters=1000, fcm_iters=100,
                 dev_check_every=100),
    # For the benchmark's own tests: every code path, in about a second.
    "tiny": Size(n_train=40, n_dev=8, n_test=8, d=8, ce_iters=30, fcm_iters=4,
                 dev_check_every=2),
}


class CountingScorer:
    """Counts calls and failures of a scorer callable; passes results through."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.calls = 0
        self.errors = 0

    def __call__(self, hyp: str, ref: str) -> float:
        self.calls += 1
        try:
            return self.fn(hyp, ref)
        except Exception:
            self.errors += 1
            raise


@dataclass
class Setup:
    train: corpus.Corpus
    dev: corpus.Corpus
    test: corpus.Corpus
    start: model.ModelParams   # seeded init (ce_pretrain) or the CE start model
    local_scorer: scorers.ConsistencyScorer
    scorer: scorers.ConsistencyScorer
    digest: str                # corpus and start model, to check set-up repeats
    service: subprocess.Popen | None = None


@dataclass(frozen=True)
class Quality:
    test_wer: float
    test_consistency: float
    summary_consistency: float


@dataclass
class Rep:
    train_s: Interval          # the training call
    eval_s: list[Interval]     # each eval block
    samples: int
    qualities: list[Quality]   # one per eval block; all must be equal
    checkpoint: str
    guard_tripped: bool


def params_digest(params: model.ModelParams) -> str:
    """SHA-256 over every array field, so equal digests mean equal bits."""
    h = hashlib.sha256()
    for name, value in sorted(vars(params).items()):
        if isinstance(value, np.ndarray):
            h.update(name.encode())
            h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def corpus_digest(*parts: corpus.Corpus) -> str:
    h = hashlib.sha256()
    for part in parts:
        for s in part.samples:
            h.update(repr((s.id, s.input, s.reference, s.start_s)).encode())
    return h.hexdigest()


def ce_schedule(size: Size, seed: int) -> trainer.TrainingSchedule:
    return trainer.TrainingSchedule(
        total_iterations=size.ce_iters, initial_lr=CE_LR, batch_size=CE_BATCH,
        beam_size=BEAM, nbest_size=NBEST, max_len=MAX_LEN, seed=seed,
        checkpoint_every=max(1, size.ce_iters // 4),
    )


def start_service() -> tuple[subprocess.Popen, int]:
    """Start the loopback scorer service and wait until it listens."""
    src = str(Path(corpus.__file__).resolve().parent.parent)
    proc = subprocess.Popen([sys.executable, str(SERVICE), "--src", src],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().strip()
    if not line.isdigit():
        stop_service(proc)
        raise RuntimeError(f"scorer service did not report a port (got {line!r})")
    return proc, int(line)


def stop_service(proc: subprocess.Popen | None) -> None:
    if proc is None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def set_up(workload: str, size: Size, seed: int, tracer=None) -> Setup:
    """Corpus, start model and scorer; FCM workloads train the CE start model."""
    cfg = corpus.SynthConfig(n_samples=size.n_train + size.n_dev + size.n_test, seed=seed)
    if tracer is None:
        full = corpus.generate_synthetic_corpus(cfg)
    else:
        with tracer.installed():
            full = corpus.generate_synthetic_corpus(cfg)
    train, dev, test = full.split(size.n_train, size.n_dev, size.n_test)
    local = scorers.weighted_f1_scorer(corpus.default_token_weights(cfg))
    start = model.init_params(size.d, train.source_vocab_size, len(train.token_vocab), seed=seed)
    if workload != "ce_pretrain":
        start = trainer.train_ce(start, train, ce_schedule(size, seed)).params
    digest = corpus_digest(train, dev, test) + params_digest(start)
    if workload != "fcm_remote":
        return Setup(train, dev, test, start, local, local, digest)
    proc, port = start_service()
    remote = scorers.remote_scorer(f"http://127.0.0.1:{port}")
    return Setup(train, dev, test, start, local, remote, digest, service=proc)


def eval_block(params: model.ModelParams, test: corpus.Corpus, scorer) -> Quality:
    """Beam-4 top-1 decoding of test, WER and consistency, 60 s chunk summaries."""
    texts = trainer.decode_corpus_top1(params, test, BEAM, MAX_LEN)
    pairs = [(t, s.reference) for t, s in zip(texts, test.samples)]
    wer = metrics.corpus_wer(pairs).wer
    consistency, _ = metrics.avg_consistency(pairs, scorer)
    refs = summeval.corpus_to_utterances(test)
    hyps = summeval.corpus_to_utterances(test, {s.id: t for s, t in zip(test.samples, texts)})
    _, summary = summeval.evaluate_summaries(refs, hyps, summeval.make_summarizer("mock"),
                                             scorer)
    return Quality(wer, consistency, summary)


def train(workload: str, setup: Setup, size: Size, seed: int, scorer):
    """The timed training call from the set-up's start model."""
    if workload == "ce_pretrain":
        return trainer.train_ce(setup.start, setup.train, ce_schedule(size, seed))
    schedule = trainer.TrainingSchedule(
        total_iterations=size.fcm_iters, initial_lr=FCM_LR, batch_size=FCM_BATCH,
        beam_size=BEAM, nbest_size=NBEST, max_len=MAX_LEN, seed=seed + 1,
        checkpoint_every=size.dev_check_every,
    )
    safeguard = trainer.SafeguardConfig(
        max_fcm_iterations=size.fcm_iters, deletion_rate_limit=DELETION_LIMIT,
        dev_check_every=size.dev_check_every,
    )
    return trainer.train_fcm(setup.start, setup.train, scorer, schedule, safeguard,
                             dev=setup.dev)


def run_rep(workload: str, setup: Setup, size: Size, seed: int, scorer, clock,
            eval_repeats: int = EVAL_REPEATS) -> Rep:
    """One timed training call, then the timed eval block eval_repeats times."""
    result, train_s = clock.timed(train, workload, setup, size, seed, scorer)
    if workload == "ce_pretrain":
        samples = size.ce_iters * CE_BATCH
    else:
        samples = max(e.get("iter", 0) for e in result.log) * FCM_BATCH
    eval_s, qualities = [], []
    for _ in range(eval_repeats):
        quality, seconds = clock.timed(eval_block, result.params, setup.test, scorer)
        qualities.append(quality)
        eval_s.append(seconds)
    return Rep(train_s=train_s, eval_s=eval_s, samples=samples, qualities=qualities,
               checkpoint=params_digest(result.params),
               guard_tripped=bool(getattr(result, "guard_tripped", False)))
