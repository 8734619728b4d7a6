"""Consistency-maximization training and evaluation for small seq2seq models."""

from .beam import Hypothesis, NBestList, beam_decode, beam_decode_batch
from .corpus import (
    BOS, EOS, Corpus, Sample, SynthConfig, default_token_weights,
    generate_synthetic_corpus, load_corpus, normalize_text, save_corpus,
)
from .fcm import (
    ScoredBatch, expected_consistency, fcm_coefficients, normalize_posteriors, score_batch,
)
from .metrics import (
    EditBreakdown, TTestResult, avg_consistency, consistent_ratio, corpus_wer,
    paired_t_test,
)
from .model import (
    ForwardTrace, ModelParams, apply_update, backward, forward_teacher, init_params,
    load_checkpoint, save_checkpoint, trajectory,
)
from .scorers import (
    ConsistencyScorer, TokenWeights, exact_match_score, exact_match_scorer,
    lcs_ratio, lcs_scorer, remote_scorer, weighted_f1_scorer, weighted_token_f1,
)
from .summeval import (
    Utterance, build_prompt, evaluate_summaries, format_speaker_attributed, make_summarizer,
)
from .trainer import (
    SafeguardConfig, TrainingSchedule, TrainResult, deletion_guard,
    linear_decay_lr, train_ce, train_fcm,
)

__version__ = "0.1.0"
