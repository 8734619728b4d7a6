"""Outside-in span tracing of fcmax's public functions.

The tracer replaces a function with a timing wrapper in every loaded
``fcmax`` module that binds it (``beam`` imports ``forward_teacher`` by
name, ``fcmax/__init__`` re-exports everything), so a call is recorded no
matter which binding the caller goes through.  Spans stay in memory as
``(name, start, end, parent, error)`` tuples and are summarised, or written
out, once the run is over.  Nothing inside ``src/`` is changed on disk.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, function) pairs whose spans the traced run records.  Kept short:
# every wrapped call pays for two clock reads and a list append.
LAYERS: tuple[tuple[str, str], ...] = (
    ("model", "forward_teacher"),
    ("model", "backward"),
    ("model", "apply_update"),
    ("model", "encode"),
    ("beam", "beam_decode"),
    ("trainer", "train_ce"),
    ("trainer", "train_fcm"),
    ("trainer", "evaluate_on"),
    ("trainer", "decode_corpus_top1"),
    ("fcm", "fcm_corpus_objective"),
    ("fcm", "expected_consistency"),
    ("fcm", "fcm_step_gradients"),
    ("scorers", "post_json"),
    ("metrics", "corpus_wer"),
    ("metrics", "avg_consistency"),
    ("summeval", "evaluate_summaries"),
    ("corpus", "generate_synthetic_corpus"),
)
# The scorer object the benchmark hands to fcmax is traced under this name.
SCORER_SPAN = "scorers"
SPAN_NAMES: tuple[str, ...] = tuple(f"{m}.{f}" for m, f in LAYERS) + (SCORER_SPAN,)
SPAN_STATS = (("calls", "count"), ("ms_p50", "ms"), ("ms_p90", "ms"), ("self_s", "s"))
# Counters recorded at the same boundaries as the spans.
COUNTERS = (
    ("model.steps", "count"),
    ("beam.tokens", "count"),
    ("beam.unfinished_share", "ratio"),
    ("scorers.errors", "count"),
    ("scorers.repeat_share", "ratio"),
    ("summeval.chunks", "count"),
)


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = [(f"{span}.{stat}", unit) for span in SPAN_NAMES for stat, unit in SPAN_STATS]
    return names + list(COUNTERS) + [("trace.overhead_pct", "%")]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    ``spans`` is a sequence of ``(name, start, end, parent, ...)`` with
    ``parent`` the index of the enclosing span or ``None``.  Child intervals
    are clipped to the parent and merged before they are subtracted, so
    overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            children.setdefault(parent, []).append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and counters while installed; does nothing otherwise."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, bool]] = []
        self.counts = {"model.steps": 0, "beam.tokens": 0, "beam.hypotheses": 0,
                       "beam.unfinished": 0, "summeval.chunks": 0,
                       "scorers.repeats": 0}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_pairs: set[tuple[str, str]] = set()

    # -- recording -------------------------------------------------------
    def _wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent, False))
            stack.append(index)
            error = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, error)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def _count_teacher(self, args, kwargs, result) -> None:
        target = kwargs.get("target_ids", args[2] if len(args) > 2 else ())
        self.counts["model.steps"] += len(target)

    def _count_beam(self, args, kwargs, result) -> None:
        hyps = getattr(result, "hypotheses", ())
        self.counts["beam.hypotheses"] += len(hyps)
        self.counts["beam.tokens"] += sum(len(h.tokens) for h in hyps)
        self.counts["beam.unfinished"] += sum(1 for h in hyps if not h.finished)

    def _count_chunks(self, args, kwargs, result) -> None:
        self.counts["summeval.chunks"] += len(result[0])

    def new_run(self) -> None:
        """Forget which (hypothesis, reference) pairs were scored so far."""
        self._seen_pairs.clear()

    def scorer_fn(self, fn):
        """Trace a scorer callable and count calls that repeat a scored pair."""
        traced = self._wrap(SCORER_SPAN, fn)
        seen, counts = self._seen_pairs, self.counts

        def score(hyp: str, ref: str) -> float:
            if (hyp, ref) in seen:
                counts["scorers.repeats"] += 1
            else:
                seen.add((hyp, ref))
            return traced(hyp, ref)

        return score

    @contextmanager
    def installed(self):
        """Wrap every LAYERS function in all fcmax modules for the block."""
        counters = {"model.forward_teacher": self._count_teacher,
                    "beam.beam_decode": self._count_beam,
                    "summeval.evaluate_summaries": self._count_chunks}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fcmax" or n.startswith("fcmax."))]
        self.missing = []
        try:
            for mod_name, fn_name in LAYERS:
                name = f"{mod_name}.{fn_name}"
                original = getattr(sys.modules.get(f"fcmax.{mod_name}"), fn_name, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original, counters.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            while self._patches:
                mod, attr, value = self._patches.pop()
                setattr(mod, attr, value)

    # -- reporting -------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-span calls, p50/p90 duration and self time, plus counters."""
        selfs = self_times(self.spans)
        durations: dict[str, list[float]] = {n: [] for n in SPAN_NAMES}
        self_total = dict.fromkeys(SPAN_NAMES, 0.0)
        errors = 0
        for span, own in zip(self.spans, selfs):
            name = span[0]
            durations[name].append(span[2] - span[1])
            self_total[name] += own
            if name == SCORER_SPAN and span[4]:
                errors += 1
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            d = np.asarray(durations[name]) * 1e3
            out[f"{name}.calls"] = len(d)
            out[f"{name}.ms_p50"] = float(np.percentile(d, 50)) if len(d) else 0.0
            out[f"{name}.ms_p90"] = float(np.percentile(d, 90)) if len(d) else 0.0
            out[f"{name}.self_s"] = self_total[name]
        c = self.counts
        out["model.steps"] = c["model.steps"]
        out["beam.tokens"] = c["beam.tokens"]
        out["beam.unfinished_share"] = c["beam.unfinished"] / max(c["beam.hypotheses"], 1)
        out["scorers.errors"] = errors
        out["scorers.repeat_share"] = c["scorers.repeats"] / max(out[f"{SCORER_SPAN}.calls"], 1)
        out["summeval.chunks"] = c["summeval.chunks"]
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans (times relative to the first span) and metadata."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "meta": meta,
            "missing": self.missing,
            "fields": ["name", "start_s", "end_s", "parent", "error"],
            "spans": [[n, s - t0, e - t0, p, err] for n, s, e, p, err in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
