"""Consistency-maximization training and evaluation for small seq2seq models."""

# bench/tests/test_fcmax_bench.py::test_tracer_wraps_every_binding_and_restores_them
# reads fcmax.forward_teacher; the binding goes when that test is re-pointed.
from .model import forward_teacher  # noqa: F401
