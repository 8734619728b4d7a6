"""Source checks that need no import: every file parses as Python 3.10."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MINIMUM = (3, 10)  # requires-python in pyproject.toml


def _sources() -> list[Path]:
    return sorted(path for folder in ("src", "tests", "scripts", "bench")
                  for path in (ROOT / folder).rglob("*.py"))


def test_every_source_parses_with_the_minimum_grammar():
    """A newer interpreter runs the tests, so syntax the declared minimum
    lacks (``except*``, ``type`` aliases, generic ``def f[T]``) would pass
    them unseen; parsing with that grammar catches it."""
    sources = _sources()
    assert len(sources) > 20 and any(path.parts[-2] == "bench" for path in sources)
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=MINIMUM)


def test_the_minimum_grammar_refuses_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=MINIMUM)
