"""Source checks that need no import: every file parses as Python 3.10,
every module-level import of the package is used, and the package imports no
HTTP client library."""

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


def _unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of a source bind and that no
    expression of it reads, except on lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(name)
    return unused


def test_every_module_level_import_of_the_package_is_used():
    """``__init__`` re-exports its imports, so only it is exempt."""
    modules = sorted((ROOT / "src" / "fcmax").glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        if path.name != "__init__.py":
            assert _unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_the_import_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from .model import ModelError, encode\n"
              "from .model import forward_teacher  # noqa: F401\n"
              "def f(x: np.ndarray) -> None:\n    raise ModelError(os.sep)\n")
    assert _unused_imports(source) == ["encode"]


WIRE_LIBRARIES = ("urllib.request", "http.client", "requests")


def _wire_imports(source: str) -> list[str]:
    """The modules of ``WIRE_LIBRARIES`` (or their submodules) that a source
    imports anywhere, in the order of ``ast.walk``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [name for name in names
                  if any(name == lib or name.startswith(lib + ".") for lib in WIRE_LIBRARIES)]
    return found


def test_the_package_imports_no_http_client_library():
    """The remote scorer is a plain socket: these libraries would put an
    opener chain and an ``email`` header parser back into every call, and
    load ``email`` and ``ssl`` into every remote run."""
    for path in sorted((ROOT / "src" / "fcmax").glob("*.py")):
        assert _wire_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_the_wire_import_check_finds_a_planted_import():
    source = ("import json\nfrom urllib.parse import urlsplit\nfrom . import scorers\n"
              "def post():\n    from urllib import request\n    import http.client as hc\n"
              "    import requests.adapters\n")
    assert _wire_imports(source) == ["urllib.request", "http.client", "requests.adapters"]
