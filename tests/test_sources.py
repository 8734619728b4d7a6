"""Source checks that need no import: every file parses as Python 3.10,
every module-level import of the package, ``scripts/`` and ``tests/`` is
used, the package imports no HTTP client library, program code writes
files only through ``corpus.atomic_write_text`` and reads them only
through ``corpus.read_json`` and ``corpus.read_jsonl``, and every public
definition of the package is read by program code, not by tests alone."""

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
    """The package's modules, ``__init__`` among them, ``scripts/`` and
    ``tests/``; an import kept only for another module's sake says so with
    ``# noqa: F401``."""
    modules = [*sorted((ROOT / "src" / "fcmax").glob("*.py")),
               *sorted((ROOT / "scripts").glob("*.py")),
               *sorted((ROOT / "tests").glob("*.py"))]
    assert len(modules) > 16
    for path in modules:
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


def _file_calls(source: str, exempt: tuple[str, ...]):
    """Each call of a source, with the mode it opens a file in where it is
    ``open``, ``Path.open`` or ``os.fdopen`` (a constant "r" where it gives
    none) and None otherwise.  ``os.open`` takes flags and returns a
    descriptor, which ``os.fdopen`` opens.  Calls inside the module-level
    functions named in ``exempt`` are left out."""
    for top in ast.parse(source).body:
        if getattr(top, "name", None) in exempt:
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            call = ast.unparse(node.func)
            attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
            mode = None
            if call == "open" or attr == "fdopen" or (attr == "open" and call != "os.open"):
                at = 0 if attr == "open" else 1  # Path.open(mode); open(file, mode)
                mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                            node.args[at] if len(node.args) > at else ast.Constant("r"))
            yield node, call, attr, mode


def _constant_mode_without(mode: ast.expr, letters: str) -> bool:
    return (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            and not set(mode.value) & set(letters))


def _in_place_writes(source: str, exempt: tuple[str, ...] = ()) -> list[str]:
    """Each call of a source that writes a file in place, as "line N: call":
    ``.write_text`` and ``.write_bytes``, and ``open``, ``Path.open`` or
    ``os.fdopen`` with a mode that is not a constant read mode.  Calls
    inside the module-level functions named in ``exempt`` are not counted."""
    return [f"line {node.lineno}: {call}"
            for node, call, attr, mode in _file_calls(source, exempt)
            if attr in ("write_text", "write_bytes")
            or (mode is not None and not _constant_mode_without(mode, "wax+"))]


def _file_reads(source: str, exempt: tuple[str, ...] = ()) -> list[str]:
    """Each call of a source that reads a file, as "line N: call":
    ``.read_text`` and ``.read_bytes``, and ``open``, ``Path.open`` or
    ``os.fdopen`` with a mode that is not a constant write-only mode.
    Calls inside the module-level functions named in ``exempt`` are not
    counted."""
    return [f"line {node.lineno}: {call}"
            for node, call, attr, mode in _file_calls(source, exempt)
            if attr in ("read_text", "read_bytes")
            or (mode is not None and not _constant_mode_without(mode, "r+"))]


def test_program_code_writes_files_only_atomically():
    """A file written in place is torn when the run is killed mid-write, and
    a resumed run would read it; every output goes through a temp file and a
    rename instead (``corpus.atomic_write_text``, the one exemption).  Program
    code here is the package and ``scripts/``."""
    sources = [*sorted((ROOT / "src" / "fcmax").glob("*.py")),
               *sorted((ROOT / "scripts").glob("*.py"))]
    assert len(sources) > 6
    for path in sources:
        exempt = ("atomic_write_text",) if path.name == "corpus.py" else ()
        assert _in_place_writes(path.read_text(encoding="utf-8"), exempt) == [], path.name


def test_the_atomic_write_check_finds_planted_writes():
    source = ("import os\nfrom pathlib import Path\n"
              "def atomic_write_text(path, text):\n"
              "    with os.fdopen(os.open(path, 1), 'w') as fh:\n        fh.write(text)\n"
              "def reads(p):\n"
              "    open(p).read(), open(p, 'rb'), Path(p).open(), p.open(mode='r')\n"
              "    return os.fdopen(3, 'rb'), p.read_text()\n"
              "def writes(p, mode):\n"
              "    p.write_text('x')\n    Path(p).write_bytes(b'')\n    open(p, 'w')\n"
              "    open(p, mode=mode)\n    p.open('a')\n    os.fdopen(3, 'r+')\n"
              "    with open(p, 'x', encoding='utf-8') as fh:\n        fh.write('x')\n")
    assert _in_place_writes(source, ("atomic_write_text",)) == [
        "line 10: p.write_text", "line 11: Path(p).write_bytes", "line 12: open",
        "line 13: open", "line 14: p.open", "line 15: os.fdopen", "line 16: open"]
    assert _in_place_writes(source)[0] == "line 4: os.fdopen"


def test_program_code_reads_files_only_through_the_json_readers():
    """Every input is JSON or JSONL, and ``corpus.read_json`` and
    ``corpus.read_jsonl`` are where a file is read: they refuse bytes that
    are not UTF-8 and text that is not JSON with an error naming the file
    and the line.  Program code here is the package and ``scripts/``."""
    sources = [*sorted((ROOT / "src" / "fcmax").glob("*.py")),
               *sorted((ROOT / "scripts").glob("*.py"))]
    assert len(sources) > 6
    for path in sources:
        exempt = ("read_json", "read_jsonl") if path.name == "corpus.py" else ()
        assert _file_reads(path.read_text(encoding="utf-8"), exempt) == [], path.name


def test_the_read_check_finds_planted_reads():
    source = ("import json, os\nfrom pathlib import Path\n"
              "def read_json(p):\n    return json.loads(Path(p).read_text())\n"
              "def read_jsonl(p):\n    with open(p) as fh:\n        return fh.read()\n"
              "def writes(p):\n    open(p, 'w'), p.open('ab'), os.fdopen(os.open(p, 0), 'x')\n"
              "def reads(p, mode):\n"
              "    open(p, 'rb'), Path(p).open(), p.open(mode='r'), os.fdopen(3, 'w+')\n"
              "    open(p, mode), p.read_text(), Path(p).read_bytes()\n"
              "    return json.load(open(p))\n"
              "SETTINGS = Path('s.json').read_text()\n")
    assert _file_reads(source, ("read_json", "read_jsonl")) == [
        "line 11: open", "line 11: Path(p).open", "line 11: p.open", "line 11: os.fdopen",
        "line 12: open", "line 12: p.read_text", "line 12: Path(p).read_bytes",
        "line 13: open", "line 14: Path('s.json').read_text"]
    assert _file_reads(source)[:2] == ["line 4: Path(p).read_text", "line 6: open"]


# Public definitions that program code reaches only by name strings: the
# benchmark's tracer wraps them, so they stay until it no longer does.
TRACER_ONLY = {
    "beam.beam_decode",  # bench/tracer.py LAYERS: ("beam", "beam_decode")
    "fcm.expected_consistency",  # bench/tracer.py LAYERS: ("fcm", "expected_consistency")
}


def _package_reads(source: str, module: str | None, package: dict[str, str]) -> set[str]:
    """The "module.name" of each package definition that a source reads.

    ``module`` is the source's own package module (None for a script) and
    ``package`` maps each package module to its source.  A read is a bare
    name that the source's module defines or imports from a package module
    (``from .corpus import Sample``, ``from fcmax.corpus import SynthConfig``),
    or an attribute of an imported package module (``corpus_mod.load_corpus``).
    Reads of a module-level definition's own name inside it do not count."""
    tree = ast.parse(source)
    names, aliases = {}, {}  # local name -> "module.name"; local name -> module
    if module is not None:
        names.update((node.name, f"{module}.{node.name}") for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    for node in ast.walk(tree):
        dotted = getattr(node, "module", None) or ""
        if not isinstance(node, ast.ImportFrom) or not (node.level or dotted.startswith("fcmax")):
            continue
        origin = dotted if node.level else dotted[len("fcmax."):]
        for alias in node.names:
            if not origin and alias.name in package:
                aliases[alias.asname or alias.name] = alias.name
            elif origin in package:
                names[alias.asname or alias.name] = f"{origin}.{alias.name}"
    read = set()
    for top in tree.body:
        in_top = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in names:
                in_top.add(names[node.id])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                in_top.add(f"{aliases[node.value.id]}.{node.attr}")
        read |= in_top - {f"{module}.{getattr(top, 'name', '')}"}
    return read


def _test_only_definitions(package: dict[str, str], programs: list[str]) -> list[str]:
    """The "module.name" of each public module-level def or class of the
    package that no other part of the package and no program source reads."""
    defined = sorted(f"{module}.{node.name}" for module, source in package.items()
                     for node in ast.parse(source).body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                     and not node.name.startswith("_"))
    read = set().union(*(_package_reads(source, module, package)
                         for module, source in package.items()),
                       *(_package_reads(source, None, package) for source in programs))
    return [name for name in defined if name not in read]


def test_every_public_definition_of_the_package_is_read_by_program_code():
    """A public function or class that only tests call is API kept for the
    tests' sake.  Program code is the package, ``__init__``'s binding for
    the benchmark's tests aside, ``scripts/`` and ``bench/`` (not its tests)."""
    package = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "fcmax").glob("*.py"))
               if path.name != "__init__.py"}
    programs = [path.read_text(encoding="utf-8")
                for folder in ("scripts", "bench") for path in sorted((ROOT / folder).glob("*.py"))]
    assert len(package) > 5 and len(programs) > 3
    assert set(_test_only_definitions(package, programs)) == TRACER_ONLY


def test_the_test_only_check_finds_a_planted_definition():
    package = {
        "a": ("def used():\n    return helper()\n\n\ndef helper():\n    pass\n\n\n"
              "def planted(n):\n    return planted(n - 1) if n else None\n\n\n"
              "class _Private:\n    pass\n\n\nclass Shown:\n    pass\n"),
        "b": ("from . import a as mod\n\n\n"
              "def _f(report):\n    return report.planted, mod.used\n"),
    }
    programs = ["import numpy as np\nfrom fcmax.a import Shown\n\nShown(np.planted)\n"]
    assert _test_only_definitions(package, programs) == ["a.planted"]
    assert _test_only_definitions(package, []) == ["a.Shown", "a.planted"]
