"""Structural ratchet: the size and shape of ``src/`` as pinned numbers.

Line counts per package, the modules over :data:`LARGE_MODULE` lines,
the broad ``except`` handlers per module, the third-party modules
``src/`` imports and the size of each package's ``__all__`` are pinned
like a golden table.
A change that moves any of them edits the table in the same diff: growth
becomes a deliberate, reported change, and a deletion shows its win.
:data:`TARGETS` records the size goals next to the pinned numbers; a met
goal is asserted from then on.

The test reads source files with ``ast`` only and imports nothing from
``repro``.  Print the current tables with
``python tests/test_structure.py``.
"""

import ast
import importlib.util
import re
import sys
import sysconfig
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Dict, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Where this interpreter's standard library lives.
STDLIB = Path(sysconfig.get_paths()["stdlib"]).resolve()

#: A module above this many lines is listed in :data:`LARGE_MODULES`.
LARGE_MODULE = 800

#: ``package -> lines`` under ``src/repro`` (``.`` is the top-level modules).
PACKAGE_LINES = {
    ".": 1811,
    "allocator": 863,
    "analysis": 595,
    "appgraph": 502,
    "cluster": 2456,
    "comm": 858,
    "data": 78,
    "experiments": 1791,
    "matching": 521,
    "policies": 1206,
    "scenarios": 1288,
    "scoring": 1206,
    "serve": 1467,
    "sim": 2633,
    "topology": 1297,
    "workloads": 617,
}

#: Lines of every ``.py`` file under ``src/repro``.
TOTAL_LINES = 19189

#: ``module -> lines`` for every module over :data:`LARGE_MODULE` lines.
LARGE_MODULES = {
    "cli.py": 1486,
    "cluster/scheduler.py": 859,
    "cluster/sharding.py": 1414,
    "serve/daemon.py": 900,
    "sim/records.py": 908,
}

#: ``module -> handlers`` catching everything: a bare ``except``, or one
#: naming ``Exception`` or ``BaseException`` (alone or in a tuple).
BROAD_EXCEPTS = {
    "cluster/sharding.py": 6,
    "experiments/runner.py": 1,
    "ioutils.py": 2,
    "serve/daemon.py": 2,
}

#: ``package -> len(__all__)`` of each package's ``__init__.py`` (``.`` is
#: ``repro`` itself): the public surface, one name at a time.
ALL_NAMES = {
    ".": 13,
    "allocator": 7,
    "analysis": 21,
    "appgraph": 16,
    "cluster": 15,
    "comm": 25,
    "data": 6,
    "experiments": 32,
    "matching": 13,
    "policies": 17,
    "scenarios": 23,
    "scoring": 27,
    "serve": 17,
    "sim": 27,
    "topology": 32,
    "workloads": 16,
}

#: ``tree -> engine= sites``: word-boundary matches of ``engine=`` in the
#: tree's ``.py`` files (keyword arguments, parameters and docstrings
#: alike); ``benchmarks/perf/`` is left out.  Each site selects or
#: names one of the parallel scan sources, so the count should only go
#: down.
ENGINE_SITES = {"src": 21, "benchmarks": 6}

#: Top-level third-party modules imported anywhere under ``src/repro``.
THIRD_PARTY = {"networkx", "numpy"}

#: ``(module or "src", max lines, met)``.  A met row is asserted; an unmet
#: row asserts that it is still unmet, so meeting it flips the row here.
TARGETS = (
    ("sim/engine.py", 120, True),
    ("serve/daemon.py", 600, False),
    ("src", 17_000, False),
)

_BROAD = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    return any(isinstance(n, ast.Name) and n.id in _BROAD for n in names)


def _imported(node: ast.AST) -> Tuple[str, ...]:
    """Top-level names an absolute import statement binds a module from."""
    if isinstance(node, ast.Import):
        return tuple(alias.name.partition(".")[0] for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return (node.module.partition(".")[0],)
    return ()


def _is_stdlib(name: str) -> bool:
    """Whether top-level module ``name`` ships with the interpreter.

    Located with ``find_spec``, which runs no module code; a module that
    is not installed counts as third-party.
    """
    if name in sys.builtin_module_names:
        return True
    spec = importlib.util.find_spec(name)
    if spec is None or spec.origin is None:
        return False
    if spec.origin == "frozen":
        return True
    path = Path(spec.origin).resolve()
    installed = {"site-packages", "dist-packages"} & set(path.parts)
    return STDLIB in path.parents and not installed


@lru_cache(maxsize=None)
def scan() -> Tuple[Dict[str, int], Dict[str, int], Set[str]]:
    """``(module -> lines, module -> broad handlers, third-party imports)``
    over ``src/repro``."""
    lines, broad, imported = {}, {}, set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        text = path.read_text(encoding="utf-8")
        lines[module] = text.count("\n")
        nodes = list(ast.walk(ast.parse(text)))
        handlers = sum(
            _is_broad(node) for node in nodes if isinstance(node, ast.ExceptHandler)
        )
        if handlers:
            broad[module] = handlers
        for node in nodes:
            imported.update(_imported(node))
    third_party = {n for n in imported - {"repro"} if not _is_stdlib(n)}
    return lines, broad, third_party


def all_names() -> Dict[str, int]:
    """``package -> len(__all__)``, read from each ``__init__.py``."""
    counts = {}
    for path in sorted(SRC.rglob("__init__.py")):
        package = path.parent.relative_to(SRC).as_posix()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                counts[package] = len(node.value.elts)
    return counts


def engine_sites() -> Dict[str, int]:
    """``tree -> engine= sites`` over :data:`ENGINE_SITES`' trees."""
    pattern = re.compile(r"\bengine=")
    counts = {}
    for tree in ENGINE_SITES:
        root = ROOT / tree
        counts[tree] = sum(
            len(pattern.findall(path.read_text(encoding="utf-8")))
            for path in root.rglob("*.py")
            if path.relative_to(root).parts[0] != "perf"
        )
    return counts


def package_lines() -> Dict[str, int]:
    """``package -> lines``; top-level modules count under ``.``."""
    counts: Counter = Counter()
    for module, n in scan()[0].items():
        head, _, rest = module.partition("/")
        counts[head if rest else "."] += n
    return dict(sorted(counts.items()))


def large_modules() -> Dict[str, int]:
    """Modules over :data:`LARGE_MODULE` lines."""
    return {m: n for m, n in scan()[0].items() if n > LARGE_MODULE}


def test_package_lines_are_pinned():
    assert package_lines() == PACKAGE_LINES
    assert sum(scan()[0].values()) == TOTAL_LINES


def test_large_modules_are_pinned():
    assert large_modules() == LARGE_MODULES


def test_broad_excepts_are_pinned():
    assert scan()[1] == BROAD_EXCEPTS


def test_all_names_are_pinned():
    assert all_names() == ALL_NAMES


def test_engine_sites_are_pinned():
    assert engine_sites() == ENGINE_SITES


def test_third_party_imports_are_pinned():
    assert scan()[2] == THIRD_PARTY


def test_size_targets():
    lines = scan()[0]
    for module, limit, met in TARGETS:
        n = sum(lines.values()) if module == "src" else lines[module]
        assert (n <= limit) == met, (module, n, limit, met)


if __name__ == "__main__":  # pragma: no cover - table regeneration
    import json

    print(
        json.dumps(
            {
                "PACKAGE_LINES": package_lines(),
                "TOTAL_LINES": sum(scan()[0].values()),
                "LARGE_MODULES": large_modules(),
                "BROAD_EXCEPTS": scan()[1],
                "THIRD_PARTY": sorted(scan()[2]),
                "ALL_NAMES": all_names(),
                "ENGINE_SITES": engine_sites(),
            },
            indent=4,
        )
    )
