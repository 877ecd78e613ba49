"""Structural ratchet: the size and shape of ``src/`` as pinned numbers.

Line counts per package, the modules over :data:`LARGE_MODULE` lines and
the broad ``except`` handlers per module are pinned like a golden table.
A change that moves any of them edits the table in the same diff: growth
becomes a deliberate, reported change, and a deletion shows its win.
:data:`TARGETS` records the size goals next to the pinned numbers; a met
goal is asserted from then on.

The test reads source files with ``ast`` only and imports nothing from
``repro``.  Print the current tables with
``python tests/test_structure.py``.
"""

import ast
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Dict, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: A module above this many lines is listed in :data:`LARGE_MODULES`.
LARGE_MODULE = 800

#: ``package -> lines`` under ``src/repro`` (``.`` is the top-level modules).
PACKAGE_LINES = {
    ".": 1900,
    "allocator": 817,
    "analysis": 605,
    "appgraph": 502,
    "cluster": 2772,
    "comm": 862,
    "data": 82,
    "experiments": 1720,
    "matching": 530,
    "policies": 1330,
    "scenarios": 1288,
    "scoring": 1191,
    "serve": 1636,
    "sim": 2662,
    "topology": 1297,
    "workloads": 590,
}

#: Lines of every ``.py`` file under ``src/repro``.
TOTAL_LINES = 19784

#: ``module -> lines`` for every module over :data:`LARGE_MODULE` lines.
LARGE_MODULES = {
    "cli.py": 1586,
    "cluster/scheduler.py": 861,
    "cluster/sharding.py": 1728,
    "serve/daemon.py": 1056,
    "sim/records.py": 936,
}

#: ``module -> handlers`` catching everything: a bare ``except``, or one
#: naming ``Exception`` or ``BaseException`` (alone or in a tuple).
BROAD_EXCEPTS = {
    "cluster/sharding.py": 6,
    "experiments/runner.py": 1,
    "ioutils.py": 2,
    "serve/daemon.py": 2,
}

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


@lru_cache(maxsize=None)
def scan() -> Tuple[Dict[str, int], Dict[str, int]]:
    """``(module -> lines, module -> broad handlers)`` over ``src/repro``."""
    lines, broad = {}, {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        text = path.read_text(encoding="utf-8")
        lines[module] = text.count("\n")
        handlers = sum(
            _is_broad(node)
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ExceptHandler)
        )
        if handlers:
            broad[module] = handlers
    return lines, broad


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
            },
            indent=4,
        )
    )
