"""Every top-level definition in ``src/srcpsp`` is reached from an entry point.

The scan parses the package with ``ast``. It starts from the entry points
(``bench.main``, the names README's "Library use" imports, ``methods.METHODS``
and the names ``perfbench/tracing.py`` wraps) and follows every name a
reached definition's source uses, through the package's own imports. A
definition the scan does not reach is code no product path runs; it must be
deleted or listed in ``ALLOWED`` with the reason it stays.

A second scan holds every ``assert`` in the package to a type narrowing
(``assert x is not None``): ``python -O`` strips asserts, so a runtime check
must raise explicitly.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srcpsp"

PROBE = "perfbench's traced stn.earliest_schedule.us probe imports it, until that probe is replaced"
ALLOWED = {
    ("instances", "serialize_psplib"): "tools/make_instances.py writes the bundled instances with it",
    ("stats", "method_pair_series"): "the acceptance tests read paired series through it",
    ("stn", "DistanceGraph"): PROBE,
    ("stn", "earliest_schedule"): PROBE,
}


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [target.id for target in stmt.targets if isinstance(target, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _scan() -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """All top-level definitions and those reached from the entry points."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    defs: dict[tuple[str, str], list[ast.AST]] = {}
    imports: dict[tuple[str, str], tuple[str, str]] = {}  # (module, local name) -> its source
    roots: list[tuple[str, str]] = [("bench", "main"), ("methods", "METHODS")]
    for module, tree in trees.items():
        for stmt in tree.body:
            names = _defined_names(stmt)
            for name in names:
                defs.setdefault((module, name), []).append(stmt)
            if not names:  # any other statement runs at import
                defs.setdefault((module, "<module>"), []).append(stmt)
                roots.append((module, "<module>"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level == 1 or node.module.startswith("srcpsp.")):
                source = (node.module or "").rpartition(".")[2]
                for alias in node.names:
                    imports[module, alias.asname or alias.name] = (source, alias.name)

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library_use = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    for module, names in re.findall(r"from srcpsp\.(\w+) import ([\w, ]+)", library_use):
        roots += [(module, name.strip()) for name in names.split(",")]
    # each wrapped name is an (srcpsp.<module>[.<owner>], "<attribute>", ...) tuple
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in ast.walk(tracing):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            owner, attribute = ast.unparse(node.elts[0]).split("."), node.elts[1]
            if owner[0] == "srcpsp" and len(owner) in (2, 3) and isinstance(attribute, ast.Constant):
                roots.append((owner[1], owner[2] if len(owner) == 3 else attribute.value))

    def resolve(module: str, name: str) -> tuple[str, str] | None:
        while (module, name) not in defs:
            if (module, name) not in imports:
                return None
            module, name = imports[module, name]
        return module, name

    todo = [resolve(*root) for root in roots]
    assert len(todo) > 20 and None not in todo, f"an entry point is not defined: {roots}"
    reached: set[tuple[str, str]] = set()
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        for node in (n for stmt in defs[key] for n in ast.walk(stmt)):
            if isinstance(node, ast.Name) and (target := resolve(key[0], node.id)):
                todo.append(target)
    # a module's dunders (__version__) are read by tools, not by code
    every = {key for key in defs if key[1] != "<module>" and not key[1].startswith("__")}
    return every, reached


def test_every_definition_is_reached_or_allowed():
    every, reached = _scan()
    unreached = every - reached
    assert unreached <= ALLOWED.keys(), f"unreached: {sorted(unreached - ALLOWED.keys())}"
    assert unreached == ALLOWED.keys(), f"reached, so drop from ALLOWED: {sorted(ALLOWED.keys() - unreached)}"


def test_every_assert_in_src_only_narrows_a_type():
    checks = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) and not (
                isinstance(node.test, ast.Compare)
                and [type(op) for op in node.test.ops] == [ast.IsNot]
                and isinstance(node.test.comparators[0], ast.Constant)
                and node.test.comparators[0].value is None
            ):
                checks.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not checks, "a runtime check must raise, not assert:\n" + "\n".join(checks)
