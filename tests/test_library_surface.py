"""Guard: every public top-level definition in ``src/repro`` has a caller.

A public ``def`` or ``class`` at the top level of a non-``__init__``
module must be named somewhere outside its own definition: elsewhere in
``src/repro``, or in ``benchmarks/``, ``perfbench/`` or ``examples/``.
Imports in package ``__init__`` modules and every ``__all__`` list do
not count, so a re-export alone keeps nothing alive; other statements of
an ``__init__`` do (``register_backend("csr-numba", ...)`` is a caller).
Tests never count: code that only its own tests call is a deletion
candidate.  Only code counts: a name read, an attribute access or an
import outside an ``__init__``.  A docstring cross-reference or a
comment is not a caller.

``ALLOWED`` holds the definitions kept without a caller, each with its
reason: they reproduce a tested claim of the paper, they are oracles
that other tests pin answers against, or they build shared test
fixtures.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("benchmarks", "perfbench", "examples")

ALLOWED = {
    "solve_knapsack_via_maxflow": "Theorem 1: knapsack solved by the flow reduction",
    "solve_knapsack_dynamic_programming": "Theorem 1: reference solver the reduction is checked on",
    "mono_connected_expected_flow": "Theorem 2: closed-form tree flow; in repro.__all__",
    "normal_confidence_interval": "Definition 10: coverage tested; FTree.flow_interval's formula",
    "two_terminal_reliability": "factoring oracle the F-tree and enumeration tests pin against",
    "exact_reachability": "enumeration oracle the factoring and estimator tests pin against",
    "is_connected": "checks generator output in the generator and dataset tests",
    "parse_collapsed": "oracle: tests parse format_collapsed output to pin flame totals",
    "totals_from_collapsed": "oracle: CI's profiling smoke checks the flamegraph export with it",
    "validate_graph": "oracle: checks generator, dataset and reduction output in their tests",
    "cycle_graph": "fixture: tests/conftest.py builds the shared toy graphs with it",
    "star_graph": "fixture: tests/conftest.py builds the shared toy graphs with it",
    "complete_graph": "fixture: tests/conftest.py builds the shared toy graphs with it",
}


def _is_excluded(stmt: ast.stmt, is_init: bool) -> bool:
    """``__all__`` assignments, plus the imports of an ``__init__``."""
    is_all = isinstance(stmt, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets
    )
    return is_all or (is_init and isinstance(stmt, (ast.Import, ast.ImportFrom)))


def _references(tree: ast.Module, is_init: bool):
    """Yield ``(first line, last line, name)`` for every name the code uses."""
    for stmt in tree.body:
        if _is_excluded(stmt, is_init):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.lineno, node.end_lineno, node.id
            elif isinstance(node, ast.Attribute):
                yield node.lineno, node.end_lineno, node.attr
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    yield node.lineno, node.end_lineno, alias.name.rsplit(".", 1)[-1]


def uncalled_definitions(root: Path) -> dict:
    """Map each public top-level definition no code references to ``path:line``."""
    definitions = []
    mentions = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        is_init = path.name == "__init__.py"
        if not is_init:
            for stmt in tree.body:
                public = not getattr(stmt, "name", "_").startswith("_")
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and public:
                    first = min([stmt.lineno] + [d.lineno for d in stmt.decorator_list])
                    definitions.append((stmt.name, path, first, stmt.end_lineno))
        for first, last, name in _references(tree, is_init):
            mentions.setdefault(name, []).append((path, first, last))
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for first, last, name in _references(tree, is_init=False):
                mentions.setdefault(name, []).append((path, first, last))

    uncalled = {}
    for name, path, first, last in definitions:
        outside = [
            mention
            for mention in mentions.get(name, ())
            if not (mention[0] == path and first <= mention[1] and mention[2] <= last)
        ]
        if not outside:
            uncalled[name] = f"{path.relative_to(root)}:{first}"
    return uncalled


def test_every_public_definition_has_a_caller():
    unexpected = sorted(
        f"{where} {name}"
        for name, where in uncalled_definitions(ROOT).items()
        if name not in ALLOWED
    )
    assert not unexpected, (
        "public definitions that only tests call; delete them, or allowlist "
        "them with a reason:\n" + "\n".join(unexpected)
    )


def test_allowlist_has_no_stale_entries():
    stale = sorted(set(ALLOWED) - set(uncalled_definitions(ROOT)))
    assert not stale, f"allowlisted names that are gone or now have a caller: {stale}"


def test_guard_sees_through_reexports(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (tmp_path / "examples").mkdir()
    (package / "shapes.py").write_text(
        '@cache\ndef square():\n    """Recursion does not count: square()."""\n'
        "    return square()\n\n\n"
        "def circle():\n    pass\n\n\n"
        "def triangle():\n    pass\n\n\n"
        "def hexagon():\n    pass\n\n\n"
        "def pentagon():\n    pass\n\n\n"
        "class Registry:\n    pass\n\n\n"
        '__all__ = ["square", "circle", "triangle", "hexagon", "pentagon", "Registry"]\n',
        encoding="utf-8",
    )
    (package / "__init__.py").write_text(
        "from repro.shapes import Registry, circle, square, triangle\n"
        '__all__ = ["Registry", "circle", "square", "triangle"]\n'
        "Registry.add(circle)\n",
        encoding="utf-8",
    )
    (package / "draw.py").write_text(
        '"""Draws :func:`triangle`, not ``pentagon()``."""\n'
        "from repro.shapes import triangle\n\n"
        "# a comment naming pentagon is no caller either\n"
        "triangle()\n",
        encoding="utf-8",
    )
    (tmp_path / "examples" / "demo.py").write_text("print(hexagon)\n", encoding="utf-8")
    assert set(uncalled_definitions(tmp_path)) == {"square", "pentagon"}
