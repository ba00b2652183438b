"""Guard against regrowth of surface that no experiment reads.

Every ``def`` and ``class`` in ``src/repro`` must be referenced from code
outside ``tests/``: a ``Name``, an ``Attribute`` or an identifier string
(``getattr`` names, dispatch tables) in ``src/``, ``benchmarks/``,
``examples/`` or ``perfbench/``.  Imports, ``__all__`` lists and the
def's own body do not count, so a function that only its tests call, or
that only a package re-export names, fails the scan.  Dunder methods run
implicitly and are exempt.  References match by name, so the scan is
conservative: a def sharing its name with a used one passes.  A
definition kept on purpose is listed in ``KEEP`` with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
READERS = ("src", "benchmarks", "examples", "perfbench")

_ALGEBRA = "Definition 4 reference algebra that tests check MDS.classify against"
_FAULTS = "fault fake the crash tests drive"

KEEP = {
    "core/mds.py:overlaps": _ALGEBRA,
    "core/mds.py:extension": _ALGEBRA,
    "core/mds.py:contains": _ALGEBRA,
    "storage/faults.py:FaultPlan": _FAULTS,
    "storage/faults.py:FaultInjector": _FAULTS,
    "storage/faults.py:seeded": _FAULTS,
    "core/debug.py:dump_tree": "documented operator output: the tree dump",
    "obs/trace.py:export_jsonl": "documented operator output: the span log",
    "warehouse.py:insert_many": "README's bulk-insert example",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_TREES = {}


def _parse(path):
    """One AST per file, so a def node is the same object in both passes."""
    if path not in _TREES:
        _TREES[path] = ast.parse(path.read_text(), str(path))
    return _TREES[path]


def _python_files(directory):
    return sorted(p for p in directory.rglob("*.py")
                  if "__pycache__" not in p.parts)


def _references():
    """Map name -> list of the def-node tuples enclosing each reference."""
    refs = {}

    def visit(node, enclosing):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            name = node.value
        if name is not None:
            refs.setdefault(name, []).append(enclosing)
        if isinstance(node, _DEFS):
            enclosing = enclosing + (node,)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for reader in READERS:
        for path in _python_files(ROOT / reader):
            visit(_parse(path), ())
    return refs


def unreferenced_definitions():
    """Sorted ``module:name`` of every def that nothing outside tests reads."""
    refs = _references()
    unused = set()
    for path in _python_files(PACKAGE):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, _DEFS):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if any(node not in enclosing
                   for enclosing in refs.get(node.name, ())):
                continue
            module = path.relative_to(PACKAGE).as_posix()
            unused.add("%s:%s" % (module, node.name))
    return sorted(unused)


def test_every_definition_is_read_outside_tests():
    unused = [entry for entry in unreferenced_definitions()
              if entry not in KEEP]
    assert not unused, (
        "definitions with no reference outside tests/ (delete them, or "
        "add a KEEP entry with the reason):\n  " + "\n  ".join(unused)
    )


def test_keep_entries_are_still_needed():
    stale = sorted(set(KEEP) - set(unreferenced_definitions()))
    assert not stale, "KEEP entries now referenced or gone: %s" % stale
