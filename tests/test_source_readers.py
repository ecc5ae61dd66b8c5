"""Every module-level function and class in `src/uplinksim/` has a reader
outside its own body: the package itself (bar `__init__.py`, whose exports
are not readers) or the acceptance suite.  A name that only the other tests
read belongs in those tests, as their oracle."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uplinksim"

# Names without such a reader, kept on purpose: each maps to the file
# outside src/ that still reads it, or to None for public API kept by choice.
EXEMPT = {
    # traced for the run_orbit.* and polarization_distortion.* counters
    "run_orbit": "perfbench/tracing.py",
    "polarization_distortion": "perfbench/tracing.py",
    # the expected fourfold total that checks each campaign op
    "expected_signal_count": "perfbench/workloads.py",
    "expected_accidental_count": "perfbench/workloads.py",
    # the three stages of the tags workload and its sync-pulse grid
    "sync_pulse_times_ps": "perfbench/workloads.py",
    "generate_streams": "perfbench/workloads.py",
    "fit_clock": "perfbench/workloads.py",
    "match_coincidences": "perfbench/workloads.py",
    # public API kept by choice, for the next re-anchor to decide
    "prepare_input": None,
    # read by the import system (PEP 562)
    "__getattr__": None,
}


def _loaded_names(tree: ast.AST) -> set[str]:
    """Every name that `tree` loads as a bare name or as an attribute."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _unread_definitions() -> set[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    readers = [tree for name, tree in trees.items() if name != "__init__.py"]
    readers.append(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    # The names each top-level statement of each reader loads, in one walk
    # per tree.  A definition is itself a top-level statement, so the names
    # loaded outside its body are those of every other statement.
    loads = [(stmt, _loaded_names(stmt)) for reader in readers for stmt in reader.body]
    return {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(node.name in names for stmt, names in loads if stmt is not node)
    }


def test_every_source_name_has_a_reader():
    assert _unread_definitions() == set(EXEMPT)


def test_each_exemption_still_has_its_reader():
    for name, path in EXEMPT.items():
        if path is not None:
            assert re.search(rf"\b{name}\b", (ROOT / path).read_text()), (name, path)
