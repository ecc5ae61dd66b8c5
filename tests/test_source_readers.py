"""Every module-level function, class and assignment in `src/uplinksim/`,
and every method and property of those classes, has a reader outside its
own statement: the package itself or the acceptance suite.  `__init__.py`
names its exports as strings, so they read nothing there.  A name that only
the other tests read belongs in those tests, as their oracle."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uplinksim"

# Names without such a reader, kept on purpose: each maps to the file
# outside src/ that still reads it, or to None for public API kept by choice.
# A method or property is named after its class, "Class.name".
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
    # the calibrate op's error budget, and the tags op's pair count check
    "CalibrationResult.apply": "perfbench/workloads.py",
    "MatchResult.n_matched": "perfbench/workloads.py",
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


def _is_definition(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _bindings(stmt: ast.AST) -> list[str]:
    """The names an assignment statement binds, dunders skipped."""
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return []
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [
        node.id
        for target in targets
        for node in ast.walk(target)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and not _is_dunder(node.id)
    ]


def _unread(definitions, units) -> set[str]:
    """The names of the (name, node) `definitions` that no unit but the
    node itself loads, with the names each unit loads found in one walk; a
    method "Class.name" is read as "name"."""
    loads = [(unit, _loaded_names(unit)) for unit in units]
    return {
        name
        for name, node in definitions
        if not any(name.rpartition(".")[2] in names for unit, names in loads if unit is not node)
    }


def _unread_definitions(sources: dict[str, str] | None = None) -> set[str]:
    """The names in `sources` (file name -> source text, by default the
    package's) that nothing in the package or the acceptance suite reads."""
    if sources is None:
        sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    trees = {name: ast.parse(text) for name, text in sources.items()}
    readers = [*trees.values(), ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())]
    # A module-level definition or assignment is itself a top-level
    # statement, so the names loaded outside it are those of every other
    # statement, its own module's included.
    statements = [stmt for reader in readers for stmt in reader.body]
    top = [(node.name, node) for tree in trees.values() for node in tree.body if _is_definition(node)]
    top += [(name, stmt) for tree in trees.values() for stmt in tree.body for name in _bindings(stmt)]
    # A method is a statement of its class body: the units are then each
    # statement of a class body, and each other top-level statement.
    members = [
        stmt
        for reader in statements
        for stmt in (reader.body if isinstance(reader, ast.ClassDef) else (reader,))
    ]
    methods = [
        (f"{cls.name}.{node.name}", node)
        for tree in trees.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if _is_definition(node) and not _is_dunder(node.name)
    ]
    return _unread(top, statements) | _unread(methods, members)


def test_every_source_name_has_a_reader():
    assert _unread_definitions() == set(EXEMPT)


def test_each_exemption_still_has_its_reader():
    for name, path in EXEMPT.items():
        if path is not None:
            attribute = name.rpartition(".")[2]
            assert re.search(rf"\b{attribute}\b", (ROOT / path).read_text()), (name, path)


def test_an_unread_method_is_seen():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    sources["linkgeom.py"] = sources["linkgeom.py"].replace(
        "    def half_duration_s(self) -> float:",
        "    def never_read(self) -> float:\n        return 0.0\n\n    def half_duration_s(self) -> float:",
    )
    assert _unread_definitions(sources) == {*EXEMPT, "PassGeometry.never_read"}


def test_an_unread_constant_is_seen():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    sources["linkgeom.py"] += "\nNEVER_READ = 0.0\n"
    sources["__init__.py"] += "\n_never_read, _NEVER_READ_EITHER = 1, 2\n"
    assert _unread_definitions(sources) == {*EXEMPT, "NEVER_READ", "_never_read", "_NEVER_READ_EITHER"}
