"""Every module under ``src/repro/`` is reached from what the repo runs.

The entry points are the CLI (``repro.cli``, ``repro.__main__``) and the
scripts under ``benchmarks/``, ``examples/`` and ``perfbench/``.  The
static import graph follows every ``import`` and ``from ... import``
statement, those inside functions included, and a module's import
reaches its parent packages.  A name imported from a package counts for
the submodule its lazy ``_EXPORTS`` table maps it to
(:mod:`repro._lazy`), so a package import alone reaches none of its
submodules.  A module that only tests reach is dead weight: delete it,
or give it a figure, command or benchmark that uses it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.cli", "repro.__main__")
ENTRY_DIRS = ("benchmarks", "examples", "perfbench")

#: Modules allowed to be reached only from tests, each with its reason.
ALLOWED_UNREACHED = {
    # Forces channel wires for the TMU handshake-violation tests;
    # campaigns inject through the stage fault blocks instead.
    "repro.faults.injector",
}


def _modules():
    """``{dotted name: path}`` of every module under ``src/repro``."""
    found = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


MODULES = _modules()


def _exports(package):
    """The package's lazy ``_EXPORTS`` table, inverted: name → module."""
    path = MODULES.get(package)
    if path is None or path.name != "__init__.py":
        return {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_EXPORTS"
            for target in node.targets
        ):
            table = ast.literal_eval(node.value)
            return {
                name: f"{package}.{module}"
                for module, names in table.items()
                for name in names
            }
    return {}


def _imports(path, package):
    """Dotted names of the repro modules *path*'s statements import;
    *package* anchors relative imports (``None`` outside the tree)."""
    targets = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                anchor = package.split(".")
                base = anchor[: len(anchor) - node.level + 1]
                source = ".".join(base + ([node.module] if node.module else []))
            else:
                source = node.module
            targets.add(source)
            exports = _exports(source)
            for alias in node.names:
                submodule = f"{source}.{alias.name}"
                if submodule in MODULES:
                    targets.add(submodule)
                elif alias.name in exports:
                    targets.add(exports[alias.name])
    return {name for name in targets if name in MODULES}


def _reached():
    """Every module reached from the entry points, parents included."""
    frontier = set(ENTRY_MODULES)
    for directory in ENTRY_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            frontier |= _imports(path, None)
    reached = set()
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        parts = name.split(".")
        frontier.update(".".join(parts[:i]) for i in range(1, len(parts)))
        path = MODULES[name]
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        frontier |= _imports(path, package) - reached
    return reached


def test_every_module_is_reached_from_an_entry_point():
    unreached = set(MODULES) - _reached()
    assert unreached == ALLOWED_UNREACHED

