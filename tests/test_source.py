"""Static checks of the package source with the stdlib ast: every import is
used, every module-level private name is referenced somewhere in the
package, so code left behind by a fold cannot stay, and only the artifact
owner and the CLI open files."""

import ast
from pathlib import Path

import pytest

import nvpolar

SOURCES = sorted(Path(nvpolar.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _read_names(tree: ast.AST) -> set[str]:
    """Every name that a tree reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _bound_at_module_level(tree: ast.Module) -> dict[str, int]:
    """The names that a module's top-level statements define, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return names


@pytest.mark.parametrize("name", TREES)
def test_every_import_is_used(name):
    tree = TREES[name]
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = _read_names(tree)
    assert {n: line for n, line in imported.items() if n not in read} == {}


@pytest.mark.parametrize("name", TREES)
def test_every_module_level_private_name_is_referenced(name):
    read = set().union(*map(_read_names, TREES.values()))
    private = {
        n: line
        for n, line in _bound_at_module_level(TREES[name]).items()
        if n.startswith("_") and not n.startswith("__")
    }
    assert {n: line for n, line in private.items() if n not in read} == {}


#: The modules that may open files: experiments owns the artifact format,
#: and cli reads configs and curves and writes the plot scripts.
FILE_IO_MODULES = {"experiments.py", "cli.py"}


@pytest.mark.parametrize("name", sorted(set(TREES) - FILE_IO_MODULES))
def test_only_the_artifact_owner_and_the_cli_open_files(name):
    calls = {
        node.lineno
        for node in ast.walk(TREES[name])
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "open"
            or isinstance(node.func, ast.Attribute)
            and node.func.attr in {"open", "read_text", "write_text"}
        )
    }
    assert calls == set()
