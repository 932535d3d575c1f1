"""Static checks of the package source with the stdlib ast: every import is
used, every module-level private name is referenced somewhere in the
package, so code left behind by a fold cannot stay, only the artifact
owner and the CLI open files, and only the preset takes a cycle count."""

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



def _calls(tree: ast.AST, attrs: set[str]) -> set[ast.Call]:
    """The calls of a method named in attrs anywhere in a tree."""
    return {
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in attrs
    }


def test_the_cli_makes_and_writes_its_directory_in_one_writer():
    """Every .mkdir and .write_text call of cli.py sits inside _write, so
    each command hands its files to the one writer and no handler writes."""
    tree, attrs = TREES["cli.py"], {"mkdir", "write_text"}
    writers = [node for node in tree.body if getattr(node, "name", None) == "_write"]
    inside = set().union(*(_calls(writer, attrs) for writer in writers))
    assert sorted(node.lineno for node in _calls(tree, attrs) - inside) == []
    assert {node.func.attr for node in inside} == attrs


#: The functions that may take a cycle count: the preset resolves and checks
#: it, and bench's reference path builds a schedule of any count through it.
CYCLE_COUNT_OWNERS = {"Preset.cycles", "Preset.schedule"}


def _functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function and method in a tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, prefix)


def test_only_the_preset_takes_a_cycle_count():
    """The preset is the one carrier of N: no other function or method has
    a parameter named n_cycles, so no layer can override the preset's count."""
    found = [
        f"{name}:{qualname}"
        for name, tree in TREES.items()
        for qualname, node in _functions(tree)
        if qualname not in CYCLE_COUNT_OWNERS
        and "n_cycles" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    ]
    assert found == []
