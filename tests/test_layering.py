"""The package's modules import each other along a DAG, none imports
another module's private names, only ``trees`` walks a tree's nodes, and
only ``model`` parses JSON.

Imports and attributes are read from the source with ``ast``, at any depth,
so an import under ``if TYPE_CHECKING:`` or inside a function counts like any
other.
"""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ilmart"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
# A tree's node encoding: only trees.py follows it, through DecisionTree.leaves.
NODE_FIELDS = {"root", "left_child", "right_child"}
# The json module's parsers: only model.py calls them, through read_json.
JSON_READERS = {"load", "loads"}


def _parse(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def _module(dotted: str):
    """The package module that a dotted name lies in, or None outside the package."""
    parts = dotted.split(".")
    if parts[0] != "ilmart":
        return None
    return parts[1] if len(parts) > 1 else "__init__"


def _imports():
    """``(importer, imported module, imported names)`` for every import of a
    package module: relative or absolute, of a module or of names in it."""
    found = []
    for name in MODULES:
        for node in ast.walk(_parse(name)):
            if isinstance(node, ast.Import):
                found += [(name, _module(alias.name), ()) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:          # the package has no subpackages
                    base = "ilmart." + base if base else "ilmart"
                for alias in node.names:
                    # "from . import m" imports the module m
                    where = f"{base}.{alias.name}" if (
                        base == "ilmart" and alias.name in MODULES) else base
                    found.append((name, _module(where), (alias.name,)))
    return [entry for entry in found if entry[1] is not None]


def test_imports_form_a_dag():
    graph = {name: set() for name in MODULES}
    for importer, imported, _ in _imports():
        graph[importer].add(imported)
    done, path = set(), []

    def visit(node):
        if node in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(node):] + [node]))
        if node in done:
            return
        path.append(node)
        for nxt in sorted(graph[node]):
            visit(nxt)
        path.pop()
        done.add(node)

    for name in MODULES:
        visit(name)


def test_no_module_imports_private_names_of_another():
    private = [f"{importer}: from {imported} import {n}"
               for importer, imported, names in _imports() if imported != importer
               for n in names if n.startswith("_")]
    assert private == []


def test_only_trees_reads_the_node_encoding():
    reads = [f"{name}.py:{node.lineno}: .{node.attr}" for name in MODULES if name != "trees"
             for node in ast.walk(_parse(name))
             if isinstance(node, ast.Attribute) and node.attr in NODE_FIELDS]
    assert reads == []


def test_only_model_parses_json():
    readers = {name for name in MODULES for node in ast.walk(_parse(name))
               if isinstance(node, ast.Attribute) and node.attr in JSON_READERS
               and isinstance(node.value, ast.Name) and node.value.id == "json"
               or isinstance(node, ast.ImportFrom) and node.module == "json"
               and JSON_READERS & {alias.name for alias in node.names}}
    assert readers == {"model"}
