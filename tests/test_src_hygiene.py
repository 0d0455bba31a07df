"""Every private (``_``-prefixed) module-level function and class in
src/padicfrob is used somewhere in src/padicfrob outside its own
definition, so no helper lives on for the tests alone.  A use is an
``ast.Name`` or ``ast.Attribute`` naming it; an import is not."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "padicfrob"


def _private_definitions(tree: ast.Module) -> list:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")]


def _uses(tree: ast.AST) -> list:
    """(name, node) for every Name and Attribute in tree."""
    return [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]


def test_private_definitions_are_used_in_src():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    uses = [use for tree in trees.values() for use in _uses(tree)]
    unused = []
    for module, tree in trees.items():
        for definition in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(name == definition.name and id(node) not in inside
                       for name, node in uses):
                unused.append("%s.%s" % (module, definition.name))
    assert unused == []
