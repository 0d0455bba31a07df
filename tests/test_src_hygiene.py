"""Every private (``_``-prefixed) module-level function and class in
src/padicfrob, and every private method of a class there, is used
somewhere in src/padicfrob outside its own definition, so no helper
lives on for the tests alone.  A use is an ``ast.Name`` or
``ast.Attribute`` naming it; an import is not.  Every module-level
name assigned there (a constant such as a cap or a bound) is read
somewhere in src/padicfrob outside its assignment.  Every private name
the README quotes as a code span is defined in src/padicfrob.  No module
there imports dataclasses.  No module there but qseries reads a private
field or method of PowerSeries, which hold its integer form.  No module
there has an assert statement, which python -O strips."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "padicfrob"


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree: ast.Module) -> list:
    """(qualified name, node) for each private module-level function or
    class and each private method of a module-level class."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if _is_private(node.name):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [("%s.%s" % (node.name, method.name), method)
                      for method in node.body
                      if isinstance(method, ast.FunctionDef)
                      and _is_private(method.name)]
    return found


def _uses(tree: ast.AST) -> list:
    """(name, node) for every Name and Attribute in tree."""
    return [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]


def test_private_definitions_are_used_in_src():
    trees = _trees()
    uses = [use for tree in trees.values() for use in _uses(tree)]
    unused = []
    for module, tree in trees.items():
        for qualified, definition in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(name == definition.name and id(node) not in inside
                       for name, node in uses):
                unused.append("%s.%s" % (module, qualified))
    assert unused == []


def test_module_level_assignments_are_read_in_src():
    trees = _trees()
    reads = [(name, node) for tree in trees.values()
             for name, node in _uses(tree)
             if not isinstance(getattr(node, "ctx", None), ast.Store)]
    unread = []
    for module, tree in trees.items():
        for statement in tree.body:
            if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
                continue
            inside = {id(node) for node in ast.walk(statement)}
            targets = getattr(statement, "targets", None) or [statement.target]
            for target in targets:
                for node in ast.walk(target):
                    if (isinstance(node, ast.Name)
                            and not node.id.startswith("__")
                            and not any(name == node.id
                                        and id(use) not in inside
                                        for name, use in reads)):
                        unread.append("%s.%s" % (module, node.id))
    assert unread == []


def test_readme_private_names_are_defined_in_src():
    defined = set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(target.id for target in node.targets
                               if isinstance(target, ast.Name))
    quoted = set(re.findall(r"`(_[A-Za-z]\w*)`",
                            (ROOT / "README.md").read_text()))
    assert quoted and sorted(quoted - defined) == []


def test_no_module_imports_dataclasses():
    # the decorator's exec-built methods and its inspect/ast chain were
    # half of the CLI's import time; records subclass padic_core._Record
    importing = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importing.append(module)
    assert importing == []


def test_power_series_form_stays_in_qseries():
    # the integer numerators over one denominator are read only inside
    # qseries, so no second rational path grows outside the class
    trees = _trees()
    cls = next(node for node in trees["qseries.py"].body
               if isinstance(node, ast.ClassDef)
               and node.name == "PowerSeries")
    slots = next(ast.literal_eval(node.value) for node in cls.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["__slots__"])
    private = {name for name in slots if _is_private(name)}
    private |= {node.name for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and _is_private(node.name)}
    outside = sorted("%s:%d %s" % (module, node.lineno, node.attr)
                     for module, tree in trees.items()
                     if module != "qseries.py"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and node.attr in private)
    assert {"_num", "_den", "_form"} <= private and outside == []


def test_no_assert_statements():
    # a check that python -O would strip is no check: a condition the
    # package relies on raises its own exception
    found = sorted("%s:%d" % (module, node.lineno)
                   for module, tree in _trees().items()
                   for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert found == []
