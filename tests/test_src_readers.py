"""Every function, class and method of the package has a reader inside the
package: code that only tests read belongs in the tests that read it.

A definition counts as read when its name appears anywhere in the package
source as a name, an attribute or an imported name.  Dunder methods are
called by the language and are exempt."""

import ast
from pathlib import Path

import endolab

SRC = Path(endolab.__file__).parent

# the independent oracles that only tests run, kept beside the routes they check
TEST_ONLY_ORACLES = {"kloosterman_eval_direct", "affine_char_eval"}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{node.name}.{sub.name}"


def _names_read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_definition_has_a_reader_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = {name for tree in trees.values() for name in _names_read(tree)}
    unread = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if name.rsplit(".", 1)[-1] not in read | TEST_ONLY_ORACLES
    ]
    assert unread == []
