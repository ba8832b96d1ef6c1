"""Every function, class and method of the package has a reader inside the
package: code that only tests read belongs in the tests that read it.

A definition counts as read when its name appears in the package source as
an attribute, an imported name, or a name that resolves to a module-level
binding.  A name bound inside the function that reads it (a parameter, a loop
variable, an assignment, or a closure over an enclosing function's local) is
not a reader.  Dunder methods are called by the language and are exempt."""

import ast
import symtable
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


def _global_names_read(table):
    """Names referenced in ``table`` or its children that resolve to the
    module scope."""
    for sym in table.get_symbols():
        if sym.is_referenced() and (table.get_type() == "module" or sym.is_global()):
            yield sym.get_name()
    for child in table.get_children():
        yield from _global_names_read(child)


def _names_read(source, tree):
    yield from _global_names_read(symtable.symtable(source, "<src>", "exec"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_definition_has_a_reader_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {name for module in sources for name in _names_read(sources[module], trees[module])}
    unread = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if name.rsplit(".", 1)[-1] not in read | TEST_ONLY_ORACLES
    ]
    assert unread == []
