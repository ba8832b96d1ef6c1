"""Every function, class and method of the package has a reader inside the
package: code that only tests read belongs in the tests that read it.

A definition counts as read when its name appears in the package source as
an attribute, an imported name, or a name that resolves to a module-level
binding.  A name bound inside the function that reads it (a parameter, a loop
variable, an assignment, or a closure over an enclosing function's local) is
not a reader.  Dunder methods are called by the language and are exempt.

A method name that several classes define is resolved per class: a read
``self.m`` or ``cls.m`` inside a class, or ``C.m`` for a package class C,
reads the method of that class (or of the base it inherits it from).  Any
other read of such a name, whose receiver's class the source does not show,
counts only for the classes that ``ACCEPTED_COLLISIONS`` lists for it."""

import ast
import symtable
from pathlib import Path

import endolab

SRC = Path(endolab.__file__).parent

# the independent oracles that only tests run, kept beside the routes they check
TEST_ONLY_ORACLES = {"kloosterman_eval_direct", "affine_char_eval"}

# method names shared by several classes, with the classes whose method is
# read through a receiver the source does not type; a shared name not listed
# here, or a class not listed for it, needs a resolved reader
ACCEPTED_COLLISIONS = {
    # the field tables and the Heisenberg group enumerate the F, k, Q passed in
    "elements": {"GF", "FiniteField", "QGroup"},
    "identity": {"QGroup"},  # Q.identity() on the group passed in
    "inv": {"GroupMatrix"},  # g.inv() on the matrices the routes build
    "mul": {"GF"},  # F.mul on the table passed in
    "neg": {"GF", "GroupMatrix"},  # F.neg on codes, g.neg() on matrices
    # k.units() on the residue field, ext.units() on the extension passed in
    "units": {"FiniteField", "QuadExtension"},
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _classes(trees):
    """Package class name -> (its methods, the names of its bases)."""
    out = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods = {sub.name for sub in node.body if isinstance(sub, ast.FunctionDef)}
                bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
                out[node.name] = (methods, bases)
    return out


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not _is_dunder(sub.name):
                    yield f"{node.name}.{sub.name}"


def _global_names_read(table):
    """Names referenced in ``table`` or its children that resolve to the
    module scope."""
    for sym in table.get_symbols():
        if sym.is_referenced() and (table.get_type() == "module" or sym.is_global()):
            yield sym.get_name()
    for child in table.get_children():
        yield from _global_names_read(child)


def _attribute_reads(tree, classes):
    """(attribute, receiver class or None) for every attribute read: the
    receiver is the enclosing class for ``self``/``cls``, or a package class
    read by name."""

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            yield from walk(child, child.name if isinstance(child, ast.ClassDef) else owner)
        if isinstance(node, ast.Attribute):
            value = node.value
            receiver = None
            if isinstance(value, ast.Name):
                if value.id in ("self", "cls"):
                    receiver = owner
                elif value.id in classes:
                    receiver = value.id
            yield node.attr, receiver

    yield from walk(tree, None)


def _defines(cls, method, classes):
    """The class in ``cls``'s package ancestry that defines ``method``."""
    while cls in classes:
        methods, bases = classes[cls]
        if method in methods:
            return cls
        cls = bases[0] if bases else None
    return None


def test_every_definition_has_a_reader_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    trees = {module: ast.parse(source) for module, source in sources.items()}
    classes = _classes(trees)
    read = set(TEST_ONLY_ORACLES)
    for module, source in sources.items():
        read.update(_global_names_read(symtable.symtable(source, "<src>", "exec")))
        read.update(node.name for node in ast.walk(trees[module]) if isinstance(node, ast.alias))
    shared = {}
    for cls, (methods, _) in classes.items():
        for m in methods:
            shared.setdefault(m, set()).add(cls)
    shared = {m: owners for m, owners in shared.items() if len(owners) > 1 and not _is_dunder(m)}
    resolved = set()
    for tree in trees.values():
        for attr, receiver in _attribute_reads(tree, classes):
            read.add(attr)
            if attr not in shared:
                continue
            if receiver is None:
                resolved.update((cls, attr) for cls in ACCEPTED_COLLISIONS.get(attr, ()))
            else:
                resolved.add((_defines(receiver, attr, classes), attr))
    unread = []
    for module, tree in trees.items():
        for name in _definitions(tree):
            cls, _, method = name.rpartition(".")
            if cls and method in shared:
                ok = (cls, method) in resolved
            else:
                ok = method in read
            if not ok:
                unread.append(f"{module}:{name}")
    assert unread == []


def test_accepted_collisions_are_collisions():
    """Each listed class defines the listed name, and the name is shared."""
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    classes = _classes(trees)
    for name, owners in ACCEPTED_COLLISIONS.items():
        assert all(name in classes[cls][0] for cls in owners), name
        assert sum(name in methods for methods, _ in classes.values()) > 1, name
