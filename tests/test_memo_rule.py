"""The memo rule, read off the source of src/dngeo: an object keeps derived
data only in its private `_memo`, which constructors set and the helper
`scalar._kept` alone reads and fills, and no object is changed through
`object.__setattr__` after its constructor.  A new memo, or a new way of
keeping one, fails here."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dngeo"
CONSTRUCTORS = {"__init__", "_make"}  # `_make`: ScalarExpr's trusted constructor
# the immutable values that set their fields through object.__setattr__
SETATTR_ALLOWED = {
    "symbolic/scalar.py:Chart.__post_init__",
    "symbolic/gaussian.py:gaussian",
    "symbolic/gaussian.py:GaussianRational.__init__",
}


def scoped_nodes(tree):
    """(qualified name of the innermost def or class that is or holds the
    node, node) for every node."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else None
            name = f"{scope}.{inner}" if scope and inner else inner or scope
            yield name, child
            yield from walk(child, name)

    yield from walk(tree, "")


def sources():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        rel = path.relative_to(PACKAGE).as_posix()
        yield rel, scoped_nodes(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))


def test_object_setattr_is_called_only_in_constructors():
    found = {
        f"{rel}:{scope}"
        for rel, nodes in sources()
        for scope, node in nodes
        if isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    }
    assert found and found <= SETATTR_ALLOWED, sorted(found - SETATTR_ALLOWED)


def test_the_memo_is_set_by_constructors_and_read_and_filled_by_the_helper_alone():
    outside = []
    for rel, nodes in sources():
        for scope, node in nodes:
            if not (isinstance(node, ast.Attribute) and node.attr == "_memo"):
                continue
            last = scope.rpartition(".")[2]
            setting = isinstance(node.ctx, ast.Store) and last in CONSTRUCTORS
            if not (setting or scope == "_kept" and rel == "symbolic/scalar.py"):
                outside.append(f"{rel}:{node.lineno} in {scope}")
    assert not outside, outside


def declared(node):
    """The names a statement of a class body declares: its __slots__, or a field."""
    if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__slots__"]:
        return ast.literal_eval(node.value)
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_private_slot_or_field_is_the_memo():
    private = [
        f"{rel}:{scope}.{name}"
        for rel, nodes in sources()
        for scope, cls in nodes
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        for name in declared(node)
        if name.startswith("_") and name != "_memo"
    ]
    assert not private, private
