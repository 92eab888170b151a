"""No dead public API: every public name of the package has a reader besides the tests.

Public names are the module-level functions and classes of ``src/vkribbon``
and the methods of those classes, unless they start with an underscore.
A name is used if its identifier appears in ``src/`` outside its own
definition, anywhere in ``demos/`` or ``perfbench/`` (string constants
included, since the benchmark wraps names it looks up by string), or as a
word of the README.  Oracles that only tests call live in ``tests/oracles.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELD = {ast.Name: "id", ast.Attribute: "attr", ast.keyword: "arg", ast.alias: "name"}


def identifiers(tree, strings=False, skip=None):
    """Identifiers that tree reads outside the node ``skip``."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"\w+", node.value))
        name = getattr(node, FIELD.get(type(node), ""), None)
        if name:
            found.add(name.rsplit(".", 1)[-1])
    return found


def dead_public_names(root=ROOT):
    modules = {p.stem: ast.parse(p.read_text()) for p in (root / "src/vkribbon").glob("*.py")}
    outside = set(re.findall(r"\w+", (root / "README.md").read_text()))
    for path in [*(root / "demos").rglob("*.py"), *(root / "perfbench").rglob("*.py")]:
        outside |= identifiers(ast.parse(path.read_text()), strings=True)
    read = {stem: identifiers(tree) for stem, tree in modules.items()}
    dead = []
    for stem, tree in modules.items():
        elsewhere = outside.union(*(ids for other, ids in read.items() if other != stem))
        classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
        members = [(c.name + ".", m) for c in classes for m in c.body]
        for prefix, node in [("", n) for n in tree.body] + members:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            if node.name not in elsewhere and node.name not in identifiers(tree, skip=node):
                dead.append(f"{stem}.{prefix}{node.name}")
    return sorted(dead)


def test_every_public_name_has_a_reader_outside_the_tests():
    assert dead_public_names() == []
