"""Every public name of the library is reached by something other than a
test: library code outside the name's own definition, a demo, or a
benchmark script.  API that only the tests call is machinery that buys
nothing; remove it, or allowlist it here with the reason it stays.

A function or class is reached by its bare name (a name, an attribute or
an imported name).  A method is reached only through an attribute access
(``x.method``), so a local variable or an import that shares its name
does not count as a use of it."""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
LIBRARY = sorted((ROOT / "src" / "wadm").glob("*.py"))

# name -> why it stays although only the tests (and the acceptance suite) call it
ALLOWED = {
    "chain_sum_bounds": "the chain-sum lemma in exact arithmetic; acceptance criterion 3 "
                        "cross-validates it against its integer sweep",
    "PhiModule.chain": "the chain module of a rank piece and s twists in one call; 11 test call "
                       "sites build chain modules with it",
    "all_roots": "the full root system; bench/spans.py (CACHED) and bench/run.py (CLOSURES) "
                 "read its cache counters by name",
}


def _references(tree, skip=None):
    """(names, attributes) used in ``tree``, leaving out the subtree
    ``skip``: ``names`` holds every name, attribute name and imported name,
    ``attributes`` only the attribute names."""
    names, attributes = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names | attributes, attributes


def _public_definitions(tree):
    """(qualified name, bare name, node, is a method) of the public
    module-level functions and classes and the public, non-dunder methods
    of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, item, True


def _unreached():
    # the package's __init__ only re-exports: an export is not a use
    library = {path: ast.parse(path.read_text()) for path in LIBRARY if path.name != "__init__.py"}
    outside = [
        _references(ast.parse(path.read_text()))
        for path in sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    whole = {path: _references(tree) for path, tree in library.items()}
    unreached = []
    for path, tree in library.items():
        elsewhere = outside + [refs for other, refs in whole.items() if other != path]
        for qualname, name, node, method in _public_definitions(tree):
            kind = 1 if method else 0  # a method counts only as an attribute
            used = any(name in refs[kind] for refs in elsewhere + [_references(tree, skip=node)])
            if not used:
                unreached.append(f"{path.stem}.{qualname}")
    return unreached


def test_every_public_name_is_reached_outside_the_tests():
    unreached = [name for name in _unreached() if name.partition(".")[2] not in ALLOWED]
    assert not unreached, f"public names only the tests reach: {unreached}"


def test_allowlist_names_only_unreached_definitions():
    # an entry whose name gains a caller, or goes away, must leave the list
    unreached = {name.partition(".")[2] for name in _unreached()}
    assert set(ALLOWED) <= unreached, sorted(set(ALLOWED) - unreached)
