"""Every module-level name in the package is used somewhere.

For each module-level function, class and assigned name of
`src/kvacontrol/*.py` (dunders excepted), the test looks for a whole-word
occurrence in a Python file under `src/`, `tests/` or `perfbench/` outside
the statement that defines it. A name that only its own definition mentions
is dead code: delete it, or use it.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kvacontrol")
SEARCHED = ("src", "tests", "perfbench")


def _python_files():
    for top in SEARCHED:
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _assigned(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assigned(elt)


def _definitions(path):
    """(name, first line, last line) of each module-level definition."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n for t in node.targets for n in _assigned(t)]
        elif isinstance(node, ast.AnnAssign):
            names = list(_assigned(node.target))
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno, node.end_lineno


def dead_names():
    sources = {}
    for path in _python_files():
        with open(path, encoding="utf-8") as f:
            sources[path] = f.read().splitlines()
    dead = []
    for module in sorted(os.listdir(PACKAGE)):
        if not module.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, module)
        for name, first, last in _definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(
                word.search(line)
                for src, lines in sources.items()
                for n, line in enumerate(lines, start=1)
                if not (src == path and first <= n <= last))
            if not used:
                dead.append(f"{module[:-3]}.{name}")
    return dead


def test_every_module_level_name_is_referenced():
    assert dead_names() == []
