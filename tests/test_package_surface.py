"""No public function or class of the package lives only for its unit tests.

A module-level def or class in `src/layerscope/*.py` must be read by some code
that is not a unit test: the package itself (its own module included, not the
`__init__` re-exports), the benchmark's tracer and child (`bench/spans.py`,
`bench/child.py`), the scripts in `tools/` or the acceptance tests. Names are
collected with `ast`; a string literal that parses as Python (the tracer's
"Class.method" targets, a script's child source) counts with its names. The
files are only parsed, never run.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "layerscope"
USERS = [
    ROOT / "bench" / "spans.py",
    ROOT / "bench" / "child.py",
    *sorted((ROOT / "tools").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def _names(tree: ast.AST) -> set:
    """Every identifier the tree reads, imports or names in a parsable string."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                out |= _names(ast.parse(node.value))
            except SyntaxError:
                pass
    return out


def test_every_public_definition_has_a_caller_outside_the_unit_tests():
    modules = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    used = set().union(*(_names(tree) for tree in modules.values()))
    used |= set().union(*(_names(ast.parse(path.read_text())) for path in USERS))
    unused = [
        f"{path.stem}.{node.name}"
        for path, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_") and node.name not in used
    ]
    assert not unused, unused
