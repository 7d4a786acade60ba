import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hoshell"


def _statements(tree: ast.Module):
    # (name a top-level statement defines, names its code reads) per
    # statement.  A statement that defines no function or class runs on
    # import, so it reaches what it reads.  Imports and `__all__` reach
    # nothing: a name reached only through them is not used.
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["__all__"]):
            continue
        defined = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        read = {sub.id if isinstance(sub, ast.Name) else sub.attr
                for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}
        yield defined, read


def test_every_export_is_reached_outside_the_tests():
    # `hoshell` exports only what the package, its entry point, the scripts,
    # the benchmark or the README reaches.  A reference that only the tests
    # call belongs in tests/reference.py.  Package code reaches a name when a
    # reached definition reads it, so a helper called only by a test-only
    # function is flagged with it.  The files are read from the source.
    exported = [alias.asname or alias.name
                for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert exported
    texts = [path.read_text() for folder in ("scripts", "perfbench")
             for path in sorted((ROOT / folder).glob("*.py"))]
    texts += [(ROOT / "README.md").read_text(), (ROOT / "pyproject.toml").read_text()]
    reached = set(re.findall(r"\w+", "\n".join(texts)))
    reads: dict[str, set[str]] = {}
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for defined, read in _statements(ast.parse(path.read_text())):
            if defined is None:
                reached |= read
            else:
                reads.setdefault(defined, set()).update(read)
    while True:
        new = set().union(*(reads[name] for name in reads if name in reached)) - reached
        if not new:
            break
        reached |= new
    assert [name for name in exported if name not in reached] == []
