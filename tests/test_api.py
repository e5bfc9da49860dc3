"""The public API holds no name that only tests use."""

import ast
from pathlib import Path

import omzv

ROOT = Path(__file__).resolve().parents[1]


def code_references(paths):
    """Names that code reads, as a bare name or an attribute.  Import
    lists, def and class names, docstrings and __all__ strings are not
    references."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_by_the_package_or_the_bench():
    package = Path(omzv.__file__).parent
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    used = code_references(paths + sorted((ROOT / "bench").glob("*.py")))
    unused = sorted(set(omzv.__all__) - {"__version__"} - used)
    assert not unused, "public names that only tests use: %s" % unused
