"""The names the package re-exports and the modules' ``__all__`` lists."""

import ast
import importlib
from pathlib import Path

import realcheck


def test_package_imports_only_names_its_modules_list_in_all():
    tree = ast.parse(Path(realcheck.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"realcheck.{node.module}")
        listed = getattr(module, "__all__", None)
        if listed is not None:
            assert [a.name for a in node.names if a.name not in listed] == [], node.module
