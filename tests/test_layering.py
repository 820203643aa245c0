"""Module layering: the library never reaches into the command line."""

import ast
from pathlib import Path

import diarkit

SRC = Path(diarkit.__file__).resolve().parent


def _imports_from(path):
    """(module, name) for every ``from module import name`` in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        ("." * node.level + (node.module or ""), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_only_main_imports_the_cli():
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("cli.py", "__main__.py"):
            continue
        for module, _ in _imports_from(path):
            assert module not in (".cli", "diarkit.cli"), path.name


def test_cli_and_pipeline_import_no_private_name():
    for name in ("cli.py", "pipeline.py"):
        private = [n for _, n in _imports_from(SRC / name) if n.startswith("_")]
        assert private == [], name
