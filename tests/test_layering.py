"""Module layering: the library never reaches into the command line, only
the corpus's worker helper reaches for processes, and no command loads
scipy.optimize, scipy.spatial or scipy.cluster."""

import ast
import os
import subprocess
import sys
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


def _process_imports(path):
    """(enclosing function or None, line) for each import of multiprocessing
    or ProcessPoolExecutor in the file."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        else:
            names = []
        if any(n.split(".")[0] == "multiprocessing" or n in (
            "ProcessPoolExecutor", "concurrent.futures.process"
        ) for n in names):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_the_corpus_worker_helper_imports_multiprocessing():
    for path in sorted(SRC.glob("*.py")):
        for func, line in _process_imports(path):
            assert (path.name, func) == ("corpus.py", "_map_in_workers"), (path.name, line)
    assert _process_imports(SRC / "corpus.py") != []


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    code = "import sys, diarkit.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert out.stdout.strip() == "False"


def _scipy_imports(path):
    """(enclosing function or None, scipy module) for each import of scipy
    or of a scipy subpackage in the file."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Import):
            found.extend((func, a.name) for a in node.names if a.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "scipy":
                found.extend((func, f"scipy.{a.name}") for a in node.names)
            elif node.module.split(".")[0] == "scipy":
                found.append((func, node.module))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_no_module_imports_scipy_optimize_or_cluster():
    for path in sorted(SRC.glob("*.py")):
        for func, module in _scipy_imports(path):
            top = ".".join(module.split(".")[:2])
            assert top not in ("scipy.optimize", "scipy.cluster"), (path.name, module)
            if top == "scipy.spatial":
                assert (path.name, func) == ("cluster.py", "_pairwise"), (path.name, module)


def test_diarize_and_evaluate_leave_scipy_optimize_spatial_and_cluster_unloaded(tmp_path):
    code = """if True:
        import sys
        import diarkit.cli
        from diarkit.audio_io import emit_rttm, write_wav
        from diarkit.corpus import generate_mixture

        buf, turns = generate_mixture(2, 20.0, seed=3)
        write_wav("mix.wav", buf)
        with open("ref.rttm", "w", encoding="utf-8") as fh:
            fh.write(emit_rttm(turns))
        main = diarkit.cli.main
        assert main(["diarize", "mix.wav", "--out-rttm", "hyp.rttm"]) == 0
        assert main(["diarize", "mix.wav", "--num-speakers", "2", "--out-rttm", "hyp.rttm"]) == 0
        assert main(["evaluate", "--ref", "ref.rttm", "--hyp", "hyp.rttm",
                     "--collar", "0.25", "--json", "report.json"]) == 0
        loaded = ("scipy.optimize", "scipy.spatial", "scipy.cluster")
        print(sorted(m for m in loaded if m in sys.modules))
    """
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "report.json").stat().st_size > 0
