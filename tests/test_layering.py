"""Module layering: the library never reaches into the command line, only
the corpus's worker helper reaches for processes, and no command loads
scipy."""

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


def test_src_imports_no_scipy():
    found = [
        (path.name, func, module)
        for path in sorted(SRC.glob("*.py"))
        for func, module in _scipy_imports(path)
    ]
    assert found == []


def test_importing_the_cli_loads_what_numpy_and_argparse_load_lazily():
    # Loaded at import, so their import time falls in no command's steps.
    code = """if True:
        import sys
        import diarkit.cli
        wanted = ("numpy.fft", "numpy.random", "numpy.ma", "locale")
        print([m for m in wanted if m not in sys.modules])
    """
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert out.stdout.strip() == "[]"


def test_no_command_loads_scipy(tmp_path):
    code = """if True:
        import sys
        import diarkit.cli
        from diarkit.audio_io import emit_rttm, write_wav
        from diarkit.corpus import generate_mixture

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        print("scipy after import", scipy_modules())
        buf, turns = generate_mixture(2, 20.0, seed=3)
        write_wav("mix.wav", buf)
        with open("ref.rttm", "w", encoding="utf-8") as fh:
            fh.write(emit_rttm(turns))
        steps = [
            ["diarize", "mix.wav", "--out-rttm", "hyp.rttm"],
            ["diarize", "mix.wav", "--num-speakers", "2", "--out-rttm", "hyp.rttm"],
            ["diarize", "mix.wav", "--denoise", "--out-rttm", "denoised.rttm"],
            ["augment", "mix.wav", "babble.wav", "--kind", "babble"],
            ["evaluate", "--ref", "ref.rttm", "--hyp", "hyp.rttm",
             "--collar", "0.25", "--json", "report.json"],
            ["corpus", "corpus", "--layout", "1:1,2:1"],
        ]
        for argv in steps:
            assert diarkit.cli.main(argv) == 0, argv
            print("scipy after", argv[0], scipy_modules())
    """
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    loaded = [line for line in out.stdout.splitlines() if line.startswith("scipy after")]
    assert len(loaded) == 7
    assert all(line.endswith(" []") for line in loaded), loaded
    for name in ("denoised.rttm", "babble.wav", "report.json", "corpus/manifest.json"):
        assert (tmp_path / name).stat().st_size > 0
