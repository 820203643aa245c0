"""diarkit benchmark: seeded workloads driven through the CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run every
workload in turn. Run from anywhere: the package is taken from ``src/``
next to this directory, and scratch files go under ``.perfbench_out/``
at the repository root.

One run:

1. Set-up: two input sets are generated, each in its own process with
   the package's generator: the seed's set and the fixed anchor set
   (seed 0).
2. Timed phase: iterations alternate between the two sets, at least two
   and until S seconds have passed. Each iteration is a fresh child
   that imports the package and calls ``diarkit.cli.main(argv)`` for
   each step of the workload; the timed span runs from the first call
   to the end of the last.
3. Checks: every output is checked (``checks.py``), and every later
   iteration of a set must reproduce its first one's exit codes and
   output bytes.
4. Known-defect probes run untimed and print their status; they do not
   count as failures.
5. With ``--trace 1`` one more iteration of the seed's set runs under
   the tracer, and the run prints the per-layer metrics instead of the
   end-to-end ones; the spans go to ``.perfbench_out/``.

The last line of standard output is the result as one JSON object. A run
that cannot measure exits non-zero without printing one.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEADLINE_S = 170.0
# Children run single-threaded: with two BLAS threads on two cores,
# corpus_batch ran about 15 % slower and its peak RSS changed between
# identical runs (161-199 MB).
BLAS_THREADS = 1
MAX_ITERATIONS = 40
LABELS = ("seed", "anchor")


class BenchError(RuntimeError):
    """The run could not measure; no result is printed."""


def blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, or None when it is not found."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "blas_threads_default": blas_threads(),
    }


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _peak_rss(iterations: list[dict], label: str) -> float:
    """Median peak RSS of one set's untraced iterations.

    It is read from one input set because it follows that set's longest
    file: on corpus_batch the seed's set peaked at 169-192 MB across seeds
    101-103, while the anchor set gave 161 MB in every iteration.
    """
    return statistics.median(it["peak_rss_mb"] for it in iterations if it["label"] == label)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.pop("DIARKIT_SEED", None)
        # A fixed hash seed makes set iteration order, and with it the
        # allocation pattern and peak RSS, repeat between processes.
        self.env["PYTHONHASHSEED"] = "0"
        # numpy advises huge pages for large arrays; whether the host has
        # free ones then decides peak RSS (146 or 235 MB for one input).
        self.env["NUMPY_MADVISE_HUGEPAGE"] = "0"
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.children = 0

    # -- processes ---------------------------------------------------

    def child(self, spec: dict, name: str) -> dict:
        self.children += 1
        tag = f"{self.children:02d}-{name}"
        spec_path = self.work / f"{tag}.spec.json"
        result_path = self.work / f"{tag}.result.json"
        log_path = self.work / f"{tag}.log"
        spec["result"] = str(result_path)
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before {name}")
        spawned = time.monotonic()
        with open(log_path, "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(spec_path)],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    env=self.env,
                    timeout=remaining,
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"{name} ran past the {DEADLINE_S:.0f} s deadline") from None
        ended = time.monotonic()
        if proc.returncode != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"{name} exited {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["start_s"] = result["imported_at"] - spawned
        result["wall_s"] = ended - spawned
        return result

    def generate(self, label: str, seed: int) -> dict:
        directory = self.work / label
        directory.mkdir()
        # Only the seed's set feeds the corpus layer's metrics.
        traced = self.trace and label == "seed"
        trace = str(self.work / f"gen-{label}.spans.json") if traced else None
        result = self.child(
            {"mode": "gen", "dir": str(directory), "workload": self.workload,
             "seed": seed, "trace": trace},
            f"gen-{label}",
        )
        if trace:
            result["spans"] = json.loads(Path(trace).read_text(encoding="utf-8"))
        return result

    def iterate(self, label: str, plan: dict, traced=False, name=None) -> dict:
        directory = self.work / label
        shutil.rmtree(directory / "out", ignore_errors=True)
        for sub in plan["out_dirs"]:
            (directory / sub).mkdir(parents=True, exist_ok=True)
        trace = str(self.work / f"{label}.spans.json") if traced else None
        result = self.child(
            {"mode": "steps", "dir": str(directory), "steps": plan["steps"], "trace": trace},
            name or label,
        )
        result["label"] = label
        result["digest"] = _digest(directory / "out")
        if trace:
            result["spans"] = json.loads(Path(trace).read_text(encoding="utf-8"))
        return result

    # -- phases ------------------------------------------------------

    def execute(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            return self._execute()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _execute(self) -> dict:
        seeds = {"seed": self.seed, "anchor": workloads.ANCHOR_SEED}
        gens = {label: self.generate(label, seeds[label]) for label in LABELS}
        plans = {label: gens[label]["plan"] for label in LABELS}

        iterations = []
        started = time.monotonic()
        while len(iterations) < 2 or (
            time.monotonic() - started < self.seconds and len(iterations) < MAX_ITERATIONS
        ):
            label = LABELS[len(iterations) % 2]
            iterations.append(self.iterate(label, plans[label]))
        traced = self.iterate("seed", plans["seed"], traced=True, name="traced") if self.trace else None

        attempted, failures, quality = 0, [], {}
        for label in LABELS:
            runs = [it for it in iterations if it["label"] == label]
            if label == "seed" and traced is not None:
                runs.append(traced)
            first = runs[0]
            for argv, code in zip(plans[label]["steps"], first["exit_codes"]):
                attempted += 1
                if code != 0:
                    failures.append(f"[{label}] `diarkit {' '.join(argv)}` exited {code}")
            for k, other in enumerate(runs[1:], 2):
                attempted += 1
                if other["exit_codes"] != first["exit_codes"] or other["digest"] != first["digest"]:
                    failures.append(f"[{label}] iteration {k} did not reproduce iteration 1")
            checker = checks.Checker(self.work / label, label)
            reports = checker.run(plans[label])
            attempted += checker.attempted
            failures += checker.failures
            if not reports:
                raise BenchError(f"[{label}] no scored report to read DER from")
            quality[label] = checks.pooled(reports)

        probes = self.probes(plans["seed"]["probes"], quality["seed"][0])

        rtfs = [it["timed_s"] / plans[it["label"]]["recording_s"] for it in iterations]
        setup_s = statistics.median([g["wall_s"] for g in gens.values()]) + statistics.median(
            [it["start_s"] for it in iterations]
        )
        if self.trace:
            metrics = self.layer_metrics(gens["seed"], traced, iterations, quality["seed"])
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "rtf": (statistics.median(rtfs), "s/s"),
                "peak_rss_mb": (_peak_rss(iterations, "anchor"), "MB"),
                "der_pct": (quality["anchor"][0], "%"),
                "jer_pct": (quality["anchor"][1], "%"),
                "ok_frac": (1.0 - len(failures) / attempted, "ratio"),
            }
        return {
            "workload": self.workload,
            "seed": self.seed,
            "plans": plans,
            "gens": gens,
            "iterations": iterations,
            "traced": traced,
            "quality": quality,
            "probes": probes,
            "attempted": attempted,
            "failures": failures,
            "metrics": metrics,
        }

    def probes(self, probes: list[dict], pooled_der: float) -> list[str]:
        """Run every known-defect probe in one untimed child; one line each."""
        if not probes:
            return []
        (self.work / "seed" / "out" / "probe").mkdir(parents=True, exist_ok=True)
        result = self.child(
            {"mode": "steps", "dir": str(self.work / "seed"),
             "steps": [argv for probe in probes for argv in probe["steps"]], "trace": None},
            "probes",
        )
        codes, lines = result["exit_codes"], []
        for probe in probes:
            mine, codes = codes[: len(probe["steps"])], codes[len(probe["steps"]) :]
            lines.append(self._probe_status(probe, mine, pooled_der))
        return lines

    def _probe_status(self, probe: dict, codes: list[int], pooled_der: float) -> str:
        if any(codes):
            return f"KNOWN FAILURE {probe['name']}: exit codes {codes}; {probe['known']}"
        if probe["report"]:
            report = json.loads((self.work / "seed" / probe["report"]).read_text(encoding="utf-8"))
            der = 100.0 * report["der"]["der"]
            if abs(der - pooled_der) > 100.0 * checks.DER_TOLERANCE:
                return (f"KNOWN FAILURE {probe['name']}: DER {der:.4f} % where the "
                        f"workload pools {pooled_der:.4f} %")
        return f"probe {probe['name']}: passes now; the known defect looks fixed"

    def layer_metrics(self, gen, traced, iterations, seed_quality) -> dict:
        run_spans = traced["spans"]["spans"]
        metrics = tracer.layer_metrics(run_spans, gen["spans"]["spans"])
        untraced = statistics.median([it["timed_s"] for it in iterations if it["label"] == "seed"])
        metrics["trace.overhead_s"] = (traced["timed_s"] - untraced, "s")
        metrics["seed.peak_rss_mb"] = (_peak_rss(iterations, "seed"), "MB")
        metrics["seed.der_pct"] = (seed_quality[0], "%")
        metrics["seed.jer_pct"] = (seed_quality[1], "%")
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{self.workload}-seed{self.seed}.json").write_text(
            json.dumps({
                "workload": self.workload,
                "seed": self.seed,
                "machine": machine(),
                "timed_s": traced["timed_s"],
                "untraced_timed_s": untraced,
                "absent": traced["spans"]["absent"],
                "info_errors": traced["spans"]["info_errors"],
                "run_spans": run_spans,
                "gen_spans": gen["spans"]["spans"],
                "metrics": {k: v[0] for k, v in metrics.items()},
            }),
            encoding="utf-8",
        )
        return metrics


def report(run: dict, trace: bool) -> dict:
    """Print the human-readable report; return the result object."""
    w = run["workload"]
    print(f"== {w}, seed {run['seed']} (anchor seed {workloads.ANCHOR_SEED})")
    for label in LABELS:
        gen, plan = run["gens"][label], run["plans"][label]
        print(f"  set-up [{label}]: inputs in {gen['wall_s']:.3f} s, "
              f"{plan['recording_s']:.1f} s of recording, {len(plan['steps'])} CLI steps")
    for k, it in enumerate(run["iterations"], 1):
        rtf = it["timed_s"] / run["plans"][it["label"]]["recording_s"]
        print(f"  iteration {k} [{it['label']}]: start+import {it['start_s']:.3f} s, "
              f"timed {it['timed_s']:.3f} s, rtf {rtf:.5f}, peak RSS {it['peak_rss_mb']:.0f} MB")
    for label in LABELS:
        der, jer = run["quality"][label]
        print(f"  quality [{label}]: pooled DER {der:.3f} %, JER {jer:.3f} %")
    print(f"  checks: {run['attempted'] - len(run['failures'])}/{run['attempted']} passed")
    for failure in run["failures"]:
        print(f"  FAILED {failure}")
    for line in run["probes"]:
        print(f"  {line}")
    if trace:
        traced = run["traced"]
        for name in traced["spans"]["absent"]:
            print(f"  absent from the package: {name}")
        for name, err in traced["spans"]["info_errors"].items():
            print(f"  counters not read for {name}: {err}")
        shares = tracer.layer_self_seconds(traced["spans"]["spans"])
        print(f"  traced iteration: {traced['timed_s']:.3f} s; self time by layer:")
        for layer, secs in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<12} {secs:9.3f} s  {100.0 * secs / traced['timed_s']:5.1f} %")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so the running child is killed and
    # waited for and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "diarkit" / "__init__.py").is_file():
        print(f"error: the diarkit package is not at {SRC}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(machine()))
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            run = Run(name, args.seed, args.seconds, bool(args.trace)).execute()
            results[name] = report(run, bool(args.trace))
            sys.stdout.flush()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
