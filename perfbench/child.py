"""Child process of the benchmark: generates one input set, or runs one
iteration of a workload's CLI steps in-process through
``diarkit.cli.main``, the entry point of the ``diarkit`` command.

    python3 child.py SPEC.json

SPEC holds ``mode`` ("gen" or "steps"), ``dir`` (the input-set
directory, which becomes the working directory), ``result`` (where to
write this process's measurements), ``trace`` (where to write spans, or
null for an untraced run), and ``workload`` and ``seed`` (gen) or
``steps`` (steps). The package comes from PYTHONPATH.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _run_step(main, argv) -> int:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is recorded as a failed step; the run goes on
        traceback.print_exc()
        return -1
    return 0 if code is None else int(code)


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    os.chdir(spec["dir"])

    import diarkit.cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = {"imported_at": time.monotonic()}

    if spec["mode"] == "gen":
        import workloads

        start = time.perf_counter()
        result["plan"] = workloads.generate(spec["workload"], spec["seed"])
        # Write the inputs back now, so the write-back does not land in
        # the first timed iteration.
        for root, _, files in os.walk("in"):
            for name in files:
                fd = os.open(os.path.join(root, name), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        result["gen_s"] = time.perf_counter() - start
    else:
        cli_main = diarkit.cli.main  # looked up after the tracer wrapped it
        codes = []
        start = time.perf_counter()
        for argv in spec["steps"]:
            codes.append(_run_step(cli_main, argv))
        result["timed_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["exit_codes"] = codes

    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(spec["trace"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
