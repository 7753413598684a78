"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/worker.py ROOT WORKLOAD SEED MODE

MODE is ``setup`` (time the set-up only), ``plain`` (run the workload's
commands) or ``traced`` (run them under the tracer).  The pass imports
``symlow`` from ROOT/src only, runs every command in-process through
``symlow.cli.main`` with stdout captured, and prints one JSON object: the
set-up time, each command's exit code, document and time, the peak
resident memory and, when traced, the per-layer metrics and spans.  Times
are reference seconds (see ``calibrate.py``); ``*_wall_s`` are the raw ones.
"""

import sys
import time

from calibrate import Calibrator


def main() -> int:
    root, workload, seed, mode = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    src = f"{root}/src"
    sys.path.insert(0, src)
    calibrator = Calibrator().start()

    # Set-up as a user pays it: import the CLI and build its parser.
    setup = [time.perf_counter()]
    import symlow.cli as cli

    cli.build_parser()
    setup.append(time.perf_counter())

    import io
    import json
    import os
    import resource
    import traceback
    from contextlib import redirect_stdout

    import workloads
    from tracer import Tracer

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"symlow was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    if mode == "setup":
        calibrator.stop()
        print(json.dumps({"setup_s": calibrator.scaled(*setup), "setup_wall_s": setup[1] - setup[0]}))
        return 0

    tracer = Tracer() if mode == "traced" else None
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for argv in workloads.commands(workload, seed):
            if tracer is not None:
                tracer.begin_command()
            buffer = io.StringIO()
            began = time.perf_counter()
            try:
                with redirect_stdout(buffer):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crashing command is a failed document, not a failed pass
                code = traceback.format_exc()
            span = (began, time.perf_counter())
            results.append({"argv": argv, "exit": code, "text": buffer.getvalue(), "span": span})
    finally:
        calibrator.stop()
        if tracer is not None:
            tracer.restore()

    for r in results:
        span = r.pop("span")
        r["seconds"] = calibrator.scaled(*span)
        r["wall_s"] = span[1] - span[0]
    out = {
        "setup_s": calibrator.scaled(*setup),
        "setup_wall_s": setup[1] - setup[0],
        "results": results,
        "run_s": sum(r["seconds"] for r in results),
        "run_wall_s": sum(r["wall_s"] for r in results),
        "slowdown": calibrator.slowdown(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        # Self times are wall seconds; rescale them by the pass's mean slowdown.
        scale = out["run_s"] / out["run_wall_s"]
        out["layers"] = {k: v * scale if k.endswith("_s") else v for k, v in tracer.metrics().items()}
        out["layers"]["cli.output_bytes"] = sum(len(r["text"].encode()) for r in results)
        out["spans"] = tracer.spans()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
