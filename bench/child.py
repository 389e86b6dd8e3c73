"""One `transportkernels gram` run in a fresh interpreter.

Usage: python3 bench/child.py SRC RESULT_JSON SPANS_JSON|- -- GRAM_ARGS...

Imports `transportkernels.cli` from SRC, optionally installs the tracer
(when SPANS_JSON is not '-'), calls `cli.main(GRAM_ARGS)` and writes
CLOCK_MONOTONIC stamps taken just before and just after that call,
plus the exit code or the exception, to RESULT_JSON. The stamps share
a clock with the parent, which took its own stamp before spawning.
"""

import json
import sys
import time
import traceback


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    src, result_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SRC RESULT SPANS|- -- GRAM_ARGS...")
    sys.path.insert(0, src)
    from transportkernels import cli

    tracer = None
    if spans_path != "-":
        from tracer import ROOT, Tracer  # found beside this script

        tracer = Tracer()
        tracer.install()
    result = {"exit_code": None, "exception": None}
    root = tracer.open_span(ROOT) if tracer else None
    t_main = _now()
    try:
        result["exit_code"] = cli.main(argv)
    except SystemExit as exc:
        result["exit_code"] = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # reported to the parent as a failed run
        result["exception"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    t_end = _now()
    if tracer:
        tracer.close_span(root)
        tracer.restore()
        tracer.dump(spans_path)
    result["t_main"] = t_main
    result["t_end"] = t_end
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
