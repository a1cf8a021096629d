"""One `fpq` command, run as the `fpq` console script runs it, started by
run.py.

    python3 perfbench/cli_child.py [--trace SPANS] -- ARGS...

Stamps the monotonic clock once `fpq.cli` is imported, so that the parent
can time interpreter start plus import, then calls `fpq.cli.main()` with
ARGS and stamps the clock again when it returns, before any span file is
written.  Its report goes to standard output untouched; on exit one line
starting with "perfbench " goes to standard error with both stamps, the
peak resident memory and, with --trace, the span summary.
"""

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    argv = sys.argv[1:]
    trace = None
    if argv[:1] == ["--trace"]:
        trace, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, str(SRC))
    import fpq.cli

    ready = time.monotonic()
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    sys.argv = ["fpq", *argv]
    code = 1
    try:
        fpq.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        # also after a traceback, so that the parent counts a failed command
        sys.stdout.flush()
        done = time.monotonic()  # before the span file is written
        info = {
            "ready": ready,
            "done": done,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer is not None:
            info["layers"] = tracer.summary()
            tracer.write(trace)
        sys.stderr.write("perfbench " + json.dumps(info) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
