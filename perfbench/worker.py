"""One process running one in-process workload, started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--rounds K] [--trace SPANS] [--setup-only]

Times the set-up (the import of fpq plus making the inputs), then runs
whole rounds until the timed pass reaches S seconds or, with --rounds,
exactly K rounds.  Each round's outputs are checked right after the round,
outside the timed pass, and then dropped, so the memory the process holds
grows with the number of cases run only by one case time (8 bytes) each.
The peak resident memory is read after the last round, before a check that
loads a library of its own (numpy) runs.  Prints one JSON object on its
last line of standard output.
"""

import argparse
import array
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int)
    p.add_argument("--trace")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed)
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    attempted = raised = wrong = rounds = 0
    pass_s = 0.0
    times, errors = array.array("d"), []
    for batch in workload.rounds():
        if args.rounds is not None:
            if rounds == args.rounds:
                break
        elif rounds and pass_s >= args.seconds:
            break
        outputs = []
        begin = time.perf_counter()
        for case in batch:
            t0 = time.perf_counter()
            try:
                out = workload.run(case)
            except Exception as exc:  # counted as a failed operation below
                out = _Failure(f"{type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - t0)
            outputs.append(out)
        pass_s += time.perf_counter() - begin
        # checked between rounds, outside the timed pass, and then dropped
        for case, out in zip(batch, outputs):
            if isinstance(out, _Failure):
                raised += 1
                errors.append(f"case {attempted}: {out.message}")
            elif not workload.check(case, out):
                wrong += 1
                errors.append(f"case {attempted}: wrong output")
            attempted += 1
        del outputs
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "rounds": rounds,
        "cases": attempted,
        "pass_s": pass_s,
        "case_p50_ms": statistics.median(times) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(args.trace)

    late = workload.finish()  # checks that load a library, after the peak
    if late:
        wrong += late
        errors.append(f"{late} cases failed the checks made after the pass")
    result.update(raised=raised, wrong=wrong, errors=errors[:5])
    print(json.dumps(result))


class _Failure:
    def __init__(self, message):
        self.message = message


if __name__ == "__main__":
    main()
