"""Benchmark of fpq: four workloads, end-to-end metrics, traced per-layer split.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout.  Every workload run starts fresh processes,
so fpq's caches start empty.  With --trace 0 it prints, per workload,
cases_per_s, case_p50_ms, setup_s and peak_rss_mb; with --trace 1 it prints
the per-layer split from a traced pass and the tracing overhead against an
untraced pass over the same rounds.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  Exits 2 without a
result when fpq's sources are not in the checkout.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("typea-sweep", "hom-systems", "wba-tensor", "cli-verify")
# extra set-up-only processes, half before the run and half after it;
# setup_s is the median of these and the run's own set-up
SETUP_PROBES = 6
RUN_LIMIT_S = 170  # every child of one workload run ends within this

# `fpq verify duality` at a size that keeps one command near a second:
# intervals of A_2..A_4 plus 50 seeded random hom-duality triples.
CLI_N = 4
CLI_TRIPLES = 50
CLI_THREADS = "2"

UNITS = {
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "fpq" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no fpq sources under {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        run = run_cli if name == "cli-verify" else run_in_process
        deadline = time.monotonic() + RUN_LIMIT_S
        results[name] = result = run(
            name, args.seed, args.seconds, bool(args.trace), deadline
        )
        (OUT / f"{name}{'.trace' if args.trace else ''}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True) + "\n"
        )
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        final = result
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


def _child(argv, deadline, **kwargs):
    """Run a Python child to its end; it is killed at the deadline."""
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        capture_output=True,
        timeout=max(1.0, deadline - time.monotonic()),
        **kwargs,
    )


def _worker(deadline, name, seed, *extra):
    proc = _child(
        [str(HERE / "worker.py"), "--workload", name, "--seed", str(seed), *extra],
        deadline,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {name} worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metrics(values):
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def _outcome(attempted, raised, wrong, metrics, errors=()):
    for message in errors:
        sys.stderr.write(f"perfbench: {message}\n")
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": raised + wrong,
        "metrics": metrics,
    }


def run_in_process(name, seed, seconds, trace, deadline):
    if trace:
        traced = _worker(deadline, name, seed, "--seconds", str(seconds),
                         "--trace", str(OUT / f"{name}.spans.tsv.gz"))
        plain = _worker(deadline, name, seed, "--rounds", str(traced["rounds"]))
        overhead = traced["pass_s"] / plain["pass_s"] - 1.0
        return _outcome(
            traced["cases"] + plain["cases"],
            traced["raised"] + plain["raised"],
            traced["wrong"] + plain["wrong"],
            layer_metrics(traced["layers"], traced["rounds"], overhead),
            traced["errors"] + plain["errors"],
        )
    def probes(count):
        return [_worker(deadline, name, seed, "--setup-only")["setup_s"]
                for _ in range(count)]

    setups = probes(SETUP_PROBES // 2)
    run = _worker(deadline, name, seed, "--seconds", str(seconds))
    setups += [run["setup_s"]] + probes(SETUP_PROBES - SETUP_PROBES // 2)
    return _outcome(
        run["cases"],
        run["raised"],
        run["wrong"],
        _metrics({
            "cases_per_s": run["cases"] / run["pass_s"],
            "case_p50_ms": run["case_p50_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
        }),
        run["errors"],
    )


def _fpq_command(argv, deadline, spans=None):
    """Run one fpq command in a fresh interpreter; returns its wall time,
    set-up time, time until the command returned (without the span file
    write and the exit), exit code, report bytes and the child's own
    summary."""
    env = {**os.environ, "FPQ_THREADS": CLI_THREADS}
    pre = ["--trace", str(spans)] if spans else []
    start = time.monotonic()
    proc = _child([str(HERE / "cli_child.py"), *pre, "--", *argv], deadline, env=env)
    wall = time.monotonic() - start
    info = {}
    for line in proc.stderr.decode(errors="replace").splitlines():
        if line.startswith("perfbench "):
            info = json.loads(line[len("perfbench "):])
    setup = info["ready"] - start if info else None
    run = info["done"] - start if info else None
    return {"wall_s": wall, "setup_s": setup, "run_s": run,
            "code": proc.returncode, "stdout": proc.stdout, "info": info}


def _cli_pass(deadline, seed, seconds=None, rounds=None, spans=None):
    """Whole rounds of two identical commands each, with a fresh seed per
    round, until `seconds` have passed or `rounds` rounds are done."""
    seeds = random.Random(seed)
    commands = []
    begin = time.monotonic()
    r = 0
    while (r < rounds) if rounds is not None else (
        r == 0 or time.monotonic() - begin < seconds
    ):
        argv = ["verify", "duality", "--n", str(CLI_N), "--triples",
                str(CLI_TRIPLES), "--seed", str(seeds.randrange(10 ** 6))]
        first = _fpq_command(argv, deadline, spans and spans / f"{r}a.tsv.gz")
        second = _fpq_command(argv, deadline, spans and spans / f"{r}b.tsv.gz")
        commands.append((first, None))
        commands.append((second, first))
        r += 1
    return commands, r, time.monotonic() - begin


def _cli_wrong(command, twin):
    """Why the command's output is wrong, or None."""
    if command["code"] != 0:
        return f"exit code {command['code']}"
    try:
        report = json.loads(command["stdout"])
    except ValueError:
        return "report is not JSON"
    if not checks.duality_report_ok(report, CLI_N, CLI_TRIPLES):
        return "report fails the duality checks"
    if twin is not None and twin["stdout"] != command["stdout"]:
        return "repeated command gave different bytes"
    return None


def _cli_failures(commands):
    wrong, errors = 0, []
    for command, twin in commands:
        why = _cli_wrong(command, twin)
        if why is not None:
            wrong += 1
            errors.append(why)
    return wrong, errors[:5]


def run_cli(name, seed, seconds, trace, deadline):
    if trace:
        spans = OUT / "cli-verify.spans"
        shutil.rmtree(spans, ignore_errors=True)
        spans.mkdir()
        traced, rounds, _ = _cli_pass(deadline, seed, seconds=seconds,
                                      spans=spans)
        plain, _, _ = _cli_pass(deadline, seed, rounds=rounds)
        summaries = [c["info"].get("layers") for c, _ in traced]
        if None in summaries:
            raise SystemExit("perfbench: a traced fpq command left no span summary")
        if any(not c["info"] for c, _ in plain):
            raise SystemExit("perfbench: an fpq command did not report its end")
        wrong, errors = _cli_failures(traced + plain)
        # start to return of each command, so writing spans is not counted
        traced_s = sum(c["run_s"] for c, _ in traced)
        plain_s = sum(c["run_s"] for c, _ in plain)
        return _outcome(
            len(traced) + len(plain), 0, wrong,
            layer_metrics(merge_summaries(summaries), rounds,
                          traced_s / plain_s - 1.0),
            errors,
        )
    commands, _, pass_s = _cli_pass(deadline, seed, seconds=seconds)
    if any(not c["info"] for c, _ in commands):
        raise SystemExit("perfbench: an fpq command did not report its start")
    wrong, errors = _cli_failures(commands)
    return _outcome(
        len(commands), 0, wrong,
        _metrics({
            "cases_per_s": len(commands) / pass_s,
            "case_p50_ms": statistics.median(c["wall_s"] for c, _ in commands) * 1e3,
            "setup_s": statistics.median(c["setup_s"] for c, _ in commands),
            "peak_rss_mb": statistics.median(
                c["info"]["peak_rss_mb"] for c, _ in commands
            ),
        }),
        errors,
    )


def merge_summaries(summaries):
    """Sum span summaries of several processes."""
    out = {"functions": {}, "absent": sorted({a for s in summaries for a in s["absent"]})}
    for key in ("hom_calls", "hom_hits", "rref_entries", "brick_calls",
                "brick_repeats"):
        out[key] = sum(s[key] for s in summaries)
    for name in tracer.FUNCTIONS:
        out["functions"][name] = {
            "calls": sum(s["functions"][name]["calls"] for s in summaries),
            "self_s": sum(s["functions"][name]["self_s"] for s in summaries),
        }
    return out


def layer_metrics(summary, rounds, overhead):
    """Per-layer metrics: calls and self time per round, the three ratios
    and counts, and the tracing overhead."""
    out = {}
    for name in tracer.FUNCTIONS:
        f = summary["functions"][name]
        out[f"{name}.calls"] = {"value": f["calls"] / rounds, "unit": "count"}
        out[f"{name}.self_s"] = {"value": f["self_s"] / rounds, "unit": "s"}
    hom, bricks = summary["hom_calls"], summary["brick_calls"]
    out["quiver.hom_dim.hit_ratio"] = {
        "value": summary["hom_hits"] / hom if hom else 0.0, "unit": "ratio"}
    out["exact.rref.entries"] = {
        "value": summary["rref_entries"] / rounds, "unit": "count"}
    out["bricks.maximal_brick_sets.repeat_ratio"] = {
        "value": summary["brick_repeats"] / bricks if bricks else 0.0,
        "unit": "ratio"}
    out["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    for name in summary["absent"]:
        sys.stderr.write(f"perfbench: {name} is absent from fpq; reported as 0\n")
    return out


if __name__ == "__main__":
    sys.exit(main())
