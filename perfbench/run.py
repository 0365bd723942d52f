"""The lfoc benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload query --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository: lfoc is imported from `src/`.
A run is a sequence of passes.  Each pass is a fresh interpreter
(`worker.py`) that sets up (imports lfoc, generates the seed's documents
and operations, warms up) and then runs the same operation list once,
one client, closed loop.  Passes repeat until `--seconds` have passed
and at least MIN_PASSES have run.  Every pass must produce identical
input and output digests.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` passes alternate untraced and traced, and it holds the
per-layer metrics.  The full record goes to
`.bench_build/perfbench/results/`.  Exit status: 0 when every operation
matched its oracle, 1 otherwise, 2 when lfoc's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("query", "registry", "rewrite", "load")
DEFAULT_SEED = 1
HOLDOUT_SEED = 2
MIN_PASSES = 3
# A run starts no pass that would end after this many seconds, by the
# slowest pass so far, and kills a pass that runs past it.
DEADLINE_S = 160
TAIL_GRID = (50, 75, 80, 90, 95, 99, 99.9)
# Reported times are at reference speed: each is scaled by REFERENCE_S over
# the median time of the reference loop (worker.reference_chunk) timed
# around it, within REFERENCE_WINDOW loops either side.  The machine's speed
# drifts by tens of percent over minutes; the loop tracks that drift, so
# runs made at different times compare.
REFERENCE_S = 0.002
REFERENCE_WINDOW = 2

END_TO_END_UNITS = {"op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
                    "cpu_ms_per_op": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
COMMANDS = ("solve", "check", "models", "entail", "morphism", "sound", "saturate",
            "match", "closed", "apply", "pushout", "elemdiag")


def per_layer_unit(name: str) -> str:
    if name.endswith("bytes_per_s"):
        return "B/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def lfoc_commit() -> str | None:
    """The checkout's git commit, read from `.git` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over lfoc's source files, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "lfoc")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".lfoc")):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    h.update(os.path.relpath(path, src).encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def environment(traced: bool) -> dict:
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "lfoc_commit": lfoc_commit(), "lfoc_source_sha256": source_digest(),
            "traced": traced}


def run_pass(args, index: int, traced: bool, workdir: str, timeout: float) -> dict:
    out = os.path.join(workdir, f"pass{index}{'-traced' if traced else ''}.json")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--trace", str(int(traced)), "--t0", repr(t0),
         "--workdir", workdir, "--out", out],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"pass {index} exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["traced"] = traced
    return result


def tail_percentile(ops_per_pass: int) -> float:
    """The highest percentile with at least ten operations beyond it in a
    run of MIN_PASSES passes.  It depends only on the workload, so runs of
    any length report the same percentile."""
    n = ops_per_pass * MIN_PASSES
    return max(p for p in TAIL_GRID if n * (100 - p) / 100 >= 10)


def percentile(values: list[float], p: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def at_reference_speed(p: dict) -> dict:
    """A pass's operation and setup times scaled to reference speed."""
    ref_wall = [r[0] for r in p["reference_s"]]
    ref_cpu = [r[1] for r in p["reference_s"]]

    def scale(times, refs):
        return [t * REFERENCE_S / statistics.median(
                    refs[max(0, i - REFERENCE_WINDOW + 1):i + REFERENCE_WINDOW + 1])
                for i, t in enumerate(times)]
    return {"wall_s": scale(p["wall_s"], ref_wall), "cpu_s": scale(p["cpu_s"], ref_cpu),
            "setup_s": p["setup_s"] * REFERENCE_S / statistics.median(ref_wall[:5]),
            "factor": REFERENCE_S / statistics.median(ref_wall)}


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    wall = [w for p in passes for w in p["wall_s"]]
    cpu = [c for p in passes for c in p["cpu_s"]]
    # Every pass runs the same operations.  For the tail, an operation's
    # latency is the median of its repeats and the percentile is taken over
    # operations, so it falls on the same operation however many passes ran.
    latency = [statistics.median(runs) for runs in zip(*(p["wall_s"] for p in passes))]
    pct = tail_percentile(len(latency))
    values = {
        "op_p50_ms": statistics.median(wall) * 1000,
        "op_tail_ms": percentile(latency, pct) * 1000,
        "ops_per_s": len(wall) / sum(wall),
        "cpu_ms_per_op": sum(cpu) / len(cpu) * 1000,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
        "setup_s": statistics.median(p["setup_s"] for p in passes),
    }
    return values, {"tail_percentile": pct, "operations": len(latency), "samples": len(wall)}


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    def scaled(p, factor, name):
        unit = per_layer_unit(name)
        return p["trace"][name] * (factor if unit == "s" else 1 / factor if unit == "B/s" else 1)

    factors = [at_reference_speed(p)["factor"] for p in traced]
    values = {name: statistics.fmean(scaled(p, f, name) for p, f in zip(traced, factors))
              for name in traced[0]["trace"]}
    for command in COMMANDS:
        values[f"cli.{command}.calls"] = traced[0]["commands"].count(command)
    values["trace.overhead_ratio"] = (
        statistics.fmean(sum(at_reference_speed(p)["wall_s"]) for p in traced)
        / statistics.fmean(sum(at_reference_speed(p)["wall_s"]) for p in untraced))
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "lfoc", "__init__.py")):
        print(f"error: no lfoc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(ROOT, ".bench_build", "perfbench", tag)
    os.makedirs(workdir, exist_ok=True)

    start = time.perf_counter()
    passes: list[dict] = []
    slowest = 0.0
    try:
        while True:
            begun = time.perf_counter()
            passes.append(run_pass(args, len(passes), bool(args.trace and len(passes) % 2),
                                   workdir, DEADLINE_S - (begun - start)))
            slowest = max(slowest, time.perf_counter() - begun)
            elapsed = time.perf_counter() - start
            enough = elapsed >= args.seconds and len(passes) >= (2 if args.trace else MIN_PASSES)
            if enough or elapsed + slowest > DEADLINE_S:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace and not traced:
        print("error: no time left for a traced pass", file=sys.stderr)
        return 1
    failures = [dict(f, passed=i) for i, p in enumerate(passes) for f in p["failures"]]
    attempted = sum(len(p["wall_s"]) for p in passes)
    digests = {(p["input_digest"], p["output_digest"]) for p in passes}
    problems = [] if len(digests) == 1 else ["passes disagree on input or output digests"]
    problems += [f"pass {f['passed']} op {f['op']} {' '.join(f['argv'])}: {f['reason']}"
                 for f in failures]

    raw, tail = end_to_end(untraced)
    e2e, _ = end_to_end([dict(p, **at_reference_speed(p)) for p in untraced])
    metrics = (per_layer(traced, untraced) if args.trace else e2e)
    units = {name: (END_TO_END_UNITS[name] if name in END_TO_END_UNITS else per_layer_unit(name))
             for name in metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": environment(bool(args.trace)),
        "params": passes[0]["params"],
        "input_digest": passes[0]["input_digest"], "output_digest": passes[0]["output_digest"],
        "passes": [{"traced": p["traced"], "setup_s": p["setup_s"], "ops": len(p["wall_s"]),
                    "op_s": sum(p["wall_s"]), "peak_rss_kb": p["peak_rss_kb"],
                    "spans_file": p.get("spans_file"), "missing_wrappers": p.get("missing")}
                   for p in passes],
        "end_to_end": e2e, "end_to_end_raw": raw, "tail": tail,
        "speed_factors": [at_reference_speed(p)["factor"] for p in passes],
        "error_rate": len(failures) / attempted,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "problems": problems,
    }
    results = os.path.join(ROOT, ".bench_build", "perfbench", "results")
    os.makedirs(results, exist_ok=True)
    record_path = os.path.join(results, tag + ".json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    env = record["environment"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes "
          f"({len(untraced)} untraced), {attempted} operations")
    print(f"  python {env['python']} on {env['platform']}, nproc {env['nproc']}, "
          f"lfoc {env['lfoc_commit'] or 'unknown commit'} (src {env['lfoc_source_sha256'][:12]})")
    print(f"  inputs sha256 {record['input_digest'][:16]}  outputs sha256 {record['output_digest'][:16]}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':44s} {record['error_rate']:14.6g} ratio "
          f"({len(failures)} of {attempted} operations)")
    if not args.trace:
        print(f"  op_tail_ms is p{tail['tail_percentile']:g} over {tail['operations']} operations, "
              f"each the median of its repeats ({tail['samples']} samples)")
        print("  as measured, before scaling to reference speed: " + ", ".join(
            f"{name} {value:.6g}" for name, value in raw.items()))
    else:
        layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        print(f"  layer self time {layers:.4f} s + bench {metrics['bench.self_s']:.4f} s "
              f"of traced operation time {metrics['trace.op_s']:.4f} s per pass")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    print(f"  record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
