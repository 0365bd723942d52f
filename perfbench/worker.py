"""One pass of a workload in a fresh interpreter.

`run.py` starts this script once per pass.  It imports lfoc from the
checkout's `src/`, generates the pass's documents and operations from the
seed, warms up, then runs every operation once as `lfoc.cli.main(argv)`
with stdout captured.  Each operation's oracle runs after its timing
ends, and a short reference loop is timed before each operation and
after the last (see `reference_chunk`).
The pass result, and with `--trace 1` the spans, are written to files.

    python3 perfbench/worker.py --workload query --seed 1 --trace 0 \
        --t0 <perf_counter before start> --workdir DIR --out FILE
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import wl_load  # noqa: E402
import wl_query  # noqa: E402
import wl_registry  # noqa: E402
import wl_rewrite  # noqa: E402
from common import Op  # noqa: E402
from probes import WARMUP, probe_docs, probe_ops  # noqa: E402

WORKLOADS = {"query": wl_query, "registry": wl_registry,
             "rewrite": wl_rewrite, "load": wl_load}

# A fixed share of every pass: one probe operation after every PROBE_EVERY
# workload operations (see probes.py).
PROBE_EVERY = 16


def schedule(workload: str, seed: int):
    """The pass's documents and operation list, probes interleaved."""
    wl = WORKLOADS[workload].build(seed)
    probes = probe_ops()
    ops: list[Op] = []
    for i, op in enumerate(wl.ops):
        ops.append(op)
        if (i + 1) % PROBE_EVERY == 0:
            ops.append(probes[(i // PROBE_EVERY) % len(probes)])
    wl.docs.update(probe_docs())
    wl.ops = ops
    return wl


REFERENCE_ROUNDS = 16_000
_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(512)}


def reference_chunk() -> tuple[float, float]:
    """Wall and CPU time of a fixed pure-Python loop.

    The loop allocates nothing that the garbage collector tracks, and the
    collector is off while it runs, so its time does not depend on lfoc's
    heap; it moves only with the speed the machine gives this process.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        table, acc = _TABLE, 0
        c0, w0 = time.process_time(), time.perf_counter()
        for i in range(REFERENCE_ROUNDS):
            acc = (acc + table[i & 511]) & 0xFFFFFF
        w1, c1 = time.perf_counter(), time.process_time()
    finally:
        if enabled:
            gc.enable()
    return w1 - w0, c1 - c0


def run_op(cli, argv: list[str]):
    """Run one CLI call; returns (exit code or None, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        return exc.code, out.getvalue(), err.getvalue(), f"SystemExit({exc.code!r})"
    except Exception as exc:  # noqa: BLE001 - an escaping exception is a failed operation
        return None, out.getvalue(), err.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from lfoc import cli

    wl = schedule(args.workload, args.seed)
    os.makedirs(args.workdir, exist_ok=True)
    for name, text in {**wl.docs, **WARMUP.docs}.items():
        with open(os.path.join(args.workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    path = {name: os.path.join(args.workdir, name) for name in {**wl.docs, **WARMUP.docs}}
    for op in WARMUP.ops:
        run_op(cli, op.argv(path[op.doc]))

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    setup_s = time.perf_counter() - args.t0
    wall, cpu, reference, failures = [], [], [], []
    out_digest = hashlib.sha256()
    for i, op in enumerate(wl.ops):
        argv = op.argv(path[op.doc])
        reference.append(reference_chunk())
        if tracer:
            tracer.begin_op(i)
        c0, w0 = time.process_time(), time.perf_counter()
        rc, out, err, exc = run_op(cli, argv)
        w1, c1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.end_op()
        wall.append(w1 - w0)
        cpu.append(c1 - c0)
        reason = exc or op.oracle(rc, out)
        if reason:
            failures.append({"op": i, "argv": [op.command, op.doc, *op.flags],
                             "reason": reason, "stderr": err[-500:]})
        out_digest.update(f"{i}\0{rc}\0{out}\0".encode())
    reference.append(reference_chunk())

    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "reference_s": reference,
        "commands": [op.command for op in wl.ops],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "failures": failures,
        "input_digest": wl.input_digest(),
        "output_digest": out_digest.hexdigest(),
        "params": wl.params,
    }
    if tracer:
        tracer.uninstall()
        spans_file = os.path.splitext(args.out)[0] + ".spans.jsonl"
        tracer.write(spans_file)
        result["trace"] = tracer.metrics()
        result["spans_file"] = spans_file
        result["missing"] = tracer.missing
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
