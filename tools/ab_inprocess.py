"""Compare the CPU time of two lfoc trees on one workload, in one interpreter.

    python3 tools/ab_inprocess.py PARENT_SRC CHANGE_SRC WORKLOAD ROUNDS [SEED]

For example, against a `git archive` of the parent commit in /tmp/parent:

    python3 tools/ab_inprocess.py /tmp/parent/src src registry 20

PARENT_SRC and CHANGE_SRC are `src/` directories that hold an `lfoc`
package.  Each package is copied under its own name; every import inside
`lfoc` is relative, so both load side by side.  The seed's schedule (seed 1
by default) comes from `perfbench/worker.schedule`, and each operation runs
through `worker.run_op`.  After a warm-up pass per side, each round runs one
pass per side, alternating which side goes first, and requires both passes
to give the same output digest.  Process CPU time drifts between
interpreters far more than within one, so alternating passes in one
interpreter resolves changes of 1-2 %.

Prints each side's median CPU per pass, and the median, quartiles and win
count of the change/parent ratio over the rounds.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import worker  # noqa: E402
from probes import WARMUP  # noqa: E402


def one_pass(cli, ops, path) -> tuple[float, str]:
    """CPU seconds of one pass of `ops`, and the digest of its outputs."""
    c0 = time.process_time()
    results = [worker.run_op(cli, op.argv(path[op.doc])) for op in ops]
    cpu = time.process_time() - c0
    digest = hashlib.sha256()
    for i, (rc, out, _, exc) in enumerate(results):
        digest.update(f"{i}\0{rc}\0{out}\0{exc}\0".encode())
    return cpu, digest.hexdigest()


def main(parent_src: str, change_src: str, workload: str, rounds: str, seed: str = "1") -> int:
    wl = worker.schedule(workload, int(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = {}
        for name, text in {**wl.docs, **WARMUP.docs}.items():
            path[name] = os.path.join(tmp, name)
            with open(path[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        sys.path.insert(0, tmp)
        sides = {}
        for side, src in (("parent", parent_src), ("change", change_src)):
            package = f"lfoc_{side}"
            shutil.copytree(os.path.join(src, "lfoc"), os.path.join(tmp, package),
                            ignore=shutil.ignore_patterns("__pycache__"))
            sides[side] = cli = importlib.import_module(f"{package}.cli")
            for op in WARMUP.ops:
                worker.run_op(cli, op.argv(path[op.doc]))
            one_pass(cli, wl.ops, path)
        cpu = {"parent": [], "change": []}
        for r in range(int(rounds)):
            digests = set()
            for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                seconds, digest = one_pass(sides[side], wl.ops, path)
                cpu[side].append(seconds)
                digests.add(digest)
            if len(digests) != 1:
                print(f"round {r}: the two trees' outputs differ", file=sys.stderr)
                return 1
    ratios = [c / p for c, p in zip(cpu["change"], cpu["parent"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    wins = sum(r < 1 for r in ratios)
    print(f"{workload} seed {seed}, {rounds} rounds, CPU ms per pass (median): "
          f"parent {1000 * statistics.median(cpu['parent']):.1f}, "
          f"change {1000 * statistics.median(cpu['change']):.1f}")
    print(f"change/parent: median {statistics.median(ratios):.3f}, "
          f"quartiles {q1:.3f}-{q3:.3f}, change faster in {wins} of {len(ratios)}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) not in (5, 6):
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
