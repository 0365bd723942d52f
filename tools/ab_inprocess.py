"""Compare the CPU time of two lfoc trees on one workload, in one interpreter.

    python3 tools/ab_inprocess.py PARENT CHANGE WORKLOAD ROUNDS [SEED]

PARENT and CHANGE are each a `src/` directory that holds an `lfoc`
package, or a git revision of this repository, whose `src/lfoc` is
exported with `git archive` into the tool's temporary directory.  For
example, the working tree against its parent commit:

    python3 tools/ab_inprocess.py HEAD src registry 20

and an A/A control, the parent commit against itself:

    python3 tools/ab_inprocess.py HEAD HEAD registry 20

Each package is copied under its own name; every import inside `lfoc` is
relative, so both load side by side.  The seed's schedule (seed 1 by
default) comes from `perfbench/worker.schedule`, and each operation runs
through `worker.run_op`.  After a warm-up pass per side, each round runs one
pass per side, alternating which side goes first, and requires both passes
to give the same output for every operation; otherwise it names the first
operation whose output differs.  Process CPU time drifts between
interpreters far more than within one, so alternating passes in one
interpreter resolves changes of 1-2 %.

Prints each side's median CPU per pass, and the median, quartiles and win
count of the change/parent ratio over the rounds.  Below that it prints
each side's sum over the operations of each one's least CPU time in any
round, and their ratio.  On a loaded machine whole-pass medians drift by
several percent even between identical trees; these sums drift less, but
a spell of heavy load can still move one side, so run an A/A control
(the same tree on both sides) beside every comparison.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import worker  # noqa: E402
from probes import WARMUP  # noqa: E402


def one_pass(cli, ops, path) -> tuple[list[float], list[str]]:
    """CPU seconds of each operation of one pass of `ops`, and the digest
    of each output."""
    cpu, results = [], []
    for op in ops:
        c0 = time.process_time()
        results.append(worker.run_op(cli, op.argv(path[op.doc])))
        cpu.append(time.process_time() - c0)
    return cpu, [hashlib.sha256(f"{rc}\0{out}\0{exc}".encode()).hexdigest()
                 for rc, out, _, exc in results]


def source(tree: str, tmp: str, side: str) -> str:
    """The `src/` directory of `tree`: the directory itself, or else the
    `src/lfoc` of the git revision `tree`, exported under `tmp`."""
    if os.path.isdir(tree):
        return tree
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", tree, "src/lfoc"],
                             check=True, capture_output=True).stdout
    out = os.path.join(tmp, f"rev_{side}")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(out)
    return os.path.join(out, "src")


def main(parent: str, change: str, workload: str, rounds: str, seed: str = "1") -> int:
    wl = worker.schedule(workload, int(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = {}
        for name, text in {**wl.docs, **WARMUP.docs}.items():
            path[name] = os.path.join(tmp, name)
            with open(path[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        sys.path.insert(0, tmp)
        sides = {}
        for side, tree in (("parent", parent), ("change", change)):
            package = f"lfoc_{side}"
            shutil.copytree(os.path.join(source(tree, tmp, side), "lfoc"),
                            os.path.join(tmp, package),
                            ignore=shutil.ignore_patterns("__pycache__"))
            sides[side] = cli = importlib.import_module(f"{package}.cli")
            for op in WARMUP.ops:
                worker.run_op(cli, op.argv(path[op.doc]))
            one_pass(cli, wl.ops, path)
        cpu = {"parent": [], "change": []}
        least = {"parent": [], "change": []}  # per operation, over the rounds
        for r in range(int(rounds)):
            outputs = {}
            for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                per_op, outputs[side] = one_pass(sides[side], wl.ops, path)
                cpu[side].append(sum(per_op))
                least[side] = list(map(min, least[side], per_op)) if least[side] else per_op
            if outputs["parent"] != outputs["change"]:
                i = next(i for i, (p, c) in enumerate(zip(outputs["parent"], outputs["change"]))
                         if p != c)
                print(f"round {r}: the two trees' outputs differ, first at operation {i}: "
                      f"{wl.ops[i].argv(path[wl.ops[i].doc])}", file=sys.stderr)
                return 1
    ratios = [c / p for c, p in zip(cpu["change"], cpu["parent"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    wins = sum(r < 1 for r in ratios)
    print(f"{workload} seed {seed}, {rounds} rounds, CPU ms per pass (median): "
          f"parent {1000 * statistics.median(cpu['parent']):.1f}, "
          f"change {1000 * statistics.median(cpu['change']):.1f}")
    print(f"change/parent: median {statistics.median(ratios):.3f}, "
          f"quartiles {q1:.3f}-{q3:.3f}, change faster in {wins} of {len(ratios)}")
    floor = {side: sum(times) for side, times in least.items()}
    print(f"sum of per-operation least CPU ms: parent {1000 * floor['parent']:.1f}, "
          f"change {1000 * floor['change']:.1f}, "
          f"change/parent {floor['change'] / floor['parent']:.3f}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) not in (5, 6):
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
