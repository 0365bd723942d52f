"""Compare the CPU time of two lfoc trees parsing one workload's documents.

    python3 tools/ab_parse.py PARENT CHANGE WORKLOAD ROUNDS [SEED]

PARENT and CHANGE are each a `src/` directory that holds an `lfoc`
package, or a git revision of this repository, as in
`tools/ab_inprocess.py`; for example, the working tree against its
parent commit:

    python3 tools/ab_parse.py HEAD src load 20

The documents are those of the seed's schedule (seed 1 by default) from
`perfbench/worker.schedule`, probe documents included.  After a warm-up
pass per side, each round runs one pass per side, alternating which side
goes first; a pass is `dsl.parse_document` of every document once.  Both
trees must print an equal document for every text (or refuse it with the
same message); otherwise the tool names the first text that differs.

Prints each side's median CPU per pass, the median, quartiles and win
count of the change/parent ratio over the rounds, and each side's sum over
the documents of each one's least CPU time in any round, with their
ratio.  Run an A/A control (the same tree on both sides) beside every
comparison, as for `tools/ab_inprocess.py`.
"""

from __future__ import annotations

import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ab_inprocess import source  # noqa: E402  (puts perfbench/ on the path)
import worker  # noqa: E402


def one_pass(dsl, texts) -> tuple[list[float], list[str]]:
    """CPU seconds of parsing each text, and each printed document or
    error message."""
    cpu, printed = [], []
    for text in texts:
        c0 = time.process_time()
        try:
            doc = dsl.parse_document(text)
        except dsl.ParseError as exc:
            cpu.append(time.process_time() - c0)
            printed.append(f"error: {exc}")
            continue
        cpu.append(time.process_time() - c0)
        printed.append(dsl.print_document(doc))
    return cpu, printed


def main(parent: str, change: str, workload: str, rounds: str, seed: str = "1") -> int:
    docs = worker.schedule(workload, int(seed)).docs
    names, texts = list(docs), list(docs.values())
    sides = {}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        for side, tree in (("parent", parent), ("change", change)):
            package = f"lfoc_{side}"
            shutil.copytree(os.path.join(source(tree, tmp, side), "lfoc"),
                            os.path.join(tmp, package),
                            ignore=shutil.ignore_patterns("__pycache__"))
            sides[side] = dsl = importlib.import_module(f"{package}.dsl")
            one_pass(dsl, texts)
        cpu = {"parent": [], "change": []}
        least = {"parent": [], "change": []}  # per document, over the rounds
        for r in range(int(rounds)):
            printed = {}
            for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                per_doc, printed[side] = one_pass(sides[side], texts)
                cpu[side].append(sum(per_doc))
                least[side] = list(map(min, least[side], per_doc)) if least[side] else per_doc
            if printed["parent"] != printed["change"]:
                i = next(i for i, (p, c) in enumerate(zip(printed["parent"], printed["change"]))
                         if p != c)
                print(f"round {r}: the two trees print {names[i]} differently", file=sys.stderr)
                return 1
    ratios = [c / p for c, p in zip(cpu["change"], cpu["parent"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    wins = sum(r < 1 for r in ratios)
    print(f"{workload} seed {seed}, {rounds} rounds, {len(texts)} documents, "
          f"parse CPU ms per pass (median): "
          f"parent {1000 * statistics.median(cpu['parent']):.1f}, "
          f"change {1000 * statistics.median(cpu['change']):.1f}")
    print(f"change/parent: median {statistics.median(ratios):.3f}, "
          f"quartiles {q1:.3f}-{q3:.3f}, change faster in {wins} of {len(ratios)}")
    floor = {side: sum(times) for side, times in least.items()}
    print(f"sum of per-document least CPU ms: parent {1000 * floor['parent']:.1f}, "
          f"change {1000 * floor['change']:.1f}, "
          f"change/parent {floor['change'] / floor['parent']:.3f}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) not in (5, 6):
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
