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

import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ab_inprocess import alternate, load, report  # noqa: E402  (puts perfbench/ on the path)
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
    with tempfile.TemporaryDirectory() as tmp:
        sides = load(parent, change, tmp, "dsl")
        for dsl in sides.values():
            one_pass(dsl, texts)
        cpu, least, differs = alternate(sides, lambda dsl: one_pass(dsl, texts), int(rounds))
    if differs:
        r, i = differs
        print(f"round {r}: the two trees print {names[i]} differently", file=sys.stderr)
        return 1
    report(f"{workload} seed {seed}, {rounds} rounds, {len(texts)} documents, parse ",
           "document", cpu, least)
    return 0


if __name__ == "__main__":
    if len(sys.argv) not in (5, 6):
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
