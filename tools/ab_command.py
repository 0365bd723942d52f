"""Compare the CPU time of one lfoc command on two lfoc trees, in one interpreter.

    python3 tools/ab_command.py PARENT CHANGE ROUNDS -- ARGV...

PARENT and CHANGE are each a `src/` directory that holds an `lfoc`
package, or a git revision of this repository, as for
`tools/ab_inprocess.py`.  ARGV is the command line of `lfoc` without the
program name.  For example, the working tree against its parent commit:

    python3 tools/ab_command.py HEAD src 5 -- \\
        sound src/lfoc/fixtures/cat.lfoc --rule id_unique --max-carrier 12,1

Each package is copied under its own name and imported side by side.
Each round runs the command once per side through `cli.main`,
alternating which side goes first.  If the two sides ever differ in exit
code, output or error, the tool names the round and exits 1.  Prints the
exit code, then each side's least CPU time over the rounds and the
change/parent ratio of the two.
"""

from __future__ import annotations

import importlib
import os
import shutil
import sys
import tempfile
import time

from ab_inprocess import source  # puts perfbench/ on sys.path first
import worker  # noqa: E402


def main(parent: str, change: str, rounds: str, argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {}
        for side, tree in (("parent", parent), ("change", change)):
            package = f"lfoc_{side}"
            shutil.copytree(os.path.join(source(tree, tmp, side), "lfoc"),
                            os.path.join(tmp, package),
                            ignore=shutil.ignore_patterns("__pycache__"))
            sides[side] = importlib.import_module(f"{package}.cli")
        least = {"parent": float("inf"), "change": float("inf")}
        for r in range(int(rounds)):
            results = {}
            for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                c0 = time.process_time()
                results[side] = worker.run_op(sides[side], argv)
                least[side] = min(least[side], time.process_time() - c0)
            if results["parent"] != results["change"]:
                print(f"round {r}: the two trees' outputs differ", file=sys.stderr)
                return 1
    print(f"exit code {results['parent'][0]}; least CPU ms over {rounds} rounds: "
          f"parent {1000 * least['parent']:.2f}, change {1000 * least['change']:.2f}, "
          f"change/parent {least['change'] / least['parent']:.3f}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 6 or sys.argv[4] != "--":
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:4], sys.argv[5:]))
