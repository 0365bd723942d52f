"""Compare how long `import lfoc.cli` takes in a fresh interpreter, for two lfoc trees.

    python3 tools/ab_import.py PARENT CHANGE ROUNDS

PARENT and CHANGE are each a `src/` directory that holds an `lfoc`
package, or a git revision of this repository, as for
`tools/ab_inprocess.py`.  For example, the working tree against its
parent commit:

    python3 tools/ab_import.py HEAD src 20

Each package is copied into the tool's temporary directory.  Every round
starts one interpreter per side and mode (`python -I`, with the copy
first on `sys.path`), alternating which side goes first, and each
interpreter times its own `import lfoc.cli`; interpreter start is left
out.  There are two modes:

- from source: `-B` and no `__pycache__`, so every module is compiled on
  import, as in a checkout run with `PYTHONDONTWRITEBYTECODE=1`;
- cached bytecode: every module is compiled once beforehand, as for an
  installed package.

Prints, per mode, each side's median import time and quartiles in ms,
and the median of the change/parent ratio over the rounds.
"""

from __future__ import annotations

import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from ab_inprocess import source

MODES = {"from source": ["-B"], "cached bytecode": []}
CODE = ("import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
        "import lfoc.cli; print(time.perf_counter() - t)")


def import_s(src: str, flags: list[str]) -> float:
    """Seconds a fresh interpreter takes to import `lfoc.cli` from `src`."""
    done = subprocess.run([sys.executable, "-I", *flags, "-c", CODE.format(src=src)],
                          check=True, capture_output=True, text=True)
    return float(done.stdout)


def main(parent: str, change: str, rounds: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = {}
        for side, tree in (("parent", parent), ("change", change)):
            package = os.path.join(source(tree, tmp, side), "lfoc")
            for mode in MODES:
                src[side, mode] = os.path.join(tmp, side, mode.replace(" ", "_"))
                shutil.copytree(package, os.path.join(src[side, mode], "lfoc"),
                                ignore=shutil.ignore_patterns("__pycache__"))
            compileall.compile_dir(src[side, "cached bytecode"], quiet=1)
        times: dict = {key: [] for key in src}
        for r in range(int(rounds)):
            for mode, flags in MODES.items():
                for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                    times[side, mode].append(import_s(src[side, mode], flags))
    print(f"import lfoc.cli, {rounds} rounds, ms: median (quartiles)")
    for mode in MODES:
        shown = []
        for side in ("parent", "change"):
            q1, median, q3 = statistics.quantiles(times[side, mode], n=4, method="inclusive")
            shown.append(f"{side} {1000 * median:.1f} ({1000 * q1:.1f}-{1000 * q3:.1f})")
        ratio = statistics.median(c / p for c, p in zip(times["change", mode],
                                                        times["parent", mode]))
        print(f"{mode}: {', '.join(shown)}, change/parent {ratio:.3f}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
