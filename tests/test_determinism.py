"""Output that must not depend on Python's string hash seed.

Sketches keep their constraints in sets, whose iteration order follows
`PYTHONHASHSEED`.  Two constraints that differ only in their bound
names are equal, so a set keeps one of them; which one must follow from
the input alone, since the printed sketch shows its bound names.  Each
seed's transcript comes from a fresh interpreter and must be the same
bytes: the gluing rule below, plus the golden sweep's commands that
print sketches (`apply`, `saturate`, `pushout` with sketches and
`elemdiag`) or matches found in one (`match`, `closed`).
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from lfoc.cli import main
from lfoc.fixtures import FIXTURES, fixture_path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# the two host constraints glue onto one element and become equal: they
# differ only in the name of their bound element
GLUE = """base set;
obj P1 { p };
obj X { x };
obj Y { y };
obj H { a b };
obj L { a b };
obj R { o };
footprint F { feature male : P1; };
expr e1 : P1 = exists [p->x] into X . male([p->x]);
expr e2 : P1 = exists [p->y] into Y . male([p->y]);
sketch Host { context H; constraint e1 @ [p->a]; constraint e2 @ [p->b]; };
sketch Lhs { context L; };
sketch Rhs { context R; };
rule glue : Lhs => Rhs via [a->o; b->o];
"""

PRINTING = ("apply", "saturate", "pushout", "elemdiag", "match", "closed")


def transcript(directory: str) -> str:
    """Every command's exit code, arguments and stdout, in order."""
    from test_golden import LATER, SWEEP

    runs = []
    glue = Path(directory) / "glue.lfoc"
    glue.write_text(GLUE, encoding="utf-8")
    runs.append((glue, ("apply", "--host", "Host", "--rule", "glue", "--at", "[a->a; b->b]")))
    for name in FIXTURES:
        extra, commands = SWEEP[name]
        later_extra, later = LATER.get(name, ("", []))
        text = fixture_path(name).read_text(encoding="utf-8") + extra
        path = Path(directory) / f"{name}.lfoc"
        path.write_text(text, encoding="utf-8")
        later_path = Path(directory) / f"{name}_later.lfoc"
        later_path.write_text(text + later_extra, encoding="utf-8")
        runs += [(path, c) for c in commands if c[0] in PRINTING]
        runs += [(later_path, c) for c in later if c[0] in PRINTING]
    chunks = []
    for path, command in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([command[0], str(path), *command[1:]])
        chunks.append(f"# exit {code}: {' '.join(command)}\n{out.getvalue()}")
    return "".join(chunks)


def _run(seed: int, directory: Path) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    code = ("import sys, test_determinism; "
            f"sys.stdout.write(test_determinism.transcript({str(directory)!r}))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout


def test_printed_sketches_do_not_depend_on_the_hash_seed(tmp_path):
    outputs = {}
    for seed in (0, 1, 2):
        directory = tmp_path / f"seed{seed}"
        directory.mkdir()
        outputs[seed] = _run(seed, directory)
    assert "# exit 0: apply --host Host --rule glue" in outputs[0]
    assert outputs[0].count("# exit") > 20
    # the printed commands name their documents: compare without the paths
    texts = {seed: out.replace(str(tmp_path / f"seed{seed}"), "DIR")
             for seed, out in outputs.items()}
    assert texts[0] == texts[1] == texts[2]


def test_glued_constraints_keep_the_smaller_expression(tmp_path):
    path = tmp_path / "glue.lfoc"
    path.write_text(GLUE, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["apply", str(path), "--host", "Host", "--rule", "glue",
                     "--at", "[a->a; b->b]"])
    assert code == 0
    # e1 quantifies into X { x }, e2 into Y { y }: e1's repr is smaller
    assert '"x"' in out.getvalue() and '"y"' not in out.getvalue()
