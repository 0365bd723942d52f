"""Golden CLI bytes: one sweep of subcommands over the four fixtures.

Each fixture gets a few `mor` (and, where needed, `sketch`) lines
appended so that `pushout` has named morphisms to work on.  The stdout
of every command, headed by its exit code and arguments, is compared
byte for byte with `tests/golden/<fixture>.out`.

Regenerate the golden files (only when an output change is intended)
with:  PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from lfoc.cli import main
from lfoc.fixtures import FIXTURES, fixture_path

GOLDEN = Path(__file__).resolve().parent / "golden"

# per fixture: extra definitions, then the command sweep (file argument
# inserted after the subcommand)
SWEEP = {
    "fol": (
        "mor pick1 : P1 -> P2 = [p->q1];\n"
        "mor pick2 : P1 -> P2 = [p->q2];\n",
        [
            ("solve", "--expr", "sibling", "--structure", "Smiths"),
            ("solve", "--expr", "daughters_only", "--structure", "Smiths"),
            ("solve", "--expr", "parent_pair", "--structure", "Smiths"),
            ("models", "--sketch", "HasSibling", "--structure", "Smiths"),
            ("match", "--rule", "give_child", "--host", "HasSibling"),
            ("closed", "--rule", "give_child", "--host", "ParentEdge"),
            ("apply", "--rule", "give_child", "--host", "HasSibling", "--at", "[p->alice]"),
            ("saturate", "--host", "ParentEdge", "--rules", "give_child", "--max-steps", "3"),
            ("pushout", "--left", "pick1", "--right", "pick2"),
            ("pushout", "--left", "pick1", "--right", "pick2", "--left-sketch", "ParentEdge",
             "--right-sketch", "ParentEdge", "--shared", "Anyone"),
            ("elemdiag", "--structure", "Smiths"),
            ("elemdiag", "--structure", "Smiths", "--max",
             "--exprs", "sibling,daughters_only,parent_pair"),
            ("sound", "--rule", "give_child", "--max-carrier", "2"),
        ]),
    "alc": (
        "mor into1 : C1 -> C2 = [x1->x1];\n"
        "mor into2 : C1 -> C2 = [x1->x2];\n"
        "sketch Kids { context C2; constraint happy_person @ [x1->x2]; };\n",
        [
            ("solve", "--expr", "some_happy_child", "--structure", "World"),
            ("solve", "--expr", "only_happy_children", "--structure", "World"),
            ("solve", "--expr", "happy_person", "--structure", "World"),
            ("models", "--sketch", "HappyPeople", "--structure", "World"),
            ("match", "--rule", "gci_happy", "--host", "Kids"),
            ("closed", "--rule", "gci_happy", "--host", "Kids"),
            ("apply", "--rule", "gci_happy", "--host", "Kids", "--at", "[x1->x2]"),
            ("saturate", "--host", "Kids", "--rules", "gci_happy"),
            ("pushout", "--left", "into1", "--right", "into2"),
            ("pushout", "--left", "into1", "--right", "into2", "--left-sketch", "Kids",
             "--right-sketch", "Kids", "--shared", "HappyPeople"),
            ("elemdiag", "--structure", "World"),
            ("elemdiag", "--structure", "World", "--max",
             "--exprs", "some_happy_child,only_happy_children,happy_person"),
            ("sound", "--rule", "gci_happy", "--max-carrier", "2"),
        ]),
    "cat": (
        "mor loop1 : ID_ARITY -> TWO_LOOPS = [pv->pv; pe->pe1];\n"
        "mor loop2 : ID_ARITY -> TWO_LOOPS = [pv->pv; pe->pe2];\n",
        [
            ("solve", "--expr", "loop_is_id", "--structure", "OneObj"),
            ("solve", "--expr", "two_ids", "--structure", "OneObj"),
            ("models", "--sketch", "TwoIdLoops", "--structure", "OneObj"),
            ("match", "--rule", "id_exists", "--host", "TwoIdLoops"),
            ("closed", "--rule", "id_unique", "--host", "TwoIdLoops"),
            ("apply", "--rule", "id_unique", "--host", "TwoIdLoops",
             "--at", "[pv->pv; pe1->pe1; pe2->pe2]"),
            ("apply", "--rule", "id_exists", "--host", "AnyVertex", "--at", "[pv->pv]"),
            ("saturate", "--host", "AnyVertex", "--rules", "id_exists,id_unique"),
            ("pushout", "--left", "loop1", "--right", "loop2"),
            ("pushout", "--left", "loop1", "--right", "loop2", "--left-sketch", "TwoIdLoops",
             "--right-sketch", "TwoIdLoops", "--shared", "WithIdLoop"),
            ("elemdiag", "--structure", "OneObj"),
            ("elemdiag", "--structure", "OneObj", "--max", "--exprs", "loop_is_id,two_ids"),
            ("sound", "--rule", "id_unique", "--max-carrier", "1,2"),
        ]),
    "ua": (
        "mor leg1 : ONE -> SPAN = [pv->pv1];\n"
        "mor leg2 : ONE -> SPAN = [pv->pv2];\n",
        [
            ("solve", "--expr", "is_final", "--structure", "Cone"),
            ("solve", "--expr", "is_prod", "--structure", "Cone"),
            ("models", "--sketch", "ProdCone", "--structure", "Cone"),
            ("match", "--rule", "final_exists", "--host", "FinalPt"),
            ("match", "--rule", "prod_exists", "--host", "ProdCone"),
            ("closed", "--rule", "prod_exists", "--host", "ProdCone"),
            ("apply", "--rule", "final_exists", "--host", "Nothing", "--at", "[]"),
            ("apply", "--rule", "prod_exists", "--host", "ProdCone",
             "--at", "[pv->pv1; pv1->pv; pv2->pv2]"),
            ("saturate", "--host", "AnyPair", "--rules", "final_exists,prod_exists",
             "--max-steps", "4"),
            ("pushout", "--left", "leg1", "--right", "leg2"),
            ("pushout", "--left", "leg1", "--right", "leg2", "--left-sketch", "ProdCone",
             "--right-sketch", "ProdCone", "--shared", "FinalPt"),
            ("elemdiag", "--structure", "Cone"),
            ("elemdiag", "--structure", "Cone", "--max", "--exprs", "is_final,is_prod"),
            ("sound", "--rule", "final_exists", "--max-carrier", "1,1"),
        ]),
}


def render(name: str, directory: Path) -> str:
    """The sweep's transcript for one fixture: per command a header line
    with its exit code and arguments, then its stdout."""
    extra, commands = SWEEP[name]
    path = directory / f"{name}.lfoc"
    path.write_text(fixture_path(name).read_text(encoding="utf-8") + extra, encoding="utf-8")
    chunks = []
    for command in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([command[0], str(path), *command[1:]])
        chunks.append(f"# exit {code}: {' '.join(command)}\n{out.getvalue()}")
    return "".join(chunks)


def test_sweep_covers_every_fixture():
    assert sorted(SWEEP) == sorted(FIXTURES)


@pytest.mark.parametrize("name", FIXTURES)
def test_cli_output_matches_golden_bytes(name, tmp_path):
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert render(name, tmp_path) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for fixture in FIXTURES:
            (GOLDEN / f"{fixture}.out").write_text(render(fixture, Path(scratch)),
                                                   encoding="utf-8")
    sys.exit(0)
