"""End-to-end command line tests: exit codes, JSON payloads, determinism."""

import json
from pathlib import Path

import pytest

from lfoc.cli import main
from lfoc.fixtures import fixture_path

FOL = str(fixture_path("fol"))
CAT = str(fixture_path("cat"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


@pytest.fixture
def entail_doc(tmp_path):
    path = tmp_path / "tiny.lfoc"
    path.write_text(
        "base set;\n"
        "obj P1 { p };\n"
        "obj S { s };\n"
        "obj A { a1 a2 };\n"
        "mor f : S -> A = [s->a1];\n"
        "mor g : S -> A = [s->a2];\n"
        "footprint F { feature m : P1; feature f : P1; };\n"
        "expr em : P1 = m([p->p]);\n"
        "expr ef : P1 = f([p->p]);\n"
        "sketch MA { context P1; constraint em @ [p->p]; };\n"
        "sketch MB { context P1; constraint ef @ [p->p]; };\n"
        "sketch SH { context S; };\n"
        "sketch LE { context A; };\n"
        "sketch RI { context A; };\n",
        encoding="utf-8")
    return str(path)


def test_solve_lists_sibling_solutions(capsys):
    code, payload, _ = run(capsys, "solve", FOL, "--expr", "sibling",
                           "--structure", "Smiths")
    assert code == 0
    assert payload["schema"] == "lfoc/1"
    assert payload["solutions"] == [{"p": "alice"}, {"p": "bob"}]
    assert payload["count"] == 2


def test_solve_is_byte_deterministic(capsys):
    main(["solve", FOL, "--expr", "sibling", "--structure", "Smiths"])
    first = capsys.readouterr().out
    main(["solve", FOL, "--expr", "sibling", "--structure", "Smiths"])
    second = capsys.readouterr().out
    assert first == second


def test_check_exit_codes(capsys):
    code, payload, _ = run(capsys, "check", FOL, "--expr", "sibling",
                           "--structure", "Smiths", "--at", "[p->alice]")
    assert code == 0 and payload["holds"] is True
    code, payload, _ = run(capsys, "check", FOL, "--expr", "sibling",
                           "--structure", "Smiths", "--at", "[p->carol]")
    assert code == 1 and payload["holds"] is False


def test_models_count(capsys):
    code, payload, _ = run(capsys, "models", FOL, "--sketch", "HasSibling",
                           "--structure", "Smiths")
    assert code == 0
    # alice must land on a sibling (2 ways), the rest are free (4^3)
    assert payload["count"] == 2 * 4 ** 3


def test_entail_requires_registry(capsys, entail_doc):
    code, payload, err = run(capsys, "entail", entail_doc,
                             "--left", "MA", "--right", "MA")
    assert code == 2
    assert payload is None
    assert "--registry" in err or "registry" in err


def test_entail_holds_and_fails(capsys, entail_doc):
    code, payload, _ = run(capsys, "entail", entail_doc, "--left", "MA",
                           "--right", "MA", "--max-carrier", "2")
    assert code == 0
    assert payload["holds"] is True
    assert payload["registry"] == "exhaustive(max_elements=2)"

    code, payload, _ = run(capsys, "entail", entail_doc, "--left", "MA",
                           "--right", "MB", "--max-carrier", "2")
    assert code == 1
    assert payload["holds"] is False
    assert payload["counterexample"]["map"] == {"p": "x1"}


def test_object_pushout(capsys, entail_doc):
    code, payload, _ = run(capsys, "pushout", entail_doc,
                           "--left", "f", "--right", "g")
    assert code == 0
    assert sorted(payload["apex"]["elements"]) == ["l.a1", "l.a2", "r.a1"]


def test_sketch_pushout(capsys, entail_doc):
    code, payload, _ = run(capsys, "pushout", entail_doc,
                           "--left", "f", "--right", "g",
                           "--left-sketch", "LE", "--right-sketch", "RI",
                           "--shared", "SH")
    assert code == 0
    assert payload["kind"] == "sketch"
    assert len(payload["sketch"]["context"]["elements"]) == 3


def test_match_lists_all(capsys):
    code, payload, _ = run(capsys, "match", CAT, "--rule", "id_exists",
                           "--host", "WithIdLoop")
    assert code == 0
    assert payload["matches"] == [{"pv": "pv"}]


def test_closed_exit_codes(capsys):
    code, payload, _ = run(capsys, "closed", CAT, "--rule", "id_exists",
                           "--host", "WithIdLoop")
    assert code == 0 and payload["closed"] is True
    code, payload, _ = run(capsys, "closed", CAT, "--rule", "id_exists",
                           "--host", "OneLoop")
    assert code == 1
    assert payload["failing_match"] is not None


def test_conservative_witness(capsys, tmp_path):
    ext = tmp_path / "ext.lfoc"
    ext.write_text(
        f'base graph;\nimport "{CAT}";\n'
        "structure Bare : CAT { carrier PV; };\n", encoding="utf-8")
    code, payload, _ = run(capsys, "conservative", str(ext), "--rule",
                           "id_exists", "--structure", "OneObj")
    assert code == 0 and payload["conservative"] is True
    code, payload, _ = run(capsys, "conservative", str(ext), "--rule",
                           "id_exists", "--structure", "Bare")
    assert code == 1
    assert payload["witness"] == {"pv": "pv"}


def test_sound_over_exhaustive_registry(capsys):
    code, payload, _ = run(capsys, "sound", CAT, "--rule", "id_unique",
                           "--max-carrier", "1,1")
    assert code == 0
    assert payload["registry"] == "exhaustive(max_vertices=1,max_edges=1)"
    code, payload, _ = run(capsys, "sound", CAT, "--rule", "id_exists",
                           "--max-carrier", "1,1")
    assert code == 1
    assert payload["counterexample"] is not None


def test_apply_and_non_match(capsys):
    code, payload, _ = run(capsys, "apply", CAT, "--rule", "id_exists",
                           "--host", "AnyVertex", "--at", "[pv->pv]")
    assert code == 0
    assert len(payload["sketch"]["constraints"]) == 1
    code, payload, err = run(capsys, "apply", CAT, "--rule", "id_unique",
                             "--host", "WithIdLoop",
                             "--at", "[pv->pv; pe1->pe; pe2->pe]")
    assert code == 2
    assert payload is None
    assert "not a match" in err


def test_saturate_closed_and_budget(capsys):
    code, payload, _ = run(capsys, "saturate", CAT, "--host", "AnyVertex",
                           "--rules", "id_exists", "--max-steps", "5")
    assert code == 0
    assert payload["status"] == "closed"
    assert payload["steps"] == 1
    code, payload, _ = run(capsys, "saturate", CAT, "--host", "AnyVertex",
                           "--rules", "id_exists", "--max-steps", "0")
    assert code == 1
    assert payload["status"] == "budget-exhausted"


def test_elemdiag_text_parses(capsys):
    from lfoc import parse_document
    code, payload, _ = run(capsys, "elemdiag", FOL, "--structure", "Smiths")
    assert code == 0
    assert payload["mode"] == "min"
    assert len(payload["sketch"]["constraints"]) == 8
    reparsed = parse_document(payload["text"])
    assert "Smiths_min" in reparsed.sketches


def test_equiv_agrees(capsys):
    code, payload, _ = run(capsys, "equiv", CAT, "--rule", "id_exists",
                           "--structure", "OneObj")
    assert code == 0
    assert payload["agree"] is True


def test_unknown_name_is_usage_error(capsys):
    code, payload, err = run(capsys, "solve", FOL, "--expr", "nope",
                             "--structure", "Smiths")
    assert code == 2
    assert "no expression named" in err


def test_graph_bounds_need_two_numbers(capsys):
    code, _, err = run(capsys, "sound", CAT, "--rule", "id_unique",
                       "--max-carrier", "1")
    assert code == 2
    assert "vertices,edges" in err


def _chain_doc(tmp_path, size, expr):
    """A set document whose carrier c0..c<size-1> is one r-chain."""
    people = " ".join(f"c{i}" for i in range(size))
    facts = "".join(f"  r [q1->c{i}; q2->c{i + 1}];\n" for i in range(size - 1))
    path = tmp_path / "chain.lfoc"
    path.write_text(
        "base set;\n"
        "obj P1 { p };\n"
        "obj P2 { q1 q2 };\n"
        "obj X4 { x1 x2 x3 x4 };\n"
        "obj X7 { x1 x2 x3 x4 x5 x6 x7 };\n"
        f"obj C {{ {people} }};\n"
        "footprint F { feature r : P2; };\n"
        f"{expr}\n"
        f"structure W : F {{\n  carrier C;\n{facts}}};\n",
        encoding="utf-8")
    return str(path)


def test_unconstrained_enumeration_past_the_cap_is_refused(capsys, tmp_path):
    # hom(X7, C) has 10^7 members, past the 5M cap
    doc = _chain_doc(tmp_path, 10, "expr everything : X7 = top;")
    code, payload, err = run(capsys, "solve", doc, "--expr", "everything",
                             "--structure", "W")
    assert code == 2 and payload is None
    assert "cap" in err


def test_conjunctive_exists_over_a_hom_set_past_the_cap_answers(capsys, tmp_path):
    # hom(X4, C) has 48^4 > 5M members, but the body binds every variable
    doc = _chain_doc(tmp_path, 48, (
        "expr starts_path3 : P1 = exists [p->x1] into X4 .\n"
        "  r([q1->x1; q2->x2]) and r([q1->x2; q2->x3]) and r([q1->x3; q2->x4]);"))
    code, payload, _ = run(capsys, "solve", doc, "--expr", "starts_path3",
                           "--structure", "W")
    assert code == 0
    assert payload["solutions"] == [{"p": f"c{i}"} for i in range(45)]


# Expressions nested past the recursion limit are bad input: exit 2 with
# an error line, never a traceback.  Shapes: a 500-term `and` chain, a
# 3000-deep `not` chain and 3000 nested parentheses.
DEEP_EXPRS = {
    "and": " and ".join(["male([p->p])"] * 500),
    "not": "not " * 3000 + "male([p->p])",
    "parens": "(" * 3000 + "male([p->p])" + ")" * 3000,
}


@pytest.mark.parametrize("shape", sorted(DEEP_EXPRS))
def test_deeply_nested_expression_is_refused_with_exit_2(capsys, tmp_path, shape):
    path = tmp_path / "deep.lfoc"
    path.write_text(Path(FOL).read_text(encoding="utf-8")
                    + f"expr deep : P1 = {DEEP_EXPRS[shape]};\n", encoding="utf-8")
    code, payload, err = run(capsys, "solve", str(path), "--expr", "deep",
                             "--structure", "Smiths")
    assert code == 2 and payload is None
    assert err.startswith("error:") and "nested too deeply" in err
    assert "Traceback" not in err
