"""End-to-end command line tests: exit codes, JSON payloads, determinism."""

import gc
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from lfoc import cli, footprint, rules, sketch
from lfoc.cli import main
from lfoc.dsl import parse_path
from lfoc.fixtures import fixture_path
from lfoc.footprint import CarrierBounds, count_structures

FOL = str(fixture_path("fol"))
CAT = str(fixture_path("cat"))
ALC = str(fixture_path("alc"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


def test_importing_the_cli_generates_no_class_code():
    # `dataclasses` would write and exec every record's methods at import
    src = str(Path(cli.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import lfoc.cli; "
            "print('dataclasses' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"


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


def test_sound_over_a_graph_registry_of_many_vertices_answers_quickly(capsys):
    # 20 vertices and at most one edge: the hom search joins the arity's
    # edges, so a vertex is bound only where its edges to bound names allow
    start = time.process_time()
    code, payload, _ = run(capsys, "sound", CAT, "--rule", "id_unique",
                           "--max-carrier", "20,1")
    spent = time.process_time() - start
    assert code == 0 and payload["sound"] is True
    assert spent < 3.0, f"sound at 20,1 took {spent:.2f} s of CPU"


def test_apply_and_non_match(capsys, monkeypatch):
    # each apply checks its match once: a call from the CLI counts too
    calls = []
    is_match = rules.is_match
    for module in (rules, cli):
        monkeypatch.setattr(module, "is_match", lambda *a: calls.append(a) or is_match(*a),
                            raising=False)
    code, payload, _ = run(capsys, "apply", CAT, "--rule", "id_exists",
                           "--host", "AnyVertex", "--at", "[pv->pv]")
    assert code == 0 and len(calls) == 1
    assert len(payload["sketch"]["constraints"]) == 1
    code, payload, err = run(capsys, "apply", CAT, "--rule", "id_unique",
                             "--host", "WithIdLoop",
                             "--at", "[pv->pv; pe1->pe; pe2->pe]")
    assert code == 2 and len(calls) == 2
    assert payload is None
    assert err == ("error: {'pv': 'pv', 'pe1': 'pe', 'pe2': 'pe'} is not a match of "
                   "rule 'id_unique' in sketch 'WithIdLoop'\n")


@pytest.mark.parametrize("argv", [
    ("match", CAT, "--rule", "id_unique", "--host", "TwoIdLoops"),
    ("closed", CAT, "--rule", "id_unique", "--host", "WithIdLoop"),
    ("sound", CAT, "--rule", "id_unique", "--max-carrier", "1,2"),
    ("entail", CAT, "--left", "TwoIdLoops", "--right", "TwoIdLoops", "--max-carrier", "1,2"),
    ("morphism", CAT, "--src", "WithIdLoop", "--dst", "TwoIdLoops",
     "--map", "[pv->pv; pe->pe1]", "--max-carrier", "1,2"),
])
def test_checks_build_no_constraint_after_parsing(capsys, monkeypatch, argv):
    # a sketch's constraints stay relations from the parser to the verdict
    built, parsed = [], []

    def parse(path):
        doc = parse_path(path)
        parsed.append(path)
        return doc

    init = sketch.Constraint.__init__
    monkeypatch.setattr(sketch.Constraint, "__init__",
                        lambda self, *a: built.append(bool(parsed)) or init(self, *a))
    monkeypatch.setattr(cli, "parse_path", parse)
    code, payload, err = run(capsys, *argv)
    assert code in (0, 1) and payload is not None and err == ""
    # the parser builds the fixture's two constraints, and nothing else does
    assert parsed and built == [False, False]


@pytest.mark.parametrize("flag", ["--max-steps", "--max-elements", "--max-vertices",
                                  "--max-edges"])
def test_negative_saturation_budgets_are_bad_input(capsys, flag):
    code, payload, err = run(capsys, "saturate", CAT, "--host", "AnyVertex",
                             "--rules", "id_exists", flag, "-1")
    assert code == 2 and payload is None
    assert err == f"error: {flag} must be non-negative\n"


@pytest.mark.parametrize("argv", [
    ("saturate", CAT, "--host", "AnyVertex", "--rules", "id_exists", "--max-steps=--"),
    ("sound", CAT, "--rule", "id_unique", "--max-carrier=--"),
    ("solve", FOL, "--expr=--", "--structure", "Smiths"),
])
def test_an_option_given_a_double_dash_is_bad_input(capsys, argv):
    # argparse reads `--flag=--` as an empty list and skips the flag's type
    code, payload, err = run(capsys, *argv)
    flag = argv[-1].split("=")[0] if argv[-1].endswith("=--") else "--expr"
    assert code == 2 and payload is None
    assert err == f"error: {flag} expects a value\n"


def test_a_zero_step_budget_is_exhausted(capsys):
    code, payload, _ = run(capsys, "saturate", CAT, "--host", "AnyVertex",
                           "--rules", "id_exists", "--max-steps", "0")
    assert code == 1
    assert payload["status"] == "budget-exhausted" and payload["steps"] == 0


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


# No walk recurses, so expressions nested far past Python's recursion
# limit answer like shallow ones.  Each chain below is `male([p->p])`
# (an even number of `not`s) in the Smiths family: bob and dave.
MALE = "male([p->p])"
MALES = [{"p": "bob"}, {"p": "dave"}]


def _chain(shape, n):
    return {"not": "not " * n + MALE, "parens": "(" * n + MALE + ")" * n,
            "or": " or ".join([MALE] * n), "and": " and ".join([MALE] * n),
            "quantifiers": "exists [p->p] into P1 . " * n + MALE}[shape]


def _deep_doc(tmp_path, shape, n, copies=1):
    """The FOL fixture, `deep` and `deep2`... (`copies` equal chains), a
    sketch with each bound at p, and a rule that adds the first."""
    names = ["deep"] + [f"deep{i}" for i in range(2, copies + 1)]
    path = tmp_path / "deep.lfoc"
    path.write_text(
        Path(FOL).read_text(encoding="utf-8")
        + "".join(f"expr {name} : P1 = {_chain(shape, n)};\n" for name in names)
        + "sketch DeepSk { context P1; "
        + "".join(f"constraint {name} @ [p->p]; " for name in names) + "};\n"
        + "rule add_deep : Anyone => DeepSk;\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("shape", ["not", "parens"])
def test_deeply_nested_expression_is_answered(capsys, tmp_path, shape):
    doc = _deep_doc(tmp_path, shape, 3000)
    code, payload, err = run(capsys, "solve", doc, "--expr", "deep", "--structure", "Smiths")
    assert (code, err) == (0, "")
    assert payload["solutions"] == MALES


@pytest.mark.parametrize("shape", ["not", "parens", "or", "and"])
def test_chains_100_000_deep_answer_through_solve_and_models(capsys, tmp_path, shape):
    assert sys.getrecursionlimit() <= 1000
    doc = _deep_doc(tmp_path, shape, 100_000)
    code, payload, _ = run(capsys, "solve", doc, "--expr", "deep", "--structure", "Smiths")
    assert code == 0 and payload["solutions"] == MALES
    code, payload, _ = run(capsys, "models", doc, "--sketch", "DeepSk", "--structure", "Smiths")
    assert code == 0 and payload["models"] == MALES


@pytest.mark.parametrize("shape,n", [("not", 1500), ("or", 1500), ("and", 1500),
                                     ("quantifiers", 1000)])
def test_deep_expressions_are_printed_by_elemdiag_and_saturate(capsys, tmp_path, shape, n):
    # `json.loads` recurses, so the payloads are read as text
    doc = _deep_doc(tmp_path, shape, n)
    atoms = n if shape in ("or", "and") else 1
    assert main(["elemdiag", doc, "--structure", "Smiths", "--max", "--exprs", "deep"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('{\n  "command": "elemdiag",')
    # one constraint at bob and one at dave, and the printed document
    assert out.count('"feature": "male"') == 2 * atoms
    assert out.count('"p": "bob"') == out.count('"p": "dave"') == 1
    assert f"expr deep : P1 = {_chain(shape, n)};" in out
    assert main(["saturate", doc, "--host", "Anyone", "--rules", "add_deep"]) == 0
    out = capsys.readouterr().out
    assert '\n  "status": "closed",\n  "steps": 1\n}' in out
    assert out.count('"feature": "male"') == atoms


def test_equal_deep_expressions_in_one_sketch(capsys, tmp_path):
    # the two constraints are equal: their relations key compares the
    # two 3 000-deep trees node by node
    doc = _deep_doc(tmp_path, "and", 3000, copies=2)
    code, payload, _ = run(capsys, "models", doc, "--sketch", "DeepSk", "--structure", "Smiths")
    assert code == 0 and payload["models"] == MALES


def test_a_sketch_context_of_1500_names(capsys, tmp_path):
    # the hom search binds one name per level
    names = [f"n{i}" for i in range(1500)]
    path = tmp_path / "wide.lfoc"
    path.write_text(
        Path(FOL).read_text(encoding="utf-8")
        + f"obj Wide {{ {' '.join(names)} }};\nobj One {{ o }};\n"
        + "structure Tiny : FOL { carrier One; male [p->o]; };\n"
        + "expr m : P1 = male([p->p]);\n"
        + "sketch WideSk { context Wide; constraint m @ [p->n0]; };\n", encoding="utf-8")
    code, payload, _ = run(capsys, "models", str(path), "--sketch", "WideSk",
                           "--structure", "Tiny")
    assert code == 0 and payload["models"] == [dict.fromkeys(names, "o")]


def test_a_chain_of_400_imports(capsys, tmp_path):
    for i in range(400):
        text = (f'base set;\nimport "f{i + 1}.lfoc";\nobj O{i} {{ a }};\n' if i < 399
                else Path(FOL).read_text(encoding="utf-8"))
        (tmp_path / f"f{i}.lfoc").write_text(text, encoding="utf-8")
    code, payload, _ = run(capsys, "solve", str(tmp_path / "f0.lfoc"), "--expr", "sibling",
                           "--structure", "Smiths")
    assert code == 0 and payload["solutions"] == [{"p": "alice"}, {"p": "bob"}]
    # each importer's definitions follow those it imports
    doc = parse_path(tmp_path / "f0.lfoc")
    assert list(doc.objects) == ["P1", "P2", "X4", "Family"] + [f"O{i}" for i in range(398, -1, -1)]


def test_long_and_chain_is_solved(capsys, tmp_path):
    path = tmp_path / "long.lfoc"
    chain = " and ".join(["male([p->p])"] * 5000)
    path.write_text(Path(FOL).read_text(encoding="utf-8")
                    + f"expr long : P1 = {chain};\n", encoding="utf-8")
    code, payload, _ = run(capsys, "solve", str(path), "--expr", "long",
                           "--structure", "Smiths")
    assert code == 0
    assert payload["solutions"] == [{"p": "bob"}, {"p": "dave"}]


def test_models_of_a_sketch_with_a_long_and_chain(capsys, tmp_path):
    # models reads the constraint set without ordering it by repr
    path = tmp_path / "long.lfoc"
    chain = " and ".join(["male([p->p])"] * 5000)
    path.write_text(Path(FOL).read_text(encoding="utf-8")
                    + f"expr deep : P1 = {chain};\n"
                    + "sketch DeepSk { context P1; constraint deep @ [p->p]; };\n",
                    encoding="utf-8")
    code, payload, _ = run(capsys, "models", str(path), "--sketch", "DeepSk",
                           "--structure", "Smiths")
    assert code == 0
    assert payload["models"] == [{"p": "bob"}, {"p": "dave"}]


def test_repeated_calls_share_one_parser(capsys, monkeypatch, entail_doc):
    calls = [
        ("solve", FOL, "--expr", "sibling", "--structure", "Smiths"),
        ("entail", entail_doc, "--left", "MA", "--right", "MB", "--max-carrier", "1"),
        ("solve", FOL, "--no-such-flag"),
        ("closed", FOL, "--rule", "give_child", "--host", "ParentEdge"),
        ("entail", entail_doc, "--left", "MA", "--right", "MA", "--max-carrier", "1"),
        ("solve", FOL, "--expr", "sibling", "--structure", "Smiths"),
    ]

    def call(argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    shared = [call(argv) for argv in calls]
    assert [code for code, _ in shared] == [0, 1, 2, 1, 0, 0]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh.append(call(argv))
    assert shared == fresh


def test_oversized_registry_is_refused_with_one_short_line(capsys, tmp_path):
    # one ternary feature: sum of 2^(n^3) structures over carriers of n
    # elements, at 60 about 3.0e65022, past the 4300 digits str() prints
    path = tmp_path / "ternary.lfoc"
    path.write_text(
        "base set;\n"
        "obj T { a b c };\n"
        "obj C { x };\n"
        "footprint F { feature r : T; };\n"
        "sketch A { context C; };\n"
        "sketch B { context C; };\n",
        encoding="utf-8")
    for bound, count in (("20", "about 1.7e2408"), ("60", "about 3.0e65022")):
        code, payload, err = run(capsys, "entail", str(path), "--left", "A", "--right", "B",
                                 "--max-carrier", bound)
        assert code == 2 and payload is None
        assert err == f"error: enumeration would yield {count} structures (cap 500000)\n"
    fp = parse_path(str(path)).footprints["F"]
    assert count_structures(fp, CarrierBounds(max_elements=60)) \
        == sum(2 ** n ** 3 for n in range(61))


def test_a_refused_hom_set_names_its_objects_by_size(capsys, tmp_path):
    # hom(OneLoop, host) into 3 000 vertices and 2 000 edges has up to
    # 6 000 000 candidates; the refusal must not print the host
    vertices = " ".join(f"h{i}" for i in range(3000))
    edges = " ".join(f"e l{i}: h{i}->h{i + 1};" for i in range(2000))
    path = tmp_path / "host.lfoc"
    path.write_text(
        "base graph;\n"
        "obj ID_ARITY { v pv; e pe: pv->pv; };\n"
        f"obj Host {{ v {vertices}; {edges} }};\n"
        "sketch OneLoop { context ID_ARITY; };\n"
        "sketch Big { context Host; };\n"
        "rule keep : OneLoop => OneLoop;\n",
        encoding="utf-8")
    code, payload, err = run(capsys, "match", str(path), "--rule", "keep", "--host", "Big")
    assert code == 2 and payload is None
    assert err.count("\n") == 1 and len(err) < 1024
    assert err == ("error: hom set graph with 1 vertex and 1 edge -> graph with 3000 vertices "
                   "and 2000 edges has up to 6000000 candidates (cap 5000000)\n")


def test_oversized_set_registry_is_refused_in_time_linear_in_the_count(capsys):
    # sum over n <= 6000 of 2^(n + n^2): the count has 36 million bits
    start = time.perf_counter()
    code, payload, err = run(capsys, "sound", ALC, "--rule", "gci_happy",
                             "--max-carrier", "6000")
    assert time.perf_counter() - start < 2
    assert code == 2 and payload is None
    assert err == "error: enumeration would yield about 1.5e10840692 structures (cap 500000)\n"


def test_oversized_set_registry_is_refused_in_bounded_memory(capsys):
    # sum over n <= 20000 of 2^(n + n^2): the count has 400 million bits,
    # about 50 MB; the refusal reads its top bits off the largest exponents
    tracemalloc.start()
    try:
        code, payload, err = run(capsys, "sound", ALC, "--rule", "gci_happy",
                                 "--max-carrier", "20000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and payload is None
    assert err == "error: enumeration would yield about 2.9e120424039 structures (cap 500000)\n"
    assert peak < 40_000_000
    start = time.perf_counter()
    code, payload, err = run(capsys, "sound", ALC, "--rule", "gci_happy",
                             "--max-carrier", "1000000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and err == ("error: enumeration would yield about "
                                 "3.4e301029996266041186 structures (cap 500000)\n")


def test_oversized_graph_registry_is_refused_without_walking_every_carrier(capsys, monkeypatch):
    visited = []
    walk = footprint.enumerate_carriers

    def counted(kind, bounds):
        for carrier in walk(kind, bounds):
            visited.append(carrier)
            if len(visited) > 1000:
                raise AssertionError("walked past 1000 carriers")
            yield carrier

    monkeypatch.setattr(footprint, "enumerate_carriers", counted)
    code, payload, err = run(capsys, "sound", CAT, "--rule", "id_unique",
                             "--max-carrier", "60,60")
    assert code == 2 and payload is None
    assert err.startswith("error: enumeration would yield at least ")
    assert err.endswith(" structures (cap 500000)\n") and err.count("\n") == 1
    assert len(visited) < 20


def test_document_that_is_not_utf8_is_refused_with_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.lfoc"
    path.write_bytes(b"base set;\nobj P1 { p\xff };\n")
    code, payload, err = run(capsys, "solve", str(path), "--expr", "e", "--structure", "S")
    assert code == 2 and payload is None
    assert err.startswith("error:") and "utf-8" in err and err.count("\n") == 1


def test_import_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    (tmp_path / "bad.lfoc").write_bytes(b"base set;\nobj P1 { p\xff };\n")
    path = tmp_path / "main.lfoc"
    path.write_text('base set;\nimport "bad.lfoc";\n', encoding="utf-8")
    code, payload, err = run(capsys, "solve", str(path), "--expr", "e", "--structure", "S")
    assert code == 2 and payload is None
    assert err.startswith("error:") and err.count("\n") == 1
    assert "cannot import 'bad.lfoc'" in err and ":2:" in err


def test_registry_file_that_is_not_utf8_is_refused_with_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.lfoc"
    path.write_bytes(b"base graph;\n\xc3\n")
    code, payload, err = run(capsys, "sound", CAT, "--rule", "id_unique",
                             "--registry", str(path))
    assert code == 2 and payload is None
    assert err.startswith("error:") and "utf-8" in err and err.count("\n") == 1


def test_registry_file_with_another_feature_arity_is_refused(capsys, tmp_path):
    main_doc = tmp_path / "main.lfoc"
    main_doc.write_text(
        "base set;\nobj P1 { p };\nfootprint F { feature male : P1; };\n"
        "expr m : P1 = male([p->p]);\n"
        "sketch Any { context P1; };\nsketch Male { context P1; constraint m @ [p->p]; };\n",
        encoding="utf-8")
    registry = tmp_path / "reg.lfoc"
    registry.write_text(
        "base set;\nobj Q1 { z };\nobj X { x };\nfootprint G { feature male : Q1; };\n"
        "structure S : G { carrier X; male [z->x]; };\n",
        encoding="utf-8")
    code, payload, err = run(capsys, "entail", str(main_doc), "--left", "Any",
                             "--right", "Male", "--registry", str(registry))
    assert code == 2 and payload is None
    assert err.startswith("error:") and "'male'" in err and err.count("\n") == 1


def test_file_that_is_not_utf8_is_named_at_its_first_bad_byte(capsys, tmp_path):
    registry = tmp_path / "registry.lfoc"
    registry.write_bytes(b"base graph;\r\n// \xc3\xa9t\xc3\xa9\n  \xc3\n")
    code, payload, err = run(capsys, "sound", CAT, "--rule", "id_unique",
                             "--registry", str(registry))
    assert code == 2 and payload is None
    assert err == (f"error: {registry}:3:3: not UTF-8: 'utf-8' codec can't decode "
                   f"byte 0xc3 in position 24: invalid continuation byte\n")
    document = tmp_path / "document.lfoc"
    document.write_bytes(b"\xff")
    code, payload, err = run(capsys, "sound", str(document), "--rule", "id_unique",
                             "--registry", str(registry))
    assert code == 2 and err.startswith(f"error: {document}:1:1: not UTF-8: ")


def test_equiv_on_a_rule_with_a_long_and_chain(capsys, tmp_path):
    # the maximal sketch takes the rule's expressions as a set, unordered
    path = tmp_path / "long.lfoc"
    chain = " and ".join(["male([p->p])"] * 5000)
    path.write_text(Path(FOL).read_text(encoding="utf-8")
                    + f"expr deep : P1 = {chain};\n"
                    + "sketch DeepSk { context P1; constraint deep @ [p->p]; };\n"
                    + "sketch AnyP { context P1; };\n"
                    + "rule deep_intro : AnyP => DeepSk;\n",
                    encoding="utf-8")
    code, payload, _ = run(capsys, "equiv", str(path), "--rule", "deep_intro",
                           "--structure", "Smiths")
    assert code == 0
    assert (payload["agree"], payload["conservative"], payload["closed"]) == (True, False, False)


def test_repeated_calls_keep_no_state(capsys):
    # every memo lives and dies with its call, so a long-lived process
    # running the same check again and again does not grow; collected
    # first, since a call's garbage holds reference cycles
    argv = ["sound", CAT, "--rule", "id_unique", "--max-carrier", "2,2"]
    first = main(argv)
    expected = capsys.readouterr().out
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            assert main(argv) == first
            assert capsys.readouterr().out == expected
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024
