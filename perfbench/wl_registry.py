"""`registry`: sound, entail and morphism over exhaustive registries.

Set footprints of 2-3 features (arities P0, P1, P2) at `--max-carrier`
2 or 3, from 69 up to 4 165 structures, and the graph footprint of
identities and composites at `--max-carrier 2,2` (3 189 structures).
Most checks hold by construction (fold/unfold, modus ponens, tautology
introduction), so they scan the whole registry; a minority fail at an
early structure, and the oracle re-checks the returned witness by
decoding that structure from its index.
"""

from __future__ import annotations

import random
from math import prod

from common import Op, Workload, expect, oracle, payload, product_maps, sketch

ARITIES = {"P0": (), "P1": ("p",), "P2": ("q1", "q2")}

# (label, features as (role, arity), --max-carrier); u = unary, r = binary,
# z = nullary.  Structure counts: 69, 265, 1 033, 138, 4 165.
SET_VARIANTS = (
    ("s1", (("u1", "P1"), ("r1", "P2")), 2),
    ("s2", (("u1", "P1"), ("u2", "P1"), ("r1", "P2")), 2),
    ("s3", (("u1", "P1"), ("r1", "P2"), ("r2", "P2")), 2),
    ("s4", (("z", "P0"), ("u1", "P1"), ("r1", "P2")), 2),
    ("s5", (("u1", "P1"), ("r1", "P2")), 3),
)
# Checks run on the small variants only; the large ones take a sample.
LARGE_CHECKS = ("sound unfold", "entail Both Split", "sound give_out")

SET_BODY = """
expr a : P1 = {u1}([p->p]);
expr out : P1 = exists [p->q1] into P2 . {r1}([q1->q1; q2->q2]);
expr a_and_out : P1 = a and out;
expr taut : P1 = a or not a;
expr loop : P1 = {r1}([q1->p; q2->p]);
expr mp_e : P1 = given a exists [p->q1] into P2 . {r1}([q1->q1; q2->q2]);
expr edge : P2 = {r1}([q1->q1; q2->q2]);

{sketches}

rule unfold : Both => Split;
rule fold : Split => Both;
rule mp : MP => Edge via [p->q1];
rule intro_taut : Anyone => Taut;
rule loop_out : HasLoop => HasOut;
rule give_out : Anyone => Edge via [p->q1];
rule a_loop : HasA => HasLoop;
"""

SET_SKETCHES = "\n".join([
    sketch("Anyone", "P1"),
    sketch("Both", "P1", [("a_and_out", {"p": "p"})]),
    sketch("Split", "P1", [("a", {"p": "p"}), ("out", {"p": "p"})]),
    sketch("Taut", "P1", [("taut", {"p": "p"})]),
    sketch("HasA", "P1", [("a", {"p": "p"})]),
    sketch("HasOut", "P1", [("out", {"p": "p"})]),
    sketch("HasLoop", "P1", [("loop", {"p": "p"})]),
    sketch("MP", "P1", [("a", {"p": "p"}), ("mp_e", {"p": "p"})]),
    sketch("Edge", "P2", [("edge", {"q1": "q1", "q2": "q2"})]),
])

# check -> (holds, what a witness must satisfy at p -> x when it fails)
SET_CHECKS = {
    "sound unfold": True, "sound fold": True, "sound mp": True,
    "sound intro_taut": True, "sound loop_out": True,
    "entail Both Split": True, "entail Split Both": True,
    "entail Anyone Taut": True, "entail HasLoop HasOut": True,
    "morphism HasOut Both": True,
    # failing checks and their witness conditions
    "sound give_out": lambda s, x: not s.out(x),
    "sound a_loop": lambda s, x: s.a(x) and not s.loop(x),
    "entail HasA HasOut": lambda s, x: s.a(x) and not s.out(x),
    "morphism HasA HasOut": lambda s, x: s.out(x) and not s.a(x),
}

GRAPH_DOC = """base graph;

obj PV {{ v pv; }};
obj ID_ARITY {{ v pv; e pe: pv->pv; }};
obj TWO_LOOPS {{ v pv; e pe1: pv->pv; e pe2: pv->pv; }};
obj COMP_ARITY {{ v pv1 pv2 pv3; e pe1: pv1->pv2; e pe2: pv2->pv3; e pe3: pv1->pv3; }};

footprint CAT {{
  feature {ident} : ID_ARITY;
  feature {comp} : COMP_ARITY;
}};

expr l1 : TWO_LOOPS = {ident}([pv->pv; pe->pe1]);
expr l2 : TWO_LOOPS = {ident}([pv->pv; pe->pe2]);
expr two_ids : TWO_LOOPS = l1 and l2;

sketch Both2 {{ context TWO_LOOPS; constraint two_ids @ [pv->pv; pe1->pe1; pe2->pe2]; }};
sketch Split2 {{
  context TWO_LOOPS;
  constraint l1 @ [pv->pv; pe1->pe1; pe2->pe2];
  constraint l2 @ [pv->pv; pe1->pe1; pe2->pe2];
}};

"""
GRAPH_CHECKS = ("entail Both2 Split2",)


class Decoded:
    """Structure number `index` of lfoc's documented enumeration order:
    carriers x1..xn by size, then feature subsets in binary counting order
    over each hom-set list, the last feature varying fastest."""

    def __init__(self, features, bound: int, index: int):
        for n in range(bound + 1):
            carrier = [f"x{i + 1}" for i in range(n)]
            homs = [product_maps(ARITIES[arity], carrier) for _, arity in features]
            sizes = [2 ** len(h) for h in homs]
            if index < prod(sizes):
                break
            index -= prod(sizes)
        else:
            raise IndexError("structure index beyond the registry")
        picks = []
        for size in reversed(sizes):
            picks.append(index % size)
            index //= size
        picks.reverse()
        self.carrier = carrier
        self.facts = {role: [h[i] for i in range(len(h)) if pick >> i & 1]
                      for (role, _), h, pick in zip(features, homs, picks)}

    def a(self, x):
        return {"p": x} in self.facts["u1"]

    def out(self, x):
        return any(m["q1"] == x for m in self.facts["r1"])

    def loop(self, x):
        return {"q1": x, "q2": x} in self.facts["r1"]


def _set_oracle(check: str, features, bound: int):
    verdict = SET_CHECKS[check]
    command = check.split()[0]
    key = {"sound": "sound"}.get(command, "holds")

    def run(rc, out):
        data = payload(rc, out, 0 if verdict is True else 1)
        if verdict is True:
            expect(data[key] is True and data["counterexample"] is None,
                   f"{check}: expected to hold over the whole registry")
            return
        expect(data[key] is False, f"{check}: expected a counterexample")
        witness = data["counterexample"]
        name, x = witness["structure"], witness["map"]["p"]
        expect(name.startswith("S"), f"{check}: witness names structure {name!r}")
        st = Decoded(features, bound, int(name[1:]))
        expect(x in st.carrier and verdict(st, x),
               f"{check}: witness {name} at p->{x} does not refute it")
    return oracle(run)


def _graph_oracle(check: str):
    key = "sound" if check.startswith("sound") else "holds"

    def run(rc, out):
        data = payload(rc, out, 0)
        expect(data[key] is True and data["counterexample"] is None,
               f"{check}: expected to hold over the whole registry")
    return oracle(run)


def _flags(check: str, bound: str) -> list[str]:
    command, *names = check.split()
    if command == "sound":
        flags = ["--rule", names[0]]
    elif command == "entail":
        flags = ["--left", names[0], "--right", names[1]]
    else:
        flags = ["--src", names[0], "--dst", names[1], "--map", "[p->p]"]
    return flags + ["--max-carrier", bound]


def build(seed: int) -> Workload:
    rng = random.Random(f"registry:{seed}")
    docs: dict[str, str] = {}
    ops: list[Op] = []
    for label, roles, bound in SET_VARIANTS:
        # seeded feature names, so documents differ between seeds
        names = {role: f"{role}_{rng.randrange(10 ** 6)}" for role, _ in roles}
        header = ["base set;", "", "obj P0 { };", "obj P1 { p };", "obj P2 { q1 q2 };", "",
                  "footprint F {"]
        header += [f"  feature {names[role]} : {arity};" for role, arity in roles]
        header += ["};"]
        doc = f"reg_{label}.lfoc"
        docs[doc] = "\n".join(header) + "\n" + SET_BODY.format(
            sketches=SET_SKETCHES, **names)
        checks = LARGE_CHECKS if bound == 3 else tuple(SET_CHECKS)
        ops += [Op(check.split()[0], doc, _flags(check, str(bound)),
                   _set_oracle(check, roles, bound)) for check in checks]
    graph_names = {"ident": f"ident_{rng.randrange(10 ** 6)}",
                   "comp": f"comp_{rng.randrange(10 ** 6)}"}
    docs["reg_cat.lfoc"] = GRAPH_DOC.format(**graph_names)
    ops += [Op(check.split()[0], "reg_cat.lfoc", _flags(check, "2,2"), _graph_oracle(check))
            for check in GRAPH_CHECKS]
    rng.shuffle(ops)
    params = {"set_variants": [[label, [a for _, a in roles], bound]
                               for label, roles, bound in SET_VARIANTS],
              "graph_bound": "2,2", "operations": len(ops)}
    return Workload(docs, ops, params)
