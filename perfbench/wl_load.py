"""`load`: elemdiag, an atomic solve and pushout on large generated documents.

Each document declares 10-40 structures on 20-60-element carriers with
hundreds of facts each, plus many expression, sketch and morphism
declarations.  Every operation parses its whole document, so the parser,
validated morphism construction from names, the fact dedup in
`Structure`, the printer and JSON output dominate; the queries
themselves are cheap.
"""

from __future__ import annotations

import random

from common import (Op, Workload, expect, lit, oracle, payload, product_maps,
                    pushout_oracle, set_obj, sketch, structure)

# (structures, smallest carrier, largest carrier) per document
DOCS = ((10, 40, 60), (16, 30, 50), (22, 20, 40), (28, 20, 30), (34, 20, 26), (40, 20, 22))
EXPRS = 40
SKETCHES = 24

HEADER = """base set;

obj P1 { p };
obj P2 { q1 q2 };
obj K2 { k1 k2 };
obj K3 { k1 k2 k3 };

footprint FOL {
  feature male : P1;
  feature female : P1;
  feature parent : P2;
  feature likes : P2;
};

expr likes_e : P2 = likes([q1->q1; q2->q2]);
"""

EXPR_SHAPES = (
    "male([p->p]) and not female([p->p])",
    "exists [p->q1] into P2 . likes([q1->q1; q2->q2])",
    "female([p->p]) or exists [p->q2] into P2 . parent([q1->q1; q2->q2])",
    "forall [p->q1] into P2 . (given likes([q1->q1; q2->q2]) exists [q1->q1; q2->q2] into P2 . male([p->q2]))",
    "not (male([p->p]) or female([p->p]))",
)


class Population:
    """One structure's facts: fixed shares per carrier size, placed at random."""

    def __init__(self, rng: random.Random, name: str, carrier: list[str]):
        n = len(carrier)
        pairs = [(a, b) for a in carrier for b in carrier if a != b]
        self.name, self.carrier = name, carrier
        self.male = sorted(rng.sample(carrier, n // 2))
        self.female = sorted(set(carrier) - set(self.male))
        self.parent = rng.sample(pairs, 2 * n)
        self.likes = rng.sample(pairs, 3 * n)

    def facts(self) -> dict[str, list[dict[str, str]]]:
        return {"male": [{"p": x} for x in self.male],
                "female": [{"p": x} for x in self.female],
                "parent": [{"q1": a, "q2": b} for a, b in self.parent],
                "likes": [{"q1": a, "q2": b} for a, b in self.likes]}

    def count(self) -> int:
        return sum(len(v) for v in self.facts().values())


def _elemdiag_oracle(pop: Population):
    want = pop.count()

    def check(rc, out):
        data = payload(rc, out, 0)
        got = len(data["sketch"]["constraints"])
        expect(data["mode"] == "min" and got == want,
               f"elemdiag {pop.name}: {got} constraints, expected one per fact ({want})")
        expect(data["text"].startswith("base set;"), "elemdiag: text is not a document")
    return oracle(check)


def _solve_oracle(pop: Population):
    likes = set(pop.likes)
    want = [m for m in product_maps(("q1", "q2"), pop.carrier) if (m["q1"], m["q2"]) in likes]

    def check(rc, out):
        data = payload(rc, out, 0)
        expect(data["solutions"] == want,
               f"solve likes_e on {pop.name}: {data['count']} solutions, expected {len(want)}")
    return oracle(check)


def _document(rng: random.Random, tag: str, n_structures: int, lo: int, hi: int):
    lines = [HEADER]
    pops = []
    for i in range(n_structures):
        size = lo + (hi - lo) * i // max(1, n_structures - 1)
        carrier = [f"{tag}_{i}_{j}" for j in range(size)]
        lines.append(set_obj(f"C{i}", carrier))
        pops.append(Population(rng, f"S{i}", carrier))
    for i in range(EXPRS):
        lines.append(f"expr e{i} : P1 = {EXPR_SHAPES[i % len(EXPR_SHAPES)]};")
    for i in range(SKETCHES):
        a, b, c = (f"e{rng.randrange(EXPRS)}" for _ in range(3))
        if i % 2:
            lines.append(sketch(f"K{i}", "K2", [(a, {"p": "k1"}), (b, {"p": "k2"}),
                                               ("likes_e", {"q1": "k1", "q2": "k2"})]))
        else:
            lines.append(sketch(f"K{i}", "K3", [(a, {"p": "k1"}), (b, {"p": "k2"}),
                                               (c, {"p": "k3"})]))
    # spans C(2i) <- Span_i -> C(2i+1) of declared morphisms, for pushouts
    spans = []
    for i in range(3):
        left, right = pops[(2 * i) % n_structures], pops[(2 * i + 1) % n_structures]
        k = [f"k{j}" for j in range(len(left.carrier) // 2)]
        f_map = {x: rng.choice(left.carrier) for x in k}
        g_map = {x: rng.choice(right.carrier) for x in k}
        lines.append(set_obj(f"Span{i}", k))
        lines.append(f"mor f{i} : Span{i} -> C{(2 * i) % n_structures} = {lit(f_map)};")
        lines.append(f"mor g{i} : Span{i} -> C{(2 * i + 1) % n_structures} = {lit(g_map)};")
        spans.append((f"f{i}", f"g{i}", pushout_oracle(
            len(left.carrier), len(right.carrier), [(f_map[x], g_map[x]) for x in k])))
    for pop in pops:
        lines.append(structure(pop.name, "FOL", f"C{pop.name[1:]}", pop.facts()))
    return "\n".join(lines) + "\n", pops, spans


def build(seed: int) -> Workload:
    rng = random.Random(f"load:{seed}")
    docs: dict[str, str] = {}
    ops: list[Op] = []
    for d, (n_structures, lo, hi) in enumerate(DOCS):
        name = f"load{d}.lfoc"
        docs[name], pops, spans = _document(rng, f"d{d}", n_structures, lo, hi)
        # fixed picks, so the work per document does not depend on the seed
        elemdiag, solved = pops[n_structures // 3], pops[2 * n_structures // 3]
        f, g, check = spans[d % len(spans)]
        ops += [Op("elemdiag", name, ["--structure", elemdiag.name], _elemdiag_oracle(elemdiag)),
                Op("solve", name, ["--expr", "likes_e", "--structure", solved.name],
                   _solve_oracle(solved)),
                Op("pushout", name, ["--left", f, "--right", g], check)]
    rng.shuffle(ops)
    params = {"documents": [list(d) for d in DOCS], "operations": len(ops),
              "exprs": EXPRS, "sketches": SKETCHES,
              "bytes": {name: len(text) for name, text in docs.items()}}
    return Workload(docs, ops, params)
