"""`query`: solve, check and models on small generated family documents.

Each operation gets its own document: one family of 8-14 persons with
seeded male/female/parent facts.  Operations come in pairs of one
template and size: the first brings a fresh carrier (new person names),
the second reuses that carrier with new facts.  So half the operations
hit lfoc's hom-set cache and half grow it.
"""

from __future__ import annotations

import random

from common import Op, Workload, expect, lit, oracle, payload, product_maps, set_obj, structure

SIZES = (8, 10, 12, 14)

HEADER = """base set;

obj P1 { p };
obj P2 { q1 q2 };
obj X3 { x1 x2 x3 };
obj X4 { x1 x2 x3 x4 };
obj K2 { k1 k2 };
obj K3 { k1 k2 k3 };

footprint FOL {
  feature male : P1;
  feature female : P1;
  feature parent : P2;
};

expr sibling : P1 =
  exists [p->x1] into X4 .
    female([p->x3]) and male([p->x4])
    and parent([q1->x3; q2->x1]) and parent([q1->x4; q2->x1])
    and parent([q1->x3; q2->x2]) and parent([q1->x4; q2->x2]);
expr daughters_only : P1 =
  forall [p->q1] into P2 .
    (given parent([q1->q1; q2->q2])
     forall [q1->q1; q2->q2] into P2 . female([p->q2]));
expr has_mother : P1 =
  exists [p->q2] into P2 . female([p->q1]) and parent([q1->q1; q2->q2]);
expr childless : P1 = not (exists [p->q1] into P2 . parent([q1->q1; q2->q2]));
expr male_or_childless : P1 = male([p->p]) or childless;
expr parent_pair : P2 = parent([q1->q1; q2->q2]);
expr mother_of : P2 = female([p->q1]) and parent([q1->q1; q2->q2]);
expr grandparent : P2 =
  exists [q1->x1; q2->x3] into X3 . parent([q1->x1; q2->x2]) and parent([q1->x2; q2->x3]);
expr co_parents : P2 =
  exists [q1->x1; q2->x2] into X3 . parent([q1->x1; q2->x3]) and parent([q1->x2; q2->x3]);

sketch MotherAndChild {
  context K2;
  constraint has_mother @ [p->k2];
  constraint mother_of @ [q1->k1; q2->k2];
};
sketch ThreeGenerations {
  context K3;
  constraint parent_pair @ [q1->k1; q2->k2];
  constraint parent_pair @ [q1->k2; q2->k3];
  constraint daughters_only @ [p->k2];
};
"""

ARITY = {"sibling": ("p",), "daughters_only": ("p",), "has_mother": ("p",),
         "male_or_childless": ("p",), "grandparent": ("q1", "q2"),
         "co_parents": ("q1", "q2")}

# (command, expression or sketch); each runs twice per family size and pass.
TEMPLATES = (
    ("solve", "sibling"),
    ("solve", "daughters_only"),
    ("solve", "grandparent"),
    ("solve", "co_parents"),
    ("check", "grandparent"),
    ("check", "male_or_childless"),
    ("models", "MotherAndChild"),
    ("models", "ThreeGenerations"),
)


class Family:
    """Seeded facts over one carrier, with a direct evaluator of every
    query expression."""

    def __init__(self, rng: random.Random, people: list[str]):
        self.people = people
        # Fixed shares (half male; a mother and a father for all but the first
        # two, then three of the rest lose one), placed at random.
        male = set(rng.sample(people[2:], (len(people) - 2) // 2)) | {people[0]}
        self.male, self.female = male, set(people) - male
        parent = set()
        for i, child in enumerate(people[2:], start=2):
            for pool in (self.female, self.male):
                earlier = sorted(pool & set(people[:i]))
                parent.add((rng.choice(earlier), child))
        for edge in rng.sample(sorted(parent), 3):
            parent.discard(edge)
        self.parent = parent

    def text(self) -> str:
        return structure("W", "FOL", "People", {
            "male": [{"p": x} for x in self.people if x in self.male],
            "female": [{"p": x} for x in self.people if x in self.female],
            "parent": [{"q1": a, "q2": b} for a, b in sorted(self.parent)],
        })

    def holds(self, expr: str, *xs: str) -> bool:
        U, F, M, P = self.people, self.female, self.male, self.parent
        if expr == "sibling":
            (a,) = xs
            return any((x3, a) in P and (x4, a) in P and (x3, x2) in P and (x4, x2) in P
                       for x3 in F for x4 in M for x2 in U)
        if expr == "daughters_only":
            (a,) = xs
            return all(c in F for c in U if (a, c) in P)
        if expr == "has_mother":
            (a,) = xs
            return any(m in F and (m, a) in P for m in U)
        if expr == "male_or_childless":
            (a,) = xs
            return a in M or not any((a, c) in P for c in U)
        if expr == "mother_of":
            a, b = xs
            return a in F and (a, b) in P
        if expr == "grandparent":
            a, c = xs
            return any((a, b) in P and (b, c) in P for b in U)
        if expr == "co_parents":
            a, b = xs
            return any((a, c) in P and (b, c) in P for c in U)
        raise KeyError(expr)

    def solutions(self, expr: str) -> list[dict[str, str]]:
        dom = ARITY[expr]
        return [m for m in product_maps(dom, self.people)
                if self.holds(expr, *(m[x] for x in dom))]

    def models(self, sketch_name: str) -> list[dict[str, str]]:
        P = self.parent
        if sketch_name == "MotherAndChild":
            return [m for m in product_maps(("k1", "k2"), self.people)
                    if self.holds("has_mother", m["k2"])
                    and self.holds("mother_of", m["k1"], m["k2"])]
        return [m for m in product_maps(("k1", "k2", "k3"), self.people)
                if (m["k1"], m["k2"]) in P and (m["k2"], m["k3"]) in P
                and self.holds("daughters_only", m["k2"])]


def _solve_oracle(fam: Family, expr: str):
    want = fam.solutions(expr)

    def check(rc, out):
        data = payload(rc, out, 0)
        expect(data["solutions"] == want,
               f"solve {expr}: {data['count']} solutions, expected {len(want)}")
        expect(data["count"] == len(want), "solve: count disagrees with the list")
    return oracle(check)


def _check_oracle(fam: Family, expr: str, at: dict[str, str]):
    want = fam.holds(expr, *at.values())

    def check(rc, out):
        data = payload(rc, out, 0 if want else 1)
        expect(data["holds"] is want, f"check {expr} at {at}: expected {want}")
    return oracle(check)


def _models_oracle(fam: Family, sketch_name: str):
    want = fam.models(sketch_name)

    def check(rc, out):
        data = payload(rc, out, 0)
        expect(data["models"] == want,
               f"models {sketch_name}: {data['count']} models, expected {len(want)}")
    return oracle(check)


def build(seed: int) -> Workload:
    rng = random.Random(f"query:{seed}")
    # Every template runs twice per size: first on a fresh carrier, then on
    # that carrier again with new facts, where it finds its hom sets cached.
    # The seed orders the pairs and draws the facts.
    pairs = [(size, template) for size in SIZES for template in TEMPLATES]
    rng.shuffle(pairs)

    docs: dict[str, str] = {}
    ops: list[Op] = []
    for size, template in pairs:
        people = [f"c{len(docs)}_{i}" for i in range(size)]
        for _ in ("fresh", "reused"):
            fam = Family(rng, people)
            name = f"q{len(docs):03d}.lfoc"
            docs[name] = HEADER + "\n" + set_obj("People", people) + "\n" + fam.text() + "\n"
            command, target = template
            if command == "solve":
                flags = ["--expr", target, "--structure", "W"]
                check = _solve_oracle(fam, target)
            elif command == "check":
                at = dict(zip(ARITY[target], (rng.choice(people) for _ in ARITY[target])))
                flags = ["--expr", target, "--structure", "W", "--at", lit(at)]
                check = _check_oracle(fam, target, at)
            else:
                flags = ["--sketch", target, "--structure", "W"]
                check = _models_oracle(fam, target)
            ops.append(Op(command, name, flags, check))
    params = {"family_sizes": list(SIZES), "templates": [list(t) for t in TEMPLATES],
              "operations": len(ops), "fresh_carriers": len(pairs),
              "documents": len(docs)}
    return Workload(docs, ops, params)
