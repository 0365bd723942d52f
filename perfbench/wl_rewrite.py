"""`rewrite`: saturate, match, closed, apply and pushout on generated sketches.

Graph hosts of 8-24 vertices (cycles, paths, random graphs), some
vertices already carrying one or two identity loops, under `id_exists`
and `id_unique`; these close in a step count known from the host.  Set
hosts under the context-growing `give_child`, with step budgets of
8-48, which end `budget-exhausted`; and fold/unfold rules on set hosts
that already carry many constraints.  Nothing here evaluates an
expression: matching, pushouts, constraint canonicalization and large
JSON payloads do the work.
"""

from __future__ import annotations

import random

from common import (Op, Workload, expect, graph_obj, lit, oracle, payload,
                    pushout_oracle, set_obj, sketch)

GRAPH_SIZES = (8, 12, 16, 20, 24)
SHAPES = ("cycle", "path", "random")
# give_child budgets, paired with SET_SIZES: the longest run starts on the smallest host
SET_SIZES = (6, 9, 12, 15, 18)
BUDGETS = (48, 24, 16, 12, 8)

GRAPH_HEADER = """base graph;

obj PV { v pv; };
obj ID_ARITY { v pv; e pe: pv->pv; };
obj TWO_LOOPS { v pv; e pe1: pv->pv; e pe2: pv->pv; };
obj COMP_ARITY { v pv1 pv2 pv3; e pe1: pv1->pv2; e pe2: pv2->pv3; e pe3: pv1->pv3; };

footprint CAT {
  feature ident : ID_ARITY;
  feature comp : COMP_ARITY;
};

expr loop_is_id : ID_ARITY = ident([pv->pv; pe->pe]);
expr two_ids : TWO_LOOPS = ident([pv->pv; pe->pe1]) and ident([pv->pv; pe->pe2]);

sketch AnyVertex { context PV; };
sketch WithIdLoop { context ID_ARITY; constraint loop_is_id @ [pv->pv; pe->pe]; };
sketch TwoIdLoops { context TWO_LOOPS; constraint two_ids @ [pv->pv; pe1->pe1; pe2->pe2]; };
sketch OneLoop { context ID_ARITY; };

rule id_exists : AnyVertex => WithIdLoop via [pv->pv];
rule id_unique : TwoIdLoops => OneLoop via [pv->pv; pe1->pe; pe2->pe];
"""

SET_HEADER = """base set;

obj P1 { p };
obj P2 { q1 q2 };

footprint FOL {
  feature male : P1;
  feature female : P1;
  feature parent : P2;
};

expr is_f : P1 = female([p->p]);
expr is_m : P1 = male([p->p]);
expr f_and_m : P1 = is_f and is_m;
expr parent_pair : P2 = parent([q1->q1; q2->q2]);

sketch Anyone { context P1; };
sketch ParentEdge { context P2; constraint parent_pair @ [q1->q1; q2->q2]; };
sketch Split { context P1; constraint is_f @ [p->p]; constraint is_m @ [p->p]; };
sketch Both { context P1; constraint f_and_m @ [p->p]; };

rule give_child : Anyone => ParentEdge via [p->q1];
rule fold : Split => Both;
rule unfold : Both => Split;
"""


class GraphHost:
    """A graph host sketch: plain edges of one shape, and per vertex zero,
    one or two identity loops (two loops also carry a two_ids constraint)."""

    def __init__(self, rng: random.Random, tag: str, size: int, shape: str, all_loops: bool):
        vs = [f"{tag}v{i}" for i in range(size)]
        if shape == "cycle":
            pairs = [(vs[i], vs[(i + 1) % size]) for i in range(size)]
        elif shape == "path":
            pairs = [(vs[i], vs[i + 1]) for i in range(size - 1)]
        else:
            pairs = [tuple(rng.sample(vs, 2)) for _ in range(size)]
        edges = [(f"{tag}e{i}", s, t) for i, (s, t) in enumerate(pairs)]
        # Loop counts follow a fixed pattern: saturation and closedness visit
        # vertices in order, so where the loops sit sets the cost.
        pattern = (1, 1, 2) if all_loops else (0, 1, 2, 0)
        self.loops = {v: pattern[i % len(pattern)] for i, v in enumerate(vs)}
        constraints = []
        for v in vs:
            names = [f"{v}_l{j}" for j in range(self.loops[v])]
            edges += [(name, v, v) for name in names]
            constraints += [("loop_is_id", {"pv": v, "pe": name}) for name in names]
            if len(names) == 2:
                constraints.append(("two_ids", {"pv": v, "pe1": names[0], "pe2": names[1]}))
        self.vertices, self.edges, self.constraints = vs, edges, constraints
        self.plain_edges = len(pairs)
        self.obj, self.name = f"{tag}G", f"{tag}H"

    def text(self) -> str:
        return (graph_obj(self.obj, self.vertices, self.edges) + "\n"
                + sketch(self.name, self.obj, self.constraints))

    def lacking(self) -> list[str]:
        return [v for v in self.vertices if self.loops[v] == 0]


def _id_loops(sk: dict) -> dict[str, list[str]]:
    """Vertex -> edges carrying an identity constraint, in a sketch payload."""
    out: dict[str, list[str]] = {}
    for c in sk["constraints"]:
        e = c["expr"]
        if e["node"] == "atomic" and e["feature"] == "ident":
            m = c["binding"]["map"]
            out.setdefault(m["pv"], []).append(m["pe"])
    return out


def _graph_saturate(h: GraphHost):
    steps = len(h.lacking()) + sum(1 for n in h.loops.values() if n == 2)

    def check(rc, out):
        data = payload(rc, out, 0)
        expect(data["status"] == "closed" and data["steps"] == steps,
               f"saturate: {data['status']} after {data['steps']} steps, expected closed after {steps}")
        ctx = data["sketch"]["context"]
        ends = {e: (s, t) for e, s, t in ctx["edges"]}
        loops = _id_loops(data["sketch"])
        expect(len(ctx["vertices"]) == len(h.vertices)
               and len(ctx["edges"]) == h.plain_edges + len(h.vertices),
               "saturate: the closed host needs one identity loop per vertex")
        expect(sorted(loops) == sorted(ctx["vertices"])
               and all(len(es) == 1 and ends[es[0]] == (v, v) for v, es in loops.items()),
               "saturate: some vertex lacks, or has two, identity loops")
    return oracle(check)


def _graph_match(h: GraphHost, rule: str):
    if rule == "id_exists":
        want = [{"pv": v} for v in h.vertices]
    else:
        want = [{"pv": v, "pe1": f"{v}_l0", "pe2": f"{v}_l1"}
                for v in h.vertices if h.loops[v] == 2]

    def check(rc, out):
        data = payload(rc, out, 0)
        expect(data["matches"] == want and data["count"] == len(want),
               f"match {rule}: {data['count']} matches, expected {len(want)}")
    return oracle(check)


def _graph_closed(h: GraphHost):
    lacking = h.lacking()

    def check(rc, out):
        data = payload(rc, out, 1 if lacking else 0)
        expect(data["closed"] is not bool(lacking), f"closed: expected {not lacking}")
        if lacking:
            expect(data["failing_match"]["pv"] in lacking,
                   "closed: the failing match is a vertex with an identity loop")
    return oracle(check)


def _graph_apply(h: GraphHost):
    def check(rc, out):
        data = payload(rc, out, 0)
        ctx = data["sketch"]["context"]
        expect(len(ctx["vertices"]) == len(h.vertices)
               and len(ctx["edges"]) == len(h.edges) + 1
               and len(data["sketch"]["constraints"]) == len(h.constraints) + 1,
               "apply id_exists: expected one new loop and one new constraint")
    return oracle(check)


class SetHost:
    """A set host sketch carrying many is_f / is_m / f_and_m / parent_pair
    constraints."""

    def __init__(self, rng: random.Random, tag: str, size: int):
        xs = [f"{tag}x{i}" for i in range(size)]
        self.f = set(rng.sample(xs, size * 3 // 5))
        self.m = set(rng.sample(xs, size * 3 // 5))
        self.fm = set(rng.sample(xs, size * 2 // 5))
        # Every other element has one child: give_child visits elements in
        # order, so which ones are childless sets the cost.
        self.parent = [(a, rng.choice([b for b in xs if b != a])) for a in xs[::2]]
        constraints = [("is_f", {"p": x}) for x in xs if x in self.f]
        constraints += [("is_m", {"p": x}) for x in xs if x in self.m]
        constraints += [("f_and_m", {"p": x}) for x in xs if x in self.fm]
        constraints += [("parent_pair", {"q1": a, "q2": b}) for a, b in self.parent]
        self.elements, self.constraints = xs, constraints
        self.obj, self.name = f"{tag}S", f"{tag}H"

    def text(self) -> str:
        return set_obj(self.obj, self.elements) + "\n" + sketch(self.name, self.obj, self.constraints)


def _set_saturate(h: SetHost, rule: str, budget: int | None):
    if rule == "give_child":
        status, rc, steps, added = "budget-exhausted", 1, budget, budget
    elif rule == "fold":
        steps = added = len((h.f & h.m) - h.fm)
        status, rc = "closed", 0
    else:
        steps = len([x for x in h.fm if x not in h.f or x not in h.m])
        added = len(h.fm - h.f) + len(h.fm - h.m)
        status, rc = "closed", 0
    grown = budget if rule == "give_child" else 0

    def check(rc_, out):
        data = payload(rc_, out, rc)
        expect(data["status"] == status and data["steps"] == steps,
               f"saturate {rule}: {data['status']} after {data['steps']} steps, "
               f"expected {status} after {steps}")
        sk = data["sketch"]
        expect(len(sk["context"]["elements"]) == len(h.elements) + grown
               and len(sk["constraints"]) == len(h.constraints) + added,
               f"saturate {rule}: wrong context or constraint count")
    return oracle(check)


def _set_match(h: SetHost):
    want = [{"p": x} for x in h.elements if x in h.f and x in h.m]

    def check(rc, out):
        data = payload(rc, out, 0)
        expect(data["matches"] == want, f"match fold: {data['count']} matches, expected {len(want)}")
    return oracle(check)


def _set_closed(h: SetHost):
    open_at = [x for x in h.elements if x in h.f and x in h.m and x not in h.fm]

    def check(rc, out):
        data = payload(rc, out, 1 if open_at else 0)
        expect(data["closed"] is not bool(open_at), f"closed fold: expected {not open_at}")
        if open_at:
            expect(data["failing_match"] == {"p": open_at[0]},
                   "closed fold: wrong failing match")
    return oracle(check)


def build(seed: int) -> Workload:
    rng = random.Random(f"rewrite:{seed}")
    docs: dict[str, str] = {}
    ops: list[Op] = []
    for i, size in enumerate(GRAPH_SIZES):
        shape = SHAPES[i % len(SHAPES)]
        host = GraphHost(rng, f"g{i}", size, shape, all_loops=False)
        closed_host = GraphHost(rng, f"c{i}", size, shape, all_loops=True)
        doc = f"rw_graph{i}.lfoc"
        docs[doc] = GRAPH_HEADER + "\n" + host.text() + "\n" + closed_host.text() + "\n"
        v = rng.choice(host.lacking() or host.vertices)
        ops += [
            Op("saturate", doc, ["--host", host.name, "--rules", "id_exists,id_unique",
                                 "--max-steps", "1000"], _graph_saturate(host)),
            Op("match", doc, ["--rule", "id_exists", "--host", host.name],
               _graph_match(host, "id_exists")),
            Op("match", doc, ["--rule", "id_unique", "--host", closed_host.name],
               _graph_match(closed_host, "id_unique")),
            Op("closed", doc, ["--rule", "id_exists", "--host", host.name], _graph_closed(host)),
            Op("closed", doc, ["--rule", "id_exists", "--host", closed_host.name],
               _graph_closed(closed_host)),
            Op("apply", doc, ["--rule", "id_exists", "--host", host.name, "--at", lit({"pv": v})],
               _graph_apply(host)),
        ]
    for i, size in enumerate(SET_SIZES):
        host = SetHost(rng, f"s{i}", size)
        doc = f"rw_set{i}.lfoc"
        # a span A <- K -> B for an object pushout
        k = [f"k{j}" for j in range(size // 2)]
        b = [f"b{j}" for j in range(size)]
        f_map = {x: rng.choice(host.elements) for x in k}
        g_map = {x: rng.choice(b) for x in k}
        docs[doc] = (SET_HEADER + "\n" + host.text() + "\n" + set_obj("K", k) + "\n"
                     + set_obj("B", b) + "\n"
                     + f"mor f : K -> {host.obj} = {lit(f_map)};\n"
                     + f"mor g : K -> B = {lit(g_map)};\n")
        budget = BUDGETS[i]
        ops += [
            Op("saturate", doc, ["--host", host.name, "--rules", "give_child",
                                 "--max-steps", str(budget)],
               _set_saturate(host, "give_child", budget)),
            Op("saturate", doc, ["--host", host.name, "--rules", "fold", "--max-steps", "1000"],
               _set_saturate(host, "fold", None)),
            Op("saturate", doc, ["--host", host.name, "--rules", "unfold", "--max-steps", "1000"],
               _set_saturate(host, "unfold", None)),
            Op("match", doc, ["--rule", "fold", "--host", host.name], _set_match(host)),
            Op("closed", doc, ["--rule", "fold", "--host", host.name], _set_closed(host)),
            Op("pushout", doc, ["--left", "f", "--right", "g"],
               pushout_oracle(size, size, [(f_map[x], g_map[x]) for x in k])),
        ]
    rng.shuffle(ops)
    params = {"graph_sizes": list(GRAPH_SIZES), "shapes": list(SHAPES),
              "set_sizes": list(SET_SIZES), "give_child_budgets": list(BUDGETS),
              "operations": len(ops)}
    return Workload(docs, ops, params)
