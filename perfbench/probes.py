"""Probe operations shared by every workload, and the warm-up.

A workload leaves some of lfoc's boundaries idle: `query` never pushes
out or prints, `rewrite` never enumerates structures.  Every pass
therefore carries one tiny probe after every 16 workload operations,
cycling through `sound`, `saturate` and `elemdiag` on one small document.
They cost a few milliseconds, and they make the layers a workload leaves
idle run at least a little, so no per-layer time is zero by construction.

The warm-up runs the same three operations once before timing starts, so
first-call costs (lazy imports, argparse set-up) are not timed.
"""

from __future__ import annotations

from common import Op, Workload, expect, oracle, payload

PROBE_DOC = """base set;

obj P1 { p };
obj P2 { q1 q2 };
obj Two { a b };

footprint T {
  feature tall : P1;
  feature likes : P2;
};

expr tall_p : P1 = tall([p->p]);
expr liked : P1 = exists [p->q2] into P2 . likes([q1->q1; q2->q2]);
expr tall_and_liked : P1 = tall_p and liked;
expr likes_pair : P2 = likes([q1->q1; q2->q2]);

structure S : T {
  carrier Two;
  tall [p->a];
  likes [q1->a; q2->b], [q1->b; q2->b];
};

sketch Anyone { context P1; };
sketch Liker { context P2; constraint likes_pair @ [q1->q1; q2->q2]; };
sketch Both { context P1; constraint tall_and_liked @ [p->p]; };
sketch Split { context P1; constraint tall_p @ [p->p]; constraint liked @ [p->p]; };

rule unfold : Both => Split;
rule give_like : Anyone => Liker via [p->q1];
"""


def _sound(rc, out):
    data = payload(rc, out, 0)
    expect(data["sound"] is True and data["counterexample"] is None,
           "probe: unfolding a conjunction must be sound")


def _saturate(rc, out):
    data = payload(rc, out, 1)
    expect(data["status"] == "budget-exhausted" and data["steps"] == 1,
           f"probe: saturate ended {data['status']} after {data['steps']} steps")
    expect(len(data["sketch"]["context"]["elements"]) == 2
           and len(data["sketch"]["constraints"]) == 1,
           "probe: one give_like step adds one element and one constraint")


def _elemdiag(rc, out):
    data = payload(rc, out, 0)
    expect(len(data["sketch"]["constraints"]) == 3,
           "probe: the minimal sketch of S has one constraint per fact (3)")


def _ops(doc: str) -> list[Op]:
    return [
        Op("sound", doc, ["--rule", "unfold", "--max-carrier", "1"], oracle(_sound)),
        Op("saturate", doc, ["--host", "Anyone", "--rules", "give_like", "--max-steps", "1"],
           oracle(_saturate)),
        Op("elemdiag", doc, ["--structure", "S"], oracle(_elemdiag)),
    ]


def probe_docs() -> dict[str, str]:
    return {"probe.lfoc": PROBE_DOC}


def probe_ops() -> list[Op]:
    return _ops("probe.lfoc")


WARMUP = Workload({"warmup.lfoc": PROBE_DOC}, _ops("warmup.lfoc"))
