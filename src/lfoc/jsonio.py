"""Deterministic JSON renderings of engine values for CLI output.

Every payload carries a "schema" tag so downstream tooling can detect
format changes.  Rendering is one-way: the textual .lfoc format is the
input surface, JSON is the output surface.
"""

from __future__ import annotations

import json

from .category import CatObject, FinSet, Morphism, PushoutResult
from .expr import And, Atomic, Bot, CondExists, CondForall, Expr, Not, Or, Top
from .sketch import Constraint, Sketch

SCHEMA = "lfoc/1"


def object_json(obj: CatObject) -> dict:
    if isinstance(obj, FinSet):
        return {"kind": "set", "elements": list(obj.elements)}
    return {"kind": "graph", "vertices": list(obj.vertices),
            "edges": [list(t) for t in obj.edge_triples()]}


def morphism_json(m: Morphism, embed_objects: bool = True) -> dict:
    out: dict = {"map": m.name_map()}
    if embed_objects:
        out["dom"] = object_json(m.dom)
        out["cod"] = object_json(m.cod)
    return out


def expr_json(e: Expr) -> dict:
    if isinstance(e, Top):
        return {"node": "top"}
    if isinstance(e, Bot):
        return {"node": "bot"}
    if isinstance(e, Atomic):
        return {"node": "atomic", "feature": e.feature,
                "binding": morphism_json(e.binding, embed_objects=False)}
    if isinstance(e, And):
        return {"node": "and", "left": expr_json(e.left), "right": expr_json(e.right)}
    if isinstance(e, Or):
        return {"node": "or", "left": expr_json(e.left), "right": expr_json(e.right)}
    if isinstance(e, Not):
        return {"node": "not", "body": expr_json(e.body)}
    if isinstance(e, (CondExists, CondForall)):
        return {"node": "exists" if isinstance(e, CondExists) else "forall",
                "premise": expr_json(e.premise),
                "var": morphism_json(e.var),
                "body": expr_json(e.body)}
    raise TypeError(f"not an expression node: {e!r}")


def constraint_json(c: Constraint) -> dict:
    return {"expr": expr_json(c.expr),
            "binding": morphism_json(c.binding, embed_objects=False)}


def sketch_json(sk: Sketch) -> dict:
    return {"context": object_json(sk.context),
            "constraints": [constraint_json(c) for c in sk.sorted_constraints()]}


def pushout_json(po: PushoutResult) -> dict:
    return {"apex": object_json(po.apex),
            "inj_left": morphism_json(po.inj_left, embed_objects=False),
            "inj_right": morphism_json(po.inj_right, embed_objects=False)}


def payload(**fields) -> dict:
    return {"schema": SCHEMA, **fields}


def dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
