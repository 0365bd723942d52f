"""Deterministic JSON renderings of engine values for CLI output.

Every payload carries a "schema" tag so downstream tooling can detect
format changes.  Rendering is one-way: the textual .lfoc format is the
input surface, JSON is the output surface.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii

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
    """Each node's dict put in its parent's from a stack, in preorder."""
    out: dict = {}
    todo = [(e, out, "expr")]
    while todo:
        node, parent, key = todo.pop()
        if isinstance(node, Atomic):
            parent[key] = {"node": "atomic", "feature": node.feature,
                           "binding": morphism_json(node.binding, embed_objects=False)}
        elif isinstance(node, (And, Or)):
            parent[key] = d = {"node": "and" if isinstance(node, And) else "or"}
            todo += ((node.right, d, "right"), (node.left, d, "left"))
        elif isinstance(node, Not):
            parent[key] = d = {"node": "not"}
            todo.append((node.body, d, "body"))
        elif isinstance(node, (CondExists, CondForall)):
            parent[key] = d = {"node": "exists" if isinstance(node, CondExists) else "forall",
                               "var": morphism_json(node.var)}
            todo += ((node.body, d, "body"), (node.premise, d, "premise"))
        elif isinstance(node, (Top, Bot)):
            parent[key] = {"node": "top" if isinstance(node, Top) else "bot"}
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return out["expr"]


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
    """`json.dumps(data, sort_keys=True, indent=2) + "\\n"`, for payloads of
    dicts with str keys, lists, str, int, bool and None; any other type,
    a subclass included, is a TypeError.

    One walk with an explicit stack, so depth costs no recursion.  Each
    value is appended once to one list as one piece: its key, the value
    (or a container's opening line) and the separator that follows it.
    A container that closes takes the separator off its last piece and
    appends its closing line, so no subtree is copied again per level."""
    pieces: list[str] = []
    stack: list[tuple] = []  # per open container: its parent's items, separator and closer
    items = iter((("", data),))
    sep = closer = ""
    while True:
        for prefix, value in items:
            cls = value.__class__
            if cls is str:
                text = encode_basestring_ascii(value)
            elif cls is dict or cls is list:
                if value:
                    stack.append((items, sep, closer))
                    indent = "\n" + "  " * len(stack)
                    if cls is dict:
                        keys = sorted(value)
                        # a key that is not a str is a TypeError here
                        items = zip([encode_basestring_ascii(k) + ": " for k in keys],
                                    map(value.__getitem__, keys))
                        opener, closer = "{", indent[:-2] + "}" + sep
                    else:
                        items = zip(itertools.repeat(""), value)
                        opener, closer = "[", indent[:-2] + "]" + sep
                    sep = "," + indent
                    pieces.append(prefix + opener + indent)
                    break
                text = "{}" if cls is dict else "[]"
            elif cls is int:
                text = int.__repr__(value)
            elif cls is bool:
                text = "true" if value else "false"
            elif value is None:
                text = "null"
            else:
                raise TypeError(f"cannot write {cls.__name__} as JSON")
            pieces.append(prefix + text + sep)
        else:
            if not stack:
                return "".join(pieces) + "\n"
            pieces[-1] = pieces[-1][:-len(sep)]
            pieces.append(closer)
            items, sep, closer = stack.pop()
