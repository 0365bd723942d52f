"""Shared pieces of the lfoc benchmark: operations, .lfoc text, oracle helpers.

The workload modules build every document as text and every operation as
an argv for ``lfoc.cli.main``; lfoc itself receives nothing else.  Oracles
are plain Python over the generated facts and never call into lfoc.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

# An oracle gets the exit code and stdout of one operation and returns None
# when both are right, or a one-line reason when they are not.
Oracle = Callable[[int, str], "str | None"]


@dataclass
class Op:
    """One CLI operation: `lfoc <command> <doc> <flags...>` plus its oracle."""

    command: str
    doc: str
    flags: list[str]
    oracle: Oracle

    def argv(self, doc_path: str) -> list[str]:
        return [self.command, doc_path, *self.flags]


@dataclass
class Workload:
    """The generated inputs of one pass: documents, operations, sizes."""

    docs: dict[str, str]
    ops: list[Op]
    params: dict = field(default_factory=dict)

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.docs):
            h.update(f"doc {name}\0{self.docs[name]}\0".encode())
        for op in self.ops:
            h.update(("op\0" + "\0".join(op.argv(op.doc)) + "\0").encode())
        return h.hexdigest()


# -- .lfoc text --------------------------------------------------------------

def lit(mapping: Mapping[str, str]) -> str:
    """A morphism literal such as ``[a->x; b->y]``."""
    return "[" + "; ".join(f"{k}->{v}" for k, v in mapping.items()) + "]"


def set_obj(name: str, elements: Sequence[str]) -> str:
    return f"obj {name} {{ {' '.join(elements)} }};"


def graph_obj(name: str, vertices: Sequence[str],
              edges: Sequence[tuple[str, str, str]]) -> str:
    parts = [f"v {' '.join(vertices)};"] if vertices else []
    parts += [f"e {e}: {s}->{t};" for e, s, t in edges]
    return f"obj {name} {{ {' '.join(parts)} }};"


def structure(name: str, footprint: str, carrier: str,
              facts: Mapping[str, Iterable[Mapping[str, str]]]) -> str:
    lines = [f"structure {name} : {footprint} {{", f"  carrier {carrier};"]
    for feature, maps in facts.items():
        maps = list(maps)
        if maps:
            lines.append(f"  {feature} " + ", ".join(lit(m) for m in maps) + ";")
    lines.append("};")
    return "\n".join(lines)


def sketch(name: str, context: str,
           constraints: Iterable[tuple[str, Mapping[str, str]]] = ()) -> str:
    lines = [f"sketch {name} {{", f"  context {context};"]
    lines += [f"  constraint {e} @ {lit(b)};" for e, b in constraints]
    lines.append("};")
    return "\n".join(lines)


# -- oracle helpers ------------------------------------------------------------

def payload(rc: int, out: str, want_rc: int) -> dict:
    """Parse one JSON payload, or raise Mismatch if the exit code or the
    output shape is wrong."""
    if rc != want_rc:
        raise Mismatch(f"exit code {rc}, expected {want_rc}")
    try:
        data = json.loads(out)
    except ValueError:
        raise Mismatch("stdout is not one JSON payload") from None
    if not isinstance(data, dict):
        raise Mismatch("payload is not a JSON object")
    return data


class Mismatch(Exception):
    """An operation's output disagrees with the known answer."""


def oracle(check: Callable[[int, str], None]) -> Oracle:
    """Turn a check that raises Mismatch (or fails to index the payload)
    into an Oracle returning the reason."""
    def run(rc: int, out: str) -> str | None:
        try:
            check(rc, out)
        except Mismatch as exc:
            return str(exc)
        except (KeyError, TypeError, IndexError) as exc:
            return f"payload lacks an expected field: {exc!r}"
        return None
    return run


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def product_maps(dom: Sequence[str], carrier: Sequence[str]) -> list[dict[str, str]]:
    """Every map dom -> carrier, in lfoc's documented hom-set order:
    lexicographic over the domain names, images in carrier order."""
    return [dict(zip(dom, images))
            for images in itertools.product(carrier, repeat=len(dom))]


def pushout_oracle(size_a: int, size_b: int, glue: Iterable[tuple[str, str]]) -> Oracle:
    """`lfoc pushout` of a span of set maps whose images pair up as `glue`:
    the apex has one element per class of the glued disjoint union."""
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x
    merges = 0
    for a, b in glue:
        ra, rb = find(("l", a)), find(("r", b))
        if ra != rb:
            parent[ra] = rb
            merges += 1
    want = size_a + size_b - merges

    def check(rc, out):
        data = payload(rc, out, 0)
        got = len(data["apex"]["elements"])
        expect(got == want, f"pushout: apex of {got} elements, expected {want}")
    return oracle(check)
