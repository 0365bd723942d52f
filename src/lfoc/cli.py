"""Command line interface.

Every subcommand reads definitions from a .lfoc file and prints one JSON
payload to stdout.  Exit codes: 0 when the query succeeds or the checked
property holds, 1 when the property fails (the payload carries the
witness), 2 for usage, parse, and validation errors, including
expressions nested past the interpreter's recursion limit.
"""

from __future__ import annotations

import argparse
import sys

from . import jsonio
from .category import CategoryError, EnumerationLimitError, Morphism, pushout
from .dsl import Document, ParseError, parse_morphism_literal, parse_path, print_document
from .expr import holds, solutions
from .footprint import CarrierBounds, Footprint, StructureRegistry
from .rules import (
    CLOSED,
    Match,
    MatchError,
    SaturationLimits,
    apply_rule,
    check_equivalence,
    find_matches,
    is_closed,
    is_conservative,
    is_match,
    is_sound,
    saturate,
)
from .sketch import (
    check_sketch_morphism,
    entails,
    models,
    sketch_pushout,
    structure_to_sketch_max,
    structure_to_sketch_min,
)


def _named(namespace: dict, name: str, what: str):
    if name not in namespace:
        known = ", ".join(sorted(namespace)) or "none defined"
        raise CategoryError(f"no {what} named {name!r} in the document ({known})")
    return namespace[name]


def _morphism_arg(doc: Document, text: str, dom, cod, what: str) -> Morphism:
    """A morphism flag value: either a literal like "[a->x; b->y]" or the
    name of a `mor` definition."""
    if text.lstrip().startswith("["):
        return parse_morphism_literal(text, dom, cod)
    m = _named(doc.morphisms, text, "morphism")
    if m.dom != dom or m.cod != cod:
        raise CategoryError(
            f"morphism {text!r} runs {m.dom!r} -> {m.cod!r}, but {what} "
            f"needs {dom!r} -> {cod!r}")
    return m


def _carrier_bounds(doc: Document, text: str) -> CarrierBounds:
    parts = text.split(",")
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise CategoryError(f"--max-carrier expects integers, got {text!r}")
    if any(n < 0 for n in numbers):
        raise CategoryError("--max-carrier bounds must be non-negative")
    if doc.base_kind == "set":
        if len(numbers) != 1:
            raise CategoryError("--max-carrier takes one bound for set documents")
        return CarrierBounds(max_elements=numbers[0])
    if len(numbers) != 2:
        raise CategoryError(
            "--max-carrier takes vertices,edges for graph documents")
    return CarrierBounds(max_vertices=numbers[0], max_edges=numbers[1])


def _pick_footprint(doc: Document, name: str | None) -> Footprint:
    if name is not None:
        return _named(doc.footprints, name, "footprint")
    fp = doc.sole_footprint()
    if fp is None:
        raise CategoryError(
            "the document declares several footprints; pick one with --footprint")
    return fp


def _registry(doc: Document, args) -> StructureRegistry:
    if args.registry is not None:
        reg_doc = parse_path(args.registry)
        structures = list(reg_doc.structures.values())
        if not structures:
            raise CategoryError(f"registry file {args.registry!r} defines no structures")
        return StructureRegistry.explicit(
            structures, f"file({args.registry},n={len(structures)})")
    if args.max_carrier is not None:
        fp = _pick_footprint(doc, args.footprint)
        bounds = _carrier_bounds(doc, args.max_carrier)
        return StructureRegistry.exhaustive(fp, bounds)
    raise CategoryError(
        "this check is registry-relative: pass --registry FILE or --max-carrier N"
        + ("" if doc.base_kind == "set" else ",M"))


def _witness_json(counterexample) -> dict | None:
    if counterexample is None:
        return None
    structure, mapping = counterexample
    return {"structure": structure.name, "map": mapping.name_map()}


def _emit(**fields) -> None:
    sys.stdout.write(jsonio.dump(jsonio.payload(**fields)))


# -- subcommands -------------------------------------------------------------

def cmd_solve(doc: Document, args) -> int:
    e = _named(doc.exprs, args.expr, "expression")
    st = _named(doc.structures, args.structure, "structure")
    sols = solutions(e, st)
    _emit(command="solve", expr=args.expr, structure=args.structure,
          arity=jsonio.object_json(e.arity),
          carrier=jsonio.object_json(st.carrier),
          solutions=[m.name_map() for m in sols], count=len(sols))
    return 0


def cmd_check(doc: Document, args) -> int:
    e = _named(doc.exprs, args.expr, "expression")
    st = _named(doc.structures, args.structure, "structure")
    a = _morphism_arg(doc, args.at, e.arity, st.carrier, "the assignment")
    ok = holds(a, e, st)
    _emit(command="check", expr=args.expr, structure=args.structure,
          at=a.name_map(), holds=ok)
    return 0 if ok else 1


def cmd_models(doc: Document, args) -> int:
    sk = _named(doc.sketches, args.sketch, "sketch")
    st = _named(doc.structures, args.structure, "structure")
    found = models(sk, st)
    _emit(command="models", sketch=args.sketch, structure=args.structure,
          context=jsonio.object_json(sk.context),
          carrier=jsonio.object_json(st.carrier),
          models=[i.map.name_map() for i in found], count=len(found))
    return 0


def cmd_entail(doc: Document, args) -> int:
    left = _named(doc.sketches, args.left, "sketch")
    right = _named(doc.sketches, args.right, "sketch")
    if left.context != right.context:
        raise CategoryError("entailment needs both sketches on one context")
    reg = _registry(doc, args)
    res = entails(left.context, left.constraints, right.constraints, reg)
    _emit(command="entail", left=args.left, right=args.right,
          registry=res.registry, holds=res.holds,
          counterexample=_witness_json(res.counterexample))
    return 0 if res.holds else 1


def cmd_morphism(doc: Document, args) -> int:
    src = _named(doc.sketches, args.src, "sketch")
    dst = _named(doc.sketches, args.dst, "sketch")
    phi = _morphism_arg(doc, args.map, src.context, dst.context, "the morphism")
    reg = _registry(doc, args)
    res = check_sketch_morphism(phi, src, dst, reg)
    _emit(command="morphism", src=args.src, dst=args.dst, map=phi.name_map(),
          registry=res.registry, holds=res.holds,
          counterexample=_witness_json(res.counterexample))
    return 0 if res.holds else 1


def cmd_pushout(doc: Document, args) -> int:
    f = _named(doc.morphisms, args.left, "morphism")
    g = _named(doc.morphisms, args.right, "morphism")
    if args.left_sketch or args.right_sketch or args.shared:
        if not (args.left_sketch and args.right_sketch and args.shared):
            raise CategoryError(
                "sketch pushout needs --left-sketch, --right-sketch and --shared")
        left = _named(doc.sketches, args.left_sketch, "sketch")
        right = _named(doc.sketches, args.right_sketch, "sketch")
        shared = _named(doc.sketches, args.shared, "sketch")
        res = sketch_pushout(f, g, left, right, shared)
        _emit(command="pushout", kind="sketch",
              sketch=jsonio.sketch_json(res.sketch),
              inj_left=res.inj_left.name_map(), inj_right=res.inj_right.name_map())
        return 0
    po = pushout(f, g)
    _emit(command="pushout", kind="object", **jsonio.pushout_json(po))
    return 0


def cmd_match(doc: Document, args) -> int:
    rule = _named(doc.rules, args.rule, "rule")
    host = _named(doc.sketches, args.host, "sketch")
    found = find_matches(rule.lhs, host)
    _emit(command="match", rule=args.rule, host=args.host,
          matches=[m.morphism.name_map() for m in found], count=len(found))
    return 0


def cmd_closed(doc: Document, args) -> int:
    rule = _named(doc.rules, args.rule, "rule")
    host = _named(doc.sketches, args.host, "sketch")
    res = is_closed(host, rule)
    failing = res.failing_match.morphism.name_map() if res.failing_match else None
    _emit(command="closed", rule=args.rule, host=args.host,
          closed=res.closed, failing_match=failing)
    return 0 if res.closed else 1


def cmd_conservative(doc: Document, args) -> int:
    rule = _named(doc.rules, args.rule, "rule")
    st = _named(doc.structures, args.structure, "structure")
    res = is_conservative(st, rule)
    _emit(command="conservative", rule=args.rule, structure=args.structure,
          conservative=res.conservative,
          witness=res.witness.name_map() if res.witness else None)
    return 0 if res.conservative else 1


def cmd_sound(doc: Document, args) -> int:
    rule = _named(doc.rules, args.rule, "rule")
    reg = _registry(doc, args)
    res = is_sound(rule, reg)
    _emit(command="sound", rule=args.rule, registry=res.registry,
          sound=res.sound, counterexample=_witness_json(res.counterexample))
    return 0 if res.sound else 1


def cmd_apply(doc: Document, args) -> int:
    rule = _named(doc.rules, args.rule, "rule")
    host = _named(doc.sketches, args.host, "sketch")
    phi = _morphism_arg(doc, args.at, rule.lhs.context, host.context, "the match")
    if not is_match(phi, rule.lhs, host):
        raise MatchError(
            f"{phi.name_map()!r} is not a match of rule {args.rule!r} in "
            f"sketch {args.host!r}")
    res = apply_rule(host, rule, Match(phi))
    _emit(command="apply", rule=args.rule, host=args.host, at=phi.name_map(),
          sketch=jsonio.sketch_json(res.sketch),
          host_injection=res.host_injection.name_map(),
          rhs_injection=res.rhs_injection.name_map())
    return 0


def cmd_saturate(doc: Document, args) -> int:
    host = _named(doc.sketches, args.host, "sketch")
    rules = [_named(doc.rules, name.strip(), "rule")
             for name in args.rules.split(",") if name.strip()]
    if not rules:
        raise CategoryError("--rules needs at least one rule name")
    limits = SaturationLimits(
        max_steps=args.max_steps, max_elements=args.max_elements,
        max_vertices=args.max_vertices, max_edges=args.max_edges)
    res = saturate(host, rules, limits)
    _emit(command="saturate", host=args.host,
          rules=[r.name for r in rules], status=res.status, steps=res.steps,
          sketch=jsonio.sketch_json(res.sketch))
    return 0 if res.status == CLOSED else 1


def cmd_elemdiag(doc: Document, args) -> int:
    st = _named(doc.structures, args.structure, "structure")
    if args.max:
        if not args.exprs:
            raise CategoryError("--max needs --exprs NAME[,NAME...]")
        universe = [_named(doc.exprs, name.strip(), "expression")
                    for name in args.exprs.split(",") if name.strip()]
        sk = structure_to_sketch_max(st, universe, name=f"{args.structure}_max")
        mode = "max"
    else:
        sk = structure_to_sketch_min(st, name=f"{args.structure}_min")
        mode = "min"
    out = Document(doc.base_kind)
    out.objects.update(doc.objects)
    out.footprints.update(doc.footprints)
    out.exprs.update(doc.exprs)
    out.sketches[sk.name] = sk
    _emit(command="elemdiag", structure=args.structure, mode=mode,
          sketch=jsonio.sketch_json(sk), text=print_document(out))
    return 0


def cmd_equiv(doc: Document, args) -> int:
    rule = _named(doc.rules, args.rule, "rule")
    st = _named(doc.structures, args.structure, "structure")
    res = check_equivalence(st, rule)
    _emit(command="equiv", rule=args.rule, structure=args.structure,
          agree=res.agree, conservative=res.conservative, closed=res.closed)
    return 0 if res.agree else 1


# -- wiring ------------------------------------------------------------------

def _add_registry_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--registry", metavar="FILE",
                     help="lfoc file whose structures form the registry")
    sub.add_argument("--max-carrier", metavar="N[,M]",
                     help="exhaustive registry up to this carrier size "
                          "(elements, or vertices,edges)")
    sub.add_argument("--footprint", metavar="NAME",
                     help="footprint for --max-carrier when several are declared")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfoc",
        description="Solve, check, and rewrite first-order constraint sketches.")
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=help_text)
        p.add_argument("file", help="the .lfoc document to load")
        p.set_defaults(func=func)
        return p

    p = sub("solve", cmd_solve, "list all solutions of an expression in a structure")
    p.add_argument("--expr", required=True)
    p.add_argument("--structure", required=True)

    p = sub("check", cmd_check, "check one assignment against an expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--at", required=True, metavar="MOR",
                   help="assignment: a morphism literal or a mor name")

    p = sub("models", cmd_models, "list all models of a sketch in a structure")
    p.add_argument("--sketch", required=True)
    p.add_argument("--structure", required=True)

    p = sub("entail", cmd_entail,
            "does one sketch's constraint set entail another's over a registry")
    p.add_argument("--left", required=True, help="premise sketch")
    p.add_argument("--right", required=True, help="conclusion sketch")
    _add_registry_flags(p)

    p = sub("morphism", cmd_morphism, "check a map is a sketch morphism")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--map", required=True, metavar="MOR")
    _add_registry_flags(p)

    p = sub("pushout", cmd_pushout, "pushout of two morphisms out of one object")
    p.add_argument("--left", required=True, metavar="MOR")
    p.add_argument("--right", required=True, metavar="MOR")
    p.add_argument("--left-sketch", metavar="NAME")
    p.add_argument("--right-sketch", metavar="NAME")
    p.add_argument("--shared", metavar="NAME")

    p = sub("match", cmd_match, "list matches of a rule's pattern in a sketch")
    p.add_argument("--rule", required=True)
    p.add_argument("--host", required=True)

    p = sub("closed", cmd_closed, "is a sketch closed under a rule")
    p.add_argument("--rule", required=True)
    p.add_argument("--host", required=True)

    p = sub("conservative", cmd_conservative,
            "is a structure conservative for a rule")
    p.add_argument("--rule", required=True)
    p.add_argument("--structure", required=True)

    p = sub("sound", cmd_sound, "is a rule sound over a registry")
    p.add_argument("--rule", required=True)
    _add_registry_flags(p)

    p = sub("apply", cmd_apply, "rewrite a sketch with a rule at a match")
    p.add_argument("--rule", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--at", required=True, metavar="MOR")

    p = sub("saturate", cmd_saturate, "apply rules until closed or out of budget")
    p.add_argument("--host", required=True)
    p.add_argument("--rules", required=True, metavar="NAME[,NAME...]")
    p.add_argument("--max-steps", type=int, default=32)
    p.add_argument("--max-elements", type=int)
    p.add_argument("--max-vertices", type=int)
    p.add_argument("--max-edges", type=int)

    p = sub("elemdiag", cmd_elemdiag,
            "present a structure as a sketch (minimal, or maximal over --exprs)")
    p.add_argument("--structure", required=True)
    p.add_argument("--max", action="store_true")
    p.add_argument("--exprs", metavar="NAME[,NAME...]")

    p = sub("equiv", cmd_equiv,
            "conservativity of a structure vs closedness of its maximal sketch")
    p.add_argument("--rule", required=True)
    p.add_argument("--structure", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = parse_path(args.file)
        return args.func(doc, args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CategoryError, MatchError, EnumerationLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
