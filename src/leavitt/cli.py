"""Command-line front end.

Commands: pairs, classify, quotient, act, ann, verify.  Reports print as
stable one-record-per-line text, or as JSON with --json.  Exit codes:
0 success, 1 verification failure, 2 input error, 3 window overflow.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import chen
from . import classify as cls
from . import ideals as idl
from .branching import ModuleVector, Truncation, act
from .catalog import CATALOG
from .errors import InputError, LeavittError, WindowOverflow
from .fields import field_from_spec
from .graphio import (
    GraphDocument,
    emit_graph,
    parse_cycle,
    parse_element,
    parse_graph_document,
    parse_monomial,
    parse_steps,
    parse_vertex_set,
    to_dot,
)
from .verification import check_annihilator, run_suites


def _load_document(path: str) -> GraphDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc
    return parse_graph_document(text)


def _resolve_pair(doc: GraphDocument, selector: str) -> idl.AdmissiblePair:
    """A pair selector: a name from the file, or literal '{a,b},{c}'."""
    if selector in doc.pairs:
        return doc.pairs[selector]
    text = selector.strip()
    if not text.startswith("{"):
        raise InputError(f"unknown pair {selector!r}")
    halves = text.split("},{")
    if len(halves) != 2:
        raise InputError(f"bad pair selector {selector!r}; want name or '{{a,b}},{{c}}'")
    H = parse_vertex_set(doc.graph, halves[0] + "}")
    S = parse_vertex_set(doc.graph, "{" + halves[1])
    return idl.admissible_pair(doc.graph, H, S)


def _resolve_cycle(doc: GraphDocument, token: str):
    if token in doc.cycles:
        return doc.cycles[token]
    return parse_cycle(doc.graph, token)


def _resolve_path(doc: GraphDocument, token: str):
    if token in doc.paths:
        return doc.paths[token]
    return parse_steps(doc.graph, token)


def _resolve_module(doc: GraphDocument, spec: str) -> chen.ModuleDescriptor:
    """Module selectors: nc:CYCLE@V, sink:V, emitter:V,
    valpha:rat:PREFIX:CYCLE, valpha:irr:CYCLE:CYCLE."""
    g = doc.graph
    kind, _, rest = spec.partition(":")
    if kind == "nc":
        cyc_part, _, v = rest.rpartition("@")
        if not cyc_part or not v:
            raise InputError("nc module selector is nc:CYCLE@VERTEX")
        return chen.nc_module(g, _resolve_cycle(doc, cyc_part), v)
    if kind == "sink":
        return chen.sink_module(g, rest)
    if kind == "emitter":
        return chen.inf_emitter_module(g, rest)
    if kind == "valpha":
        sub, _, args = rest.partition(":")
        if sub == "rat":
            prefix_part, _, cyc_part = args.partition(":")
            prefix = _resolve_path(doc, prefix_part)
            cyc = _resolve_cycle(doc, cyc_part)
            spec_obj = chen.rational_tail(g, prefix, cyc)
            return chen.valpha_module(g, spec_obj)
        if sub == "irr":
            c_part, _, d_part = args.partition(":")
            rule = chen.irrational_rule(
                g, _resolve_cycle(doc, c_part), _resolve_cycle(doc, d_part)
            )
            return chen.valpha_module(g, rule)
        raise InputError("valpha selector is valpha:rat:PREFIX:CYCLE or valpha:irr:C:D")
    raise InputError(f"unknown module selector {spec!r}")


def _resolve_basis(system, text: str, field, t):
    """cmd_act's selector MONOMIAL[@SHIFT]: the grammar here, the element from the system."""
    mono, at, shift = text.partition("@")
    m = parse_monomial(system.graph, mono, field)
    if not m.q.is_vertex and not isinstance(system, chen.NcBranchingSystem):
        raise InputError("path and tail basis elements have no ghost part")
    if at and not isinstance(system, chen.IrrationalTailSystem):
        raise InputError("only irrational-tail basis elements take a @SHIFT")
    try:
        shift_n = int(shift) if shift else 0
    except ValueError as exc:
        raise InputError(f"bad shift {shift!r} in basis selector") from exc
    return system.basis_element(m, shift_n, t)


def _emit(report: dict, as_json: bool):
    if as_json:
        print(_json(report))
        return
    lines = _text_lines(report)
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")


_encode_str = json.encoder.encode_basestring_ascii


def _json(o, pad: str = "") -> str:
    """The text of ``json.dumps(o, indent=2, default=str)``, nested at the
    indent pad.

    ``json.dumps`` with an indent runs the pure-Python encoder, so this
    writes dicts, lists and tuples itself.  Strings go through the C string
    encoder, a list of strings only is joined at once, and bools, None and
    ints are spelled directly.  Any other value, and a dict with a key that
    is not a string, goes to ``json.dumps``; its output has raw newlines
    only between items, so indenting each line after the first nests it.
    """
    if isinstance(o, str):
        return _encode_str(o)
    if o is True:
        return "true"
    if o is False:
        return "false"
    if o is None:
        return "null"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = pad + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = []
        for k, v in o.items():
            if not isinstance(k, str):
                return json.dumps(o, indent=2, default=str).replace("\n", "\n" + pad)
            items.append(_encode_str(k) + ": " + (
                _encode_str(v) if isinstance(v, str) else _json(v, inner)
            ))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if all(isinstance(x, str) for x in o):
            items = map(_encode_str, o)
        else:
            items = [_json(x, inner) for x in o]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(o, default=str)


def _text_lines(obj, prefix=""):
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{prefix}{k}:")
                lines.extend(_text_lines(v, prefix + "  "))
            else:
                lines.append(f"{prefix}{k}: {v}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.extend(_text_lines(item, prefix + "  "))
                lines.append(prefix + "  -")
            else:
                lines.append(f"{prefix}- {item}")
    else:
        lines.append(f"{prefix}{obj}")
    return lines


def _classification_record(g, pair, label) -> dict:
    """The report record of a proper pair, whose label is ``pair.label()``."""
    record = cls.classify_graded_ideal(g, pair)
    case = record.case
    out = {
        "pair": label,
        "graded_prime": record.graded_prime,
        "graded_primitive": record.graded_primitive,
        "primitive": record.primitive,
        "case": case.case,
    }
    if case.graded_primitive:
        out["base_vertex"] = case.v
        out["cycle"] = str(case.cycle) if case.cycle else None
        out["S_form"] = case.s_form.label()
        witness = cls.chen_witness(g, record)
        out["chen_witness"] = {"kind": witness.kind, "module": witness.descriptor.label()}
    else:
        out["reason"] = case.reason
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_pairs(args) -> int:
    doc = _load_document(args.file)
    n = len(doc.graph.vertices)
    records = []
    for H, B in idl.hereditary_saturated_sets(doc.graph):
        H, B = list(H), list(B)
        for S in idl.sorted_subsets(B):
            records.append({
                "label": idl.pair_label(H, S),
                "H": H,
                "S": list(S),
                "B_H": B,
                "proper": len(H) != n,
                "zero": not H and not S,
            })
    report = {"graph": args.file, "count": len(records), "pairs": records}
    _emit(report, args.json)
    return 0


def cmd_classify(args) -> int:
    doc = _load_document(args.file)
    g = doc.graph
    if args.all:
        records = []
        for H, B in idl.hereditary_saturated_sets(g):
            if len(H) == len(g.vertices):
                continue  # the improper pair
            h_set = frozenset(H)
            for S in idl.sorted_subsets(B):
                pair = idl.AdmissiblePair(h_set, frozenset(S))
                records.append(_classification_record(g, pair, idl.pair_label(H, S)))
    elif args.pair:
        pair = _resolve_pair(doc, args.pair)
        if not idl.is_proper(g, pair):
            raise InputError("improper pair selected (H is the whole vertex set)")
        records = [_classification_record(g, pair, pair.label())]
    else:
        raise InputError("classify needs --pair SELECTOR or --all")
    report = {"graph": args.file, "records": records}
    _emit(report, args.json)
    return 0


def cmd_quotient(args) -> int:
    doc = _load_document(args.file)
    pair = _resolve_pair(doc, args.pair)
    qg = idl.quotient_graph(doc.graph, pair)
    report = {
        "pair": pair.label(),
        "vertices": list(qg.graph.vertex_list),
        "inherited_vertices": qg.inherited_vertices,
        "primed_vertices": dict(sorted(qg.primed_vertices.items())),
        "edges": {e: list(st) for e, st in sorted(qg.graph.edges.items())},
        "bundles": {b: list(st) for b, st in sorted(qg.graph.bundles.items())},
        "primed_edges": dict(sorted(qg.primed_edges.items())),
    }
    if args.dot:
        dot = to_dot(qg.graph, qg, name="quotient")
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot)
        except OSError as exc:
            raise InputError(f"cannot write {args.dot!r}: {exc}") from exc
        report["dot"] = args.dot
    _emit(report, args.json)
    return 0


def cmd_act(args) -> int:
    doc = _load_document(args.file)
    field = field_from_spec(args.field)
    descriptor = _resolve_module(doc, args.module)
    system = chen.build_module(doc.graph, descriptor)
    t = Truncation(args.window[0], args.window[1])
    element = parse_element(doc.graph, args.element, field)
    if args.basis.strip() == "0":
        vec = ModuleVector(field)
    else:
        x = _resolve_basis(system, args.basis, field, t)
        if not system.in_window(x, t):
            raise InputError(f"basis element {x} is outside the window")
        vec = ModuleVector.unit(x, field)
    result = act(system, element, vec, t)
    report = {
        "module": descriptor.label(),
        "element": str(element),
        "basis": args.basis,
        "result": str(result),
    }
    _emit(report, args.json)
    return 0


def cmd_ann(args) -> int:
    doc = _load_document(args.file)
    field = field_from_spec(args.field)
    descriptor = _resolve_module(doc, args.module)
    ideal = chen.annihilator(doc.graph, descriptor)
    report = {"module": descriptor.label(), "annihilator": ideal.label()}
    exit_code = 0
    if args.verify:
        t = Truncation(args.window[0], args.window[1])
        check, missing = check_annihilator(doc.graph, descriptor, ideal, t, field)
        ok = check.passed and not missing
        report["verify"] = {
            "checked": check.checked,
            "overflow_skips": len(check.overflows),
            "failures": [f"{g_} on {x}" for g_, x, _ in check.failures[:5]],
            "nonmembership_witnesses": "ok" if not missing else f"missing for {missing}",
            "passed": ok,
        }
        if not ok:
            exit_code = 1
    _emit(report, args.json)
    return exit_code


def cmd_verify(args) -> int:
    extra = {}
    if args.file:
        doc = _load_document(args.file)
        extra["input"] = doc.graph
    if not args.file and not args.catalog:
        raise InputError("verify needs a FILE and/or --catalog")
    results = run_suites(
        extra_graphs=extra,
        seed=args.seed,
        window=Truncation(args.window[0], args.window[1]),
        random_graphs=args.random_graphs,
    )
    failed = [r for r in results if not r.passed]
    if args.json:
        checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        _emit({"seed": args.seed, "checks": checks, "passed": not failed}, True)
    else:
        for r in results:
            print(r.line())
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_emit(args) -> int:
    if args.name not in CATALOG:
        raise InputError(f"unknown catalog graph {args.name!r} (have {sorted(CATALOG)})")
    sys.stdout.write(emit_graph(CATALOG[args.name]))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared by every
    main call in the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="leavitt",
        description="Leavitt path algebra toolkit: ideals, classification, modules",
    )
    parser.add_argument(
        "--field",
        default="q",
        help="coefficient field: q (rationals) or p:<prime>",
    )
    parser.add_argument("--json", action="store_true", help="structured output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pairs", help="list admissible pairs of a graph file")
    p.add_argument("file")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("classify", help="classify graded ideals")
    p.add_argument("file")
    p.add_argument("--pair", help="pair name or literal '{a,b},{c}'")
    p.add_argument("--all", action="store_true", help="every proper pair")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("quotient", help="compile a quotient graph")
    p.add_argument("file")
    p.add_argument("--pair", required=True)
    p.add_argument("--dot", help="write DOT output to this path")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("act", help="apply an algebra element to a basis element")
    p.add_argument("file")
    p.add_argument("--module", required=True, help="nc:CYCLE@V | sink:V | emitter:V | valpha:...")
    p.add_argument("--element", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--window", nargs=2, type=int, default=[6, 3], metavar=("L", "N"))
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("ann", help="annihilator of a module descriptor")
    p.add_argument("file")
    p.add_argument("--module", required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--window", nargs=2, type=int, default=[6, 3], metavar=("L", "N"))
    p.set_defaults(func=cmd_ann)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("file", nargs="?", help="extra graph file to include")
    p.add_argument("--catalog", action="store_true", help="run over the built-in catalog")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", nargs=2, type=int, default=[5, 2], metavar=("L", "N"))
    p.add_argument("--random-graphs", type=int, default=40)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("emit", help="print a built-in catalog graph file")
    p.add_argument("name")
    p.set_defaults(func=cmd_emit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WindowOverflow as exc:
        print(f"window overflow: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except LeavittError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
