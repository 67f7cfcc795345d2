"""Graph file ingestion, DOT emission, and the element expression grammar.

The text format is line oriented; ids must be bare identifiers so primed
copies (``v'``) can never collide with user ids:

    # comment
    vertex v
    vertex w
    edge c v v
    bundle b v w          # infinitely many parallel edges v -> w
    cycle loop c          # named cycle: comma-separated edge refs
    path into_w c,b[0]    # named path: comma-separated edge refs
    path at_v @v          # trivial path needs an explicit vertex
    pair P {w} {v}        # named admissible pair

A JSON document (detected by a leading ``{``) is accepted wherever a graph
file is expected; each entry is read as the text declaration it stands for,
under the same rules: ``{"vertices": ["v"], "edges": {"c": ["v", "v"]},
"cycles": {"loop": ["c"]}, "pairs": {"P": [[], []]}}``.

Expressions over the algebra use juxtaposition for products, ``*`` as a
postfix star, integer or a/b scalars, and ``+``/``-``:  ``v - c c*``,
``1/2 e (v + w)``, ``b[0]*``.  Nesting deeper than 100 parentheses is an
input error.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field
from typing import Optional

from . import algebra as alg
from .errors import InputError
from .fields import QQ
from .graphs import Graph, _edge_path, make_cycle, make_path, vertex_path
from .ideals import QuotientGraph, admissible_pair

_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]")


@dataclass
class GraphDocument:
    """A parsed graph file: the graph plus any named auxiliary objects."""

    graph: Graph
    cycles: dict = dc_field(default_factory=dict)
    paths: dict = dc_field(default_factory=dict)
    pairs: dict = dc_field(default_factory=dict)


def _check_id(name: str) -> str:
    if not _ID.fullmatch(name):
        raise InputError(f"bad identifier {name!r} (letters, digits, underscore)")
    return name


def parse_ref(token: str, g: Optional[Graph] = None):
    """An edge ref token: ``e`` or ``b[3]``."""
    m = _REF.fullmatch(token)
    ref = (m.group(1), int(m.group(2))) if m else token
    if g is not None and not g.has_ref(ref):
        raise InputError(f"unknown edge ref {token!r}")
    return ref


def parse_steps(g: Graph, text: str):
    """A path from a step list: comma-separated edge refs, or ``@v`` for the
    trivial path at v."""
    if text.startswith("@"):
        v = text[1:]
        if v not in g.vertices:
            raise InputError(f"unknown vertex {v!r}")
        return vertex_path(v)
    steps = [parse_ref(tok, g) for tok in text.split(",") if tok]
    if not steps:
        raise InputError("empty step list (use @vertex for a trivial path)")
    return make_path(g, g.src(steps[0]), steps)


def parse_cycle(g: Graph, text: str):
    """A cycle from a step list of edge refs."""
    p = parse_steps(g, text)
    return make_cycle(g, p.start, p.steps)


def parse_vertex_set(g: Graph, token: str) -> frozenset:
    """A vertex set of g written '{a,b}', as the pair declarations use it."""
    if not (token.startswith("{") and token.endswith("}")):
        raise InputError(f"expected a brace-delimited vertex set, got {token!r}")
    names = [t for t in token[1:-1].split(",") if t]
    for n in names:
        if n not in g.vertices:
            raise InputError(f"unknown vertex {n!r}")
    return frozenset(names)


def _text_declarations(text: str):
    """(location, kind, args) for each non-comment line of the text format."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            kind, *args = line.split()
            yield f"line {lineno}", kind, args


_JSON_KINDS = {"vertices": "vertex", "edges": "edge", "bundles": "bundle",
               "cycles": "cycle", "paths": "path", "pairs": "pair"}
# What one token of the text format can hold between its separators.
_BARE = re.compile(r"[^\s,{}#]+")


def _json_names(value, where: str) -> list:
    if isinstance(value, list) and all(isinstance(x, str) and _BARE.fullmatch(x) for x in value):
        return value
    raise InputError(f"{where}: expected a list of bare names, got {value!r}")


def _json_declarations(text: str) -> list:
    """The JSON document restated as text-format declarations (an entry of
    "edges" is an ``edge`` line, and so on), so both formats obey one set
    of rules."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON graph document: {exc}") from exc
    decls = []
    for key, section in data.items():
        if key == "vertices":  # a list of ids: table entries with no fields
            section = [(v, []) for v in _json_names(section, key)]
        elif key in _JSON_KINDS and isinstance(section, dict):
            section = section.items()
        else:
            raise InputError(f"bad JSON graph document section {key!r}")
        for name, value in section:
            where = f"{key} {name!r}"
            if key == "pairs" and isinstance(value, list):
                args = ["{" + ",".join(_json_names(part, where)) + "}" for part in value]
            elif key in ("cycles", "paths"):
                # A string is one step-list token, as in the text format.
                args = [value if isinstance(value, str) else ",".join(_json_names(value, where))]
            else:
                args = _json_names(value, where)
            decls.append((where, _JSON_KINDS[key], [name, *args]))
    return decls


def parse_graph_document(text: str) -> GraphDocument:
    """Parse the text or JSON graph format; an error names the line (or the
    JSON entry) of the declaration it comes from."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        declarations = _json_declarations(stripped)
    else:
        declarations = _text_declarations(text)

    vertices: list = []
    edges: dict = {}
    bundles: dict = {}
    deferred: list = []  # (where, kind, args) resolved after graph build
    seen_ids: set = set()

    def new_id(name):
        if _check_id(name) in seen_ids:
            raise InputError(f"duplicate id {name!r}")
        seen_ids.add(name)
        return name

    try:
        for where, kind, args in declarations:
            if kind == "vertex":
                if len(args) != 1:
                    raise InputError("vertex takes one id")
                vertices.append(new_id(args[0]))
            elif kind in ("edge", "bundle"):
                if len(args) != 3:
                    raise InputError(f"{kind} takes: id src tgt")
                table = edges if kind == "edge" else bundles
                table[new_id(args[0])] = (args[1], args[2])
            elif kind in ("cycle", "path", "pair"):
                deferred.append((where, kind, args))
            else:
                raise InputError(f"unknown declaration {kind!r}")
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc

    if not vertices:
        raise InputError("graph file declares no vertices")
    doc = GraphDocument(Graph(vertices, edges, bundles))

    try:
        for where, kind, args in deferred:
            if kind == "cycle":
                if len(args) != 2:
                    raise InputError("cycle takes: name steps")
                doc.cycles[_check_id(args[0])] = parse_cycle(doc.graph, args[1])
            elif kind == "path":
                if len(args) != 2:
                    raise InputError("path takes: name steps (or @vertex)")
                doc.paths[_check_id(args[0])] = parse_steps(doc.graph, args[1])
            else:
                if len(args) != 3:
                    raise InputError("pair takes: name {H} {S}")
                name = _check_id(args[0])
                H = parse_vertex_set(doc.graph, args[1])
                S = parse_vertex_set(doc.graph, args[2])
                doc.pairs[name] = admissible_pair(doc.graph, H, S)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc
    return doc


def emit_graph(g: Graph) -> str:
    """Serialize a graph in the text format; parse(emit(g)) reproduces g."""
    lines = [f"vertex {v}" for v in g.vertex_list]
    lines += [f"edge {e} {src} {tgt}" for e, (src, tgt) in sorted(g.edges.items())]
    lines += [f"bundle {b} {src} {tgt}" for b, (src, tgt) in sorted(g.bundles.items())]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------


def to_dot(g: Graph, quotient: Optional[QuotientGraph] = None, name: str = "graph_") -> str:
    """DOT output; primed quotient vertices and edges render dashed."""
    primed_vs = set()
    primed_es = set()
    if quotient is not None:
        primed_vs = set(quotient.primed_vertices.values())
        primed_es = set(quotient.primed_edges.values())
    lines = [f"digraph {name} {{"]
    for v in g.vertex_list:
        attrs = ' [style=dashed, shape=box, label="{}"]'.format(v) if v in primed_vs else ""
        lines.append(f'  "{v}"{attrs};')
    for e, (src, tgt) in sorted(g.edges.items()):
        style = ", style=dashed" if e in primed_es else ""
        lines.append(f'  "{src}" -> "{tgt}" [label="{e}"{style}];')
    for b, (src, tgt) in sorted(g.bundles.items()):
        style = ", style=dashed" if b in primed_es else ""
        lines.append(
            f'  "{src}" -> "{tgt}" [label="{b} (bundle)", penwidth=2{style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Element expressions
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*(?:\[\d+\])?)"
    r"|(?P<op>[()+*-])|(?P<bad>\S))"
)


def _tokenize(text: str):
    """The token list, ending in a ``(None, None)`` sentinel, from one scan:
    the ``bad`` group catches any other character."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            rest = text[m.start(kind):].rstrip()
            raise InputError(f"bad token at {rest[:10]!r} in expression")
        out.append((kind, m[kind]))
    out.append((None, None))
    return out


# Deeper nesting is an input error, well before Python's recursion limit.
_MAX_DEPTH = 100


def _unit_monomial(g: Graph, name: str) -> alg.Monomial:
    """The monomial a name stands for: v v* for a vertex, e r(e)* for an
    edge ref, remembered per graph.  An unknown name raises and is not kept."""
    atoms = g._analysis.atoms
    m = atoms.get(name)
    if m is None:
        if name in g.vertices:
            v = vertex_path(name)
            m = alg.Monomial(v, v)
        else:
            ref = parse_ref(name)
            if g.has_ref(ref):
                p = _edge_path(g, ref)
                m = alg.Monomial(p, vertex_path(p.end))
            elif name in g.bundles:
                raise InputError(f"bundle {name!r} needs an index, e.g. {name}[0]")
            else:
                raise InputError(f"unknown identifier {name!r} in expression")
        atoms[name] = m
    return m


_STAR = ("op", "*")


def _times(left: dict, right: dict, one) -> dict:
    """The product of two term maps, monomial by monomial, not normalized.
    A coefficient that is the parser's shared ``one`` is passed through."""
    mul = alg._mul_monomials
    out: dict = {}
    for m1, k1 in left.items():
        for m2, k2 in right.items():
            m = mul(m1, m2)
            if m is not None:
                k = k1 if k2 is one else k2 if k1 is one else k1 * k2
                s = out.get(m)
                out[m] = k if s is None else s + k
    return out


class _ExprParser:
    """Recursive descent over the token list.  Each production returns a term
    map {Monomial: coefficient}: a term multiplies its factors monomial by
    monomial and is normalized once; an expression sums normalized terms.
    The normal form is unique, so this gives the element that multiplying
    normalized elements step by step would.

    A run of name factors folds into one bare monomial, with no map and no
    coefficient; only a parenthesized group is multiplied in map by map.
    The field's one and zero are read once per parse."""

    def __init__(self, g: Graph, field, tokens):
        self.g = g
        self.field = field
        self.one = field.one
        self.zero = field.zero
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> alg.AlgebraElement:
        out = self.expr()
        if self.peek()[0] is not None:
            raise InputError(f"trailing input in expression at {self.peek()[1]!r}")
        return alg.AlgebraElement(self.g, self.field, out, _normalized=True)

    def expr(self) -> dict:
        total: dict = {}
        zero = self.zero
        kind, val = self.peek()
        sign = "+"
        if kind == "op" and val in "+-":
            self.take()
            sign = val
        while True:
            # A term's coefficients are nonzero: it is normalized.
            for m, k in self.term().items():
                if sign == "-":
                    k = -k
                s = total.get(m)
                if s is None:
                    total[m] = k
                else:
                    s += k
                    if s == zero:
                        del total[m]
                    else:
                        total[m] = s
            kind, val = self.peek()
            if kind != "op" or val not in "+-":
                return total
            self.take()
            sign = val

    def term(self) -> dict:
        g, one = self.g, self.one
        coeff = one
        kind, val = self.peek()
        have_scalar = False
        if kind == "num":
            self.take()
            field = self.field
            if "/" in val:
                n, d = val.split("/")
                den = field.coerce(int(d))
                if den == 0:
                    raise InputError(f"scalar {val!r} divides by zero in {field.name}")
                coeff = field.coerce(int(n)) / den
            else:
                coeff = field.coerce(int(val))
            have_scalar = True
        # Ghost/real cancellation holds for any monomials, so the product
        # needs no rewrite until the end; equal monomials merge on the way.
        atoms = g._analysis.atoms
        mul = alg._mul_monomials
        raw = None  # the factors before the current run, as a term map
        run = None  # the current run of name factors, as one monomial
        while True:
            kind, val = self.tokens[self.pos]
            if kind == "name":
                self.pos += 1
                m = atoms.get(val) or _unit_monomial(g, val)
                if self.starred():
                    m = m.star()
                if run is None:
                    run = m
                else:
                    run = mul(run, m)
                    if run is None:
                        raw = {}  # a zero product; the rest is still read
            elif kind == "op" and val == "(":
                group = self.group()
                if run is not None:
                    raw = {run: one} if raw is None else _times(raw, {run: one}, one)
                    run = None
                raw = group if raw is None else _times(raw, group, one)
            else:
                break
        if raw is None:
            if run is not None:
                return alg._normalize(g, {run: coeff})
            if not have_scalar:
                raise InputError("expected a term")
            # A bare scalar means that multiple of the identity: the sum of
            # all vertices (the graph is finite).
            if coeff == 0:
                return {}
            return {_unit_monomial(g, v): coeff for v in g.vertex_list}
        if run is not None:
            raw = _times(raw, {run: one}, one)
        if coeff != 1:
            raw = {m: k * coeff for m, k in raw.items()}
        return alg._normalize(g, raw)

    def group(self) -> dict:
        self.pos += 1  # the "("
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise InputError(f"expression nests deeper than {_MAX_DEPTH} parentheses")
        out = self.expr()
        kind, val = self.take()
        if kind != "op" or val != ")":
            raise InputError("unbalanced parenthesis in expression")
        self.depth -= 1
        # The star of a normal form is one (see algebra.star).
        if self.starred():
            out = {m.star(): k for m, k in out.items()}
        return out

    def starred(self) -> bool:
        """Take the stars after a factor: True when their number is odd,
        since the star is an involution."""
        odd = False
        while self.tokens[self.pos] == _STAR:
            self.pos += 1
            odd = not odd
        return odd


def parse_element(g: Graph, text: str, field=QQ) -> alg.AlgebraElement:
    """Parse an algebra element expression over the graph."""
    return _ExprParser(g, field, _tokenize(text)).parse()


def parse_monomial(g: Graph, text: str, field=QQ):
    """Parse an expression that must normalize to a single monomial with
    coefficient one; used for basis-element selectors."""
    a = parse_element(g, text, field)
    if len(a.terms) != 1:
        raise InputError(f"{text!r} is not a single basis monomial")
    (m, k), = a.terms.items()
    if k != field.one:
        raise InputError(f"{text!r} carries a coefficient; basis elements cannot")
    return m
