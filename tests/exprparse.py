"""The operator-route element parser: the oracle of ``graphio._ExprParser``.

This is the parser leavitt used before terms were folded at the monomial
level.  Each atom, star and partial product is a whole ``AlgebraElement``,
built with ``alg.vertex``, ``alg.edge``, ``alg.star``, ``*``, ``+`` and
``scale``.  Both routes must give equal elements, or ``InputError``s with
equal messages.

The operator-route parser reads its tokens from ``tokenize_oracle``, the
tokenizer leavitt used before it scanned the text once with ``finditer``:
one ``match`` per token, and an error at the first place no token matches.
"""

import re

from leavitt import algebra as alg
from leavitt.errors import InputError
from leavitt.fields import QQ
from leavitt.graphio import parse_ref
from leavitt.graphs import Graph


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*(?:\[\d+\])?)"
    r"|(?P<op>[()+*-]))"
)


def tokenize_oracle(text: str):
    """The token list, ending in a ``(None, None)`` sentinel."""
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise InputError(f"bad token at {rest[:10]!r} in expression")
        out.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    out.append((None, None))
    return out


class _ExprParser:
    def __init__(self, g: Graph, field=QQ, tokens=None):
        self.g = g
        self.field = field
        self.tokens = tokens or []
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> alg.AlgebraElement:
        out = self.expr()
        if self.peek()[0] is not None:
            raise InputError(f"trailing input in expression at {self.peek()[1]!r}")
        return out

    def expr(self) -> alg.AlgebraElement:
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        total = self.term().scale(sign)
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                nxt = self.term()
                total = total + (nxt if val == "+" else -nxt)
            else:
                return total

    def term(self) -> alg.AlgebraElement:
        coeff = self.field.one
        kind, val = self.peek()
        have_scalar = False
        if kind == "num":
            self.take()
            if "/" in val:
                n, d = val.split("/")
                den = self.field.coerce(int(d))
                if den == 0:
                    raise InputError(f"scalar {val!r} divides by zero in {self.field.name}")
                coeff = self.field.coerce(int(n)) / den
            else:
                coeff = self.field.coerce(int(val))
            have_scalar = True
        factors = []
        while True:
            kind, val = self.peek()
            if kind == "name" or (kind == "op" and val == "("):
                factors.append(self.factor())
            else:
                break
        if not factors:
            if not have_scalar:
                raise InputError("expected a term")
            if coeff == 0:
                return alg.zero(self.g, self.field)
            # A bare scalar means that multiple of the identity: the sum of
            # all vertices (the graph is finite).
            total = alg.zero(self.g, self.field)
            for v in self.g.vertex_list:
                total = total + alg.vertex(self.g, v, self.field)
            return total.scale(coeff)
        out = factors[0]
        for f in factors[1:]:
            out = out * f
        return out.scale(coeff)

    def factor(self) -> alg.AlgebraElement:
        kind, val = self.take()
        if kind == "op" and val == "(":
            inner = self.expr()
            kind, val = self.take()
            if kind != "op" or val != ")":
                raise InputError("unbalanced parenthesis in expression")
            out = inner
        elif kind == "name":
            out = self.atom(val)
        else:
            raise InputError(f"unexpected token {val!r} in expression")
        while self.peek() == ("op", "*"):
            self.take()
            out = alg.star(out)
        return out

    def atom(self, name: str) -> alg.AlgebraElement:
        if name in self.g.vertices:
            return alg.vertex(self.g, name, self.field)
        ref = parse_ref(name)
        if self.g.has_ref(ref):
            return alg.edge(self.g, ref, self.field)
        if name in self.g.bundles:
            raise InputError(f"bundle {name!r} needs an index, e.g. {name}[0]")
        raise InputError(f"unknown identifier {name!r} in expression")


def parse_element_oracle(g: Graph, text: str, field=QQ) -> alg.AlgebraElement:
    return _ExprParser(g, field, tokenize_oracle(text)).parse()
