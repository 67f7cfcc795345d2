"""Small graphs shared by the test modules as a bounded-exhaustive oracle."""

import itertools

from leavitt.graphs import Graph


def three_vertex_graphs():
    """Every labeled graph on a, b, c with at most one edge per ordered pair
    (loops included) and at most one bundle: 2^9 * 10 = 5,120 graphs."""
    arcs = list(itertools.product("abc", repeat=2))
    for mask in range(1 << len(arcs)):
        edges = {f"e{s}{t}": (s, t) for i, (s, t) in enumerate(arcs) if mask >> i & 1}
        for bundle in [None] + arcs:
            yield Graph("abc", edges, {"y": bundle} if bundle else {})
