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


def two_bundle_graphs(rng, count):
    """``count`` seeded graphs on a, b, c with at most one edge per ordered
    pair and two bundles: y, and z out of the target of y.  A bundle can end
    at an unbroken breaking vertex only in such a graph, since that vertex
    emits a bundle of its own.  The first graph is the smallest case,
    y: a -> b, z: b -> c and an edge b -> a, with H = {c} and S empty."""
    arcs = list(itertools.product("abc", repeat=2))
    yield Graph("abc", {"eba": ("b", "a")}, {"y": ("a", "b"), "z": ("b", "c")})
    for _ in range(count - 1):
        edges = {f"e{s}{t}": (s, t) for s, t in arcs if rng.random() < 0.3}
        s, t = rng.choice(arcs)
        yield Graph("abc", edges, {"y": (s, t), "z": (t, rng.choice("abc"))})


def fan(k):
    """A sink s, a hub w, and emitters u_0..u_{k-1}, each with a bundle into
    s and edges u_i -> w -> u_i.  B_{s} is every u_i, so it has k vertices,
    and for k >= 2 the S subsets of an H do not come in ``combinations``
    order."""
    us = [f"u{i}" for i in range(k)]
    edges = {f"a{i}": (u, "w") for i, u in enumerate(us)}
    edges.update({f"r{i}": ("w", u) for i, u in enumerate(us)})
    return Graph(["s", "w"] + us, edges, {f"b{i}": (u, "s") for i, u in enumerate(us)})
