"""Seeded input generators for the benchmark workloads.

Everything here uses only ``random.Random`` with integer seeds and plain
Python data, never leavitt and never ``hash()``, so the inputs do not depend
on the code under test or on ``PYTHONHASHSEED``.  Graphs are described as
``(vertices, edges, bundles)`` with ``edges``/``bundles`` mapping an id to a
``(source, target)`` pair, and written out in the leavitt graph-file format.

Each workload draws its per-run inputs from a fixed pool: pool item ``i`` is
built from ``random.Random(base + i)``, and ``--seed`` picks a sample of the
pool.  The reference digests in ``reference.json`` cover every pool item, so
every seed's outputs can be checked.
"""

from __future__ import annotations

import itertools
import random

# ---------------------------------------------------------------------------
# Graph descriptions
# ---------------------------------------------------------------------------


def graph_text(desc) -> str:
    """A graph description in the line-oriented leavitt graph-file format."""
    vertices, edges, bundles = desc
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"edge {e} {s} {t}" for e, (s, t) in edges.items()]
    lines += [f"bundle {b} {s} {t}" for b, (s, t) in bundles.items()]
    return "\n".join(lines) + "\n"


# The six built-in fixture graphs G1..G6, restated as descriptions so the
# benchmark feeds the program files rather than its own objects.
CATALOG = {
    "G1": (["v"], {"e": ("v", "v")}, {}),
    "G2": (["v", "w"], {"c": ("v", "v")}, {"b": ("v", "w")}),
    "G3": (["u", "v", "w"], {"e": ("u", "v"), "c": ("v", "v")}, {"b": ("u", "w")}),
    "G4": (["v"], {}, {"b": ("v", "v")}),
    "G5": (["v"], {"d": ("v", "v"), "e": ("v", "v")}, {}),
    "G6": (["v", "w"], {"f": ("v", "w"), "g": ("w", "v")}, {}),
}


def looped_chain(n: int):
    """x00 -> x01 -> ... with a loop at every vertex: n+1 admissible pairs."""
    vs = [f"x{i:02d}" for i in range(n)]
    edges = {f"l{i:02d}": (vs[i], vs[i]) for i in range(n)}
    edges.update({f"s{i:02d}": (vs[i], vs[i + 1]) for i in range(n - 1)})
    return vs, edges, {}


def looped_forest(rng: random.Random, n: int):
    """A sparse looped forest: each vertex hangs off one of the two before
    it, every vertex has a loop, and one vertex has a bundle into a sink."""
    vs = [f"v{i:02d}" for i in range(n)]
    edges = {f"l{i:02d}": (vs[i], vs[i]) for i in range(n)}
    for i in range(1, n):
        edges[f"t{i:02d}"] = (vs[rng.randint(max(0, i - 2), i - 1)], vs[i])
    bundles = {"b0": (vs[rng.randrange(n)], "z")}
    return vs + ["z"], edges, bundles


def complete_plus_sink(n: int):
    """The complete digraph K_n (no loops) plus an edge into a sink."""
    vs = [f"k{i}" for i in range(n)]
    edges = {f"a{i}_{j}": (vs[i], vs[j]) for i in range(n) for j in range(n) if i != j}
    edges["out"] = (vs[0], "z")
    return vs + ["z"], edges, {}


def complete_blocks(blocks: int, size: int):
    """A chain of complete digraphs joined by single edges, ending in a sink."""
    vs, edges = [], {}
    for b in range(blocks):
        bv = [f"k{b}_{i}" for i in range(size)]
        vs += bv
        for s, t in itertools.permutations(bv, 2):
            edges[f"a_{s}_{t}"] = (s, t)
        if b:
            edges[f"x{b}"] = (f"k{b - 1}_0", bv[0])
    edges["out"] = (vs[-1], "z")
    return vs + ["z"], edges, {}


def thinned_blocks(rng: random.Random, blocks: int, size: int, drop: int):
    """``complete_blocks`` with ``drop`` seeded edges removed from inside the
    blocks; one block is K_size plus a sink."""
    vs, edges, bundles = complete_blocks(blocks, size)
    for e in rng.sample(sorted(e for e in edges if e.startswith("a_")), drop):
        del edges[e]
    return vs, edges, bundles


def random_dense(rng: random.Random, n: int, m: int, nbundles: int):
    vs = [f"v{i}" for i in range(n)]
    edges = {f"e{i:02d}": (rng.choice(vs), rng.choice(vs)) for i in range(m)}
    bundles = {f"b{i}": (rng.choice(vs), rng.choice(vs)) for i in range(nbundles)}
    return vs, edges, bundles


def random_small(rng: random.Random, max_vertices=6, max_edges=10, max_bundles=2):
    n = rng.randint(2, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    edges = {f"e{i}": (rng.choice(vs), rng.choice(vs)) for i in range(rng.randint(1, max_edges))}
    bundles = {
        f"b{i}": (rng.choice(vs), rng.choice(vs)) for i in range(rng.randint(0, max_bundles))
    }
    return vs, edges, bundles


# ---------------------------------------------------------------------------
# Admissible pairs, from the definitions (for choosing query inputs)
# ---------------------------------------------------------------------------


def _successors(desc):
    vertices, edges, bundles = desc
    succ = {v: set() for v in vertices}
    for s, t in itertools.chain(edges.values(), bundles.values()):
        succ[s].add(t)
    return succ


def _escaping_edges(desc, v, H):
    """v's ordinary edges into the complement of H, or None when some bundle
    at v escapes H (infinitely many edges leave H)."""
    _, edges, bundles = desc
    if any(s == v and t not in H for s, t in bundles.values()):
        return None
    return sorted(e for e, (s, t) in edges.items() if s == v and t not in H)


def admissible_pairs(desc) -> list:
    """Every (H, S) with H hereditary and saturated and S within the
    breaking vertices of H, as pairs of sorted tuples."""
    vertices, edges, bundles = desc
    succ = _successors(desc)
    emitters = {s for s, _ in bundles.values()}
    regular = {s for s, _ in edges.values()} - emitters
    out = []
    for r in range(len(vertices) + 1):
        for combo in itertools.combinations(vertices, r):
            H = set(combo)
            if any(not succ[u] <= H for u in H):
                continue
            if any(v not in H and succ[v] <= H for v in regular):
                continue
            breaking = [
                v for v in vertices
                if v not in H and v in emitters and _escaping_edges(desc, v, H)
            ]
            for k in range(len(breaking) + 1):
                for S in itertools.combinations(breaking, k):
                    out.append((tuple(sorted(H)), S))
    return out


# ---------------------------------------------------------------------------
# Element strings
# ---------------------------------------------------------------------------


def _paths(desc, max_len: int, bundle_sample: int = 2):
    """Paths as (start, end, [ref tokens]) up to max_len edges."""
    vertices, edges, bundles = desc
    out_refs = {v: [] for v in vertices}
    for e, (s, t) in sorted(edges.items()):
        out_refs[s].append((e, t))
    for b, (s, t) in sorted(bundles.items()):
        out_refs[s].extend((f"{b}[{i}]", t) for i in range(bundle_sample))
    frontier = [(v, v, []) for v in vertices]
    paths = []
    while frontier:
        paths.extend(frontier)
        frontier = [
            (start, t, steps + [ref])
            for start, end, steps in frontier
            if len(steps) < max_len
            for ref, t in out_refs[end]
        ]
    return paths


def random_element(rng: random.Random, paths, max_terms: int = 2) -> str:
    """A sum of 1..max_terms terms k p q* with r(p) = r(q)."""
    by_end = {}
    for p in paths:
        by_end.setdefault(p[1], []).append(p)
    text = ""
    for i in range(rng.randint(1, max_terms)):
        p = rng.choice(paths)
        q = rng.choice(by_end[p[1]])
        k = rng.choice(["-2", "-1", "1", "2", "3", "1/2"])
        real = " ".join(p[2]) if p[2] else p[0]
        ghost = f"({' '.join(q[2])})*" if q[2] else q[0]
        if i:
            sign, k = ("-", k[1:]) if k.startswith("-") else ("+", k)
            text += f" {sign} "
        text += f"{k} {real} {ghost}"
    return text


def generator_string(desc, H, S, rng: random.Random) -> str:
    """One generator of I(H, S): a vertex of H or v^H for v in S."""
    v = rng.choice(list(H) + list(S))
    if v in H:
        return v
    return " - ".join([v] + [f"{e} ({e})*" for e in _escaping_edges(desc, v, set(H))])


def membership_pool(base: int, graphs: int, per_graph: int) -> tuple:
    """Graph descriptions and query pool for terms-membership: the catalog
    plus seeded small random graphs with a proper nonzero pair, each with
    per_graph queries.

    A query is a dict with the graph name, a proper pair (nonzero when the
    graph has one, else the zero pair), two element strings, the oracle
    element ``(a)(gen)(b)`` that must lie in the ideal (None for the zero
    pair, which has no generator), a vertex outside H that must not, and the
    field (alternating QQ / GF(7)).
    """
    def nonzero_proper(desc):
        return [(H, S) for H, S in admissible_pairs(desc) if H and len(H) < len(desc[0])]

    descs = dict(CATALOG)
    i = 0
    while len(descs) < graphs:
        desc = random_small(random.Random(base + i))
        i += 1
        if nonzero_proper(desc):
            descs[f"R{len(descs):02d}"] = desc
    pool = []
    for gi, (name, desc) in enumerate(sorted(descs.items())):
        pairs = nonzero_proper(desc) or [((), ())]
        paths = _paths(desc, 3)
        for j in range(per_graph):
            rng = random.Random(base + 10_000 * (gi + 1) + j)
            H, S = rng.choice(pairs)
            a = random_element(rng, paths)
            b = random_element(rng, paths)
            oracle = f"({a}) ({generator_string(desc, H, S, rng)}) ({b})" if H else None
            pool.append({
                "key": f"{name}:{j:03d}",
                "graph": name,
                "H": list(H),
                "S": list(S),
                "a": a,
                "b": b,
                "oracle": oracle,
                "outside": rng.choice([v for v in desc[0] if v not in H]),
                "field": "q" if j % 2 == 0 else "p:7",
            })
    return descs, pool


# ---------------------------------------------------------------------------
# Module vectors
# ---------------------------------------------------------------------------

# The N_c modules of the catalog, one per exclusive cycle and basepoint:
# graph, the cycle's edges walked from the basepoint, and the basepoint.
NC_MODULES = (
    ("G1", ("e",), "v"),
    ("G2", ("c",), "v"),
    ("G3", ("c",), "v"),
    ("G6", ("f", "g"), "v"),
    ("G6", ("g", "f"), "w"),
)


def nc_basis(desc, cycle, max_len: int) -> list:
    """The reduced pairs p.q* of N_c with p and q of at most max_len edges,
    as ``(start of p, edges of p, edges of q)``: q walks the cycle from its
    basepoint, p ends where q does and does not end with q's last edge."""
    _, edges, _ = desc
    out = []
    q, end = (), edges[cycle[0]][0]
    for k in range(max_len + 1):
        for start, p_end, p in _paths(desc, max_len):
            if p_end == end and not (p and q and p[-1] == q[-1]):
                out.append((start, tuple(p), q))
        q += (cycle[k % len(cycle)],)
        end = edges[q[-1]][1]
    return out


def nc_vector_pool(base: int, per_module: int, max_len: int) -> list:
    """Seeded homogeneous vectors of the N_c modules: 1..3 basis elements of
    one degree with small integer coefficients, per_module per module."""
    pool = []
    for mi, (name, cycle, v) in enumerate(NC_MODULES):
        by_degree = {}
        for x in sorted(nc_basis(CATALOG[name], cycle, max_len)):
            by_degree.setdefault(len(x[1]) - len(x[2]), []).append(x)
        degrees = sorted(by_degree)
        for j in range(per_module):
            rng = random.Random(base + 100 * mi + j)
            elems = by_degree[rng.choice(degrees)]
            support = rng.sample(elems, k=min(len(elems), rng.randint(1, 3)))
            pool.append({
                "key": f"recover:{name}:nc:{','.join(cycle)}@{v}:{j:02d}",
                "graph": name,
                "cycle": cycle,
                "v": v,
                "terms": [(x, rng.choice([-2, -1, 1, 2, 3])) for x in support],
            })
    return pool
