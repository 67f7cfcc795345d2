import itertools
import random
from fractions import Fraction

import pytest

from leavitt import algebra as alg
from leavitt import ideals as idl
from leavitt.catalog import CATALOG, G1, G2, G3, G4, G6, random_graph
from leavitt.classify import find_base_vertex
from leavitt.errors import InputError
from leavitt.fields import QQ, PrimeField
from leavitt.graphs import (
    Graph,
    _closure,
    _lattice,
    breaking_vertices,
    enumerate_cycles,
    enumerate_paths,
    hereditary_saturated_closure,
    is_downwards_directed,
    is_hereditary,
    is_saturated,
    root,
    tree,
)
from smallgraphs import fan, three_vertex_graphs, two_bundle_graphs


def pair(g, H, S=()):
    return idl.admissible_pair(g, H, S)


def _subset_pairs(g):
    """Oracle of the enumeration: test all 2^n vertex subsets."""
    pairs = []
    for r in range(len(g.vertex_list) + 1):
        for combo in itertools.combinations(g.vertex_list, r):
            H = frozenset(combo)
            if not is_hereditary(g, H)[0] or not is_saturated(g, H)[0]:
                continue
            B = sorted(breaking_vertices(g, H))
            for k in range(len(B) + 1):
                for s_combo in itertools.combinations(B, k):
                    pairs.append(idl.AdmissiblePair(H, frozenset(s_combo)))
    pairs.sort(key=idl.AdmissiblePair.sort_key)
    return pairs


def _tree_of(g, v):
    """T(v) on frozensets, searched afresh."""
    return _closure(g.successors, [v])


def _regular_targets(g):
    """Each regular vertex, in name order, mapped to the targets of its
    edges."""
    return {
        v: frozenset(g.tgt(e) for e in g.out_edge_ids(v))
        for v in g.vertex_list
        if g.is_regular(v)
    }


def _breaking_vertices(g, H):
    """B_H on frozensets for a hereditary saturated H: the infinite
    emitters outside H with every bundle into H and some edge out of H."""
    return frozenset(
        v
        for v in g.vertex_list
        if v not in H
        and g.is_infinite_emitter(v)
        and all(g.tgt((b, 0)) in H for b in g.out_bundle_ids(v))
        and any(g.tgt(e) not in H for e in g.out_edge_ids(v))
    )


def _frozenset_closure(g, V):
    """Oracle of the bitmask closure: least hereditary and saturated
    superset of V, on frozensets (fixed point of both rules)."""
    H = set().union(*(_tree_of(g, v) for v in V))
    regular_targets = _regular_targets(g)
    changed = True
    while changed:
        changed = False
        for v, targets in regular_targets.items():
            if v not in H and targets <= H:
                H.add(v)
                H |= _tree_of(g, v)
                changed = True
    return frozenset(H)


def _next_closed(g, H):
    """The hereditary saturated set after H in lectic order (None after the
    last, E^0).  Vertices are ordered as in ``g.vertex_list``; the successor
    is the closure of (H below v) + {v} for the largest v not in H whose
    closure adds nothing below v."""
    below = set(H)
    for v in reversed(g.vertex_list):
        if v in below:
            below.discard(v)
            continue
        closed = _frozenset_closure(g, below | {v})
        if all(u in below for u in closed if u < v):
            return closed
    return None


def _next_closure_route(g):
    """Oracle of the bitset lattice: the sets H from frozenset NextClosure in
    ``vertex_list`` order, and the pairs sorted by ``AdmissiblePair.sort_key``.
    It runs on a copy of g, so no B_H remembered by the fast route is read."""
    g = Graph(g.vertices, g.edges, g.bundles)
    sets, pairs = [], []
    H = _frozenset_closure(g, ())
    while H is not None:
        sets.append(H)
        B = sorted(breaking_vertices(g, H))
        for k in range(len(B) + 1):
            for s_combo in itertools.combinations(B, k):
                pairs.append(idl.AdmissiblePair(H, frozenset(s_combo)))
        H = _next_closed(g, H)
    pairs.sort(key=idl.AdmissiblePair.sort_key)
    return sorted(sets, key=sorted), pairs


def _error(fn, *args):
    with pytest.raises(InputError) as info:
        fn(*args)
    return str(info.value)


class TestAdmissiblePairs:
    def test_enumeration_g1(self):
        labels = [p.label() for p in idl.enumerate_admissible_pairs(G1)]
        assert labels == ["({},{})", "({v},{})"]

    def test_enumeration_g2(self):
        labels = [p.label() for p in idl.enumerate_admissible_pairs(G2)]
        assert labels == ["({},{})", "({v,w},{})", "({w},{})", "({w},{v})"]

    def test_enumeration_g4(self):
        labels = [p.label() for p in idl.enumerate_admissible_pairs(G4)]
        assert labels == ["({},{})", "({v},{})"]

    def test_validation(self):
        with pytest.raises(InputError):
            pair(G3, ["u"])  # not hereditary
        with pytest.raises(InputError):
            pair(G2, ["w"], ["w"])  # S not inside B_H

    def test_flags(self):
        z = pair(G2, [])
        assert idl.is_zero_pair(z) and idl.is_proper(G2, z)
        full = pair(G2, ["v", "w"])
        assert not idl.is_proper(G2, full)

    def test_matches_subset_oracle_on_all_three_vertex_graphs(self):
        count = 0
        for g in three_vertex_graphs():
            assert idl.enumerate_admissible_pairs(g) == _subset_pairs(g)
            count += 1
        assert count == 5120

    def test_matches_subset_oracle_random(self):
        rng = random.Random(31)
        for _ in range(300):
            g = random_graph(rng)
            assert idl.enumerate_admissible_pairs(g) == _subset_pairs(g)

    def test_matches_next_closure_route(self):
        rng = random.Random(3)
        graphs = list(itertools.islice(three_vertex_graphs(), 0, None, 7))
        graphs += [random_graph(rng, 7, 12, 3) for _ in range(300)]
        graphs += list(two_bundle_graphs(random.Random(5), 100))
        many_sets = 0
        for g in graphs:
            sets, pairs = _next_closure_route(g)
            listed = [frozenset(H) for H, _ in idl.hereditary_saturated_sets(g)]
            assert listed == sets
            assert idl.enumerate_admissible_pairs(g) == pairs
            for v in g.vertex_list:
                V = {v} | set(sets[len(sets) // 2])
                assert hereditary_saturated_closure(g, V) == _frozenset_closure(g, V)
            many_sets += len(sets) > 8
        assert many_sets > 20

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_fan_s_order(self, k):
        g = fan(k)
        pairs = idl.enumerate_admissible_pairs(g)
        assert pairs == _subset_pairs(g)
        assert max(len(breaking_vertices(g, p.H)) for p in pairs) == k
        assert len(pairs) == 2**k + 2  # H = {}, E^0, and {s} with every S

    def test_lattice_order_is_topological(self):
        rng = random.Random(8)
        for g in [random_graph(rng, 7, 12, 3) for _ in range(100)]:
            position = {v: i for i, v in enumerate(_lattice(g).order)}
            for u in g.vertex_list:
                for v in tree(g, [u]) - root(g, [u]):
                    assert position[u] < position[v]

    def test_long_looped_chain(self):
        # x00 -> x01 -> ... -> x39, a loop at each: H is a final segment
        vs = [f"x{i:02d}" for i in range(40)]
        edges = {f"l{i:02d}": (vs[i], vs[i]) for i in range(40)}
        edges.update({f"s{i:02d}": (vs[i], vs[i + 1]) for i in range(39)})
        pairs = idl.enumerate_admissible_pairs(Graph(vs, edges))
        assert len(pairs) == 41
        assert {p.H for p in pairs} == {frozenset(vs[i:]) for i in range(41)}
        assert not any(p.S for p in pairs)

    def test_no_duplicates_random(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(rng)
            pairs = idl.enumerate_admissible_pairs(g)
            assert len(pairs) == len(set(pairs))


class TestBreakingMemo:
    """B_H is remembered per graph for each H known to be hereditary and
    saturated; only a remembered H skips the two checks."""

    def test_invalid_h_raises_after_enumeration(self):
        g3 = Graph(G3.vertices, G3.edges, G3.bundles)
        line = Graph(["a", "b"], edges={"x": ("a", "b")})
        # one copy of the check, in graphs.breaking_vertices, serves all three
        want = [
            "H is not hereditary (witness ('u', 'v'))",
            "H is not hereditary (witness ('u', 'v'))",
            "H is not hereditary (witness ('u', 'v'))",
            "H is not saturated (witness a)",
            "H is not saturated (witness a)",
            "H is not saturated (witness a)",
        ]
        for _ in range(2):  # on fresh graphs, then with every valid H remembered
            assert [
                _error(fn, g, H)
                for g, H in ((g3, ["u"]), (line, ["b"]))
                for fn in (idl.admissible_pair, breaking_vertices, find_base_vertex)
            ] == want
            idl.enumerate_admissible_pairs(g3)
            idl.enumerate_admissible_pairs(line)

    def test_enumeration_remembers_each_listed_h(self):
        rng = random.Random(48)
        graphs = [Graph(g.vertices, g.edges, g.bundles) for g in CATALOG.values()]
        graphs += [random_graph(rng, 7, 12, 3) for _ in range(100)] + [fan(4)]
        for g in graphs:
            listed = list(idl.hereditary_saturated_sets(g))
            memo = dict(g._analysis.breaking)
            assert set(memo) == {frozenset(H) for H, _ in listed}
            for H, B in listed:
                assert memo[frozenset(H)] == frozenset(B) == _breaking_vertices(g, frozenset(H))
                assert list(H) == sorted(H) and list(B) == sorted(B)

    def test_s_outside_b_h_raises_on_a_hit(self):
        g = Graph(G2.vertices, G2.edges, G2.bundles)
        idl.enumerate_admissible_pairs(g)
        assert frozenset(["w"]) in g._analysis.breaking
        assert _error(pair, g, ["w"], ["w"]) == "S must be a subset of B_H = ['v']"
        assert _error(pair, g, ["w"], ["nope"]) == "unknown vertex id(s): ['nope']"

    def test_remembered_b_h_matches_definition(self):
        # B_H read off the graph without the memo or the lattice
        rng = random.Random(47)
        for g in [random_graph(rng) for _ in range(300)]:
            for p in idl.enumerate_admissible_pairs(g):
                assert breaking_vertices(g, p.H) == _breaking_vertices(g, p.H)
                assert pair(g, p.H, p.S) == p


class TestGenerators:
    def test_g2(self):
        gens = idl.ideal_generators(G2, pair(G2, ["w"], ["v"]))
        assert [str(x) for x in gens] == ["w", "v - c c*"]

    def test_g3_paper(self):
        gens = idl.ideal_generators(G3, pair(G3, ["w"], ["u"]))
        assert [str(x) for x in gens] == ["w", "u - e e*"]

    def test_zero_pair(self):
        assert idl.ideal_generators(G2, pair(G2, [])) == []

    def test_breaking_element_rejects_infinite(self):
        with pytest.raises(InputError):
            idl.breaking_element(G4, "v", frozenset())


class TestQuotientGraph:
    def test_g2_unbroken(self):
        qg = idl.quotient_graph(G2, pair(G2, ["w"]))
        assert qg.graph.vertex_list == ("v", "v'")
        assert qg.graph.edges == {"c": ("v", "v"), "c'": ("v", "v'")}
        assert qg.graph.bundles == {}
        assert qg.primed_vertices == {"v": "v'"}
        assert qg.primed_edges == {"c": "c'"}

    def test_g2_broken(self):
        qg = idl.quotient_graph(G2, pair(G2, ["w"], ["v"]))
        assert qg.graph.vertex_list == ("v",)
        assert qg.graph.edges == {"c": ("v", "v")}
        assert qg.primed_vertices == {}

    def test_zero_pair_identity(self):
        for g in CATALOG.values():
            qg = idl.quotient_graph(g, pair(g, []))
            assert qg.graph == g

    def test_primed_are_sinks(self):
        rng = random.Random(12)
        for _ in range(40):
            g = random_graph(rng)
            for p in idl.enumerate_admissible_pairs(g):
                qg = idl.quotient_graph(g, p)
                for primed in qg.primed_vertices.values():
                    assert qg.graph.is_sink(primed)

    def test_bundle_into_unbroken_vertex_gets_primed_copy(self):
        g = Graph(
            ["h", "u", "x"],
            edges={"e": ("u", "x"), "f": ("x", "u")},
            bundles={"bb": ("x", "u"), "b2": ("u", "h")},
        )
        p = pair(g, ["h"])  # B_H = {u}, S empty
        qg = idl.quotient_graph(g, p)
        assert qg.primed_vertices == {"u": "u'"}
        assert qg.graph.bundles == {"bb": ("x", "u"), "bb'": ("x", "u'")}
        assert ("f", "f'") in qg.graph.edges.items() or qg.graph.edges["f'"] == ("x", "u'")
        for i in (0, 1):
            img = idl.quotient_map(g, p, alg.edge(g, ("bb", i)))
            assert img == alg.edge(qg.graph, ("bb", i)) + alg.edge(qg.graph, ("bb'", i))

    def test_vertex_count_formula(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng)
            for p in idl.enumerate_admissible_pairs(g):
                qg = idl.quotient_graph(g, p)
                B = breaking_vertices(g, p.H)
                assert len(qg.graph.vertices) == len(g.vertices - p.H) + len(B - p.S)


class TestQuotientCache:
    def test_cached_quotient_matches_construction(self):
        rng = random.Random(2024)
        graphs = [Graph(g.vertices, g.edges, g.bundles) for g in CATALOG.values()]
        graphs += [random_graph(rng) for _ in range(300)]
        for g in graphs:
            for p in idl.enumerate_admissible_pairs(g):
                qg = idl.quotient_graph(g, p)
                assert qg == idl._quotient_graph(g, p)
                # an equal pair, given as lists, hits the cache
                assert idl.quotient_graph(g, idl.AdmissiblePair(list(p.H), list(p.S))) is qg

    def test_uncached_pair_is_validated(self):
        g = Graph(G3.vertices, G3.edges, G3.bundles)
        idl.quotient_graph(g, pair(g, ["w"], ["u"]))
        for H, S in ((["w"], ["v"]), (["u"], []), (["x"], [])):
            with pytest.raises(InputError):
                idl.quotient_graph(g, idl.AdmissiblePair(frozenset(H), frozenset(S)))


class TestQuotientMap:
    def test_generator_dies(self):
        uH = alg.vertex(G3, "u") - alg.edge(G3, "e") * alg.star(alg.edge(G3, "e"))
        assert idl.quotient_map(G3, pair(G3, ["w"], ["u"]), uH).is_zero

    def test_unbroken_vertex_survives_as_prime(self):
        vH = alg.vertex(G2, "v") - alg.edge(G2, "c") * alg.star(alg.edge(G2, "c"))
        img = idl.quotient_map(G2, pair(G2, ["w"]), vH)
        qg = idl.quotient_graph(G2, pair(G2, ["w"]))
        assert img == alg.vertex(qg.graph, "v'")
        assert not img.is_zero

    def test_zero_pair_is_identity(self):
        rng = random.Random(14)
        for g in (G1, G2, G3):
            paths = list(enumerate_paths(g, 2, 2))
            for _ in range(10):
                p = rng.choice(paths)
                q = rng.choice([x for x in paths if x.end == p.end])
                a = alg.monomial(g, p, q, coeff=rng.choice([1, 2, -1]))
                assert idl.quotient_map(g, pair(g, []), a) == a

    def test_degree_preserved(self):
        p = pair(G2, ["w"])
        a = alg.edge(G2, "c")
        img = idl.quotient_map(G2, p, a)
        assert alg.degree(img) == 1

    def test_star_algebra_homomorphism(self):
        rng = random.Random(31)
        for _ in range(12):
            g = random_graph(rng, 4, 6, 1)
            pairs = idl.enumerate_admissible_pairs(g)
            paths = list(enumerate_paths(g, 2, 2))
            by_end = {}
            for q in paths:
                by_end.setdefault(q.end, []).append(q)

            def rand_elt():
                out = alg.zero(g)
                for _ in range(rng.randint(1, 2)):
                    x = rng.choice(paths)
                    y = rng.choice(by_end[x.end])
                    out = out + alg.monomial(g, x, y, coeff=rng.choice([-1, 1, 2]))
                return out

            for _ in range(4):
                p = rng.choice(pairs)
                a, b = rand_elt(), rand_elt()
                pi = lambda x: idl.quotient_map(g, p, x)
                assert pi(a * b) == pi(a) * pi(b)
                assert pi(a + b) == pi(a) + pi(b)
                assert pi(alg.star(a)) == alg.star(pi(a))


# The map as a homomorphism built from generator images, multiplied out
# step by step: the oracle of the direct monomial rule in idl.quotient_map.
def _closure_quotient_map(g, pair, a):
    """The canonical surjection with kernel I(H, S), in quotient normal form.

    Generator images: vertices of H and edges into H go to zero; an unbroken
    breaking vertex v maps to v + v', and an edge ranging at it to e + e'.
    """
    qg = idl.quotient_graph(g, pair)
    q = qg.graph
    H = pair.H
    field = a.field

    def vertex_image(v):
        if v in H:
            return alg.zero(q, field)
        img = alg.vertex(q, v, field)
        if v in qg.primed_vertices:
            img = img + alg.vertex(q, qg.primed_vertices[v], field)
        return img

    def edge_image(ref):
        tgt = g.tgt(ref)
        if tgt in H:
            return alg.zero(q, field)
        if isinstance(ref, tuple):
            img = alg.edge(q, ref, field)
            if ref[0] in qg.primed_edges:
                img = img + alg.edge(q, (qg.primed_edges[ref[0]], ref[1]), field)
        else:
            img = alg.edge(q, ref, field)
            if ref in qg.primed_edges:
                img = img + alg.edge(q, qg.primed_edges[ref], field)
        return img

    def path_image(p):
        if p.is_vertex:
            return vertex_image(p.start)
        img = None
        for ref in p.steps:
            step = edge_image(ref)
            img = step if img is None else img * step
            if img.is_zero:
                return img
        return img

    total = alg.zero(q, field)
    for m, k in a.terms.items():
        img = path_image(m.p) * alg.star(path_image(m.q))
        total = total + img.scale(k)
    return total


def _assert_maps_agree(g, p, a):
    new, old = idl.quotient_map(g, p, a), _closure_quotient_map(g, p, a)
    assert new == old and str(new) == str(old), (g.edges, g.bundles, p.label(), str(a))
    return new


def _agree_on_every_pair(graphs, rng):
    """Compare the direct map with the closures on every admissible pair of
    each graph, each time on a random two-term element, alternately over QQ
    and GF(7).  Returns how many pairs were checked, how many images were
    nonzero, how many pairs have an unbroken breaking vertex, and how many
    images hold a primed vertex or a primed bundle step."""
    fields = (QQ, PrimeField(7))
    n = dict.fromkeys(["pairs", "nonzero", "unbroken", "primed", "primed bundle"], 0)
    for g in graphs:
        paths = list(enumerate_paths(g, 2, 2))
        by_end = {}
        for x in paths:
            by_end.setdefault(x.end, []).append(x)
        for p in idl.enumerate_admissible_pairs(g):
            qg = idl.quotient_graph(g, p)
            # a term ranging at an unbroken vertex, if the pair has one
            ends = sorted(qg.primed_vertices)
            x = rng.choice(by_end[rng.choice(ends)] if ends else paths)
            y = rng.choice(by_end[x.end])
            w = rng.choice(paths)
            field = fields[n["pairs"] % 2]
            raw = [(alg.Monomial(x, y), field.coerce(rng.choice([1, -1, 2, 3]))),
                   (alg.Monomial(w, w), field.one)]
            img = _assert_maps_agree(g, p, alg.AlgebraElement(g, field, raw))
            n["pairs"] += 1
            n["nonzero"] += not img.is_zero
            primes = qg.primed_vertices.values()
            n["primed"] += any(m.p.end in primes for m in img.terms)
            n["unbroken"] += bool(ends)
            primed_bundles = set(qg.primed_edges.values()) & set(qg.graph.bundles)
            n["primed bundle"] += any(
                isinstance(step, tuple) and step[0] in primed_bundles
                for m in img.terms
                for step in m.p.steps + m.q.steps
            )
    return n


class TestDirectQuotientMap:
    def test_agrees_with_closures_on_all_three_vertex_graphs(self):
        n = _agree_on_every_pair(three_vertex_graphs(), random.Random(18))
        assert n["pairs"] == 16_084 and n["nonzero"] > n["pairs"] // 2
        assert n["unbroken"] == 888 and n["primed"] > n["unbroken"] // 2
        # one bundle cannot end at a breaking vertex, which emits a bundle too
        assert n["primed bundle"] == 0

    def test_agrees_with_closures_on_two_bundle_graphs(self):
        n = _agree_on_every_pair(two_bundle_graphs(random.Random(20), 400), random.Random(20))
        assert n["unbroken"] > 50 and n["primed bundle"] >= 20, n

    def test_agrees_with_closures_on_catalog_products(self):
        rng = random.Random(19)
        for g in CATALOG.values():
            paths = list(enumerate_paths(g, 2, 2))
            pairs = idl.enumerate_admissible_pairs(g)
            gens = [gen for p in pairs for gen in idl.ideal_generators(g, p)]
            for p, gen, _ in itertools.product(pairs, gens, range(4)):
                r, s = (
                    alg.monomial(g, x, rng.choice([z for z in paths if z.end == x.end]),
                                 coeff=rng.choice([1, -1, 2]))
                    for x in (rng.choice(paths), rng.choice(paths))
                )
                _assert_maps_agree(g, p, r * gen * s)

    def test_element_over_another_graph_rejected(self):
        for g, p, a in (
            (G2, pair(G2, ["w"]), alg.vertex(G3, "w")),
            (G2, pair(G2, ["w"]), alg.vertex(G1, "v")),
            (G2, pair(G2, []), alg.edge(G6, "f")),
        ):
            with pytest.raises(InputError):
                idl.quotient_map(g, p, a)
            with pytest.raises(InputError):
                idl.contains(g, p, a)


class TestContains:
    def test_pinned(self):
        vH = alg.vertex(G2, "v") - alg.edge(G2, "c") * alg.star(alg.edge(G2, "c"))
        assert idl.contains(G2, pair(G2, ["w"], ["v"]), vH)
        assert not idl.contains(G2, pair(G2, ["w"]), vH)
        assert idl.contains(G2, pair(G2, ["w"]), alg.zero(G2))

    def test_generators_inside_vertices_outside(self):
        for g in CATALOG.values():
            for p in idl.enumerate_admissible_pairs(g):
                for gen in idl.ideal_generators(g, p):
                    assert idl.contains(g, p, gen)
                for v in sorted(g.vertices - p.H):
                    assert not idl.contains(g, p, alg.vertex(g, v))

    def test_two_sided_closure(self):
        rng = random.Random(15)
        paths3 = list(enumerate_paths(G3, 3, 2))
        p = pair(G3, ["w"], ["u"])
        gens = idl.ideal_generators(G3, p)
        for _ in range(25):
            a = rng.choice(gens)
            x = rng.choice(paths3)
            y = rng.choice([z for z in paths3 if z.end == x.end])
            r = alg.monomial(G3, x, y, coeff=rng.choice([1, -2, 3]))
            assert idl.contains(G3, p, a + rng.choice(gens))
            assert idl.contains(G3, p, r * a)
            assert idl.contains(G3, p, a * r)


class TestQuotientDirectedness:
    def test_finite_lemma_restatement(self):
        rng = random.Random(16)
        graphs = list(CATALOG.values()) + [random_graph(rng) for _ in range(40)]
        for g in graphs:
            for p in idl.enumerate_admissible_pairs(g):
                qg = idl.quotient_graph(g, p)
                lhs = is_downwards_directed(qg.graph, qg.graph.vertices)[0]
                comp = g.vertices - p.H
                missing = breaking_vertices(g, p.H) - p.S
                rhs = is_downwards_directed(g, comp)[0] and (
                    not missing
                    or (
                        len(missing) == 1
                        and root(g, [next(iter(missing))]) == comp
                    )
                )
                assert lhs == rhs, (g.edges, g.bundles, p.label())


class TestLaurent:
    def test_normalization(self):
        f = idl.laurent({-2: 3, -1: -3})
        # lowest term scaled to 1 x^0
        assert f.coeffs == ((0, 1), (1, -1))

    def test_unit_monomial(self):
        assert idl.laurent({5: 7}).is_unit_monomial
        assert not idl.laurent_irreducible(idl.laurent({5: 7}))

    def test_degree_one(self):
        assert idl.laurent_irreducible(idl.laurent({0: -1, 1: 1}))

    def test_quadratics(self):
        assert idl.laurent_irreducible(idl.laurent({0: 1, 2: 1}))  # x^2 + 1
        assert not idl.laurent_irreducible(idl.laurent({0: -1, 2: 1}))  # (x-1)(x+1)
        assert idl.laurent_irreducible(idl.laurent({0: -2, 2: 1}))  # x^2 - 2

    def test_fractional_coefficients(self):
        # the lowest term is scaled to 1, so the others carry denominators
        assert idl.laurent({0: 3, 2: -1}).coeffs == ((0, 1), (2, Fraction(-1, 3)))
        assert idl.laurent_irreducible(idl.laurent({0: 3, 2: -1}))  # x^2 - 3
        assert not idl.laurent_irreducible(idl.laurent({0: 4, 2: -9}))  # (2-3x)(2+3x)
        assert not idl.laurent_irreducible(idl.laurent({0: 6, 1: 5, 2: 1}))  # (x+2)(x+3)
        # denominators 3 and 4: the integer scale is their lcm, 12
        assert not idl.laurent_irreducible(idl.laurent({0: -12, 1: 16, 2: 3}))  # (3x-2)(x+6)
        assert not idl.laurent_irreducible(idl.laurent({0: -2, 1: 3, 2: -2, 3: 3}))  # (3x-2)(x^2+1)
        assert idl.laurent_irreducible(idl.laurent({0: 10, 3: 3}))  # 3x^3 + 10

    def test_cubics(self):
        assert idl.laurent_irreducible(idl.laurent({0: 2, 3: 1}))  # x^3 + 2
        assert not idl.laurent_irreducible(idl.laurent({0: 1, 1: 1, 2: 1, 3: 1}))

    def test_high_degree_needs_flag(self):
        f = idl.laurent({0: 1, 4: 1})
        with pytest.raises(InputError):
            idl.laurent_irreducible(f)


class TestDescriptors:
    def test_graded_descriptor_roundtrip(self):
        d = idl.GradedIdeal(pair(G2, ["w"], ["v"]))
        assert idl.validate_descriptor(G2, d) == d
        assert d.label() == "I({w},{v})"

    def test_nongraded_validation(self):
        (c,) = enumerate_cycles(G1)
        good = idl.NonGradedPrimitiveIdeal(
            pair(G1, []), c, idl.laurent({0: 1, 1: 1})
        )
        assert idl.validate_descriptor(G1, good) == good
        with pytest.raises(InputError):
            idl.validate_descriptor(
                G1,
                idl.NonGradedPrimitiveIdeal(pair(G1, []), c, idl.laurent({1: 1})),
            )

    def test_nongraded_requires_root_match(self):
        c3 = [c for c in enumerate_cycles(G3) if "v" in c.vertex_set][0]
        with pytest.raises(InputError):
            # wrong H: the complement of {} is not R(c^0)
            idl.validate_descriptor(
                G3,
                idl.NonGradedPrimitiveIdeal(
                    pair(G3, []), c3, idl.laurent({0: 1, 1: 1})
                ),
            )
