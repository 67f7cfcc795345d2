import itertools
import json
import random
import re
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from leavitt import cli, graphs
from leavitt import ideals as idl
from leavitt.catalog import CATALOG, G1, G2, G3, G4, G5, G6, random_graph
from leavitt.errors import InputError
from leavitt.graphio import emit_graph, parse_graph_document
from leavitt.graphs import (
    Graph,
    RationalTailSpec,
    _classify_cycle,
    _closure,
    _cycles,
    _enumerate_cycles,
    _first_cycle,
    breaking_vertices,
    check_cycle,
    classify_cycle,
    cycle_exits,
    enumerate_cycles,
    enumerate_paths,
    exitless_cycle_vertices,
    has_condition_L,
    has_icsp,
    hereditary_saturated_closure,
    is_bundle_ref,
    is_downwards_directed,
    is_hereditary,
    is_saturated,
    make_cycle,
    make_path,
    rational_tail,
    root,
    tree,
    vertex_path,
)
import perpair
from smallgraphs import fan, three_vertex_graphs
from valueobjects import check_value_object

LINE = Graph(["a", "b"], edges={"x": ("a", "b")})
TWO_SINKS = Graph(["a", "b"])


def _bfs_reverse(g, V):
    # Independent oracle: plain reverse breadth-first search.
    seen = set(V)
    frontier = list(V)
    while frontier:
        v = frontier.pop()
        for u in g.vertex_list:
            if v in g.successors(u) and u not in seen:
                seen.add(u)
                frontier.append(u)
    return frozenset(seen)


def _bfs_forward(g, V):
    seen = set(V)
    frontier = list(V)
    while frontier:
        v = frontier.pop()
        for u in g.successors(v):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return frozenset(seen)


class TestRootAndTree:
    def test_root_g2(self):
        assert root(G2, ["w"]) == {"v", "w"} == _bfs_reverse(G2, ["w"])

    def test_root_empty(self):
        assert root(G2, []) == frozenset()

    def test_root_g3_paper(self):
        # R(v) = {u, v}
        assert root(G3, ["v"]) == {"u", "v"}

    def test_tree_g2(self):
        assert tree(G2, ["v"]) == {"v", "w"} == _bfs_forward(G2, ["v"])

    def test_tree_empty(self):
        assert tree(G1, []) == frozenset()

    def test_tree_g3(self):
        assert tree(G3, ["u"]) == {"u", "v", "w"}

    def test_unknown_vertex(self):
        with pytest.raises(InputError):
            root(G1, ["nope"])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_root_closure_operator(self, data):
        g = data.draw(st.sampled_from(sorted(CATALOG)), label="graph")
        g = CATALOG[g]
        V = data.draw(st.sets(st.sampled_from(g.vertex_list)), label="V")
        R = root(g, V)
        assert V <= R
        assert root(g, R) == R
        assert R == _bfs_reverse(g, V)
        W = data.draw(st.sets(st.sampled_from(g.vertex_list)), label="W")
        if V <= W:
            assert root(g, V) <= root(g, W)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_root_complement_hereditary_saturated(self, data):
        g = CATALOG[data.draw(st.sampled_from(sorted(CATALOG)))]
        V = data.draw(st.sets(st.sampled_from(g.vertex_list)))
        comp = g.vertices - root(g, V)
        assert is_hereditary(g, comp)[0]
        R = root(g, V)
        if all(
            any(g.tgt(e) in R for e in g.out_edge_ids(v))
            for v in V
            if g.is_regular(v)
        ):
            assert is_saturated(g, comp)[0]

    def test_root_complement_saturation_counterexample(self):
        # With V = {a} on the line a -> b, the complement {b} of the root is
        # hereditary but not saturated: the regular vertex a sends its only
        # edge into {b}.  Saturation of root complements needs V to return
        # into its root; cycle supports, sinks, emitters, and infinite-path
        # supports all do.
        comp = LINE.vertices - root(LINE, ["a"])
        assert comp == {"b"}
        assert is_hereditary(LINE, comp)[0]
        assert not is_saturated(LINE, comp)[0]


class TestHereditarySaturated:
    def test_g2_w_hereditary(self):
        assert is_hereditary(G2, ["w"]) == (True, None)

    def test_g3_v_hereditary(self):
        # v only reaches itself
        assert is_hereditary(G3, ["v"]) == (True, None)

    def test_full_set(self):
        for g in CATALOG.values():
            assert is_hereditary(g, g.vertices)[0]
            assert is_saturated(g, g.vertices)[0]

    def test_hereditary_witness(self):
        ok, witness = is_hereditary(G3, ["u"])
        assert not ok
        u, v = witness
        assert u == "u" and v in ("v", "w")

    def test_g3_w_saturated(self):
        assert is_saturated(G3, ["w"]) == (True, None)

    def test_line_not_saturated(self):
        assert is_saturated(LINE, ["b"]) == (False, "a")

    def test_closure_empty(self):
        assert hereditary_saturated_closure(G2, []) == frozenset()

    def test_closure_line(self):
        assert hereditary_saturated_closure(LINE, ["b"]) == {"a", "b"}

    def test_closure_g2_w(self):
        assert hereditary_saturated_closure(G2, ["w"]) == {"w"}

    def test_closure_monotone_idempotent(self):
        for g in CATALOG.values():
            for V in [[], g.vertex_list[:1], g.vertex_list]:
                H = hereditary_saturated_closure(g, V)
                assert set(V) <= H
                assert hereditary_saturated_closure(g, H) == H
                assert is_hereditary(g, H)[0] and is_saturated(g, H)[0]


class TestDownwardsDirected:
    def test_g2(self):
        assert is_downwards_directed(G2, ["v", "w"]) == (True, None)

    def test_two_sinks(self):
        ok, pair = is_downwards_directed(TWO_SINKS, ["a", "b"])
        assert not ok and pair == ("a", "b")

    def test_finite_meet_pattern(self):
        g = Graph(["a", "b", "c"], edges={"e1": ("a", "c"), "e2": ("b", "c")})
        assert is_downwards_directed(g, ["a", "b", "c"])[0]

    def test_matches_frozenset_route(self):
        # The bitmask route against the frozenset route it replaced, on every
        # 16th three-vertex graph and 80 seeded 7-vertex graphs, each with
        # seeded vertex subsets; the first unboundable pair must match too.
        rng = random.Random(22)
        graphs_ = list(itertools.islice(three_vertex_graphs(), 0, None, 16))
        graphs_ += [random_graph(rng, 7, 9, 2) for _ in range(80)]
        seen = Counter()
        for g in graphs_:
            for _ in range(3):
                V = [v for v in g.vertex_list if rng.random() < 0.7]
                got = is_downwards_directed(g, V)
                assert got == perpair.downwards_directed(g, V), (g.edges, g.bundles, V)
                seen[got[0], len(V) > 2] += 1
        assert min(seen.values()) > 50, seen

    def test_unknown_vertex(self):
        with pytest.raises(InputError, match="unknown vertex"):
            is_downwards_directed(G2, ["v", "x"])

    def test_icsp_constant_true(self):
        for g in CATALOG.values():
            ok, witness = has_icsp(g, g.vertices)
            assert ok and witness == g.vertices


class TestConditionL:
    def test_g1_fails(self):
        ok, witness = has_condition_L(G1, ["v"])
        assert not ok
        assert witness.steps == ("e",)

    def test_g2_holds(self):
        assert has_condition_L(G2, ["v", "w"]) == (True, None)

    def test_acyclic(self):
        assert has_condition_L(LINE, ["a", "b"]) == (True, None)

    def test_g4_holds(self):
        # the bundle's parallel copies are exits for each loop
        assert has_condition_L(G4, ["v"])[0]


class TestCycles:
    def test_g1(self):
        cycles = enumerate_cycles(G1)
        assert [str(c) for c in cycles] == ["e"]

    def test_g6(self):
        cycles = enumerate_cycles(G6)
        assert [str(c) for c in cycles] == ["fg"]

    def test_acyclic(self):
        assert enumerate_cycles(LINE) == []

    def test_bundle_sampling(self):
        assert [str(c) for c in enumerate_cycles(G4, 2)] == ["b[0]", "b[1]"]

    def test_canonical_rotation_unique(self):
        (c,) = enumerate_cycles(G6)
        assert c.base == "v"  # lexicographically least vertex
        assert c.rotate_to("w").canonical() == c

    def test_exits(self):
        (c,) = enumerate_cycles(G1)
        assert cycle_exits(G1, c) == []
        (c2,) = enumerate_cycles(G2)
        assert all(G2.tgt(r) == "w" for r in cycle_exits(G2, c2))
        (c4,) = enumerate_cycles(G4)
        assert ("b", 1) in cycle_exits(G4, c4)


def _check_cycle_oracle(g, c):
    """check_cycle as it was: rebuild the cycle with make_cycle and rotate
    it back to c's base."""
    if make_cycle(g, c.base, c.steps).rotate_to(c.base) != c:
        raise InputError("cycle vertices do not match its edges")
    return c


def _outcome(f, g, c):
    try:
        return f(g, c)
    except InputError as exc:
        return str(exc)


class TestCheckCycle:
    def test_matches_make_cycle_route(self):
        # Every rotation of every sample-2 cycle, and each of them broken in
        # one place: a vertex renamed, a step swapped, dropped or repeated,
        # the closing step removed, the base unknown.
        rng = random.Random(31)
        graphs_ = list(CATALOG.values()) + [random_graph(rng, 5, 9, 2) for _ in range(60)]
        outcomes = Counter()
        for g in graphs_:
            refs = sorted({r for v in g.vertex_list for r in g.out_refs(v, 2)}, key=str)
            for cyc in _cycles(g, 2):
                for v in cyc.sources:
                    c = cyc.rotate_to(v)
                    verts, steps = c.path.vertices, c.steps
                    i = rng.randrange(len(steps))
                    bogus = [
                        c,
                        (verts[:i] + (rng.choice(g.vertex_list),) + verts[i + 1:], steps),
                        (verts, steps[:i] + (rng.choice(refs),) + steps[i + 1:]),
                        (verts[:-1], steps[:-1]),
                        (verts + verts[1:], steps + steps),
                        (verts[:1], ()),
                        (("nowhere",) + verts[1:], steps),
                        (verts, steps[:i] + (("nobundle", 0),) + steps[i + 1:]),
                    ]
                    for b in bogus:
                        b = b if isinstance(b, graphs.Cycle) else graphs.Cycle(graphs.Path(*b))
                        want = _outcome(_check_cycle_oracle, g, b)
                        assert _outcome(check_cycle, g, b) == want, (g.edges, b)
                        outcomes[re.sub(r"'.*?'|\[.*?\]", "_", want) if want is not b else "ok"] += 1
        assert sorted(outcomes) == [
            "a cycle must be a nonempty closed path",
            "cycle edges must have pairwise distinct sources",
            "cycle vertices do not match its edges",
            "ok",
            "step _ starts at _, expected _",
            "unknown edge ref _",
            "unknown vertex id(s): _",
        ], outcomes


class TestClassifyCycle:
    def test_g1_exclusive_no_exit(self):
        (c,) = enumerate_cycles(G1)
        cls = classify_cycle(G1, c, ["v"])
        assert cls.kind == "exclusive"
        assert cls.exclusive and cls.no_exit_in_V and not cls.extreme_in_V

    def test_g2_exclusive(self):
        (c,) = enumerate_cycles(G2)
        assert classify_cycle(G2, c, ["v"]).kind == "exclusive"

    def test_g5_extreme(self):
        d = enumerate_cycles(G5)[0]
        cls = classify_cycle(G5, d, ["v"])
        assert cls.kind == "extreme_in_V"
        assert not cls.exclusive

    def test_bundle_cycle_not_exclusive(self):
        (c,) = enumerate_cycles(G4)
        assert not classify_cycle(G4, c, ["v"]).exclusive

    def test_exclusive_extreme_disjoint(self):
        for g in CATALOG.values():
            for c in enumerate_cycles(g, 2):
                cls = classify_cycle(g, c, g.vertices)
                assert not (cls.exclusive and cls.extreme_in_V)

    def test_sink_escape_still_exclusive(self):
        # an exit that never returns does not break exclusivity
        g = Graph(
            ["a", "b", "s"],
            edges={"c1": ("a", "b"), "c2": ("b", "a"), "x": ("a", "s")},
        )
        (c,) = enumerate_cycles(g)
        assert classify_cycle(g, c, g.vertices).kind == "exclusive"

    def test_neither(self):
        # a second cycle kills exclusivity, the sink escape kills extremeness
        g = Graph(
            ["a", "b", "s"],
            edges={
                "c1": ("a", "b"),
                "c2": ("b", "a"),
                "l": ("b", "b"),
                "x": ("a", "s"),
            },
        )
        c = [c for c in enumerate_cycles(g) if len(c) == 2][0]
        cls = classify_cycle(g, c, g.vertices)
        assert cls.kind == "neither" and cls.escape == "s"

    def test_foreign_cycle_rejected(self):
        (c,) = enumerate_cycles(G1)
        with pytest.raises(InputError):
            classify_cycle(G6, c, G6.vertices)

    def test_vertices_outside_v_rejected(self):
        (c,) = enumerate_cycles(G2)
        with pytest.raises(InputError):
            classify_cycle(G2, c, ["w"])


class TestBreakingVertices:
    def test_g2(self):
        assert breaking_vertices(G2, ["w"]) == {"v"}

    def test_g3(self):
        assert breaking_vertices(G3, ["w"]) == {"u"}

    def test_g4_empty(self):
        assert breaking_vertices(G4, []) == frozenset()

    def test_requires_hereditary_saturated(self):
        with pytest.raises(InputError):
            breaking_vertices(G3, ["u"])

    def test_subset_of_emitters(self):
        for g in CATALOG.values():
            for V in [frozenset(), g.vertices]:
                B = breaking_vertices(g, V)
                assert all(g.is_infinite_emitter(v) and v not in V for v in B)


class TestPathsAndSpecs:
    def test_make_path_validation(self):
        p = make_path(G3, "u", ["e", "c", "c"])
        assert p.start == "u" and p.end == "v" and len(p) == 3
        with pytest.raises(InputError):
            make_path(G3, "v", ["e"])  # e starts at u
        with pytest.raises(InputError):
            make_path(G3, "u", ["zzz"])

    def test_path_concat_slice(self):
        p = make_path(G3, "u", ["e", "c"])
        q = make_path(G3, "v", ["c"])
        pq = p.concat(q)
        assert len(pq) == 3 and pq.end == "v"
        assert pq.drop_first(1).start == "v"
        assert pq.drop_last(1) == p.concat(vertex_path("v")).drop_last(0).prefix(2)

    def test_cycle_arcs(self):
        c = make_cycle(G6, "v", ["f", "g"])
        assert str(c.arc("v", "w")) == "f"
        assert str(c.arc("w", "v")) == "g"
        assert c.arc("v", "v").is_vertex
        assert len(c.power(3)) == 6

    def test_cycle_requires_distinct_sources(self):
        g = Graph(["a", "b"], edges={"p": ("a", "b"), "q": ("b", "a"),
                                     "r": ("a", "b"), "s": ("b", "a")})
        with pytest.raises(InputError):
            make_cycle(g, "a", ["p", "q", "r", "s"])

    def test_rational_tail_normalization(self):
        c = make_cycle(G1, "v", ["e"])
        prefix = make_path(G1, "v", ["e", "e"])
        spec = rational_tail(G1, prefix, c)
        # trailing cycle edges strip away entirely
        assert spec.prefix.is_vertex
        assert spec.cycle.base == "v"

    def test_rational_tail_mixed(self):
        c3 = [c for c in enumerate_cycles(G3) if "v" in c.vertex_set][0]
        prefix = make_path(G3, "u", ["e", "c"])
        spec = rational_tail(G3, prefix, c3)
        assert str(spec.prefix) == "e"  # the loop edge strips, the entry stays

    def test_enumerate_paths_window(self):
        paths = list(enumerate_paths(G2, 2, 2))
        strs = {str(p) for p in paths}
        assert {"v", "w", "c", "b[0]", "b[1]", "cc"} <= strs
        assert "b[2]" not in strs
        assert all(len(p) <= 2 for p in paths)


# The frozen-dataclass Path that graphs.Path replaced: its decorator,
# docstring and fields verbatim, without the methods, which equality,
# hashing and repr do not use.  The oracle for the slotted Path.
@dataclass(frozen=True)
class Path:
    """A finite path: the vertex sequence plus the edge refs between them.

    A single-vertex path has no steps.  ``vertices`` always has one more
    entry than ``steps``.
    """

    vertices: tuple
    steps: tuple


class TestValueObjects:
    def test_path_contract(self):
        p = make_path(G3, "u", ["e", "c"])
        check_value_object(
            graphs.Path,
            (p.vertices, p.steps),
            (("u", "v", "w"), ("e", ("b", 0))),
            "Path(vertices=('u', 'v', 'v'), steps=('e', 'c'))",
            strangers=[Path(p.vertices, p.steps), (p.vertices, p.steps)],
        )

    def test_rational_tail_spec_contract(self):
        c3 = make_cycle(G3, "v", ["c"])
        spec = rational_tail(G3, make_path(G3, "u", ["e"]), c3)
        check_value_object(
            RationalTailSpec,
            (spec.prefix, spec.cycle),
            (vertex_path("v"), make_cycle(G1, "v", ["e"])),
            "RationalTailSpec(prefix=Path(vertices=('u', 'v'), steps=('e',)), "
            "cycle=Cycle(path=Path(vertices=('v', 'v'), steps=('c',))))",
            strangers=[(spec.prefix, spec.cycle)],
        )

    def test_path_agrees_with_the_dataclass(self):
        rng = random.Random(17)
        paths = [p for g in CATALOG.values() for p in enumerate_paths(g, 4, 2)]
        equal = 0
        for _ in range(3000):
            a = rng.choice(paths)
            b = rng.choice(paths) if rng.random() < 0.7 else graphs.Path(a.vertices, a.steps)
            old_a, old_b = Path(a.vertices, a.steps), Path(b.vertices, b.steps)
            assert (a == b) == (old_a == old_b)
            assert (hash(a) == hash(b)) == (hash(old_a) == hash(old_b))
            assert hash(a) == hash(old_a) and repr(a) == repr(old_a)
            equal += a == b
        assert 0 < equal < 3000


class TestGraphValidation:
    def test_duplicate_ids(self):
        with pytest.raises(InputError):
            Graph(["a", "a"])
        with pytest.raises(InputError):
            Graph(["a"], edges={"a": ("a", "a")})

    def test_unknown_endpoints(self):
        with pytest.raises(InputError):
            Graph(["a"], edges={"e": ("a", "zzz")})

    def test_vertex_kinds(self):
        assert G2.is_infinite_emitter("v")
        assert G2.is_sink("w")
        assert G1.is_regular("v")
        assert not G4.is_regular("v")


def _oracle_graphs():
    """The catalog plus 300 seeded random graphs, each built afresh."""
    rng = random.Random(2024)
    graphs = [Graph(g.vertices, g.edges, g.bundles) for g in CATALOG.values()]
    return graphs + [random_graph(rng) for _ in range(300)]


class TestAnalysisCache:
    """Every derived structure a graph caches equals the uncached
    computation it replaces."""

    def test_cycles_match_enumeration(self):
        for g in _oracle_graphs():
            for s in (1, 2):
                assert enumerate_cycles(g, s) == _enumerate_cycles(g, s)
                assert enumerate_cycles(g, s) == _enumerate_cycles(g, s)  # a hit
                # built directly; make_cycle validates and rotates as before
                for c in _enumerate_cycles(g, s):
                    assert make_cycle(g, c.base, c.steps) == c
            if not g.bundles:  # every sample gives the same cycles
                assert _cycles(g, 2) is _cycles(g, 1)

    def test_adjacency_matches_edge_tables(self):
        for g in _oracle_graphs():
            for v in g.vertex_list:
                out = {g.tgt(r) for r in g.out_refs(v)}
                into = {g.src(r) for r in g.in_refs(v)}
                assert g.successors(v) == out and g.predecessors(v) == into
                assert g.successors(v) is g.successors(v)  # built once
                assert isinstance(g.predecessors(v), frozenset)
            copy = Graph(g.vertices, g.edges, g.bundles)
            assert g == g and g == copy and copy == g

    def test_returned_cycle_list_is_a_copy(self):
        g = Graph(G6.vertices, G6.edges)
        cycles = enumerate_cycles(g)
        cycles.append(cycles[0])
        cycles.reverse()
        assert enumerate_cycles(g) == _enumerate_cycles(g, 1)
        assert len(enumerate_cycles(g)) == 1

    def test_closures_match_search(self):
        rng = random.Random(7)
        for g in _oracle_graphs():
            for v in g.vertex_list:
                assert root(g, [v]) == _closure(g.predecessors, [v])
                assert tree(g, [v]) == _closure(g.successors, [v])
            for _ in range(3):
                V = [v for v in g.vertex_list if rng.random() < 0.5]
                assert root(g, V) == _closure(g.predecessors, V)
                assert tree(g, V) == _closure(g.successors, V)
                # is_hereditary reports the least escape of the least member
                escapes = [
                    (u, v)
                    for u in sorted(V)
                    for v in sorted(_closure(g.successors, [u]) - set(V))
                ]
                want = (False, escapes[0]) if escapes else (True, None)
                assert is_hereditary(g, V) == want
                # is_saturated reports the first regular vertex it must absorb
                absorbed = [
                    v
                    for v in g.vertex_list
                    if v not in V
                    and g.is_regular(v)
                    and all(g.tgt(e) in V for e in g.out_edge_ids(v))
                ]
                want = (False, absorbed[0]) if absorbed else (True, None)
                assert is_saturated(g, V) == want

    def test_classify_cycle_matches_scans(self):
        # Oracles: exclusivity by scanning every other cycle, extremeness by
        # one forward search inside V from each vertex the cycle reaches.
        def exclusive(c, cycles):
            if any(is_bundle_ref(s) for s in c.steps):
                return False
            return not any(d != c and d.vertex_set & c.vertex_set for d in cycles)

        def extreme(g, c, V):
            if not any(g.tgt(ref) in V for ref in cycle_exits(g, c)):
                return False, None
            succ = lambda v: {u for u in g.successors(v) if u in V}
            for w in sorted(_closure(succ, c.vertex_set)):
                if not _closure(succ, [w]) & c.vertex_set:
                    return False, w
            return True, None

        rng = random.Random(5)
        cases = 0
        for g in _oracle_graphs():
            cycles = _enumerate_cycles(g, 1)
            for c in enumerate_cycles(g, 2):
                want_exclusive = exclusive(c, cycles)
                some = c.vertex_set | {v for v in g.vertex_list if rng.random() < 0.5}
                for V in (g.vertices, some):
                    cls = classify_cycle(g, c, V)
                    assert cls.exclusive == want_exclusive
                    assert (cls.extreme_in_V, cls.escape) == extreme(g, c, V)
                    cases += 1
        assert cases > 1000, cases

    def test_reachability_reads_only_the_lattice(self, monkeypatch, tmp_path, capsys):
        # Once the lattice of a graph is built, no reachability predicate
        # and no pair listing searches the graph again.
        def refuse(*args):
            raise AssertionError("a reachability search ran")

        def answers(g):
            return [
                (tree(g, [v]), root(g, [v]), is_hereditary(g, [v]), is_saturated(g, [v]),
                 breaking_vertices(g, hereditary_saturated_closure(g, [v])))
                for v in g.vertex_list
            ]

        graphs_ = [Graph(g.vertices, g.edges, g.bundles) for g in CATALOG.values()]
        graphs_.append(fan(4))
        rng = random.Random(17)
        graphs_ += [random_graph(rng, 7, 12, 3) for _ in range(20)]
        docs = [parse_graph_document(emit_graph(g)) for g in graphs_]
        want = [answers(g) for g in graphs_]
        counts = [len(idl.enumerate_admissible_pairs(g)) for g in graphs_]
        for doc in docs:
            graphs._lattice(doc.graph)
        monkeypatch.setattr(graphs, "_closure", refuse)
        path = tmp_path / "g.graph"
        path.write_text("vertex v\n")
        for doc, rows, count in zip(docs, want, counts):
            assert answers(doc.graph) == rows
            monkeypatch.setattr(cli, "parse_graph_document", lambda text, doc=doc: doc)
            assert cli.main(["--json", "pairs", str(path)]) == 0
            assert json.loads(capsys.readouterr().out)["count"] == count

    def test_closure_still_validates(self):
        g = Graph(G3.vertices, G3.edges, G3.bundles)
        assert root(g, ["w"]) == {"u", "w"}
        with pytest.raises(InputError):
            root(g, ["w", "nope"])
        with pytest.raises(InputError):
            tree(g, ["nope"])


# The enumeration routes that the length-ordered search and the SCC criteria
# replaced, kept verbatim (less the per-graph cache) as their oracle.


def _cycle_counts(g):
    """The number of sample-1 cycles through each vertex."""
    return Counter(v for c in _cycles(g, 1) for v in c.sources)


def enumerated_has_condition_L(g, V):
    V = g.check_vertices(V)
    for c in _cycles(g, 1):
        if not c.vertex_set <= V:
            continue
        if not any(g.tgt(ref) in V for ref in cycle_exits(g, c)):
            return False, c
    return True, None


def enumerated_exitless_cycle_vertices(g):
    out = {}
    for c in _cycles(g, 1):
        if not cycle_exits(g, c):
            for v in c.sources:
                out[v] = c
    return out


class TestCycleSearchOracle:
    """Every predicate that lists no cycles agrees with the enumeration on
    all 5,120 three-vertex graphs and 300 seeded seven-vertex graphs."""

    @staticmethod
    def sweep():
        rng = random.Random(123)
        return itertools.chain(
            three_vertex_graphs(), (random_graph(rng, 7, 14, 2) for _ in range(300))
        )

    def test_first_cycle_is_least_in_sort_key_order(self):
        seen = Counter()
        for g in self.sweep():
            for s in (1, 2):
                cycles = _cycles(g, s)
                for v in g.vertex_list:
                    thru = [c for c in cycles if v in c.vertex_set]
                    assert _first_cycle(g, frozenset([v]), s) == (thru[0] if thru else None)
                    seen["tied"] += len(thru) > 1 and len(thru[0]) == len(thru[1])
                for c in cycles:
                    want = next(
                        (d for d in cycles if d != c and d.vertex_set & c.vertex_set), None
                    )
                    assert _first_cycle(g, c.vertex_set, s, exclude=c) == want
                    seen["crossing"] += want is not None
                    seen["alone"] += want is None
        assert min(seen.values()) > 100, seen

    def test_first_cycle_is_remembered(self):
        g = Graph(G5.vertices, G5.edges)
        c = _first_cycle(g, frozenset("v"), 2)
        assert str(c) == "d" and _first_cycle(g, frozenset("v"), 2) is c
        assert str(_first_cycle(g, frozenset("v"), 2, exclude=c)) == "e"
        assert _first_cycle(LINE, frozenset("ab"), 2) is None

    def test_exclusivity_matches_cycle_counts(self):
        seen = Counter()
        for g in self.sweep():
            counts = _cycle_counts(g)
            for c in _cycles(g, 2):
                want = not any(is_bundle_ref(s) for s in c.steps) and all(
                    counts[v] == 1 for v in c.sources
                )
                assert _classify_cycle(g, c, g.vertices).exclusive == want
                seen[want] += 1
        assert seen[True] > 100 and seen[False] > 100, seen

    def test_condition_L_and_exitless_vertices_match_enumeration(self):
        rng = random.Random(9)
        seen = Counter()
        for g in self.sweep():
            if len(g.vertices) <= 3:
                subsets = [
                    V for n in range(4) for V in itertools.combinations(g.vertex_list, n)
                ]
            else:
                subsets = [g.vertices] + [
                    [v for v in g.vertex_list if rng.random() < 0.6] for _ in range(3)
                ]
            for V in subsets:
                want = enumerated_has_condition_L(g, V)
                assert has_condition_L(g, V) == want
                seen[want[0]] += 1
            want = enumerated_exitless_cycle_vertices(g)
            got = exitless_cycle_vertices(g)
            assert got == want and list(got) == list(want)
            seen["exitless"] += bool(want)
        assert min(seen.values()) > 100, seen
