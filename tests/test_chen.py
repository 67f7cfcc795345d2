import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from leavitt import algebra as alg
from leavitt import chen, graphs, verification
from leavitt.branching import ModuleVector, Truncation, act, check_axioms
from leavitt.catalog import CATALOG, G1, G2, G3, G4, G5, G6
from leavitt.errors import InputError, InternalCheckError, WindowOverflow
from leavitt.graphs import (
    Graph,
    RationalTailSpec,
    enumerate_cycles,
    enumerate_paths,
    is_bundle_ref,
    make_path,
    rational_tail,
    root,
    vertex_path,
)
from leavitt.ideals import GradedIdeal, NonGradedPrimitiveIdeal, admissible_pair
from leavitt.verification import catalog_modules
import systemsoracle
from valueobjects import check_value_object

T = Truncation(5, 2)

C1 = enumerate_cycles(G1)[0]
C3 = [c for c in enumerate_cycles(G3) if "v" in c.vertex_set][0]
C6 = enumerate_cycles(G6)[0]


class TestRed:
    def test_full_strip(self):
        e = make_path(G1, "v", ["e"])
        x = chen.red(G1, C1, "v", e, e)
        assert x.p.is_vertex and x.q.is_vertex

    def test_fixed_point(self):
        ee = make_path(G1, "v", ["e", "e"])
        x = chen.red(G1, C1, "v", ee, vertex_path("v"))
        assert x == chen.red(G1, C1, "v", x.p, x.q)

    def test_two_cycle_strip(self):
        f = make_path(G6, "v", ["f"])
        x = chen.red(G6, C6, "v", f, f)
        assert x.p.is_vertex and x.p.start == "v"

    def test_degree_preserved(self):
        for k in range(3):
            q = C3.rotate_to("v").walk_from("v", k)
            for p in enumerate_paths(G3, 4, 2, end=q.end):
                x = chen.red(G3, C3, "v", p, q)
                assert x.degree == len(p) - len(q)

    def test_q_escaping_cycle_rejected(self):
        e = make_path(G3, "u", ["e"])
        with pytest.raises(InputError):
            chen.red(G3, C3, "v", e, e)  # q = e is not inside the loop

    def test_range_mismatch_rejected(self):
        with pytest.raises(InputError):
            chen.red(G3, C3, "v", vertex_path("u"), vertex_path("v"))


# The two position loops of IrrationalRule before they shared one locator:
# the oracles of edge_at and vertex_at.
def _loop_edge_at(rule, i):
    nc, nd = len(rule.c), len(rule.d)
    k = 1
    while i > k * (nc + nd):
        i -= k * (nc + nd)
        k += 1
    if i <= k * nc:
        return rule.c.steps[(i - 1) % nc]
    j = i - k * nc
    return rule.d.steps[(j - 1) % nd]


def _loop_vertex_at(rule, m):
    nc, nd = len(rule.c), len(rule.d)
    i = m + 1
    k = 1
    while i > k * (nc + nd):
        i -= k * (nc + nd)
        k += 1
    if i <= k * nc:
        return rule.c.sources[(i - 1) % nc]
    j = i - k * nc
    return rule.d.sources[(j - 1) % nd]


def _three_rules():
    """Irrational rules on G4, G5 and on two cycles of lengths 2 and 3
    through p."""
    g = Graph(["p", "x", "y", "z"], edges={
        "a1": ("p", "x"), "a2": ("x", "p"),
        "b1": ("p", "y"), "b2": ("y", "z"), "b3": ("z", "p"),
    })
    return [chen.irrational_rule(h, *enumerate_cycles(h, 2)[:2]) for h in (G4, G5, g)]


class TestIrrationalRule:
    def test_word_expansion(self):
        c0, c1 = enumerate_cycles(G4, 2)
        rule = chen.irrational_rule(G4, c0, c1)
        word = [rule.edge_at(i) for i in range(1, 13)]
        b0, b1 = ("b", 0), ("b", 1)
        assert word == [b0, b1, b0, b0, b1, b1, b0, b0, b0, b1, b1, b1]

    def test_g5_word(self):
        d, e = enumerate_cycles(G5)
        rule = chen.irrational_rule(G5, d, e)
        word = [rule.edge_at(i) for i in range(1, 7)]
        assert word == ["d", "e", "d", "d", "e", "e"]

    def test_locator_agrees_with_position_loops(self):
        rules = _three_rules()
        for rule in rules:
            for m in range(301):
                assert rule.vertex_at(m) == _loop_vertex_at(rule, m)
                if m >= 1:
                    assert rule.edge_at(m) == _loop_edge_at(rule, m)
        assert [rules[2].vertex_at(m) for m in range(8)] == list("pxpyzpxp")

    def test_edge_word_agrees_with_locator(self):
        for rule in _three_rules():
            word = rule.edge_word()
            assert [next(word) for _ in range(3000)] == [
                rule.edge_at(i) for i in range(1, 3001)
            ]

    def test_system_reads_the_word_without_the_locator(self, monkeypatch):
        # The system's cache follows one pass of the word, so reaching a far
        # position is linear; the locator (a walk from position 1) is unused.
        c0, c1 = enumerate_cycles(G4, 2)
        rule = chen.irrational_rule(G4, c0, c1)
        expected = {i: rule.edge_at(i) for i in (1, 2, 39999, 40000)}

        def no_locate(self, i):
            raise AssertionError("the locator walked the word")

        monkeypatch.setattr(chen.IrrationalRule, "_locate", no_locate)
        system = chen.IrrationalTailSystem(G4, rule)
        assert {i: system._edge_at(i) for i in (40000, 39999, 1, 2)} == expected
        with pytest.raises(InputError):
            system._edge_at(0)

    def test_validation(self):
        with pytest.raises(InputError):
            chen.irrational_rule(G4, enumerate_cycles(G4)[0], enumerate_cycles(G4)[0])
        with pytest.raises(InputError):
            chen.irrational_rule(G6, C6, C1)

    def test_valpha_requires_the_least_shared_pivot(self):
        # two 2-cycles through both v and w: the constructor pivots at v
        g = Graph(["v", "w"], edges={"f": ("v", "w"), "g": ("w", "v"), "h": ("v", "w")})
        c, d = enumerate_cycles(g)
        rule = chen.irrational_rule(g, c, d)
        assert rule.pivot == "v"
        assert chen.valpha_module(g, rule).tail == rule
        at_w = chen.IrrationalRule(rule.c.rotate_to("w"), rule.d.rotate_to("w"))
        with pytest.raises(InputError, match="not in canonical form"):
            chen.valpha_module(g, at_w)
        with pytest.raises(InputError):
            chen.valpha_module(g, chen.IrrationalRule(rule.c, rule.c))


class TestDescriptors:
    def test_nc_requires_exclusive(self):
        d5 = enumerate_cycles(G5)[0]
        with pytest.raises(InputError):
            chen.nc_module(G5, d5, "v")

    def test_nc_requires_vertex_on_cycle(self):
        with pytest.raises(InputError):
            chen.nc_module(G3, C3, "u")

    def test_sink_requires_sink(self):
        with pytest.raises(InputError):
            chen.sink_module(G2, "v")

    def test_unknown_vertex_is_an_input_error(self):
        for build in (chen.sink_module, chen.inf_emitter_module, chen.emitter_subtype):
            with pytest.raises(InputError, match=r"unknown vertex id\(s\): \['zz'\]"):
                build(G3, "zz")

    def test_emitter_subtypes(self):
        assert chen.inf_emitter_module(G4, "v").subtype == "infinite"
        assert chen.inf_emitter_module(G2, "v").subtype == "in_B_H"
        # u's single ordinary edge leaves R(u) = {u}, so no returns at all
        assert chen.inf_emitter_module(G3, "u").subtype == "empty"

    def test_emitter_empty_subtype(self):
        from leavitt.graphs import Graph

        g = Graph(["a", "b"], bundles={"b0": ("a", "b")})
        assert chen.inf_emitter_module(g, "a").subtype == "empty"

    def test_subtype_matches_breaking_membership(self):
        from leavitt.graphs import breaking_vertices

        for g in (G2, G3, G4):
            for v in g.vertex_list:
                if not g.is_infinite_emitter(v):
                    continue
                d = chen.inf_emitter_module(g, v)
                H = g.vertices - root(g, [v])
                assert (d.subtype == "in_B_H") == (v in breaking_vertices(g, H))

    def test_rational_spec_must_be_canonical(self):
        bad = chen.RationalTailSpec(make_path(G1, "v", ["e"]), C1)
        with pytest.raises(InputError):
            chen.valpha_module(G1, bad)

    def test_rational_prefix_checked_against_graph(self):
        unknown_edge = chen.RationalTailSpec(graphs.Path(("v", "v"), ("zzz",)), C1)
        wrong_vertices = chen.RationalTailSpec(graphs.Path(("w", "v"), ("e",)), C3)
        for g, tail in [(G1, unknown_edge), (G3, wrong_vertices)]:
            with pytest.raises(InputError):
                chen.valpha_module(g, tail)
            with pytest.raises(InputError):
                chen.annihilator(g, chen.VAlphaModule(tail))

    def test_non_descriptor_rejected(self):
        for bad in (object(), "sink:w", None, chen.SinkModule):
            for call in (chen.validate_module, chen.build_module, chen.annihilator):
                with pytest.raises(InputError, match="not a module descriptor"):
                    call(G2, bad)

    def test_emitter_and_sink_descriptors_stay_apart(self):
        # an emitter descriptor shares the sink's system, never its validation
        assert chen.SinkModule("v") != chen.InfEmitterModule("v", "in_B_H")
        assert chen.validate_module(G2, chen.InfEmitterModule("v", "in_B_H")) == (
            chen.InfEmitterModule("v", "in_B_H")
        )
        for bad in (chen.SinkModule("v"), chen.InfEmitterModule("w", "empty")):
            with pytest.raises(InputError):
                chen.validate_module(G2, bad)
        sink, emitter = chen.sink_module(G2, "w"), chen.inf_emitter_module(G2, "v")
        assert type(chen.build_module(G2, sink)) is type(chen.build_module(G2, emitter))
        assert (sink.vertex_support, emitter.vertex_support) == ({"w"}, {"v"})

    def test_cycle_vertices_must_match_edges(self):
        bogus = graphs.Cycle(graphs.Path(("v", "v", "v"), ("f", "g")))
        for call in (
            lambda: graphs.check_cycle(G6, bogus),
            lambda: graphs.classify_cycle(G6, bogus, G6.vertices),
            lambda: chen.nc_module(G6, bogus, "v"),
        ):
            with pytest.raises(InputError, match="cycle vertices do not match"):
                call()


class TestNcSystems:
    def test_g1_basis_one_per_degree(self):
        sys = chen.build_module(G1, chen.nc_module(G1, C1, "v"))
        basis = list(sys.enumerate(Truncation(3, 1)))
        degrees = sorted(sys.degree(x) for x in basis)
        assert degrees == list(range(-3, 4))

    def test_axiom_report_green(self):
        for g, c, v in [(G1, C1, "v"), (G3, C3, "v"), (G6, C6, "v"), (G6, C6, "w")]:
            sys = chen.build_module(g, chen.nc_module(g, c, v))
            rep = check_axioms(sys, T)
            assert rep.axioms_1_to_4 and rep.perfect and rep.saturated and rep.graded

    def test_cycle_edge_fiber_equals_source_fiber(self):
        sys = chen.build_module(G3, chen.nc_module(G3, C3, "v"))
        for x in sys.enumerate(T):
            assert sys.member_edge(x, "c") == sys.member_vertex(x, "v")

    def test_ghost_action_identities(self):
        for g, c in [(G1, C1), (G3, C3), (G6, C6)]:
            rep = chen.ghost_action_check(g, chen.nc_module(g, c, "v"), Truncation(4, 2))
            assert rep.passed and rep.checked > 0

    def test_basepoint_partition(self):
        # windowed bases over the two basepoints of the 2-cycle are disjoint
        # and jointly cover the both-basepoints pair set
        t = Truncation(4, 1)
        parts = {}
        for v in ("v", "w"):
            sys = chen.build_module(G6, chen.nc_module(G6, C6, v))
            parts[v] = {(x.p, x.q) for x in sys.enumerate(t)}
        assert not (parts["v"] & parts["w"])


def _per_anchor_window(sys, t):
    """The window of an N_c or tail system, one enumerate_paths call per
    anchor: the route the systems' shared path lists must reproduce."""
    g, n, s = sys.graph, t.max_path_length, t.bundle_sample
    if isinstance(sys, chen.NcBranchingSystem):
        for k in range(n + 1):
            q = sys.cycle.rotate_to(sys.v).walk_from(sys.v, k)
            for p in enumerate_paths(g, n, s, end=q.end):
                if not (p.steps and q.steps and p.steps[-1] == q.steps[-1]):
                    yield chen.ReducedPair(p, q)
    elif isinstance(sys, chen.RationalTailSystem):
        for w in sorted(sys.cycle.vertex_set):
            cyc_w = sys.cycle.rotate_to(w)
            for p in enumerate_paths(g, n, s, end=w):
                if not (p.steps and p.steps[-1] == cyc_w.edge_into(w)):
                    yield RationalTailSpec(p, cyc_w)
    else:
        for m in range(n + 1):
            for q in enumerate_paths(g, n, s, end=sys.rule.vertex_at(m)):
                if not (m >= 1 and q.steps and q.steps[-1] == sys.rule.edge_at(m)):
                    yield chen.TailElement(q, m)


class TestWindowOrder:
    @pytest.mark.parametrize("t", [Truncation(7, 3), Truncation(5, 2)])
    def test_shared_paths_keep_the_per_anchor_order(self, t):
        kinds = (chen.NcBranchingSystem, chen.RationalTailSystem, chen.IrrationalTailSystem)
        seen = set()
        for name, g, d in catalog_modules(CATALOG):
            sys = chen.build_module(g, d)
            if isinstance(sys, kinds):
                seen.add(type(sys))
                assert list(sys.enumerate(t)) == list(_per_anchor_window(sys, t)), d
            if isinstance(d, chen.NcModule):
                q_at = d.cycle.rotate_to(d.v)
                want = [
                    (p, q)
                    for q in (q_at.walk_from(d.v, k) for k in range(t.max_path_length + 1))
                    for p in enumerate_paths(g, t.max_path_length, t.bundle_sample, end=q.end)
                ]
                assert list(chen._windowed_pairs(g, d, t)) == want, d
        assert seen == set(kinds)


class TestBasisValues:
    P = make_path(G6, "v", ["f"])
    Q = make_path(G6, "v", ["f", "g", "f"])

    def test_reduced_pair(self):
        p, q = self.P, self.Q
        check_value_object(
            chen.ReducedPair,
            (p, q),
            (vertex_path("w"), vertex_path("v")),
            "ReducedPair(p=Path(vertices=('v', 'w'), steps=('f',)), "
            "q=Path(vertices=('v', 'w', 'v', 'w'), steps=('f', 'g', 'f')))",
            strangers=[alg.Monomial(p, q), chen.NaivePair(p, q)],
        )

    def test_naive_pair(self):
        p, q = self.P, self.Q
        check_value_object(
            chen.NaivePair,
            (p, q),
            (vertex_path("w"), vertex_path("v")),
            "NaivePair(p=Path(vertices=('v', 'w'), steps=('f',)), "
            "q=Path(vertices=('v', 'w', 'v', 'w'), steps=('f', 'g', 'f')))",
            strangers=[alg.Monomial(p, q), chen.ReducedPair(p, q)],
        )

    def test_tail_element(self):
        q = make_path(G4, "v", [("b", 2)])
        check_value_object(
            chen.TailElement,
            (q, 3),
            (vertex_path("v"), 4),
            "TailElement(q=Path(vertices=('v', 'v'), steps=(('b', 2),)), m=3)",
            strangers=[chen.ReducedPair(q, vertex_path("v")), (q, 3)],
        )


def _fits_genexpr(p, t):
    """chen._fits as a generator over the steps, verbatim from before it
    became a plain loop: the oracle for the window test."""
    return len(p) <= t.max_path_length and all(
        not is_bundle_ref(s) or s[1] < t.bundle_sample for s in p.steps
    )


class TestWindowTest:
    @pytest.mark.parametrize("t", [Truncation(4, 1), Truncation(4, 2), Truncation(7, 3)])
    def test_fits_matches_the_genexpr(self, t):
        inside = outside = 0
        for g in CATALOG.values():
            # one step longer and one bundle index further than the window
            for p in enumerate_paths(g, t.max_path_length + 1, t.bundle_sample + 1):
                fits = chen._fits(p, t)
                assert fits == _fits_genexpr(p, t), p
                inside += fits
                outside += not fits
        assert inside and outside
        last = ("b", t.bundle_sample - 1)
        assert chen._fits(make_path(G4, "v", [last] * t.max_path_length), t)
        assert not chen._fits(make_path(G4, "v", [last, ("b", t.bundle_sample)]), t)
        assert not chen._fits(make_path(G4, "v", [last] * (t.max_path_length + 1)), t)


class TestAnnihilators:
    def test_nc_g3_paper_value(self):
        d = chen.nc_module(G3, C3, "v")
        assert chen.annihilator(G3, d) == GradedIdeal(
            admissible_pair(G3, ["w"], ["u"])
        )

    def test_emitter_g4_zero(self):
        d = chen.inf_emitter_module(G4, "v")
        assert chen.annihilator(G4, d) == GradedIdeal(admissible_pair(G4, []))

    def test_valpha_g4_zero(self):
        c0, c1 = enumerate_cycles(G4, 2)
        d = chen.valpha_module(G4, chen.irrational_rule(G4, c0, c1))
        assert chen.annihilator(G4, d) == GradedIdeal(admissible_pair(G4, []))

    def test_sink_g2_zero(self):
        d = chen.sink_module(G2, "w")
        assert chen.annihilator(G2, d) == GradedIdeal(admissible_pair(G2, []))

    def test_emitter_in_bh_drops_vertex(self):
        d = chen.inf_emitter_module(G2, "v")
        assert chen.annihilator(G2, d) == GradedIdeal(admissible_pair(G2, ["w"]))

    def test_rational_exclusive_tail_nongraded(self):
        spec = rational_tail(G1, vertex_path("v"), C1)
        d = chen.valpha_module(G1, spec)
        ann = chen.annihilator(G1, d)
        assert isinstance(ann, NonGradedPrimitiveIdeal)
        assert ann.pair == admissible_pair(G1, [])
        gens = chen.annihilator_generators(G1, d)
        assert [str(x) for x in gens] == ["v - e"]

    def test_nc_vs_sink_annihilators_differ(self):
        c2 = enumerate_cycles(G2)[0]
        d1 = chen.nc_module(G2, c2, "v")
        d2 = chen.sink_module(G2, "w")
        rep = chen.distinctness_report(G2, d1, d2)
        assert not rep.same_annihilator


class TestDecomposeAndRecover:
    def _sys(self, g, c, v="v"):
        d = chen.nc_module(g, c, v)
        return d, chen.build_module(g, d)

    def test_single_block(self):
        d, sys = self._sys(G1, C1)
        x = next(iter(sys.enumerate(Truncation(2, 1))))
        blocks = chen.homogeneous_decompose(G1, d, ModuleVector.unit(x))
        assert len(blocks) == 1
        assert blocks[0].k == 1

    def test_blocks_split_by_prefix(self):
        d, sys = self._sys(G3, C3)
        by_str = {str(x): x for x in sys.enumerate(T)}
        vec = ModuleVector(
            terms={by_str["ec"]: Fraction(2), by_str["cc"]: Fraction(3)}
        )
        blocks = chen.homogeneous_decompose(G3, d, vec)
        assert [str(b.t) for b in blocks] == ["v", "e"]
        assert [b.k for b in blocks] == [3, 2]
        for b in blocks:
            # collapsed form reassembles the basis element
            assert b.t.concat(b.collapsed.p) == b.basis.p
            assert b.collapsed.q == b.basis.q

    def test_reduction_collapse_sums_coefficients(self):
        # two formal pairs with the same prefix reduce to one basis element,
        # so their coefficients land in a single block
        d, sys = self._sys(G1, C1)
        e = make_path(G1, "v", ["e"])
        x1 = chen.red(G1, C1, "v", e, e)  # reduces to the bare vertex
        x2 = chen.red(G1, C1, "v", vertex_path("v"), vertex_path("v"))
        assert x1 == x2
        vec = ModuleVector.unit(x1).scale(2) + ModuleVector.unit(x2).scale(3)
        blocks = chen.homogeneous_decompose(G1, d, vec)
        assert len(blocks) == 1
        assert blocks[0].k == 5

    def test_inhomogeneous_rejected(self):
        d, sys = self._sys(G1, C1)
        xs = sorted(sys.enumerate(Truncation(2, 1)), key=sys.degree)
        vec = ModuleVector.unit(xs[0]) + ModuleVector.unit(xs[-1])
        with pytest.raises(InputError):
            chen.homogeneous_decompose(G1, d, vec)
        with pytest.raises(InputError):
            chen.recover_generator(G1, d, vec, T)

    def test_monomial_case(self):
        d, sys = self._sys(G1, C1)
        e2 = {str(x): x for x in sys.enumerate(T)}["ee"]
        w = chen.recover_generator(G1, d, ModuleVector.unit(e2), T)
        assert str(w.carrier) == "e* e*"

    def test_identity_witness(self):
        d, sys = self._sys(G1, C1)
        w = chen.recover_generator(G1, d, ModuleVector.unit(sys.basis_vertex()), T)
        assert w.carrier == alg.vertex(G1, "v")

    def test_failed_action_raises(self, monkeypatch):
        # Acceptance criterion 6 relies on this check: recovery acts with its
        # carrier and raises unless the image is the basis vertex.
        d, sys = self._sys(G1, C1)
        vec = ModuleVector.unit(sys.basis_vertex())
        monkeypatch.setattr(chen, "act", lambda sys, a, m, t: ModuleVector(m.field))
        with pytest.raises(InternalCheckError, match="generator recovery failed"):
            chen.recover_generator(G1, d, vec, T)

    def test_random_vectors_all_recover(self):
        rng = random.Random(18)
        for g, c, v in [(G1, C1, "v"), (G3, C3, "v"), (G6, C6, "w")]:
            d, sys = self._sys(g, c, v)
            by_degree = {}
            for x in sys.enumerate(T):
                by_degree.setdefault(sys.degree(x), []).append(x)
            for _ in range(60):
                deg = rng.choice(sorted(by_degree))
                elems = by_degree[deg]
                support = rng.sample(elems, k=min(len(elems), rng.randint(1, 3)))
                vec = ModuleVector(
                    terms={x: Fraction(rng.choice([-2, -1, 1, 2])) for x in support}
                )
                w = chen.recover_generator(g, d, vec, T)
                target = ModuleVector.unit(
                    chen.ReducedPair(vertex_path(v), vertex_path(v))
                )
                assert act(sys, w.carrier, vec, T) == target

    def test_rejects_modules_other_than_nc(self):
        unit = ModuleVector.unit(vertex_path("w"))
        for g, d in [
            (G2, chen.sink_module(G2, "w")),
            (G2, chen.inf_emitter_module(G2, "v")),
            (G1, chen.valpha_module(G1, rational_tail(G1, vertex_path("v"), C1))),
            (G5, chen.valpha_module(G5, chen.irrational_rule(G5, *enumerate_cycles(G5)))),
        ]:
            for call in (
                lambda: chen.homogeneous_decompose(g, d, unit),
                lambda: chen.recover_generator(g, d, unit, T),
                lambda: chen.ghost_action_check(g, d, T),
            ):
                with pytest.raises(InputError, match="not an N_c module"):
                    call()

    def test_hand_built_pair_escaping_cycle_rejected(self):
        # the ghost part b[0] of x leaves the loop c at v
        d = chen.nc_module(G2, enumerate_cycles(G2)[0], "v")
        x = chen.ReducedPair(vertex_path("w"), make_path(G2, "v", [("b", 0)]))
        vec = ModuleVector.unit(x)
        with pytest.raises(InputError, match="q escapes the cycle"):
            chen.homogeneous_decompose(G2, d, vec)
        with pytest.raises(InputError, match="q escapes the cycle"):
            chen.recover_generator(G2, d, vec, T)

    def test_recover_validates_once(self, monkeypatch):
        d, sys = self._sys(G3, C3)
        x = {str(y): y for y in sys.enumerate(T)}["ec"]
        calls = []
        validate = chen.validate_module
        monkeypatch.setattr(
            chen, "validate_module", lambda g, d: calls.append(d) or validate(g, d)
        )
        chen.recover_generator(G3, d, ModuleVector.unit(x), T)
        assert calls == [d]


class TestTrustedInternals:
    """Values the engine built itself are not validated again."""

    def test_systems_call_no_path_or_cycle_check(self, monkeypatch):
        systems = [chen.build_module(g, d) for _, g, d in catalog_modules(CATALOG)]
        systems += [chen.NaivePairSystem(G1, "v"), chen.NaivePairSystem(G3, "v")]
        calls = []
        for mod in (graphs, alg, chen):
            for name in ("make_path", "make_cycle", "check_cycle", "_check_inside_cycle"):
                if hasattr(mod, name):
                    check = getattr(mod, name)
                    monkeypatch.setattr(
                        mod, name, lambda *a, _n=name, _f=check: calls.append(_n) or _f(*a)
                    )
        for sys in systems:
            check_axioms(sys, Truncation(5, 2))
        assert calls == []
        assert len(systems) == 18

    def test_catalog_lists_classify_each_cycle_once(self, monkeypatch):
        calls = []
        for mod in (verification, chen):
            classify = mod.classify_cycle
            monkeypatch.setattr(
                mod, "classify_cycle", lambda g, c, V, _f=classify: calls.append(c) or _f(g, c, V)
            )
        modules = catalog_modules(CATALOG)
        assert len(calls) == sum(len(enumerate_cycles(g, 2)) for g in CATALOG.values())
        nc = [entry for entry in modules if isinstance(entry[2], chen.NcModule)]
        assert modules[: len(nc)] == nc == verification.catalog_nc_modules(CATALOG)
        for name, g, d in nc:
            assert d == chen.nc_module(g, d.cycle, d.v)


class TestShiftIso:
    def test_requires_two_vertices(self):
        with pytest.raises(InputError):
            chen.shift_iso(G1, C1, "v", "v")
        with pytest.raises(InputError):
            chen.shift_iso(G6, C6, "v", "u")

    def test_degree_shift_minus_one(self):
        iso = chen.shift_iso(G6, C6, "v", "w")
        assert iso.n == 1
        rep = chen.verify_shift_iso(iso, T)
        assert rep.passed
        assert rep.degree_shift_ok and rep.mapped > 0

    def test_forward_examples(self):
        iso = chen.shift_iso(G6, C6, "v", "w")
        # the trivial element at w maps to the pure ghost f*
        x = chen.ReducedPair(vertex_path("w"), vertex_path("w"))
        y = iso.forward(x)
        assert str(y) == "f*"
        assert iso.inverse(y) == x
        # gf at w (path into w) strips against the arc
        gf = make_path(G6, "w", ["g", "f"])
        x2 = chen.ReducedPair(gf, vertex_path("w"))
        y2 = iso.forward(x2)
        assert str(y2) == "g"
        assert iso.inverse(y2) == x2

    def test_intertwines_both_directions(self):
        iso = chen.shift_iso(G6, C6, "w", "v")
        rep = chen.verify_shift_iso(iso, T, rng=random.Random(0), element_samples=30)
        assert rep.passed


class TestNonSimplicityRegression:
    def test_proper_nongraded_submodule_of_single_loop_module(self):
        """The vector v - e generates a proper submodule: the windowed span
        of its orbit never contains the basis vertex (so the module is not
        simple, and the submodule is not graded)."""
        d = chen.nc_module(G1, C1, "v")
        sys = chen.build_module(G1, d)
        t = Truncation(5, 1)
        basis = sorted(sys.enumerate(t), key=sys.degree)
        index = {x: i for i, x in enumerate(basis)}
        e_elt = {str(x): x for x in basis}["e"]
        x0 = ModuleVector.unit(sys.basis_vertex()) - ModuleVector.unit(e_elt)

        span = []
        paths = list(enumerate_paths(G1, 3, 1))
        for p, q in itertools.product(paths, paths):
            a = alg.monomial(G1, p, q)
            try:
                vec = act(sys, a, x0, t)
            except WindowOverflow:
                continue
            if not vec.is_zero:
                span.append(vec)

        # Gaussian elimination over the rationals
        rows = []
        for vec in span:
            row = [Fraction(0)] * len(basis)
            for x, k in vec.terms.items():
                row[index[x]] = k
            rows.append(row)
        target = [Fraction(0)] * len(basis)
        target[index[sys.basis_vertex()]] = Fraction(1)

        pivots = {}
        for row in rows:
            row = row[:]
            for col, prow in pivots.items():
                if row[col]:
                    f = row[col]
                    row = [a - f * b for a, b in zip(row, prow)]
            lead = next((i for i, val in enumerate(row) if val), None)
            if lead is not None:
                row = [val / row[lead] for val in row]
                pivots[lead] = row
        # reduce the target by the span
        residue = target[:]
        for col, prow in pivots.items():
            if residue[col]:
                f = residue[col]
                residue = [a - f * b for a, b in zip(residue, prow)]
        assert any(residue), "basis vertex must stay outside the submodule span"


class TestNonSimplicityViaClassifier:
    def test_cyclic_module_annihilators_never_primitive(self):
        # graded simple but not simple: the annihilator is graded primitive
        # yet fails primitivity (exclusive-cycle case with S = B_H)
        from leavitt import classify as cls

        for g, c, v in [(G1, C1, "v"), (G3, C3, "v"), (G6, C6, "v")]:
            d = chen.nc_module(g, c, v)
            ann = chen.annihilator(g, d)
            record = cls.classify_graded_ideal(g, ann.pair)
            assert record.graded_primitive
            assert not record.primitive
            assert record.case.case == "3d"


class TestDistinctness:
    def test_same_cycle_different_basepoints(self):
        d1 = chen.nc_module(G6, C6, "v")
        d2 = chen.nc_module(G6, C6, "w")
        rep = chen.distinctness_report(G6, d1, d2)
        assert rep.same_annihilator
        assert rep.isomorphic == "yes"
        assert rep.graded_isomorphic == "no"

    def test_identical(self):
        d1 = chen.nc_module(G6, C6, "v")
        rep = chen.distinctness_report(G6, d1, d1)
        assert rep.isomorphic == "yes" and rep.graded_isomorphic == "yes"

    def test_nc_vs_chen_never_isomorphic(self):
        d1 = chen.nc_module(G2, enumerate_cycles(G2)[0], "v")
        d2 = chen.sink_module(G2, "w")
        rep = chen.distinctness_report(G2, d1, d2)
        assert rep.isomorphic == "no"

    def test_g4_valpha_vs_emitter(self):
        c0, c1 = enumerate_cycles(G4, 2)
        d1 = chen.valpha_module(G4, chen.irrational_rule(G4, c0, c1))
        d2 = chen.inf_emitter_module(G4, "v")
        rep = chen.distinctness_report(G4, d1, d2)
        assert rep.same_annihilator and rep.isomorphic == "no"

    def test_undecided_cases(self):
        # two irrational rules with one support: equal annihilators, no proof
        c0, c1, c2 = enumerate_cycles(G4, 3)
        d1 = chen.valpha_module(G4, chen.irrational_rule(G4, c0, c1))
        d2 = chen.valpha_module(G4, chen.irrational_rule(G4, c0, c2))
        rep = chen.distinctness_report(G4, d1, d2)
        assert rep.same_annihilator
        assert rep.isomorphic == "not_decided"

    def test_different_annihilators_are_not_isomorphic(self):
        d1 = chen.sink_module(G2, "w")
        d2 = chen.inf_emitter_module(G2, "v")
        rep = chen.distinctness_report(G2, d1, d2)
        assert (rep.same_annihilator, rep.isomorphic, rep.graded_isomorphic) == (
            False, "no", "no"
        )

    def test_no_catalog_pair_undecided(self):
        modules = catalog_modules(CATALOG)
        pairs = [
            (g, d1, d2)
            for (n1, g, d1), (n2, _, d2) in itertools.combinations(modules, 2)
            if n1 == n2
        ]
        assert len(pairs) == 17
        for g, d1, d2 in pairs:
            rep = chen.distinctness_report(g, d1, d2)
            assert rep.isomorphic != "not_decided", (d1.label(), d2.label())
            assert rep.graded_isomorphic != "not_decided", (d1.label(), d2.label())


class TestVAlphaSystems:
    def test_rational_single_loop(self):
        spec = rational_tail(G1, vertex_path("v"), C1)
        sys = chen.build_module(G1, chen.valpha_module(G1, spec))
        basis = list(sys.enumerate(Truncation(4, 1)))
        assert len(basis) == 1
        rep = check_axioms(sys, Truncation(4, 1))
        assert rep.axioms_1_to_4 and rep.perfect and rep.saturated
        assert not rep.graded

    def test_rational_g3(self):
        spec = rational_tail(G3, vertex_path("v"), C3)
        sys = chen.build_module(G3, chen.valpha_module(G3, spec))
        rep = check_axioms(sys, Truncation(4, 2))
        assert rep.axioms_1_to_4 and rep.perfect and rep.saturated
        names = {str(x) for x in sys.enumerate(Truncation(2, 2))}
        assert "v(c)^inf" in names and "e(c)^inf" in names

    def test_irrational_graded(self, monkeypatch):
        c0, c1 = enumerate_cycles(G4, 2)
        rule = chen.irrational_rule(G4, c0, c1)
        sys = chen.build_module(G4, chen.valpha_module(G4, rule))
        positions = []
        edge_at = chen.IrrationalRule.edge_at
        monkeypatch.setattr(
            chen.IrrationalRule,
            "edge_at",
            lambda self, i: positions.append(i) or edge_at(self, i),
        )
        rep = check_axioms(sys, Truncation(3, 2))
        assert rep.axioms_1_to_4 and rep.perfect and rep.saturated and rep.graded
        # the system computes each position of the rule's word once
        assert sorted(positions) == list(range(1, len(positions) + 1))

    def test_irrational_canonical_forms(self):
        d, e = enumerate_cycles(G5)
        rule = chen.irrational_rule(G5, d, e)
        sys = chen.build_module(G5, chen.valpha_module(G5, rule))
        elems = list(sys.enumerate(Truncation(3, 1)))
        assert len(elems) == len(set(elems))
        for x in elems:
            assert sys._canonical(x.q, x.m) == x


FAMILIES = (
    chen.PathEndingSystem,
    chen.NcBranchingSystem,
    chen.RationalTailSystem,
    chen.IrrationalTailSystem,
)
RULES = ("enumerate", "in_window", "member_vertex", "member_edge", "sigma", "sigma_inv", "degree")


class TestTailSystem:
    """One body holds the rules of the four families; the per-family
    systems it replaced, in ``systemsoracle``, are its oracle."""

    def test_families_define_no_rules(self):
        for cls in FAMILIES:
            assert not set(RULES) & set(vars(cls)), cls

    # (1, 1) is shorter than some rational tails' cycles
    @pytest.mark.parametrize("window", [(1, 1), (4, 2), (5, 3)])
    def test_answers_match_the_per_family_systems(self, window):
        t = Truncation(*window)
        seen = set()
        for _, g, d in catalog_modules(CATALOG):
            new = chen.build_module(g, d)
            old = systemsoracle.old_system(new)
            seen.add(type(new))
            elements = list(new.enumerate(t))
            assert elements == list(old.enumerate(t)), d
            refs = new.edge_refs(t)
            for x in elements:
                assert new.in_window(x, t) == old.in_window(x, t), x
                assert new.degree(x) == old.degree(x), x
                for v in g.vertex_list:
                    assert new.member_vertex(x, v) == old.member_vertex(x, v), (x, v)
                for e in refs:
                    assert new.member_edge(x, e) == old.member_edge(x, e), (x, e)
                    if old.member_vertex(x, g.tgt(e)):
                        assert new.sigma(e, x) == old.sigma(e, x), (x, e)
                    if old.member_edge(x, e):
                        assert new.sigma_inv(e, x) == old.sigma_inv(e, x), (x, e)
                    else:
                        for system in (new, old):
                            with pytest.raises(InputError):
                                system.sigma_inv(e, x)
        assert seen == set(FAMILIES)

    def test_axiom_reports_match_the_per_family_systems(self):
        t = Truncation(7, 3)
        for _, g, d in catalog_modules(CATALOG):
            new = chen.build_module(g, d)
            assert check_axioms(new, t) == check_axioms(systemsoracle.old_system(new), t), d

    def test_sigma_and_sigma_inv_strip_nothing(self, monkeypatch):
        # prepending to a canonical element cancels at most a bare tail's
        # w_m, and sigma_inv knows its fiber from the element alone
        c0, c1 = enumerate_cycles(G4, 2)
        sys = chen.build_module(G4, chen.valpha_module(G4, chen.irrational_rule(G4, c0, c1)))
        calls = Counter()
        inside = []
        canonical, member_edge, sigma_inv = sys._canonical, sys.member_edge, sys.sigma_inv

        def counted_member_edge(*a):
            if inside:
                calls.update(["member_edge in sigma_inv"])
            return member_edge(*a)

        def counted_sigma_inv(*a):
            inside.append(a)
            try:
                return sigma_inv(*a)
            finally:
                inside.pop()

        monkeypatch.setattr(
            sys, "_canonical", lambda *a: calls.update(["_canonical"]) or canonical(*a)
        )
        monkeypatch.setattr(sys, "member_edge", counted_member_edge)
        monkeypatch.setattr(sys, "sigma_inv", counted_sigma_inv)
        rep = check_axioms(sys, Truncation(7, 3))
        assert rep.axioms_1_to_4 and rep.graded
        assert calls == Counter()
