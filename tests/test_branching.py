import random
from collections import Counter
from fractions import Fraction

import pytest

import axiomsoracle
import systemsoracle
from leavitt import algebra as alg
from leavitt import chen, graphs
from leavitt.branching import (
    ModuleVector,
    Truncation,
    _act_monomial,
    act,
    annihilation_check,
    check_axioms,
    degree_histogram,
)
from leavitt.catalog import CATALOG, G1, G2, G3, G4, G5, G6
from leavitt.errors import InputError, MalformedSystem, WindowOverflow
from leavitt.fields import QQ, PrimeField
from leavitt.graphs import enumerate_cycles, enumerate_paths, make_path, vertex_path
from leavitt.verification import catalog_modules, check_annihilator

T = Truncation(4, 2)


def nc_system(g, vertex="v"):
    c = [c for c in enumerate_cycles(g) if vertex in c.vertex_set][0]
    d = chen.nc_module(g, c, vertex)
    return d, chen.build_module(g, d)


class TestTruncation:
    def test_bounds(self):
        with pytest.raises(InputError):
            Truncation(0, 1)
        with pytest.raises(InputError):
            Truncation(3, 0)


class TestCheckAxioms:
    def test_nc_g1_all_green(self):
        _, sys = nc_system(G1)
        rep = check_axioms(sys, T)
        assert rep.axioms_1_to_4
        assert rep.perfect and rep.saturated and rep.graded
        assert rep.violations == []

    def test_naive_system_fails_axiom4(self):
        rep = check_axioms(chen.NaivePairSystem(G1, "v"), Truncation(3, 1))
        assert rep.axiom1 and rep.axiom2 and rep.axiom3
        assert not rep.axiom4
        witness = chen.NaivePair(vertex_path("v"), vertex_path("v"))
        assert any(w == witness for kind, w in rep.violations if kind == "axiom4")

    def test_emitter_not_perfect(self):
        d = chen.inf_emitter_module(G4, "v")
        rep = check_axioms(chen.build_module(G4, d), T)
        assert rep.axioms_1_to_4 and rep.saturated and rep.graded
        assert not rep.perfect
        assert any(w == vertex_path("v") for kind, w in rep.violations if kind == "perfect")

    def test_duplicate_enumeration_rejected(self):
        class Dup(chen.PathEndingSystem):
            def enumerate(self, t):
                yield vertex_path(self.v)
                yield vertex_path(self.v)

        with pytest.raises(MalformedSystem):
            check_axioms(Dup(G2, "w"), T)

    def test_one_window_test_per_image(self, monkeypatch):
        c0, c1 = enumerate_cycles(G4, 2)
        sys = chen.build_module(G4, chen.valpha_module(G4, chen.irrational_rule(G4, c0, c1)))
        t = Truncation(7, 3)
        window, refs = list(map(sys.value, sys.enumerate(t))), sys.edge_refs(t)
        images = sum(sys.member_vertex(x, G4.tgt(e)) for e in refs for x in window)
        preimages = sum(sys.member_edge(x, e) for e in refs for x in window)
        calls = Counter()
        for name in ("in_window", "sigma", "sigma_inv"):
            method = getattr(sys, name)
            monkeypatch.setattr(
                sys, name, lambda *a, _n=name, _m=method: calls.update([_n]) or _m(*a)
            )
        rep = check_axioms(sys, t)
        # one sigma and one in_window per x in X_r(e), and one sigma_inv per
        # in-window image (the graded test reuses the window test's answer);
        # pass 2 skips the images that pass 1 paired, so of the 18,589
        # elements of the X_e only 8 are inverted again: 7 whose preimage
        # comes later in window order and 1 whose preimage is outside
        assert images == 55_767 and preimages == 18_589
        assert calls["in_window"] == images + 8 == 55_775
        assert calls["sigma"] == images + 7 == 55_774
        assert calls["sigma_inv"] == 18_596
        assert len(window) == 18_589 and len(rep.overflow_notes) == 37_180
        assert rep.axioms_1_to_4 and rep.graded

    def test_one_element_built_per_window_element(self, monkeypatch):
        # the oracles run on values, so sigma, sigma_inv and the witnesses
        # build no element or path: only the enumeration does, once each
        c0, c1 = enumerate_cycles(G4, 2)
        sys = chen.build_module(G4, chen.valpha_module(G4, chen.irrational_rule(G4, c0, c1)))
        built = Counter()
        for cls in (chen.TailElement, graphs.Path):

            def counted(self, *a, _name=cls.__name__, _init=cls.__init__, **k):
                built.update([_name])
                _init(self, *a, **k)

            monkeypatch.setattr(cls, "__init__", counted)
        rep = check_axioms(sys, Truncation(7, 3))
        assert len(rep.overflow_notes) == 37_180 and rep.axioms_1_to_4 and rep.graded
        assert built["TailElement"] <= 18_589 and built["Path"] <= 18_589


class HoleInWindow(systemsoracle.PathEndingSystem):
    """The enumeration lacks one in-window path, which sigma reaches."""

    def enumerate(self, t):
        hole = make_path(self.graph, "v", ["e", "e"])
        return (p for p in super().enumerate(t) if p != hole)


class StrayImage(systemsoracle.PathEndingSystem):
    """On G6, sigma(f, x) is the path g.f: in the window, outside X_f, and
    lacking from the enumeration, which holds the paths ending at v."""

    def sigma(self, ref, x):
        if ref == "f":
            return make_path(self.graph, "w", ["g", "f"])
        return super().sigma(ref, x)


class WrongPreimage(systemsoracle.PathEndingSystem):
    """sigma_inv sends e.e to the vertex: an inverse mismatch."""

    def sigma_inv(self, ref, x):
        return vertex_path("v") if len(x) == 2 else super().sigma_inv(ref, x)


class PreimageOutOfRange(systemsoracle.PathEndingSystem):
    """On G6, sigma_inv(f, x) is the path f, which starts outside
    X_w = X_r(f) and which the enumeration lacks."""

    def sigma_inv(self, ref, x):
        if ref == "f":
            return make_path(self.graph, "v", ["f"])
        return super().sigma_inv(ref, x)


class TwoEdgeFibers(systemsoracle.PathEndingSystem):
    """On G6, the path g (in X_w) also claims X_f, whose source is v."""

    def member_edge(self, x, ref):
        if ref == "f" and x.steps == ("g",):
            return True
        return super().member_edge(x, ref)

    def sigma_inv(self, ref, x):
        return x.drop_first()


class TestAxiomsOracle:
    """check_axioms gives the per-call route's report, lists in order."""

    @staticmethod
    def same(sys, t):
        rep = check_axioms(sys, t)
        assert rep == axiomsoracle.check_axioms(sys, t)
        return rep

    @pytest.mark.parametrize("window", [(4, 2), (5, 3)])
    def test_catalog_modules(self, window):
        t = Truncation(*window)
        for _, g, d in catalog_modules(CATALOG):
            self.same(chen.build_module(g, d), t)

    def test_naive_system(self):
        rep = self.same(chen.NaivePairSystem(G1, "v"), Truncation(3, 1))
        assert not rep.axiom4

    def test_in_window_image_the_enumeration_lacks(self):
        rep = self.same(HoleInWindow(G1, "v"), Truncation(3, 1))
        assert rep.axiom3 and len(rep.overflow_notes) == 1

    def test_stray_image(self):
        rep = self.same(StrayImage(G6, "v"), Truncation(4, 1))
        kinds = {w[2:] for k, w in rep.violations if k == "axiom3"}
        assert kinds == {(), ("inverse composition",)}

    def test_inverse_mismatch(self):
        rep = self.same(WrongPreimage(G1, "v"), Truncation(3, 1))
        kinds = [w[2:] for k, w in rep.violations if k == "axiom3"]
        assert kinds == [("inverse mismatch",), ("inverse composition",)]

    def test_inverse_range(self):
        rep = self.same(PreimageOutOfRange(G6, "v"), Truncation(4, 1))
        kinds = [w[2:] for k, w in rep.violations if k == "axiom3"]
        assert kinds == [("inverse mismatch",), ("inverse range",)] * 2

    def test_two_edge_fibers(self):
        rep = self.same(TwoEdgeFibers(G6, "v"), Truncation(4, 1))
        assert not rep.axiom1 and not rep.axiom2 and not rep.axiom3


class TestAct:
    def test_ghost_action_on_vertex(self):
        _, sys = nc_system(G1)
        out = act(sys, alg.ghost(G1, "e"), ModuleVector.unit(sys.basis_vertex()), T)
        assert [str(x) for x in out.support()] == ["e*"]

    def test_vertex_expansion_acts_as_zero(self):
        # v - e e* kills everything in X_v of a valid system at regular v
        _, sys = nc_system(G1)
        rel = alg.vertex(G1, "v") - alg.edge(G1, "e") * alg.star(alg.edge(G1, "e"))
        for x in sys.enumerate(Truncation(3, 1)):
            out = act(sys, rel, ModuleVector.unit(x), T)
            assert out.is_zero

    def test_entry_relation_annihilates(self):
        # (u - e e*) . e c^n = 0 in the cyclic module over the entry graph
        d, sys = nc_system(G3)
        e = alg.edge(G3, "e")
        uH = alg.vertex(G3, "u") - e * alg.star(e)
        for x in sys.enumerate(T):
            if x.p.start != "u":
                continue
            assert act(sys, uH, ModuleVector.unit(x), T).is_zero

    def test_composition_compatibility(self):
        d, sys = nc_system(G3)
        rng = random.Random(17)
        paths = list(enumerate_paths(G3, 2, 2))
        window = [x for x in sys.enumerate(Truncation(2, 2))]
        for _ in range(40):
            p1 = rng.choice(paths)
            q1 = rng.choice([q for q in paths if q.end == p1.end])
            p2 = rng.choice(paths)
            q2 = rng.choice([q for q in paths if q.end == p2.end])
            a = alg.monomial(G3, p1, q1)
            b = alg.monomial(G3, p2, q2)
            m = ModuleVector.unit(rng.choice(window))
            big = Truncation(6, 2)
            try:
                lhs = act(sys, a * b, m, big)
                rhs = act(sys, a, act(sys, b, m, big), big)
            except WindowOverflow:
                continue
            assert lhs == rhs

    def test_graded_action_shifts_degree(self):
        # homogeneous element of degree n sends degree-d vectors to n + d
        d, sys = nc_system(G3)
        rng = random.Random(19)
        paths = list(enumerate_paths(G3, 2, 2))
        window = list(sys.enumerate(Truncation(3, 2)))
        for _ in range(50):
            p = rng.choice(paths)
            q = rng.choice([q for q in paths if q.end == p.end])
            a = alg.monomial(G3, p, q)
            x = rng.choice(window)
            try:
                out = act(sys, a, ModuleVector.unit(x), Truncation(6, 2))
            except WindowOverflow:
                continue
            if not out.is_zero:
                assert out.degrees(sys) == {alg.degree(a) + sys.degree(sys.value(x))}

    def test_window_overflow_named(self):
        _, sys = nc_system(G1)
        e3 = alg.edge(G1, "e") * alg.edge(G1, "e") * alg.edge(G1, "e")
        with pytest.raises(WindowOverflow) as err:
            act(sys, e3, ModuleVector.unit(sys.basis_vertex()), Truncation(2, 1))
        assert err.value.element is not None

    def test_zero_element(self):
        _, sys = nc_system(G1)
        out = act(sys, alg.zero(G1), ModuleVector.unit(sys.basis_vertex()), T)
        assert out.is_zero

    def test_element_over_another_graph_rejected(self):
        _, sys = nc_system(G6)
        x = ModuleVector.unit(sys.basis_vertex())
        for a in (alg.vertex(G5, "v"), alg.edge(G5, "d")):
            with pytest.raises(InputError):
                act(sys, a, x, T)


def _pairwise_act(sys, a, m, t):
    """act as one vector sum per (monomial, basis element) pair: the oracle
    of the single accumulation in act."""
    out = ModuleVector(m.field)
    for mono, k in a.terms.items():
        for x, c in m.terms.items():
            y = _act_monomial(sys, mono, sys.value(x), t)
            if y is not None:
                out = out + ModuleVector(m.field, {sys.element(y): k * c})
    return out


class TestSinglePassAct:
    def _no_vector_sums(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("ModuleVector.__add__ called")

        monkeypatch.setattr(ModuleVector, "__add__", refuse)

    def test_act_and_shift_iso_make_no_vector_sum(self, monkeypatch):
        self._no_vector_sums(monkeypatch)
        _, sys = nc_system(G1)
        rel = alg.vertex(G1, "v") - alg.edge(G1, "e") * alg.star(alg.edge(G1, "e"))
        window = {x: Fraction(i + 1) for i, x in enumerate(sys.enumerate(Truncation(3, 1)))}
        assert act(sys, rel, ModuleVector(QQ, window), T).is_zero
        (c6,) = enumerate_cycles(G6)
        rep = chen.verify_shift_iso(chen.shift_iso(G6, c6, "v", "w"), T)
        assert rep.passed and rep.mapped > 0

    def test_vertex_fixes_the_emitter_window(self, monkeypatch):
        self._no_vector_sums(monkeypatch)
        sys = chen.build_module(G4, chen.inf_emitter_module(G4, "v"))
        t = Truncation(5, 4)
        m = ModuleVector(QQ, {x: QQ.one for x in sys.enumerate(t)})
        assert len(m.terms) == 1365
        out = act(sys, alg.vertex(G4, "v"), m, t)
        assert out == m and list(out.terms) == list(m.terms)

    def test_agrees_with_pairwise_sums(self):
        rng = random.Random(20)
        for g in (G1, G3, G6):
            _, sys = nc_system(g)
            paths = list(enumerate_paths(g, 2, 2))
            window = list(sys.enumerate(Truncation(3, 2)))
            for field in (QQ, PrimeField(7)):
                for _ in range(40):
                    a = alg.zero(g, field)
                    for _ in range(rng.randint(1, 4)):
                        p = rng.choice(paths)
                        q = rng.choice([q for q in paths if q.end == p.end])
                        a = a + alg.monomial(g, p, q, coeff=rng.choice([1, -1, 2]), field=field)
                    xs = rng.sample(window, min(len(window), rng.randint(2, 8)))
                    m = ModuleVector(field, {x: field.coerce(rng.choice([1, -1, 3])) for x in xs})
                    try:
                        want = _pairwise_act(sys, a, m, Truncation(6, 2))
                    except WindowOverflow:
                        with pytest.raises(WindowOverflow):
                            act(sys, a, m, Truncation(6, 2))
                        continue
                    got = act(sys, a, m, Truncation(6, 2))
                    assert got == want and list(got.terms) == list(want.terms)


class TestAnnihilationCheck:
    def test_g3_annihilator_passes(self):
        d, sys = nc_system(G3)
        gens = chen.annihilator_generators(G3, d)
        rep = annihilation_check(sys, gens, T)
        assert rep.passed
        assert rep.checked > 0

    def test_vertex_does_not_annihilate(self):
        d = chen.inf_emitter_module(G4, "v")
        sys = chen.build_module(G4, d)
        rep = annihilation_check(sys, [alg.vertex(G4, "v")], T)
        assert not rep.passed
        gen, x, img = rep.failures[0]
        assert x == vertex_path("v")

    def test_empty_generators(self):
        _, sys = nc_system(G1)
        assert annihilation_check(sys, [], T).passed

        # the window is enumerated for the first generator, so with none
        # it is never enumerated
        def refuse(t):
            raise AssertionError("window enumerated")

        sys.enumerate = refuse
        rep = annihilation_check(sys, [], T)
        assert rep.passed and rep.checked == 0 and not rep.overflows


def _eager_missing(g, d, ideal, t):
    """check_annihilator's vertices outside H acting as zero on the window,
    from the window listed first: the oracle of its lazy walk."""
    system = chen.build_module(g, d)
    window = list(system.enumerate(t))
    return [
        u
        for u in sorted(g.vertices - ideal.pair.H)
        if all(
            act(system, alg.vertex(g, u), ModuleVector.unit(x), t).is_zero for x in window
        )
    ]


class TestCheckAnnihilator:
    def test_missing_matches_the_listed_window(self):
        t = Truncation(4, 2)
        for _, g, d in catalog_modules(CATALOG):
            ideal = chen.annihilator(g, d)
            _, missing = check_annihilator(g, d, ideal, t)
            assert missing == _eager_missing(g, d, ideal, t), d

    def test_walk_stops_at_the_first_witness(self, monkeypatch):
        # G4's irrational module has the zero annihilator, so no generator
        # walks the window, and v acts as the identity on the first element
        c0, c1 = enumerate_cycles(G4, 2)
        d = chen.valpha_module(G4, chen.irrational_rule(G4, c0, c1))
        yields = Counter()
        walk = chen._TailSystem.enumerate

        def counted(self, t):
            for x in walk(self, t):
                yields.update(["x"])
                yield x

        monkeypatch.setattr(chen._TailSystem, "enumerate", counted)
        rep, missing = check_annihilator(G4, d, chen.annihilator(G4, d), Truncation(7, 3))
        assert missing == [] and rep.passed and rep.checked == 0
        assert yields["x"] == 1


class TestDegreeHistogram:
    def test_nc_g1_one_per_degree(self):
        _, sys = nc_system(G1)
        hist = degree_histogram(sys, Truncation(3, 1))
        assert hist == {d: 1 for d in range(-3, 4)}

    def test_sink_counts_paths(self):
        d = chen.sink_module(G2, "w")
        sys = chen.build_module(G2, d)
        t = Truncation(3, 3)
        hist = degree_histogram(sys, t)
        # paths into the sink by length: w itself, then c^k b[i] with i < 3
        assert hist[0] == 1
        assert hist[1] == 3
        assert hist[2] == 3
        assert hist[3] == 3

    def test_empty_system(self):
        class Empty(chen.PathEndingSystem):
            def enumerate(self, t):
                return iter(())

        assert degree_histogram(Empty(G2, "w"), T) == {}

    def test_ungraded_rejected(self):
        (c,) = enumerate_cycles(G1)
        spec = chen.rational_tail(G1, vertex_path("v"), c)
        sys = chen.build_module(G1, chen.valpha_module(G1, spec))
        with pytest.raises(InputError):
            degree_histogram(sys, T)


class TestModuleVector:
    def test_zero_coefficients_dropped(self):
        x = vertex_path("v")
        m = ModuleVector(terms={x: Fraction(0)})
        assert m.is_zero

    def test_arithmetic(self):
        x, y = vertex_path("v"), vertex_path("w")
        m = ModuleVector.unit(x) + ModuleVector.unit(y).scale(2)
        assert m.terms[y] == 2
        assert (m - m).is_zero

    def test_fields_do_not_mix(self):
        x = vertex_path("v")
        rational, mod7 = ModuleVector.unit(x, QQ), ModuleVector.unit(x, PrimeField(7))
        with pytest.raises(InputError):
            rational + mod7
        with pytest.raises(InputError):
            mod7 - rational

    def test_homogeneity(self):
        d = chen.sink_module(G2, "w")
        sys = chen.build_module(G2, d)
        xs = sorted(sys.enumerate(Truncation(2, 2)), key=lambda x: sys.degree(sys.value(x)))
        hom = ModuleVector.unit(xs[0])
        assert hom.is_homogeneous(sys)
        mixed = ModuleVector.unit(xs[0]) + ModuleVector.unit(xs[-1])
        assert not mixed.is_homogeneous(sys)
