import itertools
import math
import random
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from leavitt import algebra as alg
from leavitt.catalog import CATALOG, G1, G2, G3, G5, random_graph
from leavitt.errors import InputError
from leavitt.fields import _PRIME_LIMIT, QQ, ModInt, PrimeField, _is_prime, field_from_spec
from leavitt.graphs import Path, _edge_path, enumerate_paths, make_path, vertex_path
from smallgraphs import three_vertex_graphs
from valueobjects import check_value_object


E1 = make_path(G1, "v", ["e"])
V1 = vertex_path("v")


def random_element(g, rng, max_len=3, max_terms=2, field=QQ):
    paths = list(enumerate_paths(g, max_len, 2))
    by_end = {}
    for p in paths:
        by_end.setdefault(p.end, []).append(p)
    out = alg.zero(g, field)
    for _ in range(rng.randint(1, max_terms)):
        p = rng.choice(paths)
        q = rng.choice(by_end[p.end])
        out = out + alg.monomial(g, p, q, coeff=rng.choice([-2, -1, 1, 2]), field=field)
    return out


class TestMonomialConstruction:
    def test_vertex_idempotent(self):
        v = alg.vertex(G1, "v")
        assert v * v == v

    def test_vertex_expansion_singleton(self):
        # v regular with a single edge: e e* normalizes to v
        assert alg.monomial(G1, E1, E1) == alg.vertex(G1, "v")

    def test_plain_edge(self):
        e = alg.monomial(G1, E1, V1)
        assert e == alg.edge(G1, "e")
        assert not e.is_zero

    def test_range_mismatch(self):
        p = make_path(G3, "u", ["e"])
        with pytest.raises(InputError):
            alg.monomial(G3, p, vertex_path("w"))

    def test_vertex_orthogonality(self):
        assert (alg.vertex(G2, "v") * alg.vertex(G2, "w")).is_zero

    def test_units_match_monomial_route(self):
        # Oracle: vertex, edge and ghost build their element directly and
        # the one-edge helper checks only the ref; the old route validated
        # through make_path and normalized through monomial.
        rng = random.Random(14)
        graphs = list(CATALOG.values()) + [random_graph(rng) for _ in range(300)]
        refs = 0
        for g in graphs:
            for v in g.vertex_list:
                p = vertex_path(v)
                assert alg.vertex(g, v) == alg.monomial(g, p, p)
                for ref in g.out_refs(v, 2):
                    e = make_path(g, v, [ref])
                    assert _edge_path(g, ref) == e
                    r = vertex_path(e.end)
                    assert alg.edge(g, ref) == alg.monomial(g, e, r)
                    assert alg.ghost(g, ref) == alg.monomial(g, r, e)
                    refs += 1
        assert refs > 1000, refs
        gf5 = PrimeField(5)
        assert alg.edge(G2, ("b", 1), gf5) == alg.monomial(
            G2, make_path(G2, "v", [("b", 1)]), vertex_path("w"), field=gf5
        )

    def test_unknown_ids_raise_input_error(self):
        for ref in ("nope", ("nope", 0), ("b", -1), ("b", "0"), ("b", 0, 1)):
            for build in (alg.edge, alg.ghost, _edge_path):
                with pytest.raises(InputError, match="unknown edge ref"):
                    build(G2, ref)
        with pytest.raises(InputError, match="unknown vertex"):
            alg.vertex(G2, "nope")


# The frozen-dataclass Monomial that algebra.Monomial replaced: its
# decorator, docstring and fields verbatim, without the methods, which
# equality, hashing and repr do not use.  The oracle for the slotted class.
@dataclass(frozen=True)
class Monomial:
    """p.q* with r(p) = r(q); the star reverses q."""

    p: Path
    q: Path


class TestMonomialValue:
    def test_contract(self):
        p, q = make_path(G3, "u", ["e", "c"]), make_path(G3, "v", ["c"])
        check_value_object(
            alg.Monomial,
            (p, q),
            (make_path(G3, "u", ["e"]), vertex_path("v")),
            "Monomial(p=Path(vertices=('u', 'v', 'v'), steps=('e', 'c')), "
            "q=Path(vertices=('v', 'v'), steps=('c',)))",
            strangers=[Monomial(p, q), (p, q)],
        )

    def test_agrees_with_the_dataclass(self):
        rng = random.Random(23)
        pairs = []
        for g in CATALOG.values():
            paths = list(enumerate_paths(g, 3, 2))
            pairs += [(p, q) for p in paths for q in paths if p.end == q.end]
        equal = 0
        for _ in range(3000):
            a = alg.Monomial(*rng.choice(pairs))
            b = alg.Monomial(*rng.choice(pairs)) if rng.random() < 0.7 else a.star().star()
            old_a, old_b = Monomial(a.p, a.q), Monomial(b.p, b.q)
            assert (a == b) == (old_a == old_b)
            assert (hash(a) == hash(b)) == (hash(old_a) == hash(old_b))
            assert hash(a) == hash(old_a) and repr(a) == repr(old_a)
            equal += a == b
        assert 0 < equal < 3000


class TestStar:
    def test_edge(self):
        assert alg.star(alg.edge(G1, "e")) == alg.ghost(G1, "e")

    def test_involution_random(self):
        rng = random.Random(1)
        for _ in range(50):
            g = rng.choice(list(CATALOG.values()))
            a = random_element(g, rng)
            assert alg.star(alg.star(a)) == a

    def test_star_of_a_normal_form_is_normal(self):
        # star builds its result without the rewrite; running it must change nothing
        rng = random.Random(20)
        for g in CATALOG.values():
            for field in (QQ, PrimeField(7)):
                for _ in range(25):
                    a = random_element(g, rng, max_len=4, max_terms=4, field=field)
                    s = alg.star(a)
                    assert s == alg.normal_form(s)
                    assert alg.star(s) == a

    def test_breaking_element_self_adjoint(self):
        vH = alg.vertex(G2, "v") - alg.edge(G2, "c") * alg.star(alg.edge(G2, "c"))
        assert alg.star(vH) == vH


class TestMultiply:
    def test_ghost_cancels_own_edge(self):
        assert alg.ghost(G1, "e") * alg.edge(G1, "e") == alg.vertex(G1, "v")

    def test_ghost_kills_distinct_edge(self):
        assert (alg.ghost(G5, "d") * alg.edge(G5, "e")).is_zero

    def test_bundle_index_orthogonality(self):
        assert (alg.ghost(G2, ("b", 0)) * alg.edge(G2, ("b", 1))).is_zero
        assert alg.ghost(G2, ("b", 3)) * alg.edge(G2, ("b", 3)) == alg.vertex(G2, "w")

    def test_breaking_relation_kills_entry(self):
        # (u - e e*) e = 0: the breaking element kills its own escape edge
        e = alg.edge(G3, "e")
        uH = alg.vertex(G3, "u") - e * alg.star(e)
        assert (uH * e).is_zero

    def test_associativity_random(self):
        rng = random.Random(2)
        for _ in range(60):
            g = rng.choice(list(CATALOG.values()))
            a, b, c = (random_element(g, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_distributivity_random(self):
        rng = random.Random(3)
        for _ in range(60):
            g = rng.choice(list(CATALOG.values()))
            a, b, c = (random_element(g, rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c

    def test_star_antimultiplicative(self):
        rng = random.Random(4)
        for _ in range(60):
            g = rng.choice(list(CATALOG.values()))
            a, b = (random_element(g, rng) for _ in range(2))
            assert alg.star(a * b) == alg.star(b) * alg.star(a)


def _mul_monomials_oracle(m1, m2):
    """The route ``alg._mul_monomials`` took before it spliced the paths:
    compare the common prefix, then ``drop_first`` the leftover and
    ``Path.concat`` it on, end check included."""
    q1, p2 = m1.q, m2.p
    if q1.start != p2.start:
        return None
    n1, n2 = len(q1), len(p2)
    k = min(n1, n2)
    if q1.steps[:k] != p2.steps[:k]:
        return None
    if n1 <= n2:
        return alg.Monomial(m1.p.concat(p2.drop_first(n1)), m2.q)
    return alg.Monomial(m1.p, m2.q.concat(q1.drop_first(n2)))


class TestMulMonomials:
    def test_agrees_with_drop_first_and_concat(self):
        """Every pair of monomials p q* with |p|, |q| <= 2: on the catalog,
        with two indices per bundle, and on every 97th three-vertex graph,
        with one."""
        graphs = [(g, 2) for g in CATALOG.values()]
        graphs += [(g, 1) for g in itertools.islice(three_vertex_graphs(), 0, None, 97)]
        outcomes = dict.fromkeys(["zero", "n1 = n2", "n1 < n2", "n1 > n2"], 0)
        for g, bundle_sample in graphs:
            paths = list(enumerate_paths(g, 2, bundle_sample))
            monomials = [alg.Monomial(p, q) for p in paths for q in paths if p.end == q.end]
            for m1 in monomials:
                new = [alg._mul_monomials(m1, m2) for m2 in monomials]
                assert new == [_mul_monomials_oracle(m1, m2) for m2 in monomials], m1
                n1 = len(m1.q)
                for m2, m in zip(monomials, new):
                    if m is None:
                        outcomes["zero"] += 1
                    else:
                        n2 = len(m2.p)
                        outcomes["n1 = n2" if n1 == n2 else "n1 < n2" if n1 < n2 else "n1 > n2"] += 1
        assert min(outcomes.values()) > 1000, outcomes

    def test_equal_lengths_keep_the_outer_paths(self):
        # (p q*)(q s*) = p s*, with p and s themselves, not copies
        p, q = make_path(G3, "u", ["e", "c"]), make_path(G3, "v", ["c"])
        s = vertex_path("v")
        m = alg._mul_monomials(alg.Monomial(p, q), alg.Monomial(q, s))
        assert m == alg.Monomial(p, s) and m.p is p and m.q is s


class TestNormalForm:
    def test_full_vertex_expansion_vanishes(self):
        total = alg.vertex(G5, "v")
        for e in ("d", "e"):
            ee = alg.edge(G5, e)
            total = total - ee * alg.star(ee)
        assert total.is_zero

    def test_breaking_element_survives(self):
        vH = alg.vertex(G2, "v") - alg.edge(G2, "c") * alg.star(alg.edge(G2, "c"))
        assert not vH.is_zero
        assert len(vH.terms) == 2

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(40):
            g = rng.choice(list(CATALOG.values()))
            a = random_element(g, rng)
            assert alg.normal_form(a) == a

    def test_congruence(self):
        rng = random.Random(6)
        for _ in range(40):
            g = rng.choice(list(CATALOG.values()))
            a, b = (random_element(g, rng) for _ in range(2))
            assert alg.normal_form(a * b) == alg.normal_form(
                alg.normal_form(a) * alg.normal_form(b)
            )

    def test_mixed_ghost_real_sum(self):
        a = alg.monomial(G1, E1, E1) + alg.ghost(G1, "e") * alg.edge(G1, "e")
        assert a == alg.vertex(G1, "v").scale(2)

    def test_scale_by_one_returns_the_element(self):
        a = alg.vertex(G1, "v") + alg.edge(G1, "e")
        assert a.scale(1) is a and a.scale("1") is a
        b = alg.vertex(G1, "v", PrimeField(7))
        assert b.scale(ModInt(8, 7)) is b
        assert a.scale(2) == alg.vertex(G1, "v").scale(2) + alg.edge(G1, "e").scale(2)
        assert a == alg.vertex(G1, "v") + alg.edge(G1, "e")


class TestGradingAndComponents:
    def test_components(self):
        a = alg.vertex(G1, "v") + alg.edge(G1, "e")
        parts = alg.homogeneous_components(a)
        assert sorted(parts) == [0, 1]
        assert parts[0] == alg.vertex(G1, "v")
        assert parts[1] == alg.edge(G1, "e")
        total = alg.zero(G1)
        for x in parts.values():
            total = total + x
        assert total == a

    def test_homogeneous_single_component(self):
        a = alg.edge(G1, "e")
        assert alg.is_homogeneous(a)
        assert alg.degree(a) == 1

    def test_degrees_add(self):
        rng = random.Random(7)
        for _ in range(60):
            g = rng.choice(list(CATALOG.values()))
            a = random_element(g, rng)
            b = random_element(g, rng)
            pa = alg.homogeneous_components(a)
            pb = alg.homogeneous_components(b)
            if not pa or not pb:
                continue
            da = sorted(pa)[0]
            db = sorted(pb)[0]
            prod = pa[da] * pb[db]
            if not prod.is_zero:
                assert alg.degree(prod) == da + db

    def test_degree_errors(self):
        with pytest.raises(InputError):
            alg.degree(alg.zero(G1))
        with pytest.raises(InputError):
            alg.degree(alg.vertex(G1, "v") + alg.edge(G1, "e"))


class TestLocalUnits:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_local_unit(self, seed):
        rng = random.Random(seed)
        g = rng.choice(list(CATALOG.values()))
        a = random_element(g, rng)
        u = alg.local_unit(a)
        assert u * a == a
        assert a * u == a


class TestSingleLoopCorner:
    def test_degree_zero_span(self):
        # e^m e*^m collapses to v for every m
        e = alg.edge(G1, "e")
        x = alg.vertex(G1, "v")
        for m in range(1, 5):
            x = e * x * alg.star(e)
            assert x == alg.vertex(G1, "v")


class TestPrimeField:
    def test_modint_arithmetic(self):
        a = ModInt(3, 5)
        assert a + 4 == ModInt(2, 5)
        assert a * a == ModInt(4, 5)
        assert 1 / a == ModInt(2, 5)
        assert a - a == 0 and not (a - a)

    def test_field_spec_parsing(self):
        assert field_from_spec("q") == QQ
        assert field_from_spec("p:7") == PrimeField(7)
        with pytest.raises(InputError):
            field_from_spec("weird")

    def test_field_spec_keeps_the_reason(self):
        # PrimeField's own message comes through, and no message repeats
        # a long spec in full
        with pytest.raises(InputError, match=r"^6 is not prime$"):
            field_from_spec("p:6")
        for p in (_PRIME_LIMIT, int("1" * 400)):
            with pytest.raises(InputError, match=r"^prime fields need p < \d+$"):
                field_from_spec(f"p:{p}")
        with pytest.raises(InputError, match=r"^bad prime in field spec 'p:x'$"):
            field_from_spec("p:x")
        for spec in ("p:" + "x" * 400, "y" * 400):
            with pytest.raises(InputError) as exc:
                field_from_spec(spec)
            assert len(str(exc.value)) < 80

    def test_primality_matches_trial_division(self):
        def trial_division(p):
            return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

        for p in range(-2, 10**4):
            assert _is_prime(p) == trial_division(p), p
            if trial_division(p):
                assert PrimeField(p).p == p
            else:
                with pytest.raises(InputError, match="is not prime"):
                    PrimeField(p)

    def test_large_primes(self):
        start = time.perf_counter()
        assert field_from_spec(f"p:{2**61 - 1}") == PrimeField(2**61 - 1)
        assert PrimeField(2**31 - 1).p == 2**31 - 1
        assert time.perf_counter() - start < 0.5
        # the least strong pseudoprime to the first 12 prime bases: base 41
        # tells it is composite
        with pytest.raises(InputError, match="is not prime"):
            PrimeField(318665857834031151167461)
        for composite in (2**61 + 1, (2**31 - 1) * (10**9 + 7), (2**61 - 1) * (2**13 - 1)):
            with pytest.raises(InputError, match="is not prime"):
                PrimeField(composite)
        for p in (_PRIME_LIMIT, 2**127 - 1, int("1" * 400)):
            with pytest.raises(InputError, match="prime fields need p < "):
                PrimeField(p)
        with pytest.raises(InputError):
            field_from_spec("p:" + "1" * 400)

    def test_ring_axioms_over_gf5(self):
        rng = random.Random(8)
        gf5 = PrimeField(5)
        for _ in range(30):
            g = rng.choice([G1, G2, G3])
            a, b, c = (random_element(g, rng, field=gf5) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert alg.star(a * b) == alg.star(b) * alg.star(a)

    def test_char_collapse(self):
        gf2 = PrimeField(2)
        v = alg.vertex(G1, "v", field=gf2)
        assert (v + v).is_zero

    def test_no_field_mixing(self):
        with pytest.raises(InputError):
            alg.vertex(G1, "v") + alg.vertex(G1, "v", field=PrimeField(3))


class TestHomogeneousIdempotent:
    def test_vertex_trivial(self):
        w = alg.find_homogeneous_idempotent(alg.vertex(G1, "v"), 0)
        assert w.idempotent == alg.vertex(G1, "v")

    def test_single_loop_edge(self):
        w = alg.find_homogeneous_idempotent(alg.edge(G1, "e"), 1)
        eps = w.idempotent
        assert eps * eps == eps
        assert not eps.is_zero
        assert alg.is_homogeneous(eps)
        assert w.via_cycle

    def test_sink_corner(self):
        a = alg.ghost(G2, ("b", 0))
        w = alg.find_homogeneous_idempotent(a, 2)
        assert w is not None
        assert w.idempotent * w.idempotent == w.idempotent

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            alg.find_homogeneous_idempotent(alg.zero(G1), 2)
        with pytest.raises(InputError):
            alg.find_homogeneous_idempotent(
                alg.vertex(G1, "v") + alg.edge(G1, "e"), 2
            )

    def test_random_homogeneous_g1_g2(self):
        rng = random.Random(9)
        exhausted = 0
        for _ in range(25):
            g = rng.choice([G1, G2])
            a = random_element(g, rng)
            parts = alg.homogeneous_components(a)
            if not parts:
                continue
            a = parts[sorted(parts)[0]]
            w = alg.find_homogeneous_idempotent(a, 4)
            if w is None:
                exhausted += 1
                continue
            eps = w.idempotent
            assert eps * eps == eps
            assert alg.is_homogeneous(eps)
            assert not eps.is_zero
        # the bound-4 search may legitimately exhaust, but not usually
        assert exhausted <= 5
