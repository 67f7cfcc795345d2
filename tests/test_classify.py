import dataclasses
import importlib.util
import itertools
import json
import pathlib
import random
from collections import Counter

import pytest

from leavitt import chen, cli, graphs
from leavitt import classify as cls
from leavitt import ideals as idl
from leavitt.catalog import CATALOG, G1, G2, G3, G5, random_graph
from leavitt.errors import InputError, InternalCheckError
from leavitt.graphs import (
    Graph,
    breaking_vertices,
    enumerate_cycles,
    exitless_cycle_vertices,
    has_condition_L,
    is_downwards_directed,
    root,
)
from leavitt.graphio import emit_graph, parse_graph_document
import perpair
from smallgraphs import fan, three_vertex_graphs, two_bundle_graphs


def pair(g, H, S=()):
    return idl.admissible_pair(g, H, S)


def witness(g, p):
    return cls.chen_witness(g, cls.classify_graded_ideal(g, p))


# The all-cycles scans that classify.py replaced by reading the first cycle
# through a vertex; kept verbatim as the oracle of the first-cycle route.


def cycles_through(g, v):
    """The sample-2 cycles through v, in enumeration order."""
    return [c for c in graphs._cycles(g, 2) if v in c.vertex_set]


def all_cycles_classify_base_vertex(g, comp, v):
    if not any(g.tgt(ref) in comp for ref in g.out_refs(v, 2)):
        return cls.BaseVertex(v, "no_edges_out", None)
    # the cycles through v lie in comp, since H is hereditary
    thru = [(c, graphs._classify_cycle(g, c, comp)) for c in cycles_through(g, v)]
    if not thru:
        raise InternalCheckError(
            f"{v!r} emits into the complement but lies on no cycle"
        )
    for c, cl in thru:
        if cl.exclusive:
            return cls.BaseVertex(v, "exclusive_cycle", c)
    for c, cl in thru:
        if cl.extreme_in_V:
            return cls.BaseVertex(v, "extreme_cycle", c)
    raise InternalCheckError(
        f"no cycle through base vertex {v!r} is exclusive or extreme"
    )


def all_cycles_evaluate_by_cases(g, pair):
    comp = g.vertices - pair.H
    bases = perpair.base_vertices(g, comp)
    if not bases:
        return cls.GradedPrimitiveCase("none", reason="no base vertex (not downwards directed)")
    base = all_cycles_classify_base_vertex(g, comp, bases[0])
    form = perpair.s_form(g, pair)
    if form is None:
        return cls.GradedPrimitiveCase("none", reason="S misses more than one breaking vertex")
    case = {"no_edges_out": "3b", "extreme_cycle": "3c", "exclusive_cycle": "3d"}[
        base.kind
    ]
    if form.kind == "minus":
        if case == "3b":
            return cls.GradedPrimitiveCase(
                "none", reason="case b admits no broken vertex to drop"
            )
        shared = [
            c for c in cycles_through(g, form.u) if not c.vertex_set.isdisjoint(bases)
        ]
        if not shared:
            return cls.GradedPrimitiveCase(
                "none",
                reason=f"{form.u} shares no cycle with a base vertex",
            )
        for cyc in shared:
            cl = graphs._classify_cycle(g, cyc, comp)
            if (case == "3d" and cl.exclusive) or (case == "3c" and cl.extreme_in_V):
                return cls.GradedPrimitiveCase(case, form.u, cyc, form)
        raise InternalCheckError(
            f"no cycle through {form.u!r} matches case {case}"
        )
    return cls.GradedPrimitiveCase(case, base.v, base.cycle, form)


class TestFindBaseVertex:
    def test_g2_exclusive(self):
        base = cls.find_base_vertex(G2, ["w"])
        assert base.v == "v" and base.kind == "exclusive_cycle"
        assert str(base.cycle) == "c"

    def test_g2_sink(self):
        base = cls.find_base_vertex(G2, [])
        assert base.v == "w" and base.kind == "no_edges_out"

    def test_g5_extreme(self):
        base = cls.find_base_vertex(G5, [])
        assert base.v == "v" and base.kind == "extreme_cycle"

    def test_not_directed_returns_none(self):
        g = Graph(["a", "b"])
        assert cls.find_base_vertex(g, []) is None

    def test_invalid_h(self):
        with pytest.raises(InputError):
            cls.find_base_vertex(G3, ["u"])
        with pytest.raises(InputError):
            cls.find_base_vertex(G1, ["v"])  # empty complement

    def test_root_property(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_graph(rng)
            for p in idl.enumerate_admissible_pairs(g):
                if not idl.is_proper(g, p):
                    continue
                base = cls.find_base_vertex(g, p.H)
                if base is not None:
                    assert root(g, [base.v]) == g.vertices - p.H
                # evaluate_by_cases lists the base vertices itself
                case = perpair.evaluate_by_cases(g, p)
                record = cls.classify_graded_ideal(g, p)
                assert record.graded_primitive == case.graded_primitive
                if case.graded_primitive:
                    assert record.case == case
                if base is None:
                    assert case.case == "none"
                elif p.S == breaking_vertices(g, p.H):
                    assert (case.v, case.cycle) == (base.v, base.cycle)

    def test_classification_builds_no_path_or_cycle(self, monkeypatch):
        # Cycles from the graph's own list are not validated again.
        calls = []
        for name in ("make_path", "make_cycle", "check_cycle"):
            check = getattr(graphs, name)
            monkeypatch.setattr(
                graphs, name, lambda *a, _n=name, _f=check: calls.append(_n) or _f(*a)
            )
        rng = random.Random(23)
        for g in list(CATALOG.values()) + [random_graph(rng) for _ in range(40)]:
            for p in idl.enumerate_admissible_pairs(g):
                if idl.is_proper(g, p):
                    cls.classify_graded_ideal(g, p)
        assert calls == []


class TestFirstCycleDecides:
    def test_matches_all_cycles_scans(self):
        rng = random.Random(57)
        sweep = itertools.chain(
            CATALOG.values(),
            three_vertex_graphs(),
            (random_graph(rng) for _ in range(300)),
        )
        seen = Counter()
        for g in sweep:
            complements = set()
            for p in idl.enumerate_admissible_pairs(g):
                if not idl.is_proper(g, p):
                    continue
                comp = g.vertices - p.H
                if comp not in complements:
                    complements.add(comp)
                    for v in perpair.base_vertices(g, comp):
                        base = cls.classify_base_vertex(g, comp, v)
                        assert base == all_cycles_classify_base_vertex(g, comp, v)
                        seen[base.kind] += 1
                case = perpair.evaluate_by_cases(g, p)
                assert case == all_cycles_evaluate_by_cases(g, p)
                # the production route reads the same case off its per-H facts
                record = cls.classify_graded_ideal(g, p)
                assert record.graded_primitive == case.graded_primitive
                if case.graded_primitive:
                    assert record.case == case
                seen[case.case, case.s_form and case.s_form.kind] += 1
                if case.reason and "shares no cycle" in case.reason:
                    seen["u is no base vertex"] += 1
        for key in (
            "no_edges_out", "extreme_cycle", "exclusive_cycle",
            ("3c", "minus"), ("3d", "minus"), "u is no base vertex",
        ):
            assert seen[key] > 0, key


def _random_dense(rng, n, m, nbundles):
    """n vertices with m edges and nbundles bundles at seeded ends."""
    vs = [f"v{i}" for i in range(n)]
    edges = {f"e{i:02d}": (rng.choice(vs), rng.choice(vs)) for i in range(m)}
    bundles = {f"b{i}": (rng.choice(vs), rng.choice(vs)) for i in range(nbundles)}
    return Graph(vs, edges, bundles)


class TestPerHFacts:
    def test_matches_per_pair_route(self):
        # The route that reads the facts of each H once against the per-pair
        # route, run on a copy of the graph so that it reads nothing the
        # first remembered: equal records, reasons and witness cycles
        # included.
        rng = random.Random(22)
        sweep = itertools.chain(
            CATALOG.values(),
            (fan(k) for k in range(1, 8)),
            two_bundle_graphs(random.Random(8), 40),
            (random_graph(rng, 7, 12, 3) for _ in range(60)),
            itertools.islice(three_vertex_graphs(), 0, None, 5),
        )
        seen = Counter()
        for g in sweep:
            copy = Graph(g.vertices, g.edges, g.bundles)
            for p in idl.enumerate_admissible_pairs(g):
                if not idl.is_proper(g, p):
                    continue
                record = cls.classify_graded_ideal(g, p)
                assert record == perpair.classify_graded_ideal(copy, p), (
                    g.edges, g.bundles, p.label()
                )
                case = record.case
                if case.reason:
                    seen[case.reason.partition("(")[0].strip()] += 1
                else:
                    seen[case.case, case.s_form.kind] += 1
        assert sorted(seen, key=str) == sorted([
            ("3b", "full"), ("3c", "full"), ("3c", "minus"), ("3d", "full"),
            ("3d", "minus"), "S misses more than one breaking vertex",
            "complement not downwards directed", "root",
        ], key=str), seen

    @pytest.mark.parametrize("name", ["fan5", "rd60"])
    def test_classify_all_builds_facts_once_per_h(self, capsys, monkeypatch, tmp_path, name):
        # The facts of each proper H, downward-directedness included, are
        # built once, whatever the number of pairs on it.
        g = fan(5) if name == "fan5" else _random_dense(random.Random(3), 60, 80, 4)
        path = tmp_path / f"{name}.graph"
        path.write_text(emit_graph(g))
        built, directed = [], []
        facts, downwards_directed = cls._HFacts, cls.is_downwards_directed
        monkeypatch.setattr(cls, "_HFacts", lambda g, H: built.append(H) or facts(g, H))
        monkeypatch.setattr(
            cls, "is_downwards_directed", lambda g, V: directed.append(V) or downwards_directed(g, V)
        )
        assert cli.main(["--json", "classify", str(path), "--all"]) == 0
        out = capsys.readouterr().out
        labels = [r["pair"] for r in json.loads(out)["records"]]
        proper = list(dict.fromkeys(
            frozenset(label[2:label.index("},{")].split(",")) - {""} for label in labels
        ))
        assert built == proper
        assert directed == [g.vertices - H for H in proper]
        assert len(labels) > len(proper) > 1


class TestClassifyGradedIdeal:
    def test_g1_zero_pair(self):
        r = cls.classify_graded_ideal(G1, pair(G1, []))
        assert r.graded_prime
        assert r.graded_primitive
        assert r.case.case == "3d"
        assert not r.primitive

    def test_g2_records(self):
        r1 = cls.classify_graded_ideal(G2, pair(G2, ["w"], ["v"]))
        assert r1.case.case == "3d" and r1.case.s_form.kind == "full"
        assert r1.graded_primitive and not r1.primitive

        r2 = cls.classify_graded_ideal(G2, pair(G2, ["w"]))
        assert r2.case.case == "3d"
        assert r2.case.s_form.kind == "minus" and r2.case.s_form.u == "v"
        assert r2.primitive

        r3 = cls.classify_graded_ideal(G2, pair(G2, []))
        assert r3.case.case == "3b" and r3.primitive

    def test_g5_extreme_case(self):
        r = cls.classify_graded_ideal(G5, pair(G5, []))
        assert r.case.case == "3c" and r.primitive

    def test_not_primitive_graphs(self):
        # two components: nothing is graded primitive
        g = Graph(["a", "b"], edges={"x": ("a", "a"), "y": ("b", "b")})
        r = cls.classify_graded_ideal(g, pair(g, []))
        assert not r.graded_primitive and not r.graded_prime
        assert r.case.reason

    def test_improper_rejected(self):
        with pytest.raises(InputError):
            cls.classify_graded_ideal(G1, pair(G1, ["v"]))

    def test_minus_requires_full_root(self):
        # G3 ({w}, {}): S = B_H - {u} but root(u) != complement
        r = cls.classify_graded_ideal(G3, pair(G3, ["w"]))
        assert not r.graded_primitive
        r_full = cls.classify_graded_ideal(G3, pair(G3, ["w"], ["u"]))
        assert r_full.graded_primitive and r_full.case.case == "3d"


class TestAlgebraLevel:
    def test_graded_primitive_algebra(self):
        assert cls.is_graded_primitive_algebra(G1)
        assert cls.is_graded_primitive_algebra(G2)
        assert not cls.is_graded_primitive_algebra(G3)

    def test_two_sinks(self):
        assert not cls.is_graded_primitive_algebra(Graph(["a", "b"]))

    def test_matches_zero_pair(self):
        for g in CATALOG.values():
            r = cls.classify_graded_ideal(g, pair(g, []))
            assert cls.is_graded_primitive_algebra(g) == r.graded_primitive


class TestIsPrimitive:
    def test_nongraded_descriptor(self):
        (c,) = enumerate_cycles(G1)
        d = idl.NonGradedPrimitiveIdeal(pair(G1, []), c, idl.laurent({0: 1, 1: 1}))
        assert cls.is_primitive(G1, d)

    def test_nongraded_invalid_poly(self):
        (c,) = enumerate_cycles(G1)
        with pytest.raises(InputError):
            cls.is_primitive(
                G1, idl.NonGradedPrimitiveIdeal(pair(G1, []), c, idl.laurent({3: 2}))
            )

    def test_high_degree_poly_is_undecided(self):
        # (x^2 - 1)^2 is reducible; past degree 3 nothing is taken on trust
        (c,) = enumerate_cycles(G1)
        d = idl.NonGradedPrimitiveIdeal(pair(G1, []), c, idl.laurent({0: 1, 2: -2, 4: 1}))
        for call in (idl.validate_descriptor, cls.is_primitive):
            with pytest.raises(InputError, match="degree 4 > 3"):
                call(G1, d)

    def test_graded_descriptors(self):
        assert not cls.is_primitive(G1, idl.GradedIdeal(pair(G1, [])))
        assert not cls.is_primitive(G2, idl.GradedIdeal(pair(G2, ["w"], ["v"])))
        assert cls.is_primitive(G2, idl.GradedIdeal(pair(G2, ["w"])))


class TestOracleEquivalence:
    def test_sweep(self):
        rng = random.Random(22)
        graphs = list(CATALOG.values()) + [random_graph(rng) for _ in range(60)]
        for g in graphs:
            for p in idl.enumerate_admissible_pairs(g):
                if not idl.is_proper(g, p):
                    continue
                # classify_graded_ideal raises InternalCheckError on any
                # disagreement between the two routes
                r = cls.classify_graded_ideal(g, p)
                # graded prime, read off the quotient graph, in both directions
                qg = idl.quotient_graph(g, p)
                assert r.graded_prime == is_downwards_directed(
                    qg.graph, qg.graph.vertices
                )[0]
                if r.graded_primitive:
                    assert r.primitive == has_condition_L(
                        qg.graph, qg.graph.vertices
                    )[0]


class TestChenWitness:
    def test_g2_full(self):
        w = witness(G2, pair(G2, ["w"], ["v"]))
        assert w.kind == "exclusive_cycle"
        assert isinstance(w.descriptor, chen.NcModule)
        assert w.descriptor.v == "v"

    def test_g2_minus(self):
        w = witness(G2, pair(G2, ["w"]))
        assert w.kind == "exclusive_cycle"
        assert isinstance(w.descriptor, chen.InfEmitterModule)
        assert w.descriptor.subtype == "in_B_H"

    def test_g5_irrational(self):
        w = witness(G5, pair(G5, []))
        assert w.kind == "extreme_cycle"
        assert isinstance(w.descriptor, chen.VAlphaModule)
        rule = w.descriptor.tail
        assert [str(rule.edge_at(i)) for i in range(1, 7)] == [
            "d", "e", "d", "d", "e", "e",
        ]

    def test_g2_sink_witness(self):
        w = witness(G2, pair(G2, []))
        assert w.kind == "relative_sink"
        # equality, not isinstance: an emitter descriptor is a SinkModule too
        assert w.descriptor == chen.SinkModule("w")

    def test_emitter_relative_sink_witness(self):
        g = Graph(["a", "b"], bundles={"b0": ("a", "b")})
        w = witness(g, idl.admissible_pair(g, ["b"]))
        assert w.kind == "relative_sink"
        assert isinstance(w.descriptor, chen.InfEmitterModule)
        assert w.descriptor.subtype == "empty"

    def test_rejects_non_primitive(self):
        with pytest.raises(InputError):
            witness(G3, pair(G3, ["w"]))

    def test_rejects_record_of_another_pair(self):
        # The witness is checked against the record's pair, so a record
        # whose case belongs to another pair fails.
        r = cls.classify_graded_ideal(G2, pair(G2, ["w"], ["v"]))
        wrong = dataclasses.replace(r, pair=pair(G2, ["w"]))
        with pytest.raises(InternalCheckError):
            cls.chen_witness(G2, wrong)

    def test_minus_form_shares_emitted_cycle(self):
        rng = random.Random(41)
        graphs = list(CATALOG.values()) + [random_graph(rng) for _ in range(40)]
        seen = 0
        for g in graphs:
            for p in idl.enumerate_admissible_pairs(g):
                if not idl.is_proper(g, p):
                    continue
                record = cls.classify_graded_ideal(g, p)
                case = record.case
                if case.graded_primitive and case.s_form.kind == "minus":
                    seen += 1
                    assert case.s_form.u in case.cycle.vertex_set
                    assert case.v in case.cycle.vertex_set
        assert seen > 0

    def test_annihilator_closure_random(self):
        rng = random.Random(23)
        graphs = list(CATALOG.values()) + [random_graph(rng) for _ in range(50)]
        seen_kinds = set()
        for g in graphs:
            for p in idl.enumerate_admissible_pairs(g):
                if not idl.is_proper(g, p):
                    continue
                r = cls.classify_graded_ideal(g, p)
                if not r.graded_primitive:
                    continue
                w = cls.chen_witness(g, r)  # asserts ann(witness) == pair
                seen_kinds.add(w.kind)
                assert chen.annihilator(g, w.descriptor) == idl.GradedIdeal(p)
        assert seen_kinds == {"relative_sink", "extreme_cycle", "exclusive_cycle"}

    def test_extreme_single_return_edge_corner(self):
        """A breaking vertex on an extreme cycle can have exactly one return
        edge; the witness module still has the right annihilator."""
        g = Graph(
            ["u", "a", "b", "h"],
            edges={
                "e1": ("u", "a"),
                "e2": ("a", "u"),
                "e3": ("a", "b"),
                "e4": ("b", "a"),
            },
            bundles={"bb": ("u", "h")},
        )
        p = idl.admissible_pair(g, ["h"])  # S = B_H - {u}
        r = cls.classify_graded_ideal(g, p)
        assert r.graded_primitive and r.case.case == "3c"
        w = cls.chen_witness(g, r)
        assert w.kind == "extreme_cycle"
        assert isinstance(w.descriptor, chen.InfEmitterModule)
        assert chen.return_edge_count(g, "u") == 1


def _bench_inputs():
    """The benchmark's seeded input generators, bench/inputs.py, loaded
    read-only by path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestNoCycleEnumeration:
    def test_classify_all_lists_no_cycles(self, monkeypatch, tmp_path, capsys):
        # K_12 plus a sink has about 10^8 simple cycles, so listing them
        # would not finish; classify finds each cycle it needs by search.
        def refuse(*args):
            raise AssertionError("cycles were enumerated")

        monkeypatch.setattr(graphs, "_enumerate_cycles", refuse)
        inputs = _bench_inputs()
        cases = {
            "k12": (inputs.complete_plus_sink(12), ["3b", "3c"]),
            "dense40": (inputs.random_dense(random.Random(4), 40, 100, 3), None),
        }
        for name, (desc, want_cases) in cases.items():
            path = tmp_path / f"{name}.txt"
            path.write_text(inputs.graph_text(desc))
            assert cli.main(["--json", "classify", str(path), "--all"]) == 0
            records = json.loads(capsys.readouterr().out)["records"]
            assert records
            if want_cases is not None:
                assert [r["case"] for r in records] == want_cases
            g = parse_graph_document(path.read_text()).graph
            assert has_condition_L(g, g.vertices) == (True, None)
            assert exitless_cycle_vertices(g) == {}
