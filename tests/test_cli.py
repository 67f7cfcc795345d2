import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt import chen, cli
from leavitt import classify as cls
from leavitt.branching import AxiomReport, Truncation
from leavitt.catalog import CATALOG, G2, G3, G4, random_graph
from leavitt.errors import InputError
from leavitt.fields import QQ, ModInt, PrimeField
from leavitt.graphs import (
    RationalTailSpec,
    breaking_vertices,
    enumerate_paths,
    ref_str,
    vertex_path,
)
from leavitt.graphio import (
    _tokenize,
    emit_graph,
    parse_element,
    parse_graph_document,
    parse_monomial,
    to_dot,
)
from leavitt import algebra as alg
from leavitt import ideals as idl
from leavitt import verification
from exprparse import parse_element_oracle, tokenize_oracle
import perpair
from smallgraphs import fan, three_vertex_graphs, two_bundle_graphs

G3_TEXT = """
# entry edge into a loop, bundle to a sink
vertex u
vertex v
vertex w
edge e u v
edge c v v
bundle b u w
cycle loop c
path entry e
path at_v @v
pair P {w} {u}
"""


class TestGraphFileParsing:
    def test_full_document(self):
        doc = parse_graph_document(G3_TEXT)
        assert doc.graph == G3
        assert str(doc.cycles["loop"]) == "c"
        assert str(doc.paths["entry"]) == "e"
        assert doc.paths["at_v"].is_vertex
        assert doc.pairs["P"] == idl.admissible_pair(G3, ["w"], ["u"])

    def test_duplicate_id_diagnostics(self):
        with pytest.raises(InputError) as err:
            parse_graph_document("vertex a\nvertex a\n")
        assert "line 2" in str(err.value)

    def test_unknown_declaration(self):
        with pytest.raises(InputError) as err:
            parse_graph_document("vertex a\nwidget x\n")
        assert "line 2" in str(err.value)

    def test_no_vertices(self):
        with pytest.raises(InputError):
            parse_graph_document("# empty\n")

    def test_bad_identifier(self):
        with pytest.raises(InputError):
            parse_graph_document("vertex a'\n")

    def test_round_trip_catalog(self):
        for g in CATALOG.values():
            assert parse_graph_document(emit_graph(g)).graph == g

    def test_json_document(self):
        data = {
            "vertices": ["v", "w"],
            "edges": {"c": ["v", "v"]},
            "bundles": {"b": ["v", "w"]},
            "pairs": {"P": [["w"], ["v"]]},
        }
        doc = parse_graph_document(json.dumps(data))
        assert doc.graph == G2
        assert doc.pairs["P"] == idl.admissible_pair(G2, ["w"], ["v"])

    def test_bad_json(self):
        with pytest.raises(InputError):
            parse_graph_document("{not json")

    def test_json_step_string_reads_as_text_token(self):
        data = {**V_LOOP_JSON, "cycles": {"loop": ",c"}, "paths": {"cc": "c,,c", "at_v": "@v"}}
        doc = parse_graph_document(json.dumps(data))
        text = parse_graph_document(
            "vertex v\nedge c v v\ncycle loop ,c\npath cc c,,c\npath at_v @v\n"
        )
        assert doc.cycles == text.cycles and doc.paths == text.paths


class TestExpressionParser:
    def test_vertex_edge_star(self):
        assert parse_element(G3, "u") == alg.vertex(G3, "u")
        assert parse_element(G3, "e*") == alg.star(alg.edge(G3, "e"))

    def test_paper_relation(self):
        e = alg.edge(G3, "e")
        assert parse_element(G3, "u - e e*") == alg.vertex(G3, "u") - e * alg.star(e)

    def test_scalars(self):
        half = parse_element(G3, "1/2 e")
        assert half == alg.edge(G3, "e").scale("1/2")
        assert parse_element(G3, "0").is_zero
        assert parse_element(G3, "2 v - v - v").is_zero

    def test_bare_scalar_is_identity_multiple(self):
        one = parse_element(G3, "1")
        for v in G3.vertex_list:
            assert one * alg.vertex(G3, v) == alg.vertex(G3, v)

    def test_parentheses_and_products(self):
        a = parse_element(G3, "(u - e e*) e")
        assert a.is_zero

    def test_bundle_indexing(self):
        assert parse_element(G3, "b[2]") == alg.edge(G3, ("b", 2))
        with pytest.raises(InputError):
            parse_element(G3, "b")

    def test_star_on_group(self):
        a = parse_element(G3, "(e c)*")
        p = alg.edge(G3, "e") * alg.edge(G3, "c")
        assert a == alg.star(p)

    def test_errors(self):
        with pytest.raises(InputError):
            parse_element(G3, "nope")
        with pytest.raises(InputError):
            parse_element(G3, "e +")
        with pytest.raises(InputError):
            parse_element(G3, "(e")

    def test_nesting_limit(self):
        assert parse_element(G3, "(" * 100 + "u" + ")" * 100) == alg.vertex(G3, "u")
        assert parse_element(G3, "(u) " * 300) == alg.vertex(G3, "u")  # siblings, not depth
        for text in ("(" * 101 + "u" + ")" * 101, "(" * 5000):
            with pytest.raises(InputError, match="nests deeper than 100 parentheses"):
                parse_element(G3, text)

    def test_terms_fold_without_element_arithmetic(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the parser built an intermediate element")

        monkeypatch.setattr(alg, "multiply", refuse)
        monkeypatch.setattr(alg, "star", refuse)
        calls = []
        normalize = alg._normalize
        monkeypatch.setattr(alg, "_normalize", lambda g, raw: calls.append(g) or normalize(g, raw))
        # two outer terms each, and the three inside the groups
        cases = {"3 b[1] e (b[1] e)* + 1/2 (u - e e*) e": 5, "2 e c (c c)* - (u - e e*)*": 5}
        parsed = {}
        for text, terms in cases.items():
            calls.clear()
            parsed[text] = parse_element(G3, text)
            assert len(calls) == terms, text
        monkeypatch.undo()
        for text, a in parsed.items():
            assert a == parse_element_oracle(G3, text)
        assert str(parsed["2 e c (c c)* - (u - e e*)*"]) == "-u + 2 e c* + e e*"

    def test_name_factors_fold_without_coefficient_products(self, monkeypatch):
        field = _CountingGF7()
        products = []
        mul = ModInt.__mul__

        def counted(a, b):
            products.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(ModInt, "__mul__", counted)
        monkeypatch.setattr(ModInt, "__rmul__", counted)
        # name runs and groups with unit coefficients pass coefficients
        # through; the scalar 2 scales once; 2 * 3 is a product of groups
        cases = {"e c (c c)*": 0, "u e c c* (c)* c": 0, "2 (u - e e*) e": 1, "(2 u) (3 u)": 1}
        for parses, (text, count) in enumerate(cases.items(), start=1):
            products.clear()
            a = parse_element(G3, text, field)
            assert len(products) == count, (text, products)
            assert field.one_reads == parses, text
            assert a.terms == parse_element_oracle(G3, text, PrimeField(7)).terms, text

    def test_unit_scalars_that_are_not_the_shared_one(self):
        gf7 = PrimeField(7)
        cases = [(QQ, "1 e"), (QQ, "1/1 e c*"), (QQ, "2/2 (u + e)"), (gf7, "8 e"),
                 (gf7, "15/8 e"), (gf7, "8/7 e"), (QQ, "1 b")]
        errors = 0
        for field, text in cases:
            new = _outcome(parse_element, G3, text, field)
            assert new == _outcome(parse_element_oracle, G3, text, field), (field.name, text)
            if new[0] == "error":
                errors += 1
            else:
                for k in new[0].terms.values():
                    assert k == field.one and type(k) is type(field.one), (text, k)
        assert errors == 2

    def test_parse_monomial(self):
        m = parse_monomial(G3, "e c")
        assert str(m.p) == "ec" and m.q.is_vertex
        with pytest.raises(InputError):
            parse_monomial(G3, "e + c")
        with pytest.raises(InputError):
            parse_monomial(G3, "2 e")


class _CountingGF7:
    """GF(7) that counts the reads of its ``one``."""

    name = "GF(7)"

    def __init__(self):
        self.field = PrimeField(7)
        self.one_reads = 0

    @property
    def one(self):
        self.one_reads += 1
        return self.field.one

    @property
    def zero(self):
        return self.field.zero

    def coerce(self, x):
        return self.field.coerce(x)


def _random_expression(rng, g, depth=0):
    """A seeded expression over g: signs, integer and a/b scalars (some 0 or
    undefined mod 7), bare scalars, bundle refs, stars and doubled stars,
    starred groups, groups nested up to depth 4, and now and then a bundle
    without its index or an unknown name."""
    paths = list(enumerate_paths(g, 2, 2))
    names = list(g.vertex_list) + [ref_str(r) for v in g.vertex_list for r in g.out_refs(v, 3)]
    terms = []
    for i in range(rng.randint(1, 3)):
        sign = rng.choice(["", "", "-", "+"]) if i == 0 else rng.choice(["+", "-"])
        scalar = rng.choice(["", "", "", "", "", "2", "1/2", "3/4", "7", "14/3", "0"])
        if rng.random() < 0.02:
            scalar = rng.choice(["1/7", "2/7", "1/0"])  # undefined in GF(7)
        factors = []
        shape = rng.random()
        if shape < 0.1 and scalar:
            pass  # a bare scalar: that multiple of the identity
        elif shape < 0.5:
            # p q*, spelled as the bench pool spells it: atoms, then a starred group
            p = rng.choice(paths)
            q = rng.choice([x for x in paths if x.end == p.end])
            factors = [ref_str(r) for r in p.steps] or [p.start]
            if q.steps:
                factors.append("(" + " ".join(ref_str(r) for r in reversed(q.steps)) + ")*")
        else:
            for _ in range(rng.randint(1, 3)):
                if depth < 3 and rng.random() < 0.3:
                    f = "(" + _random_expression(rng, g, depth + 1) + ")"
                elif rng.random() < 0.03:
                    f = rng.choice(sorted(g.bundles) or ["zz"]) if rng.random() < 0.7 else "zz"
                else:
                    f = rng.choice(names)
                factors.append(f + rng.choice(["", "", "", "*", "**"]))
        terms.append(" ".join(x for x in (sign, scalar, *factors) if x))
    return " ".join(terms)


def _outcome(parse, g, text, field):
    try:
        a = parse(g, text, field)
    except InputError as exc:
        return "error", str(exc)
    return a, str(a)


def _expression_corpus():
    """(graph, field, text) for 3,540 seeded expressions over G1-G6 and every
    97th three-vertex graph, over QQ and GF(7)."""
    rng = random.Random(20)
    graphs = list(CATALOG.values()) + list(itertools.islice(three_vertex_graphs(), 0, None, 97))
    for g in graphs:
        for field in (QQ, PrimeField(7)):
            for _ in range(30):
                yield g, field, _random_expression(rng, g)


class TestParserOracle:
    def test_agrees_with_the_operator_route(self):
        seen = dict.fromkeys(["element", "zero", "error", "**", ")*", "[", "/", "- "], 0)
        depths, errors = set(), set()
        for g, field, text in _expression_corpus():
            new = _outcome(parse_element, g, text, field)
            old = _outcome(parse_element_oracle, g, text, field)
            assert new == old, (g.edges, g.bundles, field.name, text)
            if new[0] == "error":
                errors.add(new[1].split(" ")[0])
                seen["error"] += 1
            else:
                seen["zero" if new[0].is_zero else "element"] += 1
            for feature in ("**", ")*", "[", "/", "- "):
                seen[feature] += feature in text
            level = 0
            for ch in text:
                level += (ch == "(") - (ch == ")")
                depths.add(level)
        assert seen["element"] > 1500 and seen["zero"] > 500 and 100 < seen["error"] < 700, seen
        assert min(seen.values()) > 100, seen
        assert depths == {0, 1, 2, 3, 4}
        assert errors == {"scalar", "bundle", "unknown"}, errors


class TestDot:
    def test_quotient_dot(self):
        qg = idl.quotient_graph(G2, idl.admissible_pair(G2, ["w"]))
        dot = to_dot(qg.graph, qg, name="quotient")
        assert dot.startswith("digraph quotient {")
        assert dot.count("{") == dot.count("}")
        assert dot.count('"v\'"') >= 1
        # each primed vertex declared exactly once
        assert sum(1 for line in dot.splitlines() if line.strip().startswith('"v\'"') and "->" not in line) == 1
        assert "style=dashed" in dot


_REAL_ROOT = verification.root

# Faults injected into the names the suites use: (replacement, failing checks).
INJECTED = {
    "has_icsp": (
        lambda g, V: (False, frozenset()),
        ["icsp holds with witness C = V on finite graphs"],
    ),
    "check_axioms": (
        lambda system, t: AxiomReport(),
        ["the unreduced pair system fails exactly axiom (4) at the vertex"],
    ),
    "is_saturated": (
        lambda g, H: (False, None),
        ["complement of a root is hereditary (saturated given returns)"],
    ),
    "root": (
        lambda g, V: _REAL_ROOT(g, V) | {g.vertex_list[-1]},
        [
            "root is a closure operator",
            "complement of a root is hereditary (saturated given returns)",
            "quotient downward-directedness matches the finite criterion",
            "emitter subtype matches breaking-vertex membership",
        ],
    ),
}


@pytest.fixture(autouse=True)
def json_writer_oracle(monkeypatch):
    """Every report a test here emits, as text or as JSON, is also written
    by ``cli._json`` and compared with ``json.dumps``, its oracle."""
    emit = cli._emit

    def checked(report, as_json):
        assert cli._json(report) == json.dumps(report, indent=2, default=str)
        emit(report, as_json)

    monkeypatch.setattr(cli, "_emit", checked)


_JSON_STRING = st.text('"\\{}[],: \n\t\x00\x7f/abé€\u2028😀', max_size=8)
_JSON_SCALAR = (
    _JSON_STRING | st.booleans() | st.none() | st.integers() | st.floats()
    | st.frozensets(st.integers(0, 9), max_size=3)  # written through default=str
)
_JSON_NESTED = st.recursive(
    _JSON_SCALAR,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(_JSON_STRING, max_size=4)
    | st.dictionaries(_JSON_STRING, inner, max_size=4)
    | st.dictionaries(_JSON_STRING | st.integers() | st.booleans() | st.none() | st.floats(),
                      inner, max_size=3),
    max_leaves=6,
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_JSON_NESTED)
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2, default=str)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    @pytest.fixture()
    def g2_file(self, tmp_path):
        path = tmp_path / "g2.graph"
        path.write_text(emit_graph(G2) + "cycle loop c\npair full {w} {v}\n")
        return str(path)

    @pytest.fixture()
    def g3_file(self, tmp_path):
        path = tmp_path / "g3.graph"
        path.write_text(G3_TEXT)
        return str(path)

    def test_pairs(self, capsys, g2_file):
        code, out, _ = run_cli(capsys, "pairs", g2_file)
        assert code == 0
        assert "count: 4" in out

    def test_pairs_json(self, capsys, g2_file):
        code, out, _ = run_cli(capsys, "--json", "pairs", g2_file)
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 4
        assert [p["label"] for p in data["pairs"]] == [
            "({},{})", "({v,w},{})", "({w},{})", "({w},{v})",
        ]

    def test_classify_all(self, capsys, g2_file):
        code, out, _ = run_cli(capsys, "--json", "classify", g2_file, "--all")
        assert code == 0
        records = {r["pair"]: r for r in json.loads(out)["records"]}
        assert records["({w},{v})"]["graded_primitive"] is True
        assert records["({w},{v})"]["primitive"] is False
        assert records["({w},{})"]["primitive"] is True
        assert records["({},{})"]["primitive"] is True

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_classify_all_once_per_record_without_quotients(
        self, capsys, monkeypatch, tmp_path, name
    ):
        # chen_witness takes the record, so each pair is classified once,
        # and graded primality needs no quotient graph.
        path = tmp_path / f"{name}.graph"
        path.write_text(emit_graph(CATALOG[name]))
        docs, calls = [], []
        parse, classify = cli.parse_graph_document, cls.classify_graded_ideal

        def parsed(text):
            docs.append(parse(text))
            return docs[-1]

        def counted(g, pair):
            calls.append(pair)
            return classify(g, pair)

        monkeypatch.setattr(cli, "parse_graph_document", parsed)
        monkeypatch.setattr(cls, "classify_graded_ideal", counted)
        code, out, _ = run_cli(capsys, "--json", "classify", str(path), "--all")
        assert code == 0
        assert len(calls) == len(json.loads(out)["records"]) > 0
        assert docs[0].graph._analysis.quotients == {}

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_classify_named_pair(self, capsys, g2_file):
        code, out, _ = run_cli(capsys, "classify", g2_file, "--pair", "full")
        assert code == 0
        assert "case: 3d" in out

    def test_classify_improper_exit_2(self, capsys, g2_file):
        code, _, err = run_cli(capsys, "classify", g2_file, "--pair", "{v,w},{}")
        assert code == 2
        assert "improper" in err

    def test_quotient_with_dot(self, capsys, tmp_path, g2_file):
        dot_path = str(tmp_path / "q.dot")
        code, out, _ = run_cli(
            capsys, "--json", "quotient", g2_file, "--pair", "{w},{}", "--dot", dot_path
        )
        assert code == 0
        data = json.loads(out)
        assert data["vertices"] == ["v", "v'"]
        assert data["primed_vertices"] == {"v": "v'"}
        with open(dot_path) as fh:
            assert "digraph" in fh.read()

    def test_act_paper_example(self, capsys, g3_file):
        code, out, _ = run_cli(
            capsys, "--json", "act", g3_file,
            "--module", "nc:loop@v", "--element", "u - e e*", "--basis", "e",
        )
        assert code == 0
        assert json.loads(out)["result"] == "0"

    def test_act_ghost(self, capsys, g3_file):
        code, out, _ = run_cli(
            capsys, "--json", "act", g3_file,
            "--module", "nc:loop@v", "--element", "c*", "--basis", "v",
        )
        assert code == 0
        assert json.loads(out)["result"] == "c*"

    def test_act_zero_element(self, capsys, g3_file):
        code, out, _ = run_cli(
            capsys, "--json", "act", g3_file,
            "--module", "nc:loop@v", "--element", "0", "--basis", "v",
        )
        assert code == 0
        assert json.loads(out)["result"] == "0"

    def test_act_overflow_exit_3(self, capsys, g3_file):
        # one escape through sigma, one through sigma_inv
        for element, escaped in [("c c c", "ccc"), ("c* c* c*", "c*c*c*")]:
            code, _, err = run_cli(
                capsys, "act", g3_file,
                "--module", "nc:loop@v", "--element", element, "--basis", "v",
                "--window", "2", "1",
            )
            assert code == 3
            assert err == f"window overflow: basis element escapes the window: {escaped}\n"

    def test_ann_verify(self, capsys, g3_file):
        code, out, _ = run_cli(
            capsys, "--json", "ann", g3_file, "--module", "nc:loop@v", "--verify"
        )
        assert code == 0
        data = json.loads(out)
        assert data["annihilator"] == "I({w},{u})"
        assert data["verify"]["passed"] is True

    def test_ann_g4(self, capsys, tmp_path):
        path = tmp_path / "g4.graph"
        path.write_text("vertex v\nbundle b v v\n")
        code, out, _ = run_cli(
            capsys, "--json", "ann", str(path), "--module", "emitter:v", "--verify",
            "--window", "4", "3",
        )
        assert code == 0
        data = json.loads(out)
        assert data["annihilator"] == "I({},{})"
        assert data["verify"]["passed"] is True

    def test_ann_valpha_irrational(self, capsys, tmp_path):
        path = tmp_path / "g4.graph"
        path.write_text("vertex v\nbundle b v v\n")
        code, out, _ = run_cli(
            capsys, "--json", "ann", str(path),
            "--module", "valpha:irr:b[0]:b[1]", "--verify", "--window", "3", "3",
        )
        assert code == 0
        assert json.loads(out)["annihilator"] == "I({},{})"

    def test_act_rational_tail(self, capsys, g2_file):
        # e* on the pure tail c^inf rotates it; acting with c fixes it
        code, out, _ = run_cli(
            capsys, "--json", "act", g2_file,
            "--module", "valpha:rat:@v:loop", "--element", "c", "--basis", "v",
        )
        assert code == 0
        assert json.loads(out)["result"] == "v(c)^inf"

    def test_act_irrational_tail(self, capsys, tmp_path):
        path = tmp_path / "g4.graph"
        path.write_text("vertex v\nbundle b v v\n")
        code, out, _ = run_cli(
            capsys, "--json", "act", str(path),
            "--module", "valpha:irr:b[0]:b[1]",
            "--element", "b[0]*", "--basis", "v@0", "--window", "3", "3",
        )
        assert code == 0
        assert json.loads(out)["result"] == "shift^1(alpha)"

    def test_act_irrational_bad_shift(self, capsys, tmp_path):
        path = tmp_path / "g4.graph"
        path.write_text("vertex v\nbundle b v v\n")
        code, _, err = run_cli(
            capsys, "act", str(path),
            "--module", "valpha:irr:b[0]:b[1]",
            "--element", "v", "--basis", "v@x",
        )
        assert code == 2

    def test_sink_module_act(self, capsys, g2_file):
        code, out, _ = run_cli(
            capsys, "--json", "act", g2_file,
            "--module", "sink:w", "--element", "b[0]", "--basis", "w",
        )
        assert code == 0
        assert json.loads(out)["result"] == "b[0]"

    @pytest.mark.parametrize(
        "module, basis, end",
        [("sink:w", "v", "v"), ("emitter:v", "b[0]", "w")],
    )
    def test_path_module_basis_must_end_at_its_vertex(self, capsys, g2_file, module, basis, end):
        code, out, err = run_cli(
            capsys, "act", g2_file, "--module", module, "--element", "v", "--basis", basis,
        )
        assert code == 2 and not out
        assert err.startswith("input error: ") and f"path ends at {end!r}" in err

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("# no vertices\n")
        code, _, err = run_cli(capsys, "pairs", str(bad))
        assert code == 2
        assert "input error" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "pairs", "/nonexistent/file.graph")
        assert code == 2

    def test_emit_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "emit", "G3")
        assert code == 0
        assert parse_graph_document(out).graph == G3


def _pair_record(g, pair) -> dict:
    B = breaking_vertices(g, pair.H)
    return {
        "H": sorted(pair.H),
        "S": sorted(pair.S),
        "B_H": sorted(B),
        "proper": idl.is_proper(g, pair),
        "zero": idl.is_zero_pair(pair),
    }


def _per_pair_report(command, path, g):
    """The report of ``pairs`` or ``classify --all`` built one pair at a time
    from ``enumerate_admissible_pairs``: the routes ``cmd_pairs`` and
    ``cmd_classify`` took before they built their records once per H, with
    each pair classified by the per-pair route of ``perpair``."""
    pairs = idl.enumerate_admissible_pairs(g)
    if command == "pairs":
        records = [dict(label=p.label(), **_pair_record(g, p)) for p in pairs]
        return {"graph": path, "count": len(pairs), "pairs": records}
    records = [perpair.classification_record(g, p) for p in pairs if idl.is_proper(g, p)]
    return {"graph": path, "records": records}


class TestPairRecords:
    def test_output_matches_per_pair_records(self, capsys, tmp_path):
        rng = random.Random(21)
        graphs = list(CATALOG.values()) + [fan(k) for k in range(2, 6)]
        graphs += list(two_bundle_graphs(random.Random(6), 20))
        graphs += [random_graph(rng, 7, 12, 3) for _ in range(50)]
        for i, g in enumerate(graphs):
            path = tmp_path / f"g{i}.graph"
            path.write_text(emit_graph(g))
            for command, extra in (("pairs", []), ("classify", ["--all"])):
                for flags in ([], ["--json"]):
                    code, out, _ = run_cli(capsys, *flags, command, str(path), *extra)
                    assert code == 0
                    doc = parse_graph_document(path.read_text())
                    cli._emit(_per_pair_report(command, str(path), doc.graph), bool(flags))
                    assert capsys.readouterr().out == out, (command, flags, g.edges, g.bundles)


_REAL_EMIT = cli._emit


class TestTextEmit:
    def test_one_write_matches_a_print_per_line(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "fan14.graph"
        path.write_text(emit_graph(fan(14)))
        reports = []
        monkeypatch.setattr(cli, "_emit", lambda report, as_json: reports.append(report))
        assert cli.main(["classify", str(path), "--all"]) == 0
        capsys.readouterr()
        for report in (reports[0], {}, {"records": []}):
            _REAL_EMIT(report, False)
            written = capsys.readouterr().out
            for line in cli._text_lines(report):
                print(line)
            assert written == capsys.readouterr().out
        assert len(cli._text_lines(reports[0])) > 100_000
        _REAL_EMIT({}, False)
        assert capsys.readouterr().out == ""


class TestVerifyCommand:
    def test_catalog_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--catalog", "--seed", "3",
            "--window", "4", "2", "--random-graphs", "5",
        )
        assert code == 0
        assert "checks passed" in out

    def test_deterministic_under_seed(self, capsys):
        args = ("--json", "verify", "--catalog", "--seed", "9",
                "--window", "4", "2", "--random-graphs", "5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_extra_file(self, capsys, tmp_path):
        path = tmp_path / "line.graph"
        path.write_text("vertex a\nvertex b\nedge x a b\n")
        code, out, _ = run_cli(
            capsys, "verify", str(path), "--seed", "0",
            "--window", "3", "2", "--random-graphs", "2",
        )
        assert code == 0

    def test_failure_exit_1(self, capsys, monkeypatch):
        def fake_suites(**kwargs):
            return [verification.CheckResult("doomed", False, "by design")]

        monkeypatch.setattr(cli, "run_suites", fake_suites)
        code, out, _ = run_cli(capsys, "verify", "--catalog")
        assert code == 1
        assert "FAIL" in out

    def test_needs_target(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2

    def test_json_text_is_json_dumps(self, capsys, monkeypatch):
        results = [
            verification.CheckResult("kept", True, ""),
            verification.CheckResult("doomed", False, "G2 {w},{v}: \"quoted\" é"),
        ]
        monkeypatch.setattr(cli, "run_suites", lambda **kwargs: results)
        code, out, _ = run_cli(capsys, "--json", "verify", "--catalog", "--seed", "4")
        assert code == 1
        checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        want = {"seed": 4, "checks": checks, "passed": False}
        assert out == json.dumps(want, indent=2) + "\n"

    def test_check_names_pinned(self):
        # The benchmark's verify ops digest these names, so a renamed, added
        # or dropped check changes every one of them.
        results = verification.run_suites(
            seed=3, window=Truncation(4, 2), random_graphs=5
        )
        assert [r.name for r in results] == [
            "root is a closure operator",
            "complement of a root is hereditary (saturated given returns)",
            "exclusive cycles have one cycle edge per vertex",
            "breaking vertices are emitters outside H",
            "icsp holds with witness C = V on finite graphs",
            "multiplication is associative",
            "multiplication distributes over addition",
            "star is an anti-multiplicative involution",
            "degrees add under multiplication",
            "normal form is idempotent on built elements",
            "finite vertex sums are local units",
            "single-loop degree-0 corner is spanned by the vertex",
            "generators lie in their ideal; outside vertices do not",
            "quotient vertex counts match the construction",
            "quotient downward-directedness matches the finite criterion",
            "membership is closed under the ideal operations",
            "direct condition and case analysis agree (39 pairs)",
            "graded primitive implies graded prime",
            "primitivity matches Condition (L) on the quotient",
            "the emitted case is unique",
            "base vertices have the complement as root",
            "every graded-primitive pair has a matching module witness",
            "cyclic modules pass all axioms, perfect, saturated, graded",
            "reduction is idempotent and degree-preserving",
            "ghost-action and prepend-reduction identities hold",
            "annihilator generators annihilate the window",
            "vertices outside H act nontrivially somewhere",
            "the unreduced pair system fails exactly axiom (4) at the vertex",
            "generator recovery succeeds on random homogeneous vectors",
            "basepoint systems partition the union system",
            "emitter subtype matches breaking-vertex membership",
        ]
        assert all(r.passed for r in results)
        assert all(r.detail == "" for r in results)

    @pytest.mark.parametrize("target", sorted(INJECTED))
    def test_failure_record(self, monkeypatch, target):
        # An injected fault fails exactly the checks that rest on it, each
        # with the witness of its last failure; every other check passes
        # without a detail.
        replacement, failing = INJECTED[target]
        monkeypatch.setattr(verification, target, replacement)
        results = verification.run_suites(
            seed=3, window=Truncation(4, 2), random_graphs=2
        )
        assert [r.name for r in results if not r.passed] == failing
        for r in results:
            if r.passed:
                assert r.detail == ""
            else:
                assert r.detail.partition(" ")[0].rstrip(":") in CATALOG

    def test_detail_only_on_failure(self):
        # A passing check never prints a witness (a sibling's failure).
        assert verification._result("x", True, "w").line() == "pass  x"
        assert verification._result("x", False, "w").line() == "FAIL  x  [w]"


G2_TEXT = emit_graph(G2)
G4_TEXT = emit_graph(G4)
V_LOOP_JSON = {"vertices": ["v"], "edges": {"c": ["v", "v"]}}

# (graph file text or bytes, arguments after the global flags with FILE for its path)
MALFORMED = {
    "json edge with one endpoint": (
        json.dumps({"vertices": ["v"], "edges": {"e": ["v"]}}), ["pairs", "FILE"]
    ),
    "json empty cycle": (
        json.dumps({**V_LOOP_JSON, "cycles": {"loop": []}}), ["pairs", "FILE"]
    ),
    "json pair without S": (
        json.dumps({**V_LOOP_JSON, "pairs": {"P": [[]]}}), ["pairs", "FILE"]
    ),
    "json vertices as a string": (json.dumps({"vertices": "vw"}), ["pairs", "FILE"]),
    "json primed vertex id": (
        json.dumps({"vertices": ["v'"], "edges": {"c": ["v'", "v'"]}}),
        ["classify", "FILE", "--all"],
    ),
    "json edge id ending in a newline": (
        json.dumps({"vertices": ["v"], "edges": {"e\n": ["v", "v"]}}), ["pairs", "FILE"]
    ),
    "json cycle string with a space": (
        json.dumps({**V_LOOP_JSON, "cycles": {"loop": "c c"}}), ["pairs", "FILE"]
    ),
    "json unknown section": (json.dumps({**V_LOOP_JSON, "loops": {}}), ["pairs", "FILE"]),
    "json edges as a list": (json.dumps({"vertices": ["v"], "edges": []}), ["pairs", "FILE"]),
    "json bundle to an undeclared vertex": (
        json.dumps({"vertices": ["v"], "bundles": {"b": ["v", "w"]}}), ["pairs", "FILE"]
    ),
    "text edge from an undeclared vertex": ("vertex v\nedge e u v\n", ["pairs", "FILE"]),
    "json path of a number": (json.dumps({**V_LOOP_JSON, "paths": {"p": 3}}), ["pairs", "FILE"]),
    "empty rational-tail prefix": (
        G2_TEXT, ["ann", "FILE", "--module", "valpha:rat::c"]
    ),
    "empty inline cycle": (G2_TEXT, ["ann", "FILE", "--module", "nc:,@v"]),
    "GF(5) scalar 1/5": (
        G2_TEXT,
        ["--field", "p:5", "act", "FILE", "--module", "nc:c@v",
         "--element", "1/5 v", "--basis", "v"],
    ),
    "scalar 1/0": (
        G2_TEXT,
        ["act", "FILE", "--module", "nc:c@v", "--element", "1/0 v", "--basis", "v"],
    ),
    "act basis with a bundle index outside the window": (
        G4_TEXT,
        ["act", "FILE", "--module", "valpha:irr:b[0]:b[1]", "--element", "v",
         "--basis", "b[5]@1"],
    ),
    "act basis with a shift outside the window": (
        G4_TEXT,
        ["act", "FILE", "--module", "valpha:irr:b[0]:b[1]", "--element", "v",
         "--basis", "v@99999999999"],
    ),
    "non-UTF-8 graph file": (b"vertex v\xff\n", ["pairs", "FILE"]),
    "quotient DOT path in a missing directory": (
        G2_TEXT,
        ["quotient", "FILE", "--pair", "{w},{}", "--dot", "/nonexistent/dir/x.dot"],
    ),
    "act basis longer than the window": (
        G2_TEXT,
        ["act", "FILE", "--module", "nc:c@v", "--element", "v",
         "--basis", "c c c c c c c"],
    ),
    "sink selector at an unknown vertex": (G3_TEXT, ["ann", "FILE", "--module", "sink:zz"]),
    "emitter selector at an unknown vertex": (
        G3_TEXT,
        ["act", "FILE", "--module", "emitter:zz", "--element", "u", "--basis", "u"],
    ),
    "classify pair with an unclosed S brace": (
        G2_TEXT, ["classify", "FILE", "--pair", "{w},{v"]
    ),
    "classify pair with an empty unclosed S brace": (
        G2_TEXT, ["classify", "FILE", "--pair", "{w},{"]
    ),
    "quotient pair with an unclosed S brace": (
        G2_TEXT, ["quotient", "FILE", "--pair", "{w},{v"]
    ),
    "classify pair with an unclosed H brace": (
        G2_TEXT, ["classify", "FILE", "--pair", "{w,{v}"]
    ),
    "act ghost part on a sink module": (
        G2_TEXT, ["act", "FILE", "--module", "sink:w", "--element", "w", "--basis", "b[0]*"]
    ),
    "act ghost part on an emitter module": (
        G2_TEXT, ["act", "FILE", "--module", "emitter:v", "--element", "v", "--basis", "c*"]
    ),
    "act ghost part on a rational tail": (
        G2_TEXT,
        ["act", "FILE", "--module", "valpha:rat:@v:c", "--element", "v", "--basis", "c*"],
    ),
    "act ghost part on an irrational tail": (
        G4_TEXT,
        ["act", "FILE", "--module", "valpha:irr:b[0]:b[1]", "--element", "v",
         "--basis", "b[0]*@0"],
    ),
    "act shift on an N_c module": (
        G2_TEXT, ["act", "FILE", "--module", "nc:c@v", "--element", "v", "--basis", "v@0"]
    ),
    "act shift on a sink module": (
        G2_TEXT, ["act", "FILE", "--module", "sink:w", "--element", "w", "--basis", "w@1"]
    ),
    "act shift on a rational tail": (
        G2_TEXT,
        ["act", "FILE", "--module", "valpha:rat:@v:c", "--element", "v", "--basis", "v@1"],
    ),
    "act negative shift on an irrational tail": (
        G4_TEXT,
        ["act", "FILE", "--module", "valpha:irr:b[0]:b[1]", "--element", "v",
         "--basis", "v@-1"],
    ),
    "act shift of 5000 digits": (
        G4_TEXT,
        ["act", "FILE", "--module", "valpha:irr:b[0]:b[1]", "--element", "v",
         "--basis", "v@" + "1" * 5000],
    ),
    "field of 400 digits": (
        G3_TEXT,
        ["--field", "p:" + "1" * 400, "act", "FILE", "--module", "sink:w",
         "--element", "u", "--basis", "w"],
    ),
    "field p:4 on pairs": (G3_TEXT, ["--field", "p:4", "pairs", "FILE"]),
    "field zz on classify --all": (G3_TEXT, ["--field", "zz", "classify", "FILE", "--all"]),
    "field p:4 on verify --catalog": (G3_TEXT, ["--field", "p:4", "verify", "--catalog"]),
    "element nested 3000 parentheses deep": (
        G3_TEXT,
        ["act", "FILE", "--module", "sink:w", "--element", "(" * 3000 + "u" + ")" * 3000,
         "--basis", "e"],
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(capsys, tmp_path, case):
    text, argv = MALFORMED[case]
    path = tmp_path / "input.graph"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    argv = [str(path) if a == "FILE" else a for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("input error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spec, reason",
    [("p:6", "6 is not prime"), ("p:" + "1" * 400, "prime fields need p < ")],
)
def test_field_spec_error_gives_the_reason(capsys, tmp_path, spec, reason):
    path = tmp_path / "input.graph"
    path.write_text(G3_TEXT)
    code, _, err = run_cli(
        capsys, "--field", spec, "act", str(path), "--module", "sink:w",
        "--element", "u", "--basis", "w",
    )
    assert code == 2
    assert err.startswith("input error: ") and reason in err and len(err) < 100


# Declaration keywords and tokens of the text format, well formed or not.
_GRAPH_WORDS = st.sampled_from([
    "vertex", "edge", "bundle", "cycle", "path", "pair", "widget", "v", "w",
    "v'", "e", "c", "b", "b[0]", "b[x]", "@v", "@", "c,e", ",", "{v}", "{}",
    "{v,w}", "{", "}", "#", "[", "", "e\n", "c c", "b[0]\n",
])
_GRAPH_TEXT = st.lists(
    st.lists(_GRAPH_WORDS, max_size=5).map(" ".join), max_size=8
).map("\n".join)
_JSON_LEAF = st.none() | st.integers(-2, 3) | _GRAPH_WORDS
_JSON_VALUE = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_GRAPH_WORDS, inner, max_size=3),
    max_leaves=8,
)
_JSON_TEXT = st.dictionaries(
    st.sampled_from(["vertices", "edges", "bundles", "cycles", "paths", "pairs", "x"]),
    _JSON_VALUE,
    max_size=4,
).map(json.dumps)
_ELEMENT = st.lists(
    st.sampled_from([
        "u", "v", "w", "e", "c", "b", "b[0]", "b[7]", "x", "*", "(", ")", "+",
        "-", "0", "2", "1/2", "1/5", "1/0", "0/3", "/", " ", "e*",
    ]),
    max_size=8,
).map(" ".join)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_GRAPH_TEXT | _JSON_TEXT)
def test_graph_documents_raise_only_input_error(text):
    try:
        parse_graph_document(text)
    except InputError:
        pass


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_ELEMENT, st.sampled_from([QQ, PrimeField(5)]))
def test_elements_raise_only_input_error(text, field):
    try:
        parse_element(G3, text, field)
    except InputError:
        pass


def _tokens(tokenize, text):
    try:
        return tokenize(text)
    except InputError as exc:
        return "error", str(exc)


# Texts with a character no token starts with, and blank or padded texts.
BAD_TOKENS = [
    "", "   ", "u\n\t ", "u $ v", "u  $  ", "$", "  $", "b[x]", "b[0", "e ]", "1/",
    "1/x", "u,v", "u\u00a0+\u00a0v", "u \u00a0", "\u65e5\u672c u", "u\x1c", "(u) !",
    "a" * 20 + " $" + "b" * 20, "u " + "%" * 3 + " \n\n", "2 e c (c c)* - (u - e e*)*?",
]


class TestTokenizerOracle:
    def test_one_scan_matches_the_per_token_loop(self):
        texts = [text for _, _, text in _expression_corpus()] + BAD_TOKENS
        texts += [argv[argv.index("--element") + 1] for _, argv in MALFORMED.values()
                  if "--element" in argv]
        errors = 0
        for text in texts:
            tokens = _tokens(_tokenize, text)
            assert tokens == _tokens(tokenize_oracle, text), text
            errors += tokens[0] == "error"
        assert errors == 15 and len(texts) > 3500  # BAD_TOKENS has 15 stray characters

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.text(max_size=20) | _ELEMENT)
    def test_one_scan_matches_on_any_text(self, text):
        assert _tokens(_tokenize, text) == _tokens(tokenize_oracle, text)


def _selector(x) -> str:
    """The --basis text naming a window element: its path, or its pair p q*,
    as ``Monomial.__str__`` spells it, and ``@m`` for an irrational tail."""
    if isinstance(x, chen.ReducedPair):
        return str(alg.Monomial(x.p, x.q))
    if isinstance(x, chen.TailElement):
        return f"{alg.Monomial(x.q, vertex_path(x.q.end))}@{x.m}"
    p = x.prefix if isinstance(x, RationalTailSpec) else x
    return str(alg.Monomial(p, vertex_path(p.end)))


def test_basis_selectors_round_trip_catalog_modules():
    t = Truncation(4, 2)
    rng = random.Random(0)
    modules = verification.catalog_modules(CATALOG)
    assert len(modules) == 16
    for name, g, d in modules:
        system = chen.build_module(g, d)
        window = list(system.enumerate(t))
        for x in rng.sample(window, min(len(window), 40)):
            text = _selector(x)
            assert cli._resolve_basis(system, text, QQ, t) == x, (name, d.label(), text)
