"""The JSON writer against its oracle, ``json.dumps(to_jsonable(x), indent=2,
sort_keys=True)`` plus a newline, and the text format pinned."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from grodeg import cli, to_jsonable
from grodeg.cli import main
from grodeg.reporting import render_report

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
ROWS = [line.split() for line in (CORPUS / "MANIFEST").read_text().splitlines() if line.strip()]


def oracle(obj) -> bytes:
    return (json.dumps(to_jsonable(obj), indent=2, sort_keys=True) + "\n").encode("utf-8")


class Report:
    """A result object: the writer asks it for its ``as_dict``, afresh each time."""

    def __init__(self, data):
        self.data = data

    def as_dict(self):
        return {"data": self.data, "kind": "report"}


awkward_text = st.text(
    st.characters(codec="utf-8") | st.sampled_from("\x00\x1f\x7f\"\\/\n\té \U0001f600"),
    max_size=8,
)
scalars = (
    awkward_text
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.booleans()
    | st.none()
    | st.fractions()
)
keys = awkward_text | st.integers(min_value=-3, max_value=3) | st.fractions(max_denominator=3) | st.booleans() | st.none()
trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4)
        | children.map(Report)
    ),
    max_leaves=30,
)


@seed(13)
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(trees)
def test_writer_matches_the_oracle_on_random_trees(tree):
    assert render_report(tree, "json") == oracle(tree)


@pytest.mark.parametrize(
    "tree",
    [
        {},
        [],
        (),
        [[], {}, [[]]],
        {1: "int key", "1": "string key"},
        {"b": {"nested": [1, [2, (3,)]]}, "a": None},
        {Fraction(1, 2): Fraction(-7, 3), None: True, False: 2**100},
        ["é中\U0001f600", "\x00\x1f", '"\\'],
    ],
)
def test_writer_matches_the_oracle_on_edge_cases(tree):
    assert render_report(tree, "json") == oracle(tree)


def test_a_dict_shared_at_two_depths_is_written_at_each():
    shared = {"k": [1, 2]}
    tree = {"a": shared, "b": [shared, {"c": shared}]}
    assert render_report(tree, "json") == oracle(tree)


def test_fresh_as_dict_results_are_never_mistaken_for_each_other():
    # each as_dict builds a new dict that dies once written unless the writer
    # holds it: a memo keyed by a reused id would repeat an earlier entry
    tree = [Report(i) for i in range(500)]
    assert render_report(tree, "json") == oracle(tree)


@pytest.mark.parametrize("tree", [1.5, [0.0], {"a": {"b": float("nan")}}, Report(2.5)])
def test_floats_are_refused(tree):
    with pytest.raises(TypeError, match="float"):
        render_report(tree, "json")


@pytest.mark.parametrize("command,job,golden", ROWS, ids=[r[1] for r in ROWS])
def test_every_corpus_report_matches_the_oracle(command, job, golden, monkeypatch, tmp_path):
    checked = []
    real = cli.render_report

    def compare(obj, fmt="json"):
        out = real(obj, fmt)
        checked.append(out == oracle(obj))
        return out

    monkeypatch.setattr(cli, "render_report", compare)
    out = tmp_path / "report.json"
    assert main([command, str(CORPUS / job), "--out", str(out)]) == 0
    assert checked == [True]
    assert out.read_bytes() == (CORPUS / golden).read_bytes()


def test_lift_search_bytes_do_not_depend_on_the_worker_count(tmp_path):
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"jobs{workers}.json"
        assert main(["lift-search", str(CORPUS / "lift_cycle4.job"), "--jobs", workers, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == (CORPUS / "golden" / "lift_cycle4.json").read_bytes()


def test_text_bytes_of_a_corpus_lift_report_are_pinned(tmp_path):
    out = tmp_path / "report.txt"
    assert main(["lift-search", str(CORPUS / "lift_cycle3.job"), "--format", "text", "--out", str(out)]) == 0
    text = out.read_bytes()
    assert text.startswith(
        b"budget: 20\ncandidate_space: 16\ncandidates_tried: 16\nempty_tail_targets: []\n"
        b"exhaustive: true\nfacets: facets: 1 2; 1 3; 2 3\nlifts_singular_at_top_point: 16\n"
        b"order: degrevlex x1>x2>x3\npool: [-1, 1]\nring: QQ x1,x2,x3\nseed: 0\n"
        b"targets: [x1*x2*x3]\ntop_variable: x1\nvalid_lift_count: 16\nvalid_lifts:\n"
        b"  - [0]\n    coordinate_points:\n      - [0]\n        expected_codim: 1\n"
    )
    assert len(text) == 12105
    assert hashlib.sha256(text).hexdigest() == (
        "750e82f283e0b02148db3a2a239b9c7f9fb5413bff2e21c3e4afbcfe004927ed"
    )



RESULT_TYPES = (
    "CohomologyProfile",
    "ComplexPropertyReport",
    "ComplexReport",
    "DegenerationReport",
    "JacobianAnalysis",
    "LiftSearchResult",
    "ObstructionVerdict",
    "PointCountResult",
    "SupportViolation",
    "ValidLift",
)


@pytest.fixture(scope="module")
def exported_results():
    """One instance of every result type the package exports, by type name."""
    from grodeg import (
        MonomialOrder,
        PrimeField,
        SimplicialComplex,
        SupportViolation,
        analyze,
        analyze_complex,
        count_points,
        lift_search,
        parse_polynomial,
        property_report,
        reduced_cohomology,
        standard_context,
    )

    ctx = standard_context(("x1", "x2", "x3", "x4"))
    drl = MonomialOrder.degrevlex(ctx)
    square = SimplicialComplex.from_facets(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    gens = [parse_polynomial(t, ctx, drl) for t in ("x1*x3 + x4^2", "x2*x4 + x3*x4")]
    report = analyze(gens, drl)
    search = lift_search(square, drl, budget=20, seed=1)
    xyz = standard_context(("x", "y", "z"))
    cubic = parse_polynomial("y^2*z - x^3 - x*z^2", xyz, MonomialOrder.degrevlex(xyz))
    results = {
        "DegenerationReport": report,
        "LiftSearchResult": search,
        "ValidLift": search.lifts[0],
        "JacobianAnalysis": report.coordinate_points[0],
        "ObstructionVerdict": report.obstructions[0],
        "SupportViolation": SupportViolation("top_variable_times_non_neighbor", "x2*x3 + x1*x4", "x1*x4"),
        "ComplexReport": analyze_complex(square, PrimeField(2)),
        "ComplexPropertyReport": property_report(square),
        "CohomologyProfile": reduced_cohomology(square),
        "PointCountResult": count_points(cubic, 7),
    }
    assert sorted(results) == sorted(RESULT_TYPES)
    return results


@pytest.mark.parametrize("name", RESULT_TYPES)
def test_every_exported_result_renders(exported_results, name):
    result = exported_results[name]
    assert type(result).__name__ == name
    assert isinstance(to_jsonable(result), dict)  # its own fields, not its repr
    assert render_report(result) == oracle(result)
    assert render_report(result, "text")
