"""The records' own semantics: equality, hashing, immutability, pickling,
copies with changed fields, ``as_dict`` of the plain-field results, and what
importing the command line loads."""

import copy
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import grodeg
from grodeg import (
    QQ,
    Monomial,
    MonomialIdeal,
    MonomialOrder,
    ObstructionVerdict,
    PrimeField,
    ProjPoint,
    RingContext,
    SimplicialComplex,
    SupportViolation,
    analyze,
    analyze_complex,
    buchberger,
    count_points,
    initial_ideal,
    jacobian_rank_at,
    leafless_obstruction,
    lift_search,
    link,
    parse_job,
    parse_polynomial,
    property_report,
    reduced_cohomology,
    render_report,
    standard_context,
)
from grodeg.cli import main

SRC = pathlib.Path(grodeg.__file__).resolve().parent
CYCLE4 = SimplicialComplex.from_facets(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


def _subprocess(script: str, timeout: int = 120) -> str:
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cycle4_search(**kw):
    return lift_search(CYCLE4, MonomialOrder.degrevlex(standard_context(["x1", "x2", "x3", "x4"])), **kw)


# the keyed records, each as (equal pair built apart, a different one, its field tuple)
def _keyed():
    ctx = standard_context(["x", "y"])
    tri = [(1, 2), (1, 3), (2, 3)]
    return {
        "Monomial": (Monomial((1, 2)), Monomial((1, 2)), Monomial((2, 1)), ((1, 2),)),
        "RingContext": (
            RingContext(("x", "y"), (1, 1), QQ),
            standard_context(["x", "y"]),
            standard_context(["x", "y"], PrimeField(2)),
            (("x", "y"), (1, 1), QQ),
        ),
        "SimplicialComplex": (
            SimplicialComplex(3, tuple(tri)),
            SimplicialComplex.from_facets(3, reversed(tri)),
            SimplicialComplex.from_facets(4, tri),
            (3, tuple(tri)),
        ),
        "MonomialIdeal": (
            MonomialIdeal(ctx, (Monomial((1, 1)),)),
            MonomialIdeal.from_monomials(ctx, [Monomial((2, 1)), Monomial((1, 1))]),
            MonomialIdeal(ctx, (Monomial((2, 0)),)),
            (ctx, (Monomial((1, 1)),)),
        ),
        "ProjPoint": (
            ProjPoint.make(QQ, (2, 4)),
            ProjPoint.make(QQ, (1, 2)),
            ProjPoint.make(QQ, (1, 3)),
            (ProjPoint.make(QQ, (1, 2)).coords, QQ),
        ),
    }


@pytest.mark.parametrize("kind", ["Monomial", "MonomialIdeal", "ProjPoint", "RingContext", "SimplicialComplex"])
def test_equality_and_hash_follow_the_fields(kind):
    a, b, other, values = _keyed()[kind]
    assert a == b and not a != b
    assert a != other
    assert hash(a) == hash(b) == hash(values)
    assert len({a, b, other}) == 2
    assert a != values  # never equal to a plain tuple, in either order
    assert values != a
    assert a != None  # noqa: E711


def test_points_over_different_fields_are_unequal():
    gf2 = ProjPoint.coordinate(PrimeField(2), 3, 0)
    gf3 = ProjPoint.coordinate(PrimeField(3), 3, 0)
    assert gf2.render() == gf3.render() == "[1:0:0]"
    assert gf2 != gf3
    assert gf2 == ProjPoint.coordinate(PrimeField(2), 3, 0)


def test_records_of_different_classes_are_unequal():
    assert SupportViolation("a", "b", "c") != ("a", "b", "c")
    assert ProjPoint("a", "b") != MonomialIdeal("a", "b")
    assert ProjPoint("a", "b") == ProjPoint("a", "b")
    assert ObstructionVerdict("k", True, True, None, {}) != ObstructionVerdict("j", True, True, None, {})


@pytest.mark.parametrize(
    "record,name",
    [
        (Monomial((1, 0)), "exps"),
        (standard_context(["x"]), "names"),
        (CYCLE4, "facets"),
        (ProjPoint.make(QQ, (1, 1)), "coords"),
        (SupportViolation("r", "g", "m"), "rule"),
        (parse_job("budget 5\n"), "budget"),
    ],
    ids=lambda x: type(x).__name__ if not isinstance(x, str) else x,
)
def test_frozen_records_refuse_assignment_and_deletion(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == before


def _every_record():
    ctx = standard_context(["x", "y", "z"])
    order = MonomialOrder.degrevlex(ctx)
    cubic = parse_polynomial("y^2*z - x^3 - x^2*z", ctx, order)
    octa = SimplicialComplex.from_facets(
        6, [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 5), (2, 3, 6), (3, 4, 6), (4, 5, 6), (2, 5, 6)]
    )
    basis = buchberger([cubic], order)
    search = _cycle4_search(pool=(-1, 1))
    lift = search.lifts[0]
    leafless = leafless_obstruction(buchberger(lift.polys, search.order), CYCLE4)
    return [
        ctx,
        Monomial((1, 0, 2)),
        octa,
        link(octa, (1,)),
        reduced_cohomology(octa, PrimeField(2)),
        property_report(octa),
        basis,
        initial_ideal(basis),
        parse_job("ring GF(3) x,y\nideal: x*y\npool 1,2\nseed 4\n"),
        analyze([cubic], order),
        lift,
        search,
        count_points(cubic, 5),
        analyze_complex(octa),
        ProjPoint.make(PrimeField(3), (2, 1, 0)),
        jacobian_rank_at([cubic], (0, 0, 1), 1),
        leafless,
        SupportViolation("rule", "x1*x3", "x1^2"),
    ]


def test_every_record_kind_survives_pickling():
    records = _every_record()
    assert len({type(r) for r in records}) == len(records)
    for r in records:
        back = pickle.loads(pickle.dumps(r))
        assert type(back) is type(r)
        assert back == r
        assert repr(back) == repr(r)
        if hasattr(r, "as_dict"):
            assert render_report(back) == render_report(r)


def test_cli_flags_override_the_job(tmp_path, capsys):
    job = tmp_path / "cycle.job"
    job.write_text("facets: 1 2; 2 3; 3 4; 1 4\npool -1,1\nbudget 200\nseed 1\nformat text\n")
    assert main(["lift-search", str(job), "--budget", "3", "--seed", "9", "--format", "json", "--pool", "-2,2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["budget"], data["seed"], data["pool"]) == (3, 9, ["-2", "2"])
    assert data["candidates_tried"] == 3 and not data["exhaustive"]
    assert main(["lift-search", str(job)]) == 0
    text = capsys.readouterr().out
    assert "budget: 200" in text and "seed: 1" in text


def test_plain_field_results_render_as_copies():
    witness = {"rows": [1, 2], "nested": {"violations": [{"rule": "r"}]}, "dim": 1}
    verdict = ObstructionVerdict("kind", True, False, "why", witness)
    d = verdict.as_dict()
    assert d == {"kind": "kind", "applicable": True, "certified": False, "reason": "why", "witness": witness}
    d["witness"]["rows"].append(3)
    d["witness"]["nested"]["violations"][0]["rule"] = "changed"
    d["witness"]["extra"] = True
    assert verdict.witness == {"rows": [1, 2], "nested": {"violations": [{"rule": "r"}]}, "dim": 1}
    assert SupportViolation("rule", "gen", "mono").as_dict() == {"rule": "rule", "generator": "gen", "monomial": "mono"}

    search = _cycle4_search(pool=(-1, 1))
    real = leafless_obstruction(buchberger(search.lifts[0].polys, search.order), CYCLE4)
    fields = ("kind", "applicable", "certified", "reason", "witness")
    assert real.as_dict() == {f: copy.deepcopy(getattr(real, f)) for f in fields}
    assert real.as_dict()["witness"] is not real.witness


def test_importing_the_cli_loads_no_record_machinery():
    script = "import sys, grodeg.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _subprocess(script).strip() == "[]"
    assert not [p.name for p in SRC.glob("*.py") if "@dataclass" in p.read_text()]
