"""Job-file parsing, canonical rendering, report formatting, and the CLI."""

import argparse
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from grodeg import MonomialOrder, PrimeField, QQ, cli, pipeline, to_jsonable
from grodeg.cli import main
from grodeg.errors import ParseError
from grodeg.jobs import JobSpec, parse_job, render_job
from grodeg.reporting import render_report

FERMAT_JOB = "ring QQ x,y,z\nideal: x^3 + y^3 + z^3\n"

TRIANGLE_JOB = "facets: 1 2; 2 3; 1 3\n"

FULL_JOB = """ring GF(5) x1,x2,x3
order lex x3>x1>x2
ideal: x1*x2 ; x2*x3
vertices 4
facets: 1 2; 2 3; 3 4
field GF(2)
family lex
pool -2,-1,1,2
prime 7
budget 500
seed 11
format json
"""


class TestParseJob:
    def test_minimal_job(self):
        spec = parse_job(FERMAT_JOB)
        assert spec.ctx.names == ("x", "y", "z")
        assert spec.ctx.field == QQ
        assert spec.order is None
        assert len(spec.ideal) == 1
        assert spec.ideal[0].render() == "x^3 + y^3 + z^3"
        assert spec.delta is None
        assert spec.prime is None

    def test_directives_in_any_order(self):
        scrambled = "\n".join(reversed(FULL_JOB.strip().splitlines())) + "\n"
        assert parse_job(scrambled) == parse_job(FULL_JOB)

    def test_comments_and_blank_lines_are_skipped(self):
        noisy = "# header\n\nring QQ x,y,z  # trailing\n\n\nideal: x^3 + y^3 + z^3\n"
        assert parse_job(noisy) == parse_job(FERMAT_JOB)

    def test_full_job_fields(self):
        spec = parse_job(FULL_JOB)
        assert spec.ctx.field == PrimeField(5)
        assert spec.order.render() == "lex x3>x1>x2"
        assert [g.render() for g in spec.ideal] == ["x1*x2", "x2*x3"]
        assert spec.delta.n == 4
        assert spec.delta.facets == ((1, 2), (2, 3), (3, 4))
        assert spec.field == PrimeField(2)
        assert spec.family == "lex"
        assert spec.pool == (Fraction(-2), Fraction(-1), Fraction(1), Fraction(2))
        assert (spec.prime, spec.budget, spec.seed) == (7, 500, 11)
        assert spec.format == "json"

    def test_ideal_uses_the_declared_order_as_carrier(self):
        spec = parse_job("ring QQ x,y,z\norder lex z>y>x\nideal: x^3 + z*y^2\n")
        assert spec.ideal[0].order is spec.order
        assert spec.ideal[0].render() == "y^2*z + x^3"

    def test_carrier_order_defaults_to_degrevlex(self):
        spec = parse_job("ring QQ x,y\n")
        assert spec.carrier_order().render() == "degrevlex x>y"
        full = parse_job(FULL_JOB)
        assert full.carrier_order() is full.order
        assert JobSpec().carrier_order() is None

    def test_weighted_grading_and_matrix_order(self):
        spec = parse_job(
            "ring QQ x,y,z grading 1,1,2\norder matrix 1,1,2 ; 0,0,-1 ; 0,-1,0\n"
        )
        assert spec.ctx.grading == (1, 1, 2)
        assert spec.order.render() == "matrix 1,1,2 ; 0,0,-1 ; 0,-1,0"

    def test_negative_seed_is_allowed(self):
        assert parse_job("seed -3\n").seed == -3

    def test_facets_without_vertices_infers_the_count(self):
        spec = parse_job("facets: 1 2; 2 5\n")
        assert spec.delta.n == 5

    def test_roundtrip_through_render(self):
        for text in (FERMAT_JOB, FULL_JOB):
            spec = parse_job(text)
            assert parse_job(render_job(spec)) == spec

    @pytest.mark.parametrize(
        "text",
        [
            "seed -3\n",
            "pool -1/2,3\n",
            "field GF(2)\n",
            "family degrevlex\n",
            "format text\n",
            "vertices 5\nfacets: 1 2; 2 3\n",  # vertices 4 and 5 are ghosts
        ],
    )
    def test_each_directive_roundtrips_on_its_own(self, text):
        spec = parse_job(text)
        assert render_job(spec) == text
        assert parse_job(render_job(spec)) == spec


BAD_JOBS = [
    ("ring QQ x,y\nring QQ x,y\n", "duplicate ring line", 2, 1),
    ("rings QQ x,y\n", "unknown directive 'rings'", 1, 1),
    ("order lex x>y\n", "order line needs a ring line", 1, 1),
    ("ideal: x*y\n", "ideal line needs a ring line", 1, 1),
    ("vertices 4\n", "vertices without a facets line", 1, 1),
    ("budget seven\n", "budget wants an integer, got 'seven'", 1, 8),
    ("budget 0\n", "budget must be >= 1", 1, 8),
    ("prime 1\n", "prime must be >= 2", 1, 7),
    ("vertices 0\nfacets: 1 2\n", "vertices must be >= 1", 1, 10),
    ("family grlex\n", "family must be one of lex, degrevlex, both", 1, 8),
    ("format yaml\n", "format must be one of json, text", 1, 8),
    ("pool 1,x\n", "bad pool entry 'x'", 1, 6),
    ("pool 1/0\n", "bad pool entry '1/0'", 1, 6),
    ("pool \n", "bad pool entry ''", 1, 6),
    ("facets: 1 a\n", "bad facet '1 a'", 1, 8),
    ("facets:  ;  \n", "no facets given", 1, 8),
    ("facets: 0 1\n", "facet vertices must be >= 1", 1, 8),
    ("vertices 3\nfacets: 1 2; 3 4\n", "facet vertex 4 exceeds vertices 3", 2, 8),
    ("ring QQ\n", "ring wants: ring <field> <names> [grading <weights>]", 1, 6),
    ("ring QQ x,y weights 1,1\n", "expected 'grading', got 'weights'", 1, 6),
    ("ring QQ x,y grading 1,a\n", "bad grading '1,a'", 1, 6),
    ("ring GF(4) x,y\n", "GF modulus must be prime, got 4", 1, 6),
    ("ring QQ x,y\norder grlex x>y\n", "unknown order kind 'grlex'", 2, 7),
    ("ring QQ x,y\norder lex\n", "order wants a kind and a specification", 2, 7),
    ("ring QQ x,y\nideal:  ;  \n", "ideal line has no polynomials", 2, 7),
    ("ring QQ x,y,z\nideal: x*y - q^2\n", "unknown variable 'q'", 2, 14),
    ("ring QQ x,y,z\nideal: x^2 - y*z ; x*w\n", "unknown variable 'w'", 2, 22),
    ("field GF(6)\n", "GF modulus must be prime, got 6", 1, 7),
    ("ring QQ x,y\nideal: x^2147483648\n", "exponent must be below 2147483648", 2, 10),
    ("ring QQ x,y\nideal: (x^46341)^46341\n", "exponent overflow", 2, 8),
    ("ring QQ x,y\nideal: x + 3^4000000*y\n", "power too large", 2, 14),
    ("ring QQ x,y\nideal: (x + 2^8000*y)^2\n", "power too large: a coefficient would pass", 2, 23),
    ("ring QQ x,y,z\nideal: (x+y+z)^300\n", "power too large: the polynomial would multiply", 2, 16),
    ("ring QQ x,y,z\nideal: x ; (x+y+z)^20*(x+y+z)^20\n", "product too large", 2, 22),
    # integer tokens past Python's 4300-digit int() limit
    *(
        pytest.param(f"ring {k} x,y\nideal: {'7' * 5000}*x\n", "literal too large: a coefficient would pass 8192 bits", 2, 8, id=f"7...7*x-{k}")
        for k in ("QQ", "GF(5)")
    ),
    pytest.param(f"ring QQ x,y\nideal: x^{'1' * 5000}\n", "exponent must be below 2147483648", 2, 10, id="x^1...1"),
    # and nowhere else: the message echoes at most 20 characters of a token
    pytest.param(f"field GF({'7' * 5000})\n", f"bad GF modulus '{'7' * 20}…'", 1, 7, id="GF(7...7)"),
    pytest.param(f"ring GF({'7' * 5000}) x,y\n", f"bad GF modulus '{'7' * 20}…'", 1, 6, id="ring-GF(7...7)"),
    pytest.param(f"budget {'7' * 5000}\n", f"budget wants at most 20 digits, got '{'7' * 20}…'", 1, 8, id="budget-7...7"),
    pytest.param(f"pool {'7' * 5000}\n", f"bad pool entry '{'7' * 20}…'", 1, 6, id="pool-7...7"),
    pytest.param(f"facets: 1 {'7' * 5000}\n", f"bad facet '1 {'7' * 18}…'", 1, 8, id="facet-7...7"),
    # a vertex that int() reads is still held to 20 characters
    pytest.param(f"facets: 1 {'9' * 4000}\n", f"bad facet '1 {'9' * 18}…'", 1, 8, id="facet-9...9"),
    pytest.param(f"vertices 3\nfacets: 1 {'9' * 4000}\n", f"bad facet '1 {'9' * 18}…'", 2, 8, id="vertices-3-facet-9...9"),
    # the vertex count is bounded whether it is given or implied
    ("facets: 1 2; 2 99999999\n", "99999999 vertices exceed the bound of 1000", 1, 8),
    ("vertices 99999999\nfacets: 1 2\n", "99999999 vertices exceed the bound of 1000", 2, 8),
    pytest.param(f"ring QQ x,y\norder weighted {'7' * 5000},1\n", f"bad weight '{'7' * 20}…'", 2, 7, id="weight-7...7"),
    ("ring QQ x,y\norder weighted a,1\n", "bad weight 'a'", 2, 7),
    # grading weights share the 20-digit bound of every other integer
    pytest.param(f"ring QQ x,y grading 1,{'9' * 21}\n", f"bad grading '1,{'9' * 18}…'", 1, 6, id="grading-21-digits"),
    # Fraction() reads exponents and any length: 1e10000000 is a 33-million-bit integer
    ("pool 1e10000000\n", "bad pool entry '1e10000000'", 1, 6),
    pytest.param(f"pool 1,{'7' * 4000}\n", f"bad pool entry '{'7' * 20}…'", 1, 6, id="pool-4000-digits"),
    # every command runs in one process, so there is no worker count to set
    ("workers 2\n", "unknown directive 'workers'", 1, 1),
]


class TestParseJobErrors:
    @pytest.mark.parametrize("text,message,line,column", BAD_JOBS)
    def test_error_location(self, text, message, line, column):
        with pytest.raises(ParseError) as exc:
            parse_job(text)
        assert message in str(exc.value)
        assert len(str(exc.value)) < 120
        assert exc.value.line == line
        assert exc.value.column == column


class TestRenderJob:
    def test_canonical_line_order(self):
        assert render_job(parse_job(FULL_JOB)) == FULL_JOB

    def test_trailing_newline(self):
        assert render_job(JobSpec(budget=5)) == "budget 5\n"

    def test_ideal_renders_under_the_carrier_order(self):
        spec = parse_job("order degrevlex z>y>x\nideal: x*y - z^2\nring QQ x,y,z\n")
        assert render_job(spec) == (
            "ring QQ x,y,z\norder degrevlex z>y>x\nideal: -z^2 + x*y\n"
        )


class TestReporting:
    def test_to_jsonable_turns_fractions_into_strings(self):
        assert to_jsonable({"a": Fraction(1, 2), "b": [Fraction(3)]}) == {
            "a": "1/2",
            "b": ["3"],
        }

    def test_json_bytes_are_canonical(self):
        payload = render_report({"b": 1, "a": [True, None]}, "json")
        assert payload == b'{\n  "a": [\n    true,\n    null\n  ],\n  "b": 1\n}\n'
        assert json.loads(payload) == {"a": [True, None], "b": 1}

    def test_text_format(self):
        payload = render_report(
            {"smooth": True, "dims": [0, 1], "sub": {"x": None}, "items": [{"k": 2}]},
            "text",
        )
        assert payload.decode("utf-8") == (
            "dims: [0, 1]\n"
            "items:\n"
            "  - [0]\n"
            "    k: 2\n"
            "smooth: true\n"
            "sub:\n"
            "  x: none\n"
        )

    def test_unknown_format(self):
        with pytest.raises(ValueError, match=r"unknown format 'xml' \(want json or text\)"):
            render_report({}, "xml")


@pytest.fixture()
def run_cli(tmp_path, capsys):
    def run(argv, job_text=None):
        if job_text is not None:
            job = tmp_path / "job.job"
            job.write_text(job_text)
            argv = [argv[0], str(job)] + argv[1:]
        rc = main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return run


class TestCLI:
    def test_point_count_json(self, run_cli):
        rc, out, err = run_cli(["point-count", "--prime", "5"], FERMAT_JOB)
        assert rc == 0
        assert err == ""
        assert out == (
            "{\n"
            '  "curve": "x^3 + y^3 + z^3",\n'
            '  "hasse_bound_ok": true,\n'
            '  "prime": 5,\n'
            '  "projective_points": 6,\n'
            '  "singular_points": [],\n'
            '  "smooth": true,\n'
            '  "supersingular": true,\n'
            '  "trace": 0\n'
            "}\n"
        )

    def test_format_flag_beats_the_job_file(self, run_cli):
        rc, out, err = run_cli(
            ["point-count", "--format", "text"],
            FERMAT_JOB + "prime 5\nformat json\n",
        )
        assert rc == 0
        assert out == (
            "curve: x^3 + y^3 + z^3\n"
            "hasse_bound_ok: true\n"
            "prime: 5\n"
            "projective_points: 6\n"
            "singular_points: []\n"
            "smooth: true\n"
            "supersingular: true\n"
            "trace: 0\n"
        )

    def test_prime_flag_beats_the_job_file(self, run_cli):
        rc, out, _ = run_cli(["point-count", "--prime", "7"], FERMAT_JOB + "prime 5\n")
        assert rc == 0
        assert json.loads(out)["prime"] == 7

    def test_output_file_gets_the_exact_bytes(self, run_cli, tmp_path):
        target = tmp_path / "report.json"
        rc, out, err = run_cli(
            ["point-count", "--prime", "5", "--out", str(target)], FERMAT_JOB
        )
        assert rc == 0
        assert out == "" and err == ""
        payload = target.read_bytes()
        assert payload.endswith(b"\n")
        assert b"\x1b" not in payload
        rc, out, _ = run_cli(["point-count", "--prime", "5"], FERMAT_JOB)
        assert payload == out.encode("utf-8")

    def test_unwritable_output_file_is_a_usage_error(self, run_cli, tmp_path):
        target = tmp_path / "missing" / "x.json"
        rc, out, err = run_cli(
            ["point-count", "--prime", "5", "--out", str(target)], FERMAT_JOB
        )
        assert rc == 2
        assert out == ""
        assert err == f"grodeg: cannot write {target}: No such file or directory\n"

    @pytest.mark.parametrize(
        "ideal,error",
        [
            ("x^2147483648", "exponent must be below"),
            ("(x^46341)^46341", "exponent overflow"),
            ("3^4000000*x", "power too large"),
            ("(x + 2^8000*y)^2", "power too large"),
            ("7" * 5000 + "*x", "literal too large"),
            ("x^" + "1" * 5000, "exponent must be below"),
        ],
        ids=["x^2147483648", "(x^46341)^46341", "3^4000000*x", "(x + 2^8000*y)^2", "7...7*x", "x^1...1"],
    )
    def test_huge_exponents_fail_fast(self, run_cli, ideal, error):
        start = time.perf_counter()
        rc, out, err = run_cli(["point-count", "--prime", "5"], f"ring QQ x,y,z\nideal: {ideal}\n")
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert out == ""
        assert err.startswith(f"grodeg: {error}")

    def test_huge_exponents_count_fast(self, run_cli):
        """Singular points over GF(p) are found with every power reduced mod p."""
        start = time.perf_counter()
        rc, out, _ = run_cli(["point-count", "--prime", "5"], "ring QQ x,y,z\nideal: x^2147483647 + y^2147483647\n")
        assert time.perf_counter() - start < 1.0
        assert rc == 0
        d = json.loads(out)
        assert (d["projective_points"], d["singular_points"]) == (6, ["[0:0:1]"])

    def test_runs_are_byte_identical(self, run_cli):
        job = "facets: 1 2; 2 3; 1 3\npool -1,1\nbudget 20\n"
        first = run_cli(["lift-search"], job)
        second = run_cli(["lift-search"], job)
        assert first == second
        assert first[0] == 0
        d = json.loads(first[1])
        assert d["ring"] == "QQ x1,x2,x3"
        assert d["exhaustive"] is True
        assert d["valid_lift_count"] == 16

    def test_seed_flag_is_recorded(self, run_cli):
        job = "facets: 1 2; 2 3; 1 3\npool -2,-1,1,2\nbudget 50\nseed 1\n"
        rc, out, _ = run_cli(["lift-search", "--seed", "9"], job)
        assert rc == 0
        assert json.loads(out)["seed"] == 9

    def test_budget_and_pool_flags_beat_the_job_file(self, run_cli):
        job = TRIANGLE_JOB + "pool -1,1\nbudget 20\n"
        rc, out, _ = run_cli(["lift-search", "--budget", "7", "--pool", "1,2,3"], job)
        assert rc == 0
        d = json.loads(out)
        assert d["budget"] == 7
        assert d["pool"] == ["1", "2", "3"]

    @pytest.mark.parametrize("pool", ["-1,1", "-2,-1,1,2", "-1/2,3"])
    def test_pool_flag_value_may_start_with_a_minus(self, run_cli, pool):
        spaced = run_cli(["lift-search", "--pool", pool], TRIANGLE_JOB)
        joined = run_cli(["lift-search", f"--pool={pool}"], TRIANGLE_JOB)
        assert spaced == joined
        assert spaced[0] == 0
        assert json.loads(spaced[1])["pool"] == pool.split(",")

    @pytest.mark.parametrize(
        "argv",
        [
            *([command, "--jobs", "2"] for command in cli._COMMANDS),  # every command runs in one process
            ["complex", "--seed", "3"],
            ["analyze", "--seed", "3"],
            ["point-count", "--degree-cap", "7"],
        ],
        ids=" ".join,
    )
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, run_cli, argv):
        rc, out, err = run_cli(argv, TRIANGLE_JOB)
        assert (rc, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err

    def test_unset_settings_are_left_to_the_library(self, run_cli, monkeypatch):
        seen = []
        real = pipeline.lift_search

        def spy(delta, order, **kwargs):
            seen.append(kwargs)
            return real(delta, order, **kwargs)

        monkeypatch.setattr(pipeline, "lift_search", spy)
        rc, out, _ = run_cli(["lift-search"], TRIANGLE_JOB)
        assert rc == 0
        assert seen == [{}]
        assert json.loads(out)["budget"] == pipeline.DEFAULT_BUDGET

    def test_scan_family_flag_beats_the_job_file(self, run_cli):
        job = FERMAT_JOB + "family both\n"
        rc, out, _ = run_cli(["scan-orders", "--family", "lex"], job)
        assert rc == 0
        reports = json.loads(out)
        assert len(reports) == 3
        assert reports[0]["producing_orders"] == ["lex x>y>z", "lex x>z>y"]

    def test_complex_field_flag_beats_the_job_file(self, run_cli):
        job = (
            "vertices 6\n"
            "facets: 1 2 3; 1 2 4; 1 3 5; 1 4 6; 1 5 6; "
            "2 3 6; 2 4 5; 2 5 6; 3 4 5; 3 4 6\n"
            "field QQ\n"
        )
        rc, out, _ = run_cli(["complex", "--field", "GF(2)"], job)
        assert rc == 0
        d = json.loads(out)
        assert d["cohomology"]["field"] == "GF(2)"
        assert d["cohomology"]["dims"] == [0, 1, 1]

    def test_degree_cap_exit_code(self, run_cli):
        job = "ring QQ x,y,z\norder lex x>y>z\nideal: x^2 - y*z ; x*y - z^2\n"
        rc, out, err = run_cli(["analyze", "--degree-cap", "2"], job)
        assert rc == 3
        assert out == ""
        assert err == "grodeg: S-pair lcm degree 3 exceeds cap 2\n"

    @pytest.mark.parametrize(
        "cap,message",
        [
            ("-5", "--degree-cap must be >= 1"),
            ("0", "--degree-cap must be >= 1"),
            ("9" * 29, f"--degree-cap wants at most 20 digits, got '{'9' * 20}…'"),
            ("abc", "--degree-cap wants an integer, got 'abc'"),
        ],
        ids=["negative", "zero", "29-digits", "not-an-integer"],
    )
    def test_bad_degree_cap_is_a_usage_error(self, run_cli, cap, message):
        job = "ring QQ x1,x2,x3,x4,x5,x6\nideal: x1*x5 - x2*x4 ; x1*x6 - x3*x4 ; x2*x6 - x3*x5\n"
        rc, out, err = run_cli(["analyze", "--degree-cap", cap], job)
        assert (rc, out, err) == (2, "", f"grodeg: {message}\n")

    def test_lift_candidate_bound_exit_code(self, run_cli, no_lift_draws):
        job = "facets: 1 2; 2 3; 3 4; 4 5; 1 5\nbudget 99999999999999999999\n"
        rc, out, err = run_cli(["lift-search"], job)
        assert (rc, out) == (3, "")
        assert err == "grodeg: a lift search draws at most 1000000 candidates; lower the budget\n"

    def test_scan_bound_exit_code(self, run_cli):
        job = "ring QQ x1,x2,x3,x4,x5,x6,x7,x8,x9\nideal: x1*x2\n"
        rc, _, err = run_cli(["scan-orders"], job)
        assert rc == 3
        assert err == "grodeg: scanning 9 variables means 9! permutations; the bound is 8\n"

    def test_parse_error_exit_code(self, run_cli):
        rc, out, err = run_cli(["analyze"], "ring QQ x,y,z\nideal: x*y - q^2\n")
        assert rc == 2
        assert out == ""
        assert err == "grodeg: unknown variable 'q' (line 2, column 14)\n"

    def test_missing_job_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.job"
        rc = main(["analyze", str(missing)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == (
            f"grodeg: cannot read job file {missing}: No such file or directory\n"
        )

    def test_value_error_exit_code(self, run_cli):
        rc, _, err = run_cli(["point-count", "--prime", "4"], FERMAT_JOB)
        assert rc == 1
        assert err == "grodeg: 4 is not prime\n"

    def test_prime_past_the_bound_is_a_resource_limit(self, run_cli):
        start = time.perf_counter()
        rc, out, err = run_cli(["point-count", "--prime", "1000003"], FERMAT_JOB)
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (3, "")
        assert err == "grodeg: counting points mod 1000003 walks p^2 + p + 1 points; the bound is p <= 1024\n"

    def test_missing_prime_is_a_usage_error(self, run_cli):
        rc, _, err = run_cli(["point-count"], FERMAT_JOB)
        assert rc == 2
        assert err == "grodeg: point-count needs a prime (job line 'prime p' or --prime)\n"

    def test_point_count_wants_one_form(self, run_cli):
        rc, _, err = run_cli(
            ["point-count", "--prime", "5"], "ring QQ x,y,z\nideal: x^3 ; y^3\n"
        )
        assert rc == 2
        assert err == "grodeg: point-count wants exactly one form on the ideal line\n"

    def test_analyze_needs_an_ideal(self, run_cli):
        rc, _, err = run_cli(["analyze"], "ring QQ x,y,z\n")
        assert rc == 2
        assert err == "grodeg: analyze needs an ideal line in the job file\n"

    def test_complex_needs_facets(self, run_cli):
        rc, _, err = run_cli(["complex"], "ring QQ x,y,z\n")
        assert rc == 2
        assert err == "grodeg: complex needs a facets line in the job file\n"

    def test_lift_search_ring_facet_mismatch(self, run_cli):
        job = "ring QQ x1,x2\nvertices 3\nfacets: 1 2; 2 3; 1 3\n"
        rc, _, err = run_cli(["lift-search"], job)
        assert rc == 2
        assert err == "grodeg: ring and facets disagree about the number of vertices\n"

    def test_bad_pool_flag(self, run_cli):
        job = "facets: 1 2; 2 3; 1 3\n"
        rc, _, err = run_cli(["lift-search", "--pool", "1,oops"], job)
        assert rc == 2
        assert err == "grodeg: bad pool entry 'oops'\n"

    @pytest.mark.parametrize(
        "argv,job,message",
        [
            (["lift-search", "--budget", "-3"], TRIANGLE_JOB, "--budget must be >= 1"),
            (["lift-search", "--budget", "0"], TRIANGLE_JOB, "--budget must be >= 1"),
            (["point-count", "--prime", "1"], FERMAT_JOB, "--prime must be >= 2"),
        ],
    )
    def test_flags_below_the_directive_minimum(self, run_cli, argv, job, message):
        rc, out, err = run_cli(argv, job)
        assert rc == 2
        assert out == ""
        assert err == f"grodeg: {message}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["point-count", "--prime", "p"], "--prime wants an integer, got 'p'"),
            (["analyze", "--format", "yaml"], "--format must be one of json, text"),
            (["scan-orders", "--family", "grlex"], "--family must be one of lex, degrevlex, both"),
            (["complex", "--field", "GF(4)"], "GF modulus must be prime, got 4"),
            (["point-count", "--prime", "7" * 5000], f"--prime wants at most 20 digits, got '{'7' * 20}…'"),
            (["complex", "--field", f"GF({'7' * 5000})"], f"bad GF modulus '{'7' * 20}…'"),
            (["lift-search", "--pool", "1e10000000"], "bad pool entry '1e10000000'"),
        ],
    )
    def test_flags_are_checked_by_their_directive_rule(self, run_cli, argv, message):
        rc, out, err = run_cli(argv, FERMAT_JOB)
        assert rc == 2
        assert out == ""
        assert err == f"grodeg: {message}\n"

    def test_no_arguments_is_a_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert main(["frobnicate", "x.job"]) == 2
        capsys.readouterr()

    def test_analyze_text_output_has_no_escape_codes(self, run_cli):
        job = "ring QQ x,y,z\norder lex x>y>z\nideal: x*y*z + y^3 + z^3\n"
        rc, out, _ = run_cli(["analyze", "--format", "text"], job)
        assert rc == 0
        assert "\x1b" not in out
        assert "squarefree: true" in out
        assert "facets: 1 2; 1 3; 2 3" in out


HELP_TEXTS = Path(__file__).parent / "data" / "help"
COMMANDS = ("analyze", "scan-orders", "complex", "lift-search", "point-count")


@pytest.mark.parametrize("command", (None,) + COMMANDS)
def test_help_text_is_pinned(command, capsys, monkeypatch):
    """Root and subcommand help, byte for byte; argparse wraps to ``COLUMNS``."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    name = "grodeg" if command is None else f"grodeg-{command}"
    assert captured.out == (HELP_TEXTS / f"{name}.txt").read_text()
    assert captured.err == ""


def _parse_outcome(parse, words, capsys):
    """What parsing ``words`` gives: the namespace or exit code, and the text."""
    try:
        outcome = ("namespace", vars(parse(words)))
    except SystemExit as e:
        outcome = ("exit", e.code)
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "a.job"],
        ["scan-orders", "a.job", "--family", "lex"],
        ["complex", "a.job", "--field", "GF(2)", "--format", "text"],
        ["lift-search", "a.job", "--budget", "5", "--seed", "3", "--pool", "1,2"],
        ["point-count", "a.job", "--prime", "5", "--out", "r.json", "--degree-cap", "7"],
        ["point-count", "a.job", "--pri", "5"],
        ["complex", "a.job", "-h"],
        ["analyze"],
        ["lift-search", "--pool", "1,2"],
        ["analyze", "a.job", "--bogus"],
        ["analyze", "a.job", "--prime", "5"],
        ["complex", "a.job", "b.job"],
        ["--format", "json", "analyze", "a.job"],
        ["frobnicate", "a.job"],
        [],
        ["-h"],
        ["analyze", "--", "a.job"],
        ["lift-search", "a.job", "--pool", "-1,1"],
        ["lift-search", "a.job", "--pool"],
        ["scan-orders", "a.job", "--degree-cap", "abc"],
    ],
    ids=lambda argv: " ".join(argv) or "(none)",
)
def test_subcommand_parser_matches_the_full_tree(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    words = cli._glue_pool(argv)
    ours = _parse_outcome(cli._parse_args, words, capsys)
    assert ours == _parse_outcome(cli.build_parser().parse_args, words, capsys)
    if ours[0][0] == "exit" and ours[0][1] != 0:
        assert ours[0][1] == 2 and ours[2].startswith("usage: grodeg")


class TestParserPerCall:
    @pytest.fixture()
    def built(self, monkeypatch):
        """The ``prog`` of each ``argparse.ArgumentParser`` constructed."""
        progs = []
        real = argparse.ArgumentParser.__init__

        def spy(parser, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            real(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        return progs

    @pytest.mark.parametrize(
        "argv,job",
        [
            (["analyze"], FERMAT_JOB),
            (["scan-orders", "--family", "lex"], FERMAT_JOB),
            (["complex"], TRIANGLE_JOB),
            (["lift-search", "--budget", "3"], TRIANGLE_JOB),
            (["point-count", "--prime", "5"], FERMAT_JOB),
        ],
    )
    def test_a_valid_call_builds_its_subcommand_parser_only(self, run_cli, built, argv, job):
        assert run_cli(argv, job)[0] == 0
        assert built == [f"grodeg {argv[0]}"]

    def test_no_parser_is_kept_between_calls(self, run_cli, built):
        for _ in range(2):
            assert run_cli(["complex"], TRIANGLE_JOB)[0] == 0
        assert built == ["grodeg complex"] * 2

    @pytest.mark.parametrize(
        "argv,first",
        [
            ([], []),
            (["--help"], []),
            (["frobnicate", "a.job"], []),
            (["--format", "json", "complex", "a.job"], []),
            (["complex", "a.job", "--bogus"], ["grodeg complex"]),
        ],
    )
    def test_only_root_errors_build_the_root_parser(self, capsys, built, argv, first):
        assert main(argv) == (0 if argv == ["--help"] else 2)
        capsys.readouterr()
        assert built == first + ["grodeg"] + [f"grodeg {command}" for command in COMMANDS]
