"""Command-line surface: byte-exact outputs, exit codes, JSON shapes."""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from grifcalc.cli import MAX_JRING_VARS, run_command
from grifcalc.hodge import MAX_HYPERSURFACE_SIZE, bounded_slice_dimension
from grifcalc.invariant import MAX_PAIRS
from grifcalc.jacobian import MAX_SLICE_MONOMIALS as MAX_JRING_MONOMIALS
from grifcalc.scalar import MAX_PARSE_DEGREE, MAX_PARSE_EXPONENT, parse

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_hypersurface_hodge_byte_exact():
    code, out = run_command(
        ["hodge", "hypersurface", "--degree", "3", "--dim", "7", "--json"])
    assert code == 0
    assert out == '{"prim":[0,0,1,84,84,1,0,0]}'


def test_symbolic_determinant_byte_exact():
    code, out = run_command(["nl", "det", "--symbolic"])
    assert code == 0
    assert out == "a^2*(a+b*h)^2*(a^2*A*C-b^2*B*D)^2"


def test_zero_degree_is_a_usage_error():
    code, out = run_command(["hodge", "hypersurface", "--degree", "0",
                             "--dim", "7"])
    assert code == 2
    assert "error" in out


def test_unknown_subcommand_is_a_usage_error():
    code, _ = run_command(["frobnicate"])
    assert code == 2
    code, _ = run_command([])
    assert code == 2


def test_ci_hodge_json():
    code, out = run_command(["hodge", "ci", "--degrees", "3", "--dim", "6",
                             "--json"])
    assert code == 0
    data = json.loads(out)
    assert data == {"prim": [0, 0, 8, 70, 8, 0, 0], "euler": 93}
    # keys serialize sorted
    assert out.index('"euler"') < out.index('"prim"')


def test_ci_bad_degrees_usage_error():
    code, _ = run_command(["hodge", "ci", "--degrees", "3,x", "--dim", "5"])
    assert code == 2
    code, _ = run_command(["hodge", "ci", "--degrees", "0,2", "--dim", "5"])
    assert code == 2


def test_fermat_classes_json():
    code, out = run_command(["fermat", "classes", "--degree", "3", "--vars",
                             "8", "--type", "3,3", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["character_count"] == 70
    assert len(data["characters"]) == 70
    assert data["characters"][0] == [1, 1, 1, 1, 2, 2, 2, 2]


def test_fermat_classes_orbits_json():
    code, out = run_command(["fermat", "classes", "--degree", "3", "--vars",
                             "8", "--type", "3,3", "--orbits", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["orbit_count"] == 35
    classes = [o["class"] for o in data["orbits"]]
    assert "A*x0*x1*x2*x3 + C*x4*x5*x6*x7" in classes
    assert "B*x0*x1*x2*x4 + D*x3*x5*x6*x7" in classes


def test_fermat_degenerate_degree():
    code, out = run_command(["fermat", "classes", "--degree", "2", "--vars",
                             "4", "--type", "1,1"])
    assert code == 2


def test_nl_matrix_json():
    code, out = run_command(["nl", "matrix", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == data["cols"] == 8
    entries = {(i, j): v for i, j, v in data["entries"]}
    assert len(entries) == 12
    assert entries[(6, 7)] == "b*h+a"


def test_nl_matrix_specialized():
    code, out = run_command(["nl", "matrix", "--a", "1", "--b", "0", "--json"])
    assert code == 0
    entries = {(i, j): v for i, j, v in json.loads(out)["entries"]}
    assert entries[(0, 1)] == "1"
    assert (2, 4) not in entries  # the b-block vanishes


def test_nl_det_numeric():
    code, out = run_command(["nl", "det", "--a", "1", "--b", "0", "--json"])
    assert code == 0
    assert json.loads(out)["det"] == "A^2*C^2"


def test_nl_deltanu():
    code, out = run_command(["nl", "deltanu", "--json"])
    assert code == 0
    assert json.loads(out)["value"] == "a*b/(b*h+a)"


def test_nl_deltanu_degenerate_point_is_domain_error():
    code, out = run_command(["nl", "deltanu", "--a", "0", "--b", "0"])
    assert code == 2
    assert "error" in out


@pytest.mark.parametrize("argv, code, golden", [
    (["nl", "independence", "--json", "--pairs", "1,1;2,2;0,3;1,2;3,1"], 0,
     "nl_independence_mixed.json"),
    (["nl", "deltanu", "--a", "2", "--b", "3"], 0, "nl_deltanu_a2_b3.txt"),
    (["nl", "deltanu", "--symbolic"], 0, "nl_deltanu_symbolic.txt"),
    (["report", "--json", "--stable", "--kermu-vars", "6", "--pairs",
      "1,1;2,2;3,1"], 1, "report_stable_kermu6_dependent_pairs.json"),
])
def test_nl_outputs_match_golden_bytes(tmp_path, argv, code, golden):
    # captured before the nl layer dropped its determinant and its Scalar
    # independence ranks; a dependent pair family fails the report
    got_code, out = run_command(argv + ["--cache", str(tmp_path / "c")])
    assert got_code == code
    with open(os.path.join(DATA, golden), encoding="utf-8") as fh:
        assert out + "\n" == fh.read()


def test_nl_independence():
    code, out = run_command(["nl", "independence", "--pairs", "1,1;2,1;3,1",
                             "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 3 and data["relations"] == []


def test_top_level_independence_alias():
    code, out = run_command(["independence", "--pairs", "1,1;1,1", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 1
    assert len(data["relations"]) == 1
    # the alias runs the nl command itself, as text and as JSON
    for pairs in ("1,1;1,1", "1,1;2,2;0,3;1,2;3,1", "-2,1;1,1"):
        for tail in ([], ["--json"]):
            alias = run_command(["independence", "--pairs", pairs] + tail)
            assert alias == run_command(["nl", "independence", "--pairs",
                                         pairs] + tail), (pairs, tail)


def test_symbolic_determinant_mismatch_fails_in_text_and_json(monkeypatch):
    # the shipped determinant always matches; a wrong one exits 1, and
    # --json still prints one JSON object
    import grifcalc.cli

    monkeypatch.setattr(grifcalc.cli, "iso_det",
                        lambda triple: (None, parse("a*b")))
    factored = "a^2*(a+b*h)^2*(a^2*A*C-b^2*B*D)^2"
    code, out = run_command(["nl", "det", "--symbolic"])
    assert (code, out) == (1, "determinant a*b does not match the factored "
                              "form %s" % factored)
    code, out = run_command(["nl", "det", "--symbolic", "--json"])
    assert code == 1
    assert json.loads(out) == {"det": "a*b", "expected": factored}


def test_independence_bad_pairs_usage():
    code, _ = run_command(["independence", "--pairs", "1;2"])
    assert code == 2
    code, _ = run_command(["independence", "--pairs", ""])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["nl", "deltanu", "--a", "1/0"],
    ["nl", "independence", "--pairs", "1/0,1"],
    ["independence", "--pairs", "1,1/0"],
    ["report", "--pairs", "1/0,1"],
])
def test_zero_denominator_is_a_usage_error(tmp_path, argv):
    code, out = run_command(argv + ["--cache", str(tmp_path / "c")])
    assert code == 2
    assert out.startswith("error: argument --")


def test_pair_count_is_bounded_everywhere(tmp_path):
    pairs = ";".join(["1,1"] * (MAX_PAIRS + 1))
    skip = [t for g in ("hodge", "fermat", "nl", "kermu") for t in ("--skip", g)]
    for argv in (["report", "--pairs", pairs] + skip,
                 ["nl", "independence", "--pairs", pairs],
                 ["independence", "--pairs", pairs]):
        code, out = run_command(argv + ["--cache", str(tmp_path / "c")])
        assert code == 2, argv[:2]
        assert "at most %d pairs" % MAX_PAIRS in out, argv[:2]


def test_zero_zero_pair_is_a_usage_error_everywhere(tmp_path):
    # (0, 0) has no value; the report must not turn it into a failed check
    skip = [t for g in ("hodge", "fermat", "nl", "kermu") for t in ("--skip", g)]
    for argv in (["report", "--pairs", "1,1;0,0"] + skip,
                 ["nl", "independence", "--pairs", "0,0"],
                 ["independence", "--pairs", "2,1;0,0"]):
        code, out = run_command(argv + ["--cache", str(tmp_path / "c")])
        assert code == 2, argv
        assert "(0, 0)" in out, argv


def test_values_starting_with_a_minus_sign_parse_when_separated(tmp_path):
    skip = [t for g in ("hodge", "fermat", "nl", "kermu") for t in ("--skip", g)]
    for head, option, value in ((["independence"], "--pairs", "-2,1;1,1"),
                                (["nl", "independence"], "--pairs",
                                 "-2,1;-1/2,3"),
                                (["nl", "deltanu"], "--a", "-1/2"),
                                (["nl", "det"], "--b", "-3/4"),
                                (["report", "--stable"] + skip, "--pairs",
                                 "-2,1;1,1")):
        tail = ["--json", "--cache", str(tmp_path / "c")]
        joined = run_command(head + ["%s=%s" % (option, value)] + tail)
        assert joined[0] == 0, joined
        assert run_command(head + [option, value] + tail) == joined
    code, out = run_command(["nl", "deltanu", "--a", "-1/2", "--b", "1"])
    assert (code, out) == (0, "-1/(2*h-1)")
    # an option name in the value slot is still a missing value
    code, out = run_command(["nl", "deltanu", "--a", "--json"])
    assert code == 2 and "expected one argument" in out


def test_kermu_verify_span_json():
    code, out = run_command(["kermu", "verify", "--vars", "6", "--method",
                             "span", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert data["kernel_dim"] == 399
    assert data["exact"] is True
    assert "elapsed" in data


def test_kermu_cache_env_var_and_flag_precedence(tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("GRIFCALC_CACHE", str(env_dir))
    code, _ = run_command(["kermu", "verify", "--vars", "5", "--method",
                           "span", "--json"])
    assert code == 0
    assert len(list(env_dir.glob("*.json"))) == 1
    # an explicit --cache wins over the environment
    flag_dir = tmp_path / "from-flag"
    code, _ = run_command(["kermu", "verify", "--vars", "4", "--method",
                           "span", "--json", "--cache", str(flag_dir)])
    assert code == 0
    assert len(list(flag_dir.glob("*.json"))) == 1
    assert len(list(env_dir.glob("*.json"))) == 1


def test_flags_before_the_action_are_usage_errors(tmp_path, monkeypatch):
    # common flags belong to the action; before it they are not silently
    # dropped for the action's defaults
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GRIFCALC_CACHE", raising=False)
    for argv in (["nl", "--json", "det", "--a", "2", "--b", "3"],
                 ["kermu", "--cache", str(tmp_path / "flag"), "verify",
                  "--vars", "5"]):
        code, _ = run_command(argv)
        assert code == 2, argv
    assert list(tmp_path.iterdir()) == []


def test_kermu_verify_standardize_json():
    code, out = run_command(["kermu", "verify", "--vars", "5", "--method",
                             "standardize", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert data["standardized_vectors"] == 100
    assert data["certificate_moves"] >= 0
    assert "elapsed" in data


def test_kermu_verify_text_names_certificates_only_when_standardizing():
    code, out = run_command(["kermu", "verify", "--vars", "5", "--method",
                             "span"])
    assert code == 0
    assert "mode span_rank, verdict True" in out
    assert "certificate" not in out
    code, out = run_command(["kermu", "verify", "--vars", "5", "--method",
                             "standardize"])
    assert code == 0
    assert out.splitlines()[-1] == ("standardized 100 vectors with 100 "
                                    "certificate moves")


def test_kermu_verify_out_of_range():
    code, out = run_command(["kermu", "verify", "--vars", "12"])
    assert code == 2
    for extra in (["--exact"], ["--modp", "7"]):
        code, out = run_command(["kermu", "verify", "--vars", "9"] + extra)
        assert code == 2
        assert "unrecognized arguments: %s" % " ".join(extra) in out


def test_jring_basis():
    code, out = run_command(["jring", "basis", "--vars", "6", "--degree", "3",
                             "--k", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 15
    assert "x0*x1" in data["monomials"]


def test_jring_normal_form():
    poly = json.dumps({"nvars": 4, "degree": 3,
                       "terms": [{"exps": [3, 0, 0, 0], "coeff": "1"},
                                 {"exps": [1, 1, 1, 0], "coeff": "2"}]})
    code, out = run_command(["jring", "nf", "--vars", "4", "--degree", "3",
                             "--poly", poly, "--json"])
    assert code == 0
    data = json.loads(out)
    # x0^3 dies in the Fermat cubic, the square-free part survives
    assert data["terms"] == [{"exps": [1, 1, 1, 0], "coeff": "2"}]


def test_jring_malformed_poly_is_a_usage_error():
    for poly in ('{"nvars": 4}', "[]", "3", '{"nvars": 4, "degree": 3, '
                 '"terms": [{"exps": "x", "coeff": 1}]}', "{"):
        code, out = run_command(["jring", "nf", "--vars", "4", "--degree",
                                 "3", "--poly", poly])
        assert code == 2
        assert "--poly" in out


def test_jring_poly_fields_must_have_their_json_types():
    # nvars, degree and exponents are JSON integers (not floats, strings or
    # booleans), and a coefficient is a string or an integer
    def poly(nvars=3, degree=3, exps=(1, 1, 1), coeff="1"):
        return json.dumps({"nvars": nvars, "degree": degree,
                           "terms": [{"exps": list(exps), "coeff": coeff}]})

    for bad in (poly(exps=(1.9, 1.9, 1)), poly(exps=(True, 1, 1)),
                poly(nvars=3.5), poly(degree="3"), poly(coeff=None),
                poly(coeff=True), poly(coeff=1.5)):
        code, out = run_command(["jring", "nf", "--vars", "3", "--degree",
                                 "3", "--poly", bad])
        assert code == 2 and "--poly" in out, bad
    code, out = run_command(["jring", "nf", "--vars", "3", "--degree", "3",
                             "--poly", poly(coeff=2), "--json"])
    assert code == 0
    assert json.loads(out)["terms"] == [{"exps": [1, 1, 1], "coeff": "2"}]


def test_jring_poly_of_negative_size_is_a_usage_error():
    # a negative variable count or degree is refused, not printed back or
    # paired as an empty matrix
    for nvars, degree in ((2, -1), (-1, 3), (-2, -1)):
        poly = json.dumps({"nvars": nvars, "degree": degree, "terms": []})
        for argv in (["jring", "nf", "--json", "--vars", "2", "--degree",
                      "3", "--poly", poly],
                     ["jring", "pairing", "--vars", "2", "--degree", "3",
                      "--j", "0", "--k", "3", "--poly", poly]):
            code, out = run_command(argv)
            assert code == 2 and "negative" in out, argv


def _jring(action, nvars, degree, *flags):
    return run_command(["jring", action, "--vars", str(nvars), "--degree",
                        str(degree)] + [str(f) for f in flags])


def _square_free_poly(nvars, degree):
    return json.dumps({"nvars": nvars, "degree": degree, "terms": [
        {"exps": [1] * degree + [0] * (nvars - degree), "coeff": "a"}]})


def test_jring_poly_coefficient_powers_are_bounded():
    # a coefficient whose power could pass a parser bound exits 2 before
    # the power is computed
    for coeff in ("(a+b)^3000", "((a+b)^40)^40", "2^200000000"):
        poly = json.dumps({"nvars": 2, "degree": 1, "terms": [
            {"exps": [1, 0], "coeff": coeff}]})
        start = time.perf_counter()
        code, out = _jring("nf", 2, 3, "--poly", poly)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and "power above the bound" in out


def _jring_nf_subprocess(coeff):
    # `jring nf` on the form coeff*x0 in a fresh interpreter
    poly = json.dumps({"nvars": 2, "degree": 1, "terms": [
        {"exps": [1, 0], "coeff": coeff}]})
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["grifcalc.cli"].__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "grifcalc.cli", "jring", "nf",
                           "--vars", "2", "--degree", "3", "--poly", poly],
                          capture_output=True, text=True, env=env, timeout=60)


def test_jring_poly_coefficient_products_are_bounded():
    # a coefficient whose product or quotient could pass a parser bound
    # exits 2 before it is taken; thirty factors (a+b)^100 took 10.9 s
    # before products were bounded, and now stop at the second factor
    for coeff in ("(a+b)^50*(a+b)^51", "1/(a+b)^50/(a+b)^51",
                  "(a+b+c)^22*(a+b+c)^22", "255^256*255^257"):
        poly = json.dumps({"nvars": 2, "degree": 1, "terms": [
            {"exps": [1, 0], "coeff": coeff}]})
        code, out = _jring("nf", 2, 3, "--poly", poly)
        assert code == 2 and "above the bound" in out, coeff
    start = time.perf_counter()
    proc = _jring_nf_subprocess("*".join(["(a+b)^100"] * 30))
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2
    assert "product above the bound" in proc.stdout + proc.stderr


def test_jring_poly_coefficient_sums_are_bounded():
    # a sum of fractions multiplies denominators; twenty terms
    # 1/(a+i*b+c)^5 took 9.8 s before sums were bounded, and now stop at
    # the ninth term
    def coefficient(n):
        return "+".join("1/(a+%d*b+c)^5" % i for i in range(1, n + 1))

    poly = json.dumps({"nvars": 2, "degree": 1, "terms": [
        {"exps": [1, 0], "coeff": coefficient(9)}]})
    code, out = _jring("nf", 2, 3, "--poly", poly)
    assert code == 2 and "sum above the bound" in out
    start = time.perf_counter()
    proc = _jring_nf_subprocess(coefficient(20))
    # about 0.7 s with Python 3.11; the budget leaves room for a loaded
    # machine
    assert time.perf_counter() - start < 3.0
    assert proc.returncode == 2
    assert "sum above the bound" in proc.stdout + proc.stderr


def test_jring_poly_sums_over_an_equal_denominator():
    # x + y over one denominator forms only x.num + y.num, so the bound
    # checks each numerator alone, not x.num*y.den
    for coeff, code in (("(a+b)^60/(c+d)^41+1/(c+d)^41", 0),
                        ("(a+b)^60/(c+d)^41-1/(c+d)^41", 0),
                        ("(a+b)^101/(c+d)+1/(c+d)", 2)):
        poly = json.dumps({"nvars": 2, "degree": 1, "terms": [
            {"exps": [1, 0], "coeff": coeff}]})
        assert _jring("nf", 2, 3, "--poly", poly)[0] == code, coeff


def test_jring_basis_size_is_bounded():
    # the quartic slice at k = 46 in 25 variables has 19,850 monomials and
    # is the costliest accepted slice: 0.5 s here, the budget leaves room
    # for a loaded machine
    top = MAX_JRING_MONOMIALS
    assert bounded_slice_dimension(25, 46, 2) <= top
    start = time.perf_counter()
    code, out = _jring("basis", 25, 4, "--k", 46, "--json")
    assert time.perf_counter() - start < 10.0
    assert code == 0
    assert json.loads(out)["dimension"] == bounded_slice_dimension(25, 46, 2)
    # the next slice towards the middle is past the bound
    assert bounded_slice_dimension(25, 45, 2) > top
    code, out = _jring("basis", 25, 4, "--k", 45)
    assert code == 2 and "more than %d" % top in out
    # inputs that used to run without end
    for nvars, degree, k in ((20, 4, 10), (30, 5, 20)):
        code, out = _jring("basis", nvars, degree, "--k", k)
        assert code == 2 and "more than %d" % top in out
    code, out = _jring("basis", MAX_JRING_VARS, 3, "--k", 1)
    assert code == 0 and out.startswith("dimension %d" % MAX_JRING_VARS)
    code, out = _jring("basis", 2, MAX_HYPERSURFACE_SIZE, "--k", 1)
    assert code == 0 and out.startswith("dimension 2")
    for nvars, degree in ((MAX_JRING_VARS + 1, 3),
                          (2, MAX_HYPERSURFACE_SIZE + 1)):
        for action, flags in (("basis", ("--k", 1)),
                              ("nf", ("--poly", _square_free_poly(nvars, 1))),
                              ("pairing", ("--poly", _square_free_poly(nvars, 1),
                                           "--j", 0, "--k", 0))):
            code, out = _jring(action, nvars, degree, *flags)
            assert code == 2 and "at most %d variables" % MAX_JRING_VARS in out


def test_jring_pairing_size_is_bounded():
    # 120 x 120 socle pairings of the cubic in 10 variables are accepted,
    # 120 x 210 are past the bound
    top = MAX_JRING_MONOMIALS
    assert 120 * 120 <= top < 120 * 210
    start = time.perf_counter()
    code, out = _jring("pairing", 10, 3, "--poly", _square_free_poly(10, 4),
                       "--j", 3, "--k", 3, "--json")
    assert time.perf_counter() - start < 10.0
    assert code == 0
    doc = json.loads(out)
    assert (doc["rows"], doc["cols"]) == (120, 120)
    code, out = _jring("pairing", 10, 3, "--poly", _square_free_poly(10, 3),
                       "--j", 3, "--k", 4)
    assert code == 2 and "more than %d" % top in out


def test_help_exits_cleanly():
    code, out = run_command(["--help"])
    assert code == 0
    assert "grifcalc" in out
    code, out = run_command(["hodge", "--help"])
    assert code == 0


def test_version():
    code, out = run_command(["--version"])
    assert code == 0
    assert out == "0.1.0"


def test_kermu_default_modulus_verdict():
    code, out = run_command(["kermu", "verify", "--vars", "8", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert data["exact"] is True
    assert data["prime"] is None
    assert data["kernel_dim"] == 3108


def test_module_entry_point_runs_main():
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["grifcalc.cli"].__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "grifcalc.cli", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "0.1.0\n"


def test_report_kermu_size_out_of_range_is_a_usage_error():
    for extra, message in ((["--kermu-vars", "12"], "nvars must lie in [4, 9]"),
                           (["--kermu-vars", "3"], "nvars must lie in [4, 9]")):
        start = time.perf_counter()
        code, out = run_command(["report"] + extra)
        assert code == 2
        assert message in out
        assert time.perf_counter() - start < 1.0


def test_report_unknown_skip_token_is_a_usage_error():
    for token in ("kermus", "hodge,nl", "", "hodge."):
        code, out = run_command(["report", "--skip", token])
        assert code == 2
        assert "hodge, fermat, nl, kermu, independence" in out
    everything = ["--skip", "hodge", "--skip", "fermat", "--skip", "nl",
                  "--skip", "kermu.span", "--skip", "kermu.standardize",
                  "--skip", "independence"]
    code, out = run_command(["report", "--json"] + everything)
    assert code == 0
    assert {c["status"] for c in json.loads(out)["checks"]} == {"skip"}


_FUZZ_GROUPS = ("hodge", "fermat", "nl", "kermu", "independence")
# coefficient powers at each parser bound and just past it
_BOUND_COEFFS = ("1^%d" % MAX_PARSE_EXPONENT,
                 "1^%d" % (MAX_PARSE_EXPONENT + 1),
                 "(a+b)^%d" % MAX_PARSE_DEGREE,
                 "(a+b)^%d" % (MAX_PARSE_DEGREE + 1),
                 "(a+b+c)^43", "(a+b+c)^44", "255^512", "255^513")


def _fuzz_argv(rng):
    """One random command line: a subcommand with its flags, values drawn
    mostly from a small valid range and sometimes malformed, and now and
    then a token dropped, duplicated or replaced by garbage."""
    def small(lo, hi):
        if rng.random() < 0.85:
            return str(rng.randint(lo, hi))
        return rng.choice(["-1", "0", "x", "", "2.5", "1e3", "1/0"])

    def poly(nvars, degree):
        terms = []
        for _ in range(rng.randint(0, 3)):
            exps = [0] * nvars
            for _ in range(degree):
                exps[rng.randrange(nvars)] += 1
            terms.append({"exps": exps, "coeff": rng.choice(
                ["1", "-2", "1/3", "a", "0", "1/0", "x^", "1" * 5000]
                + [rng.choice(_BOUND_COEFFS)] * 3)})
        doc = {"nvars": nvars, "degree": degree, "terms": terms}
        return rng.choice([json.dumps(doc)] * 14 + [
            "{", "[]", "3", '{"nvars": 2}', json.dumps({"terms": terms}),
            json.dumps(dict(doc, degree=degree + 1)),
            json.dumps(dict(doc, terms=[{"exps": "x", "coeff": 1}]))])

    def pairs():
        if rng.random() < 0.1:  # a count at the bound or just past it
            pair = rng.choice(["1,1", "0,1", "%d,2" % rng.randint(1, 5)])
            return ";".join([pair] * rng.choice([MAX_PAIRS, MAX_PAIRS + 1]))
        return rng.choice(["1,1;2,1", "1,1;1,1", "0,0", "1/2,3", "a,b", "1;2",
                           "", ";", "1/0,1", "%d,%d" % (rng.randint(-3, 3),
                                                        rng.randint(-3, 3))])

    nvars, degree = rng.randint(1, 4), rng.randint(2, 4)
    ring = ["--vars", small(nvars, nvars), "--degree", small(degree, degree)]
    commands = [
        ["jring", "basis"] + ring + ["--k", small(0, 6)],
        ["jring", "nf"] + ring + ["--poly", poly(nvars, rng.randint(0, 4))],
        ["jring", "pairing"] + ring + ["--poly", poly(nvars, 2), "--j",
                                       small(0, 2), "--k", small(0, 2)],
        ["hodge", "hypersurface", "--degree", small(1, 6),
         "--dim", small(1, 5)],
        ["hodge", "ci", "--degrees", rng.choice(["3", "2,3", "3,3", "1,1,2",
                                                 "0", "3,x", "", ","]),
         "--dim", small(0, 4)],
        # sizes at and just past the bounds of hodge ci and jring
        rng.choice([
            ["hodge", "ci", "--degrees", "3", "--dim",
             rng.choice(["20", "21"])],
            ["hodge", "ci", "--degrees", rng.choice(
                ["100", "101", ",".join(["2"] * 20), ",".join(["2"] * 21)]),
             "--dim", small(0, 4)],
            ["jring", "basis", "--vars", "25", "--degree", "4", "--k",
             rng.choice(["4", "5", "45", "46"])],
            ["jring", "basis", "--vars", rng.choice(["32", "33"]),
             "--degree", "3", "--k", "1"],
            ["jring", "pairing", "--vars", rng.choice(["32", "33"]),
             "--degree", "3", "--poly", poly(32, 31), "--j", "0", "--k", "1"],
            ["jring", "basis", "--vars", "2", "--degree",
             rng.choice(["100", "101"]), "--k", small(0, 6)],
        ]),
        ["fermat", "classes", "--degree", small(2, 4), "--vars", small(1, 5),
         "--type", rng.choice(["1,1", "2,1", "0,2", "3", "a,b", "1,1,1"])]
        + rng.choice([[], ["--orbits"]]),
        ["nl", rng.choice(["matrix", "det", "deltanu"])]
        + rng.choice([[], ["--symbolic"], ["--a", small(-2, 2)],
                      ["--a", small(-2, 2), "--b", small(-2, 2)]]),
        ["nl", "independence", "--pairs", pairs()],
        ["independence", "--pairs", pairs()],
        ["kermu", "verify", "--vars", rng.choice(["1", "3", "4", "12", "x"]),
         "--method", rng.choice(["span", "standardize", "other"])],
        ["report", "--kermu-vars", small(1, 9), "--pairs", pairs(),
         "--seed", rng.choice(["2147483647", "7", "6", "1", "0", "x"])]
        + [t for g in _FUZZ_GROUPS for t in ("--skip", g)]
        + rng.choice([[], ["--skip", "kermus"], ["--stable"]]),
        [rng.choice(["frobnicate", "--help", "--version", "-x", ""])],
    ]
    argv = rng.choice(commands)
    argv += rng.choice([[], [], ["--json"], ["--seed", small(0, 5)],
                        ["--json", "--seed", small(0, 5)],
                        ["--seed", small(0, 5), "--json"]])
    mutation = rng.random()
    if mutation < 0.05:
        del argv[rng.randrange(len(argv))]
    elif mutation < 0.1:
        i = rng.randrange(len(argv))
        argv.insert(i, argv[i])
    elif mutation < 0.15:
        argv[rng.randrange(len(argv))] = rng.choice(["--", "-", "=", "%s",
                                                     "é", "--vars"])
    return argv


def test_fuzzed_command_lines_exit_cleanly():
    rng = random.Random(20261018)
    start = time.perf_counter()
    ran = 0
    for _ in range(300):
        argv = _fuzz_argv(rng)
        code, out = run_command(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out, argv
        ran += code != 2
    # 96 of these 300 lines get past parsing and validation; the floor
    # keeps the generator from decaying into a parser-only test
    assert ran >= 80
    # about 3.5 s here; the bound leaves room for a loaded machine
    assert time.perf_counter() - start < 20.0


def _census(degree, nvars, ptype, *flags):
    return run_command(["fermat", "classes", "--degree", str(degree),
                        "--vars", str(nvars), "--type",
                        "%d,%d" % ptype] + list(flags))


def test_fermat_census_size_is_bounded():
    # one character per monomial of the slice k = (q+1)d - nvars, counted
    # before anything is enumerated: these used to recurse past the
    # interpreter's limit or run on past 10 s
    code, out = _census(3, 2000, (1332, 666))
    assert code == 2 and "at most %d variables" % MAX_JRING_VARS in out
    assert "fermat classes" in out
    for degree, nvars, ptype in ((3, 30, (14, 14)), (50, 10, (4, 4))):
        k = (ptype[1] + 1) * degree - nvars
        count = bounded_slice_dimension(nvars, k, degree - 2)
        assert count > MAX_JRING_MONOMIALS
        code, out = _census(degree, nvars, ptype)
        assert code == 2 and "more than %d" % MAX_JRING_MONOMIALS in out
    code, out = _census(MAX_HYPERSURFACE_SIZE + 1, 3, (1, 0))
    assert code == 2 and "degree at most %d" % MAX_HYPERSURFACE_SIZE in out


def test_slowest_accepted_census_answers_in_time():
    # degree 8 on 29 variables: 4,495 characters, each alone in its Galois
    # orbit of 4 members, 17,980 members in all.  Of the largest accepted
    # census at each variable count 3..32 it is the dearest, about 0.9 s
    # here; the budget leaves room for a loaded machine
    start = time.perf_counter()
    code, out = _census(8, 29, (3, 24), "--orbits", "--json")
    assert time.perf_counter() - start < 30.0
    assert code == 0
    doc = json.loads(out)
    assert doc["character_count"] == bounded_slice_dimension(29, 171, 6)
    assert doc["orbit_count"] == doc["character_count"]
    assert all(len(orb["members"]) == 4 for orb in doc["orbits"])


def test_census_bound_counts_orbit_members():
    # 5,005 characters pass the bound alone, but with --orbits each lists
    # its 4 multiples by the units mod 8: 20,020 members, one past it
    assert _census(8, 10, (1, 7))[0] == 0
    code, out = _census(8, 10, (1, 7), "--orbits")
    assert code == 2 and "20020" in out
    assert "more than %d" % MAX_JRING_MONOMIALS in out
    # 18,564 orbits of 18 members, which used to take about 8.5 s
    start = time.perf_counter()
    code, out = _census(19, 13, (11, 0), "--orbits")
    assert code == 2 and "more than %d" % MAX_JRING_MONOMIALS in out
    assert time.perf_counter() - start < 1.0
