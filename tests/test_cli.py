import json
import re
import warnings
from pathlib import Path

import pytest

from flatiso import catalog, cli, exprio
from flatiso.errors import SchemaError


DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def perturbed_file(tmp_path, perturbed_klein):
    doc = exprio.serialize_pvf(perturbed_klein)
    p = tmp_path / "perturbed.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_catalog_list(capsys):
    code, out, err = run(capsys, "catalog", "list")
    assert code == 0
    assert json.loads(out)["ids"] == catalog.catalog_list()
    assert "LT8" in err


def test_verify_wdvv_pass(capsys):
    code, out, err = run(capsys, "verify-wdvv", "--catalog", "LT8")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and rep["failing_commutators"] == []
    assert "tolerances" in rep


def test_verify_wdvv_perturbed_fails(capsys, perturbed_file):
    code, out, err = run(capsys, "verify-wdvv", "--input", perturbed_file)
    assert code == 1
    rep = json.loads(out)
    assert rep["failing_commutators"] == [[1, 2]]


def test_unknown_catalog_id(capsys):
    code, out, err = run(capsys, "verify-wdvv", "--catalog", "nope")
    assert code == 2
    assert "input error" in err


def test_missing_input(capsys):
    code, out, err = run(capsys, "verify-wdvv")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("verify-wdvv", "--catalog", "LT8", "--input", "/nonexistent.json"),
    ("catalog", "verify", "--all", "--catalog", "LT8"),
])
def test_conflicting_input_flags_are_schema_errors(argv, capsys, monkeypatch):
    # neither flag wins: the file is not opened and no entry is verified
    def refuse(*args, **kwargs):
        raise AssertionError("nothing is read or verified")

    monkeypatch.setattr("builtins.open", refuse)
    monkeypatch.setattr(catalog, "catalog_verify", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2 and "input error" in err and "not both" in err
    assert out == ""
    with pytest.raises(SchemaError, match="not both"):
        cli.VERBS[argv[0]](cli._build_parser().parse_args(argv))


@pytest.mark.parametrize("flags", [
    ("--catalog", "LT8"), ("--all",), ("--depth", "symbolic"),
    ("--depth", "full"), ("--catalog", "LT8", "--depth", "full", "--all"),
])
def test_catalog_list_refuses_verify_flags(flags, capsys):
    # catalog list has no entry or depth to choose, so these flags are a
    # SchemaError rather than silently ignored
    code, out, err = run(capsys, "catalog", "list", *flags)
    assert code == 2 and "input error" in err and "catalog list takes no" in err
    assert out == ""
    with pytest.raises(SchemaError, match="catalog list takes no"):
        cli._run_catalog(cli._build_parser().parse_args(["catalog", "list", *flags]))


def test_catalog_verify_depth_defaults_to_symbolic(capsys):
    code, out, err = run(capsys, "catalog", "verify", "--catalog", "LT8")
    assert code == 0 and json.loads(out)["depth"] == "symbolic"
    assert err.startswith("catalog verify [symbolic]:")


def test_saito_and_logvf(capsys):
    code, out, _ = run(capsys, "saito", "--catalog", "H3")
    assert code == 0
    rep = json.loads(out)
    assert rep["saito_relations_ok"] and rep["flat_normalization_ok"]
    code, out, _ = run(capsys, "logvf", "--catalog", "H3")
    assert code == 0
    assert json.loads(out)["saito_criterion_c"] == "1"


def test_extract_p6_json_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "extract-p6", "--catalog", "LT8",
                         "--json", str(target))
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["pvi_residual"] < 1e-6
    assert rep["samples_csv"].startswith("s,t1,t2,t,y,dy,d2y,residual")


def test_extract_p6_entry_flag(capsys):
    # a non-default entry gives a different PVI branch with its own
    # parameter dictionary (theta_inf = lam_3 - lam_1 here)
    code, out, err = run(capsys, "extract-p6", "--catalog", "LT8",
                         "--entry", "3,1")
    assert code == 0
    rep = json.loads(out)
    assert rep["entry"] == [3, 1]
    assert abs(rep["params"]["theta"]["inf"][0] - 5 / 7) < 1e-12


def test_extract_p6_degenerate_entry(capsys):
    # (1,3) is identically zero in the lambda_3 = 0 normalization
    code, out, err = run(capsys, "extract-p6", "--catalog", "LT8",
                         "--entry", "1,3")
    assert code == 2


def test_extract_p6_on_a_pvi_pole_is_a_numeric_failure(capsys, tmp_path):
    # on LT30 the (3,1) branch has y = 0, a pole of PVI, so the defect is not
    # finite: PoleOnPath (exit 3) names the sample, and no report is written
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "extract-p6", "--catalog", "LT30",
                         "--entry", "3,1", "--json", str(target))
    assert code == 3 and out == "" and not target.exists()
    assert "numeric failure" in err and "not finite at the sample t =" in err


@pytest.mark.parametrize("verb", ["extract-p6", "schlesinger", "midconv", "params"])
def test_path_past_the_float_range_is_a_blow_up(verb, capsys, tmp_path):
    # t1 = 1e308 is a real JSON number, but T0 overflows there: BlowUp
    # (exit 3) names the first path point, and no report is written
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"t1": 1e308, "t2_start": 0.1, "t2_end": 0.2,
                                "points": 9}))
    target = tmp_path / "report.json"
    code, out, err = run(capsys, verb, "--catalog", "LT8", "--path", str(path),
                         "--json", str(target))
    assert code == 3 and out == "" and not target.exists()
    assert "numeric failure: T0 is not finite at path point 0" in err


@pytest.mark.parametrize("verb", ["extract-p6", "schlesinger", "midconv", "params"])
def test_huge_path_fails_with_one_line_and_no_warning(verb, capsys, tmp_path):
    # t1 = 1e300 and t2 near 1e200 overflow T0 inside the tracker, which
    # turns the non-finite values into BlowUp without a numpy warning
    path = tmp_path / "path.json"
    for doc in ({"t1": 1e300, "t2_start": 0.1, "t2_end": 0.2, "points": 9},
                {"t1": 1.0, "t2_start": 1e200, "t2_end": 2e200, "points": 9}):
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, verb, "--catalog", "LT8",
                                 "--path", str(path))
        assert code == 3 and out == ""
        assert err == "numeric failure: T0 is not finite at path point 0\n"


def test_schlesinger_and_midconv(capsys):
    code, out, _ = run(capsys, "schlesinger", "--catalog", "LT8")
    assert code == 0
    assert json.loads(out)["schlesinger_residual"] < 1e-6
    code, out, _ = run(capsys, "midconv", "--catalog", "LT8")
    assert code == 0
    rep = json.loads(out)
    assert rep["gamma_inf_error"] < 1e-8 and rep["trace_error"] < 1e-8


def test_jm_roundtrip_deterministic(capsys):
    code1, out1, _ = run(capsys, "jm-roundtrip", "--seed", "11", "--steps", "200")
    code2, out2, _ = run(capsys, "jm-roundtrip", "--seed", "11", "--steps", "200")
    assert code1 == code2 == 0
    assert out1 == out2          # identical inputs and seeds: identical reports
    rep = json.loads(out1)
    assert rep["pvi_residual"] < 1e-6 and rep["schlesinger_residual"] < 1e-6


def test_jm_roundtrip_passes_at_ten_thousand_steps(capsys):
    # y' is the flow's velocity at the grid points and y'' its first
    # difference, so no stencil divides the rounding of y by h^2: these
    # seeds' PVI residuals were 1.0e-6 to 1.6e-6 through the second
    # difference of y, and are below 1e-10 now
    for seed in ("0", "1", "2"):
        code, out, _ = run(capsys, "jm-roundtrip", "--seed", seed,
                           "--steps", "10000")
        assert code == 0, seed
        assert json.loads(out)["pvi_residual"] < 1e-9, seed


def test_jm_roundtrip_reports_the_enforced_bounds(capsys):
    from flatiso import isomono
    code, out, _ = run(capsys, "jm-roundtrip", "--seed", "11", "--steps", "200")
    assert code == 0
    tol = json.loads(out)["tolerances"]
    assert tol == {"pvi_residual": tol["pvi_residual"],
                   "schlesinger_residual": tol["schlesinger_residual"],
                   "a_inf_offdiagonal": isomono.JM_RESIDUE_TOL,
                   "a_inf_diagonal": isomono.JM_DIAGONAL_TOL,
                   "residue_traces": isomono.JM_RESIDUE_TOL}
    assert (isomono.JM_RESIDUE_TOL, isomono.JM_DIAGONAL_TOL) == (1e-10, 1e-8)


def test_jm_roundtrip_numeric_pin(capsys):
    # first, middle and last trajectory rows and the PVI residual of
    # jm-roundtrip --seed 11 --steps 200, pinned so that a change to the
    # integrator cannot move them silently
    pin = json.loads((DATA / "jm_roundtrip_seed11_steps200.json").read_text())
    code, out, _ = run(capsys, *pin["argv"])
    assert code == 0
    rep = json.loads(out)
    lines = rep["trajectory_csv"].splitlines()
    assert lines[0] == pin["header"]
    assert len(lines) == 202
    for k, row in pin["rows"].items():
        got = [float(x) for x in lines[1 + int(k)].split(",")]
        want = [float(x) for x in row.split(",")]
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12, k
    assert abs(rep["pvi_residual"] - pin["pvi_residual"]) < 1e-12


def test_jm_roundtrip_with_small_theta_inf_fails_at_rounding_level(capsys):
    # seed 573351091 draws theta_inf = kappa_1 - kappa_2 of about 6e-4, so
    # the residues reach about 1.45e6 at the first grid point.  The A_inf
    # off-diagonal there, 1.1e-9, is rounding (below 1e-15 of max|A_i|), yet
    # above the absolute JM_RESIDUE_TOL = 1e-10: the verb exits 3, and the
    # message names the scale that explains it
    code, _, err = run(capsys, "jm-roundtrip", "--seed", "573351091")
    assert code == 3
    hit = re.search(r"off-diagonal (\S+) exceeds 1e-10 at t = \(2\+0j\) "
                    r"\(max\|A_i\| = (\S+), \|theta_inf\| = (\S+)\)", err)
    off, scale, thinf = map(float, hit.groups())
    assert 1e6 < scale < 2e6 and 5e-4 < thinf < 7e-4
    assert 1e-10 < off < 1e-15 * scale


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_catalog_verify_single(capsys):
    code, out, err = run(capsys, "catalog", "verify", "--catalog", "LT26",
                         "--depth", "numeric")
    assert code == 0
    rep = json.loads(out)
    assert rep["entries"]["LT26"]["numeric"]["pvi_residual"] < 1e-6


def test_custom_path_file(capsys, tmp_path):
    p = tmp_path / "path.json"
    p.write_text(json.dumps({"t1": 1.0, "t2_start": 0.45, "t2_end": 0.55,
                             "points": 21, "z_seed": None}))
    code, out, _ = run(capsys, "schlesinger", "--catalog", "LT8",
                       "--path", str(p))
    assert code == 0
    assert json.loads(out)["schlesinger_residual"] < 1e-6


def test_missing_seed_exits_as_input_error(capsys, tmp_path):
    p = tmp_path / "path.json"
    p.write_text(json.dumps({"t1": 1.0, "t2_start": 0.45, "t2_end": 0.55,
                             "points": 21, "z_seed": None}))
    code, out, err = run(capsys, "schlesinger", "--catalog", "LT14",
                         "--path", str(p))
    assert code == 2
    assert "input error" in err


def test_numeric_error_classes_exit_3(capsys, monkeypatch):
    from flatiso import isomono
    from flatiso.errors import RankViolation

    def fail(*args, **kwargs):
        raise RankViolation("residue 1 has numerical rank >= 2")

    monkeypatch.setattr(isomono, "schlesinger_residual", fail)
    code, out, err = run(capsys, "schlesinger", "--catalog", "LT8")
    assert code == 3
    assert "numeric failure" in err


def test_report_encoder_converts_numpy_and_complex():
    import numpy as np
    text = json.dumps({"pass": np.bool_(True), "n": np.int64(3),
                       "r": np.float32(0.5), "z": 1 + 2j,
                       "w": np.complex128(-1j)}, default=cli._json_value)
    assert json.loads(text) == {"pass": True, "n": 3, "r": 0.5,
                                "z": [1.0, 2.0], "w": [0.0, -1.0]}
    with pytest.raises(TypeError):
        json.dumps({"x": object()}, default=cli._json_value)


def test_cli_import_leaves_scipy_optimize_out(src_env):
    import subprocess
    import sys
    probe = "import sys, flatiso.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=src_env)
    assert out.stdout.strip() == "False"


# verb -> the keys of its report that catalog verify --depth full reports
# too, and where the catalog keeps them
SHARED_NUMBERS = {
    "extract-p6": {"pvi_residual": ("numeric", "pvi_residual")},
    "schlesinger": {"schlesinger_residual": ("full", "schlesinger_residual")},
    "midconv": {"gamma_inf_error": ("full", "midconv_gamma_inf_error"),
                "trace_error": ("full", "midconv_trace_error"),
                "invariance_defect": ("full", "invariance_defect")},
}
# the TOLERANCES entry that gates each shared number
GATES = {"pvi_residual": "pvi_residual",
         "schlesinger_residual": "schlesinger_residual",
         "gamma_inf_error": "midconv_recovery",
         "trace_error": "midconv_recovery",
         "invariance_defect": "invariance_defect"}


@pytest.mark.parametrize("eid", ["LT8", "H3pp"])
def test_verbs_report_the_catalog_numbers_and_gates(eid, capsys, monkeypatch):
    code, out, _ = run(capsys, "catalog", "verify", "--catalog", eid,
                       "--depth", "full")
    assert code == 0
    full = json.loads(out)["entries"][eid]
    for verb, keys in SHARED_NUMBERS.items():
        code, out, _ = run(capsys, verb, "--catalog", eid)
        assert code == 0, verb
        rep = json.loads(out)
        assert rep["tolerances"] == {GATES[k]: catalog.TOLERANCES[GATES[k]]
                                     for k in keys}
        for key, (block, ckey) in keys.items():
            assert rep[key] == full[block][ckey], (verb, key)
            # a bound below the measured value fails the verb
            with monkeypatch.context() as mp:
                mp.setitem(catalog.TOLERANCES, GATES[key], rep[key] / 2)
                code, out, _ = run(capsys, verb, "--catalog", eid)
                assert code == 1, (verb, key)
                assert json.loads(out)["pass"] is False


def test_extract_p6_reports_the_catalog_pvi_numbers(capsys):
    # both read the residue snapshots of isomono.snapshots_along: the same
    # PVI residual, and the same theta as catalog verify rounds them
    import numpy as np
    code, out, _ = run(capsys, "catalog", "verify", "--all", "--depth",
                       "numeric")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert sorted(entries) == sorted(catalog.catalog_list())
    for eid, rep in entries.items():
        code, out, _ = run(capsys, "extract-p6", "--catalog", eid)
        assert code == 0, eid
        p6_rep = json.loads(out)
        assert p6_rep["pvi_residual"] == rep["numeric"]["pvi_residual"], eid
        theta = np.array([p6_rep["params"]["theta"][k]
                          for k in ("0", "1", "t", "inf")])
        assert (np.round(theta, 12) + 0.0).tolist() == rep["numeric"]["theta"], eid


def test_extract_p6_forms_its_defects_once(capsys, monkeypatch):
    # the PVI gate and the samples CSV read the defects pvi_on_frames formed
    from flatiso import p6
    calls = []
    real = p6._sample_defects

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(p6, "_sample_defects", counting)
    code, out, _ = run(capsys, "extract-p6", "--catalog", "LT8")
    assert code == 0
    assert len(calls) == 1
    rows = json.loads(out)["samples_csv"].splitlines()[1:]
    assert all(row.split(",")[7] for row in rows[2:-2])


def test_params_echoes_the_bound_it_enforces(capsys):
    from flatiso import numeric, p6
    code, out, _ = run(capsys, "params", "--catalog", "LT26")
    assert code == 0
    assert json.loads(out)["tolerances"] == {"root_separation": p6.ROOT_SEPARATION}
    assert p6.ROOT_SEPARATION is numeric.ROOT_SEPARATION


def test_tol_residual_option_is_gone(capsys):
    for argv in (["verify-wdvv", "--catalog", "LT8"],
                 ["schlesinger", "--catalog", "LT8"],
                 ["jm-roundtrip"]):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(argv + ["--tol-residual", "1e9"])
    capsys.readouterr()


def test_malformed_entry_and_path_are_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "extract-p6", "--catalog", "LT8",
                       "--entry", "1;2")
    assert code == 2 and "input error" in err
    p = tmp_path / "path.json"
    for doc in ({"t1": 1.0, "t2_start": 0.45, "points": 21},
                {"t1": 1.0, "t2_start": 0.45, "t2_end": 0.55, "points": 0}):
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "params", "--catalog", "LT8",
                           "--path", str(p))
        assert code == 2 and "input error" in err


@pytest.mark.parametrize("argv", [
    ["saito", "--input", "{dir}"],
    ["params", "--catalog", "LT8", "--path", "{dir}"],
    ["saito", "--input", "{latin1}"],
    ["params", "--catalog", "LT8", "--path", "{latin1}"],
    ["saito", "--catalog", "LT8", "--json", "{dir}/missing/report.json"],
    ["saito", "--catalog", "LT8", "--json", "{dir}"],
    ["saito", "--bogus"],
    ["extract-p6", "--catalog", "H3", "--entry", "-1,2"],
    ["extract-p6", "--catalog", "LT8", "--entry", ""],
    ["params", "--catalog", "LT8", "--path", ""],
    ["verify-wdvv", "--catalog", "LT8", "--json", ""],
    ["catalog", "verify", "--catalog", ""],
], ids=["input-dir", "path-dir", "input-latin1", "path-latin1",
        "json-missing-dir", "json-dir", "unknown-flag", "dash-entry",
        "empty-entry", "empty-path", "empty-json", "empty-catalog"])
def test_file_and_usage_errors_are_input_errors(argv, capsys, tmp_path):
    # directories, files that are not UTF-8, unwritable --json targets,
    # argparse's usage errors and empty flag values (a flag given, not a flag
    # missing) return 2 from main, and no report is written
    folder = tmp_path / "dir"
    folder.mkdir()
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "caf\xe9"}')
    argv = [a.format(dir=folder, latin1=latin1) for a in argv]
    target = tmp_path / "report.json"
    if "--json" not in argv:
        argv += ["--json", str(target)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "\ninput error: " in "\n" + err
    assert not target.exists() and list(folder.iterdir()) == []


def test_help_returns_0(capsys):
    code, out, _ = run(capsys, "saito", "--help")
    assert code == 0 and out.startswith("usage: flatiso saito")


@pytest.mark.parametrize("change", [
    {"z_seed": [0.5]},
    {"t1": [1.0]},
    {"t1": "1.0"},
    {"points": 9.7},
    {"points": catalog.MAX_POINTS + 1},
])
def test_malformed_path_documents_are_input_errors(change, capsys, tmp_path):
    p = tmp_path / "path.json"
    p.write_text(json.dumps(dict({"t1": 1.0, "t2_start": 0.45, "t2_end": 0.55,
                                  "points": 21, "z_seed": None}, **change)))
    code, out, err = run(capsys, "schlesinger", "--catalog", "LT8",
                         "--path", str(p))
    assert code == 2 and "input error" in err and out == ""


@pytest.mark.parametrize("verb", ["schlesinger", "extract-p6"])
def test_zero_length_path_is_an_input_error(verb, capsys, tmp_path):
    # t2_start == t2_end gives a step of 0, which the stencils reject, and
    # so does a step of 1.4e-17, which is not 0 but below the rounding of the
    # endpoints: the sampled t2 values repeat.  Steps of one ulp are distinct
    # but below catalog.MIN_PATH_STEP, where the stencils read rounding.  A
    # path of one point has no step and stays valid
    for end in (0.3, 0.3000000000000001, 0.30000000000000043):
        doc = {"t1": 1.0, "t2_start": 0.3, "t2_end": end, "points": 9}
        p = tmp_path / "path.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, verb, "--catalog", "LT8", "--path", str(p))
        assert code == 2 and "nonzero step" in err and out == "", end
        assert catalog.path_from_doc(dict(doc, points=1))[0] == [(1.0, 0.3)]


@pytest.mark.parametrize("g, at, length", [("t1*" + "9" * 5000, 3, 5000),
                                           ("t1^" + "9" * 5000, 3, 5000),
                                           ("t" + "1" * 5000, 0, 5001)],
                         ids=["coefficient", "exponent", "variable"])
def test_literals_past_the_int_digit_limit_are_parse_errors(g, at, length,
                                                            capsys, tmp_path):
    # int() refuses more than 4300 digits; the parser reports it at the token
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"weights": ["1"], "g": [g]}))
    code, out, err = run(capsys, "verify-wdvv", "--input", str(doc))
    assert code == 2 and out == ""
    assert f"input error: at {at}: expected" in err
    assert f"({length} characters)" in err


@pytest.mark.parametrize("doc", [
    {"weights": ["1"], "g": ["((2^1000)^1000)^1000"]},
    {"weights": ["1/4", "1/2", "1"],
     "g": ["(2^32767)^32767*t1*t3 + t2^2/2", "t1*t2", "t1^2"]}],
    ids=["tower", "scaled"])
def test_nested_constant_powers_exit_2_at_once(doc, capsys, tmp_path):
    # each exponent is within MAX_DEGREE, but the coefficients the powers
    # would build are not: the parser refuses them at the ^ before pow runs
    import time
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-wdvv", "--input", str(p))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "coefficients of at most" in err


@pytest.mark.parametrize("verb", ["verify-wdvv", "saito", "logvf"])
def test_power_past_the_term_bound_exits_2_at_once(verb, capsys, tmp_path):
    # (t1 + t2 + t3 + 1)^200 would have C(203, 3) = 1,373,701 terms; the
    # parser refuses it at the ^ before pow runs
    import time
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"weights": ["1/4", "1/2", "1"],
                             "g": ["(t1 + t2 + t3 + 1)^200", "t1*t2", "t1^2"]}))
    start = time.perf_counter()
    code, out, err = run(capsys, verb, "--input", str(p))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert f"a power of at most {exprio.MAX_POWER_TERMS} terms" in err


def test_power_past_the_size_bound_exits_2_at_once(capsys, tmp_path):
    # (t1 + 1)^4000 is within the coefficient-bit and the term bounds, but
    # its size, 4001 terms times 4000 bits, passes MAX_POWER_SIZE: the parser
    # refuses it at the ^, where it would take seconds to build
    import time
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"weights": ["1/4", "1/2", "1"],
                             "g": ["(t1 + 1)^4000", "t1*t2", "t1^2"]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-wdvv", "--input", str(p))
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert f"a power of at most {exprio.MAX_POWER_SIZE} terms times" in err
    # the densest power the term bound admits is within the size bound
    from flatiso.ring import Ring
    dense = exprio.parse_expr("(t1 + t2 + t3 + 1)^37", Ring(["1/4", "1/2", "1"]))
    assert len(dense.num) == 9880


def test_exponent_tower_returns_at_once(tmp_path, src_env):
    # t1^9^9^9 asks for the exponent 9 ** 387420489; the parser refuses it
    # before computing it, so the verb exits 2 well inside the timeout
    import subprocess
    import sys
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"weights": ["1"], "g": ["t1^9^9^9"]}))
    out = subprocess.run([sys.executable, "-m", "flatiso.cli", "verify-wdvv",
                          "--input", str(doc)],
                         capture_output=True, text=True, timeout=20, env=src_env)
    assert out.returncode == 2
    assert "exponent above" in out.stderr and out.stdout == ""


def test_sizes_past_the_bound_are_input_errors(capsys):
    # one past catalog.MAX_POINTS is refused before anything is allocated
    bound = catalog.MAX_POINTS
    doc = {"t1": 1.0, "t2_start": 0.45, "t2_end": 0.55, "points": bound + 1,
           "z_seed": None}
    with pytest.raises(SchemaError, match=str(bound)):
        catalog.path_from_doc(doc)
    assert len(catalog.path_from_doc(dict(doc, points=bound))[0]) == bound
    for steps in (-1, bound + 1):
        code, out, err = run(capsys, "jm-roundtrip", "--steps", str(steps))
        assert code == 2 and "--steps" in err and out == "", steps


@pytest.mark.parametrize("doc", [
    {"weights": ["1/2", "1"], "g": [1, "t2"]},
    {"weights": ["1/2", 1], "g": ["t1", "t2"]},
    {"weights": ["1/2", "1"], "g": ["t1*t2", "t2^2"], "meta": 5},
    {"weights": ["1/2", "1"], "g": ["t1*t2", "t2^2"], "meta": {"source": 5}},
    {"weights": ["1/2", "1"], "g": ["t1*t2", "t2^2"], "meta": []},
    {"name": 7, "weights": ["1/2", "1"], "g": ["t1*t2", "t2^2"]},
])
def test_untyped_document_fields_are_schema_errors(doc, capsys, tmp_path):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-wdvv", "--input", str(p))
    assert code == 2 and "input error" in err and out == ""
    with pytest.raises(SchemaError):
        exprio.parse_pvf(doc)


TOY = {"weights": ["1/5", "3/5", "1"],
       "g": ["t1*t3", "t2*t3", "1/2*t3^2 + t1^10"]}
TOY_RELATION = {"gen": "z", "relation": "z^2 - t1", "weight": "1/10"}


@pytest.mark.parametrize("verb, doc, message", [
    ("saito", dict(TOY, g=["t1*t3", "t2*t3", "1/2*t3^2 + t1^2"]),
     "T is not homogeneous; input g is not weighted homogeneous"),
    ("params", TOY, "--path is required with --input for this verb"),
    ("verify-wdvv", [TOY], "document must be a JSON object"),
    ("verify-wdvv", {"g": TOY["g"]}, "missing weights"),
    ("verify-wdvv", {"weights": TOY["weights"]}, "missing g"),
    ("verify-wdvv", dict(TOY, extension=dict(TOY_RELATION, gen="w")),
     "extension generator must be named z"),
    ("verify-wdvv", dict(TOY, extension={"gen": "z", "weight": "1/10"}),
     "extension needs a relation and a weight"),
    ("verify-wdvv", dict(TOY, extension={"gen": "z", "relation": "z^2 - t1"}),
     "extension needs a relation and a weight"),
    ("verify-wdvv", dict(TOY, extension=dict(TOY_RELATION, relation="z^2/t1 - 1")),
     "relation must be polynomial"),
    ("verify-wdvv", dict(TOY, weights=["1/0", "3/5", "1"]), "bad weight: '1/0'"),
    ("verify-wdvv", dict(TOY, extension=dict(TOY_RELATION, weight="a")),
     "bad z weight: 'a'"),
], ids=["inhomogeneous-g", "params-without-path", "not-an-object",
        "missing-weights", "missing-g", "generator-not-z", "no-relation",
        "no-weight", "relation-not-polynomial", "bad-weight", "bad-z-weight"])
def test_document_errors_exit_2_with_their_message(verb, doc, message, capsys,
                                                   tmp_path):
    # parse_pvf's schema errors, a g whose T is not homogeneous (saito) and
    # an --input with no --path where the verb needs one: exit 2, the
    # message on stderr and no report
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, verb, "--input", str(p))
    assert code == 2 and out == ""
    assert err == f"input error: {message}\n"


def test_negative_seed_is_an_input_error(capsys):
    # numpy refuses a negative seed; the verb refuses it first, as input
    code, out, err = run(capsys, "jm-roundtrip", "--seed", "-1")
    assert code == 2 and "input error" in err and "--seed" in err
    assert out == ""


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 complex(0, -float("inf"))])
def test_non_finite_report_is_a_numeric_failure(bad, capsys, tmp_path,
                                                monkeypatch):
    # JSON has no NaN or infinity: a report holding one exits 3, as a
    # NumericError, and no file is written
    monkeypatch.setitem(cli.VERBS, "logvf", lambda args: (
        {"check": "logvf", "value": bad, "pass": True}, "summary"))
    out = tmp_path / "report.json"
    code, stdout, err = run(capsys, "logvf", "--catalog", "LT8",
                            "--json", str(out))
    assert code == 3 and "numeric failure" in err and "non-finite" in err
    assert stdout == "" and not out.exists()


def test_short_paths_are_input_errors(capsys, tmp_path):
    # three points are too few for the five-point stencil; the input is at
    # fault, so the verbs exit 2, not 3
    p = tmp_path / "path.json"
    p.write_text(json.dumps({"t1": 1.0, "t2_start": 0.45, "t2_end": 0.55,
                             "points": 3, "z_seed": None}))
    for verb in ("schlesinger", "extract-p6"):
        code, _, err = run(capsys, verb, "--catalog", "LT8", "--path", str(p))
        assert code == 2 and "input error" in err, verb
    code, _, err = run(capsys, "jm-roundtrip", "--steps", "3")
    assert code == 2 and "input error" in err


def test_logvf_passes_on_the_rank_two_structure(capsys, tmp_path, trivial_n2):
    p = tmp_path / "n2.json"
    p.write_text(json.dumps(exprio.serialize_pvf(trivial_n2)))
    for verb in ("verify-wdvv", "logvf"):
        code, out, _ = run(capsys, verb, "--input", str(p))
        assert code == 0, verb
    rep = json.loads(out)
    assert rep["trace_identity_ok"] and rep["identities_failed"] == []


def test_input_errors_are_typed():
    from flatiso import errors
    for cls in (errors.UnknownId, errors.ParseError, errors.SchemaError,
                errors.DenominatorNotUnit, errors.InsufficientSamples):
        assert issubclass(cls, errors.InputError)
    assert issubclass(errors.InputError, ValueError)
    assert issubclass(errors.InputError, errors.FlatIsoError)
    assert ValueError not in cli.INPUT_ERRORS
    assert KeyError not in cli.INPUT_ERRORS


def test_bare_value_error_is_not_an_input_error(capsys, monkeypatch):
    from flatiso import isomono

    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(isomono, "schlesinger_residual", broken)
    with pytest.raises(ValueError, match="internal bug"):
        cli.main(["schlesinger", "--catalog", "LT8"])
    _, err = capsys.readouterr()
    assert "input error" not in err


def test_readme_command_lines_parse():
    import shlex
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    lines = [words for words in lines if words]
    assert len(lines) >= 10
    for words in lines:
        assert words[0] == "flatiso", words
        cli._build_parser().parse_args(words[1:])
