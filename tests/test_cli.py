import csv
import json
import string
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import homlie.brackets as br
import homlie.classify as cl
import homlie.coordinates as co
import homlie.curvature as cu
from homlie.cli import REPRODUCE, main


@pytest.fixture
def su2_file(tmp_path):
    path = tmp_path / "su2.json"
    br.write_bracket(path, br.milnor_bracket(1.0, 1.0, 1.0))
    return str(path)


@pytest.fixture
def h3_file(tmp_path):
    path = tmp_path / "h3.json"
    br.write_bracket(path, br.milnor_bracket(1.0, 0.0, 0.0))
    return str(path)


@pytest.fixture
def nonmember_file(tmp_path):
    # d = 0 leaves an isotropy kernel, so the effectiveness condition fails
    path = tmp_path / "bad.json"
    br.write_bracket(path, br.circle_isotropy3(1.0, 0.0, 1.0, 0.0))
    return str(path)


def test_check_reports_pass(su2_file, capsys):
    assert main(["check", su2_file]) == 0
    out = capsys.readouterr().out
    assert "membership           : PASS" in out
    assert "q = 0, n = 3" in out


def test_check_missing_file(capsys):
    assert main(["check", "/no/such/file.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_curvature_values_and_json(su2_file, tmp_path, capsys):
    out_json = str(tmp_path / "curv.json")
    assert main(["curvature", su2_file, "--output", out_json]) == 0
    out = capsys.readouterr().out
    assert "ricci eigenvalues (descending): 0.5 0.5 0.5" in out
    with open(out_json) as fh:
        doc = json.load(fh)
    assert doc["riemann_shape"] == [3, 3, 3, 3]
    assert doc["ricci"][0][0] == pytest.approx(0.5)


def test_curvature_rejects_nonmember(nonmember_file, capsys):
    assert main(["curvature", nonmember_file]) == 1
    assert "membership" in capsys.readouterr().err


def test_invariants_prints_fingerprint_norms(su2_file, capsys):
    assert main(["invariants", su2_file, "--order", "1"]) == 0
    out = capsys.readouterr().out
    assert "scalar invariants f_k:" in out
    assert "|nabla^0 Riem|^2" in out
    assert "|nabla^1 Riem|^2" in out


def test_distance_between_rotated_copies(tmp_path, capsys):
    mu = br.milnor_bracket(1.0, 0.5, 0.25)
    theta = 0.4
    h = np.array([[1.0, 0.0, 0.0],
                  [0.0, np.cos(theta), -np.sin(theta)],
                  [0.0, np.sin(theta), np.cos(theta)]])
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    br.write_bracket(a, mu)
    br.write_bracket(b, br.gl_action(h, mu))
    argv = ["distance", str(a), str(b)]
    assert main(argv) == 0
    first = capsys.readouterr().out.strip()
    assert float(first) <= 1e-6
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == first


def test_distance_dimension_mismatch(tmp_path, su2_file, capsys):
    other = tmp_path / "dim4.json"
    br.write_bracket(other, br.random_member(0, 4, seed=1))
    assert main(["distance", su2_file, str(other)]) == 1
    assert "dimensions differ" in capsys.readouterr().err


def test_check_rejects_entry_that_is_not_a_list(tmp_path, capsys):
    path = tmp_path / "bad_entry.json"
    path.write_text('{"q":0,"n":3,"entries":[5]}')
    assert main(["check", str(path)]) == 1
    assert "error: malformed entry 5" in capsys.readouterr().err


def test_check_rejects_non_finite_constant(tmp_path, capsys):
    path = tmp_path / "nan_entry.json"
    path.write_text('{"q":0,"n":3,"entries":[[1,2,0,NaN],[0,2,1,-1],[0,1,2,1]]}')
    assert main(["check", str(path)]) == 1
    assert "error: structure constants must be finite" in capsys.readouterr().err


def test_check_names_missing_entries_key(tmp_path, capsys):
    path = tmp_path / "dense.json"
    path.write_text('{"q":0,"n":1,"c":[[[0]]]}')
    assert main(["check", str(path)]) == 1
    assert "error: malformed bracket document: missing key 'entries'" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ('{"q":-1,"n":3,"entries":[]}', "need q >= 0 and n >= 1"),
    ('{"q":0,"n":0,"entries":[]}', "need q >= 0 and n >= 1"),
    ('{"q":0,"n":1000000000,"entries":[[0,1,2,1]]}', "exceeds the largest supported dimension"),
    ('{"q":0,"n":3,"entries":[[1,2,0,1e308],[0,2,1,-1e308],[0,1,2,1e308]]}',
     "entries too large"),
    ('{"q":0,"n":3,"entries":[[1,2,0,1]],"params":5}', "params is not an object"),
    ('{"q":0,"n":3,"entries":[[1,2,0,1]],"params":{"a":"1/0"}}', "params"),
    ('{"q":0,"n":3,"entries":[[1,2,0,1]],"params":{"a":"1e10000000"}}', "MAX_EXACT_DIGITS"),
    ('{"q":0,"n":3,"entries":[[1,2,0,1]],"params":{"a":"1e999999999"}}', "MAX_EXACT_DIGITS"),
    ('{"q":0,"n":3,"entries":[[1,2,0,"1e-10000000"],[0,2,1,"-1"],[0,1,2,"1"]]}',
     "MAX_EXACT_DIGITS"),
    ('{"q":0,"n":3,"entries":[[1,2,0,"1e999999999"],[0,2,1,"-1"],[0,1,2,"1"]]}',
     "MAX_EXACT_DIGITS"),
    ('{"q":0,"n":3.9,"entries":[[1,2,0,1],[0,2,1,-1],[0,1,2,1]]}', "n must be an integer"),
    ('{"q":"x","n":3,"entries":[[1,2,0,1],[0,2,1,-1],[0,1,2,1]]}', "q must be an integer"),
], ids=["negative_q", "zero_n", "huge_n", "overflowing_norm", "params_not_object",
        "params_bad_fraction", "params_exponent_1e7", "params_exponent_1e9",
        "entry_exponent_minus_1e7", "entry_exponent_1e9", "non_integer_n", "non_numeric_q"])
def test_check_rejects_out_of_range_document(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


@pytest.mark.parametrize("command", ["invariants", "distance", "jet"])
def test_order_above_entry_cap_is_rejected(su2_file, capsys, command):
    files = [su2_file] * (2 if command == "distance" else 1)
    flag, bound = (("--degree", "MAX_JET_ENTRIES") if command == "jet"
                   else ("--order", "MAX_FINGERPRINT_ENTRIES"))
    assert main([command, *files, flag, "40"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert bound in lines[0]


@pytest.fixture
def exact_file(tmp_path):
    path = tmp_path / "exact.json"
    br.write_bracket(path, br.milnor_bracket(Fraction(1, 2), 1, Fraction(3, 2)))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["check", "{f}"],
    ["curvature", "{f}"],
    ["invariants", "{f}", "--order", "2"],
    ["distance", "{f}", "{f}"],
    ["flow", "{f}", "--t-end", "0.1"],
    ["sequence", "milnor", "--params-list", "1,1,1;1/2,1,3/2", "--limit", "{f}"],
], ids=lambda argv: argv[0])
def test_commands_read_exact_bracket_files(exact_file, capsys, argv):
    # `jet` is checked below
    assert main([a.format(f=exact_file) for a in argv]) == 0
    assert "error" not in capsys.readouterr().err


def test_jet_of_exact_file_is_exact(exact_file, capsys):
    assert main(["jet", exact_file, "--degree", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jet = co.metric_jet(br.read_bracket(exact_file), 3)
    assert doc["entries"]
    for i, j, alpha, v in doc["entries"]:
        assert isinstance(v, str) and Fraction(v) == jet.coefficient(i, j, alpha)


def test_exact_invariants_output_writes_the_fingerprint(exact_file, tmp_path, capsys):
    out_json = str(tmp_path / "fp.json")
    assert main(["invariants", exact_file, "--order", "1", "--output", out_json]) == 0
    with open(out_json) as fh:
        doc = json.load(fh)
    fp = cu.fingerprint(br.read_bracket(exact_file), 1)
    assert doc == {"n": 3, "order": 1, "shapes": [[3, 3, 3, 3], [3, 3, 3, 3, 3]],
                   "tensors": [[float(v) for v in t.ravel()] for t in fp.tensors]}
    assert "|nabla^1 Riem|^2" in capsys.readouterr().out


def test_jet_negative_degree(exact_file, capsys):
    assert main(["jet", exact_file, "--degree", "-1"]) == 1
    assert capsys.readouterr().err == "error: degree must be >= 0\n"


def test_jet_degree_past_factorial_overflow(tmp_path, capsys):
    # (m + 1)! exceeds the float range from m = 170 on
    path = tmp_path / "line.json"
    path.write_text('{"q":0,"n":1,"entries":[]}')
    assert main(["jet", str(path), "--degree", "200"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"q": 0, "n": 1, "degree": 200, "entries": [[0, 0, [0], 1.0]]}


@pytest.mark.parametrize("mu", [br.aloff_wallach_bracket(1, 2, 1.0, 2.0, 3.0, 0.5),
                                br.random_member(0, 5, seed=3)],
                         ids=["aloff_wallach", "random_q0_n5"])
def test_curvature_and_invariants_print_the_same_invariants(tmp_path, capsys, mu):
    path = str(tmp_path / "mu.json")
    br.write_bracket(path, mu)
    lines = []
    for argv in (["curvature", path], ["invariants", path, "--order", "0"]):
        assert main(argv) == 0
        lines.append([line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("scalar invariants f_k:")])
    assert len(lines[0]) == 1 and lines[0] == lines[1]


def test_jet_json_output(h3_file, capsys):
    assert main(["jet", h3_file, "--degree", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["q"] == 0 and doc["n"] == 3 and doc["degree"] == 2
    assert all(len(e) == 4 for e in doc["entries"])


def test_flow_csv_and_status(su2_file, tmp_path, capsys):
    out_csv = str(tmp_path / "flow.csv")
    code = main(["flow", su2_file, "--t-end", "2.0", "--normalized",
                 "--output", out_csv])
    assert code == 0
    assert "status: completed" in capsys.readouterr().err
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "norm", "soliton_residual",
                       "ric_1", "ric_2", "ric_3"]
    assert float(rows[-1][0]) == pytest.approx(2.0)
    assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-12)


def test_flow_singularity_exits_2(su2_file, capsys):
    # unnormalized, the round bracket leaves every bounded set before t = 2
    code = main(["flow", su2_file, "--t-end", "2.0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "status:" in err


def test_flow_step_underflow_writes_no_repeated_row(su2_file, capsys):
    code = main(["flow", su2_file, "--t-end", "2", "--constants"])
    captured = capsys.readouterr()
    assert code == 2
    assert "status: step_underflow" in captured.err
    rows = captured.out.splitlines()[2:]
    assert len(rows) > 10
    assert all(a != b for a, b in zip(rows, rows[1:]))


def test_flow_q1_blow_up_exits_2_with_partial_csv(tmp_path, capsys):
    # the plain flow reaches |mu| > 1e8 near t = 0.219; the recorded
    # states keep passing the membership check all the way there
    path = str(tmp_path / "c5.json")
    br.write_bracket(path, br.circle_isotropy5(1, 2, 1, 2, 1, -1, 1, -1))
    out_csv = tmp_path / "blow_up.csv"
    code = main(["flow", path, "--t-end", "0.3", "--constants",
                 "--output", str(out_csv)])
    err = capsys.readouterr().err
    assert code == 2
    assert "status: blow_up_detected" in err
    assert "error:" not in err
    with open(out_csv, newline="") as fh:
        assert fh.readline() == "# q=1 n=5\n"
        rows = list(csv.reader(fh))
    assert len(rows) > 10
    assert 0.2 < float(rows[-1][0]) < 0.3
    assert float(rows[-1][1]) > 1e8


@pytest.mark.parametrize("a", ["3.99e102", "1e140"])
def test_flow_starting_above_blow_up_exits_2(tmp_path, capsys, a):
    # finite constants whose first Runge-Kutta stage overflows
    path = tmp_path / "big.json"
    path.write_text(f'{{"q":0,"n":3,"entries":[[1,2,0,0.0],[0,2,1,0.0],[0,1,2,{a}]]}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["flow", str(path), "--t-end", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "status: blow_up_detected" in captured.err
    assert "error:" not in captured.err
    header, row = list(csv.reader(captured.out.splitlines()))
    assert float(row[0]) == 0.0 and float(row[1]) > 1e8


def test_main_calls_in_one_process_are_independent(su2_file, nonmember_file, capsys):
    # the parser is built once and shared; every call parses into a
    # fresh namespace, so no option or default carries over
    argvs = [["check", nonmember_file],
             ["flow", su2_file, "--t-end", "0.5", "--normalized"],
             ["check", su2_file],
             ["flow", su2_file, "--t-end", "0.5"]]
    results = {}
    for argv in argvs + argvs[::-1]:
        code = main(argv)
        captured = capsys.readouterr()
        results.setdefault(tuple(argv), []).append((code, captured.out, captured.err))
    for runs in results.values():
        assert runs[0] == runs[1]
    assert results[tuple(argvs[0])][0][1].endswith("membership           : FAIL\n")
    assert "status: completed" in results[tuple(argvs[1])][0][2]
    assert results[tuple(argvs[2])][0][1].endswith("membership           : PASS\n")
    assert results[tuple(argvs[3])][0][0] == 0


def test_flow_constants_roundtrip_and_resume(tmp_path, capsys):
    mu_file = str(tmp_path / "mu.json")
    br.write_bracket(mu_file, br.milnor_bracket(1.0, 0.5, 0.25))
    part1 = str(tmp_path / "part1.csv")
    assert main(["flow", mu_file, "--t-end", "1.0", "--normalized",
                 "--constants", "--output", part1]) == 0
    capsys.readouterr()
    with open(part1) as fh:
        assert fh.readline() == "# q=0 n=3\n"
        rows = list(csv.reader(fh))
    assert "c_0_1_2" in rows[0]
    assert float(rows[-1][rows[0].index("t")]) == pytest.approx(1.0)

    part2 = str(tmp_path / "part2.csv")
    assert main(["flow", part1, "--resume", "--t-end", "1.0", "--normalized",
                 "--constants", "--output", part2]) == 0
    capsys.readouterr()
    with open(part2, newline="") as fh:
        fh.readline()
        rows2 = list(csv.reader(fh))
    # times continue where the first leg stopped
    assert float(rows2[1][0]) == pytest.approx(1.0)
    assert float(rows2[-1][0]) == pytest.approx(2.0)

    # the stitched run lands where a single longer run does, up to the
    # first-order time shift renormalization introduces per step
    whole = str(tmp_path / "whole.csv")
    assert main(["flow", mu_file, "--t-end", "2.0", "--normalized",
                 "--constants", "--output", whole]) == 0
    capsys.readouterr()
    with open(whole, newline="") as fh:
        fh.readline()
        rows_w = list(csv.reader(fh))
    cols = [i for i, name in enumerate(rows_w[0]) if name.startswith("c_")]
    stitched = np.array([float(rows2[-1][i]) for i in cols])
    direct = np.array([float(rows_w[-1][i]) for i in cols])
    assert np.allclose(stitched, direct, atol=1e-4)

    # resuming is deterministic byte for byte
    again = str(tmp_path / "again.csv")
    assert main(["flow", part1, "--resume", "--t-end", "1.0", "--normalized",
                 "--constants", "--output", again]) == 0
    capsys.readouterr()
    with open(part2, "rb") as f1, open(again, "rb") as f2:
        assert f1.read() == f2.read()


def test_flow_resume_needs_constants_metadata(su2_file, tmp_path, capsys):
    plain = str(tmp_path / "plain.csv")
    assert main(["flow", su2_file, "--t-end", "0.5", "--normalized",
                 "--output", plain]) == 0
    capsys.readouterr()
    assert main(["flow", plain, "--resume", "--t-end", "0.5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_flow_resume_needs_trajectory_rows(tmp_path, capsys):
    meta_only = tmp_path / "meta_only.csv"
    meta_only.write_text("# q=0 n=3\n")
    assert main(["flow", str(meta_only), "--resume", "--t-end", "0.5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_flow_rejects_bad_t_end(su2_file, capsys):
    assert main(["flow", su2_file, "--t-end", "-1.0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_flow_on_abelian_bracket(tmp_path, capsys):
    # the flat bracket is a fixed point with an undefined soliton
    # direction; the column falls back to zero instead of failing
    path = str(tmp_path / "zero.json")
    br.write_bracket(path, br.milnor_bracket(0.0, 0.0, 0.0))
    assert main(["flow", path, "--t-end", "1.0"]) == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(captured.out.strip().splitlines()))
    res = rows[0].index("soliton_residual")
    assert all(float(r[res]) == 0.0 for r in rows[1:])
    assert "status: completed" in captured.err


def test_family_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "member.json")
    code = main(["family", "circle5",
                 "--params", "1,2,1,2,1,-1,1,-1", "--output", out])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    mu = br.read_bracket(out)
    assert (mu.q, mu.n) == (1, 5)
    assert main(["check", out]) == 0


def test_family_fraction_params(tmp_path, capsys):
    out = str(tmp_path / "exact.json")
    assert main(["family", "milnor", "--params", "1,1/2,1/4",
                 "--output", out]) == 0
    capsys.readouterr()
    mu = br.read_bracket(out)
    assert mu.c[1, 2, 0] == pytest.approx(1.0)


def test_family_irrational_tag(capsys):
    code = main(["family", "circle5",
                 "--params", "1.4142135623730951,1,1,-1,0,1,0,1",
                 "--irrational"])
    assert code == 0
    out = capsys.readouterr().out
    assert "isotropy closedness  : fails" in out
    assert "FAIL" in out


def test_family_unknown_or_invalid(capsys):
    assert main(["family", "torus", "--params", "1"]) == 1
    capsys.readouterr()
    # negative coefficient violates the positivity constraint
    assert main(["family", "aloff_wallach", "--params", "1,1,-1,1,1,1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_aw_command(capsys):
    assert main(["aw", "51561", "5227", "42652", "18561"]) == 0
    out = capsys.readouterr().out
    assert "homotopy_equivalent: True" in out
    assert "homeomorphic: True" in out
    assert "diffeomorphic: False" in out
    assert main(["aw", "2", "4", "1", "1"]) == 1


def test_sequence_csv(h3_file, capsys):
    code = main(["sequence", "milnor",
                 "--params-list", "1,0.5,0.5;1,0.25,0.25;1,0.125,0.125",
                 "--limit", h3_file])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[0][0] == "index"
    assert len(rows) == 4
    gap1 = rows[0].index("gap1")
    gaps = [float(r[gap1]) for r in rows[1:]]
    assert gaps[0] > gaps[1] > gaps[2]


def test_sequence_sweep_alias(h3_file, capsys):
    code = main(["sequence", "milnor", "--sweep", "1,0.5,0.5;1,0.25,0.25",
                 "--limit", h3_file])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[0][0] == "index" and len(rows) == 3


def test_sequence_params_cells(h3_file, capsys):
    assert main(["sequence", "milnor", "--params-list", "1,1,1;1/2,1,3/2;1.0,0.5,0.25",
                 "--limit", h3_file]) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    col = rows[0].index("params")
    assert [r[col] for r in rows[1:]] == ["(1, 1, 1)", "(1/2, 1, 3/2)", "(1.0, 0.5, 0.25)"]


def test_sequence_cells_of_every_kind(tmp_path, capsys):
    # the circle3 limit has q = 1, so no bracket_distance cell; the
    # nilpotent member (1, 0, 0) has an infinite injectivity bound
    limit = tmp_path / "c3.json"
    br.write_bracket(limit, br.circle_isotropy3(0.0, -1.0, 1.0, 1.0))
    assert main(["sequence", "milnor", "--params-list", "1,0,0;1/2,1,3/2",
                 "--limit", str(limit)]) == 0
    inj = co.injectivity_bound(br.milnor_bracket(Fraction(1, 2), 1, Fraction(3, 2))).lower
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "index,bracket_distance,f1,f2,f3,gap1,gap2,gap3,h2_status,inj_heuristic,inj_lower,"
        "member,params",
        '0,,-0.5,0.75,-0.125,1.5,1.25,1.875,holds,False,inf,True,"(1, 0, 0)"',
        f'1,,1.0,1.0,1.0,3.0,1.0,3.0,holds,False,{inj!r},True,"(1/2, 1, 3/2)"']
    assert float(next(csv.reader(lines[2:]))[10]) == inj


def _short_last_row(path):
    rows = ["t,norm,soliton_residual,ric_1,ric_2,ric_3,c_0_1_0,c_0_1_1,c_0_1_2,"
            "c_0_2_0,c_0_2_1,c_0_2_2,c_1_2_0,c_1_2_1,c_1_2_2",
            "0.0,1.0,0.0,0.5,0.5,0.5,0.0,0.0,1.0,0.0,-1.0,0.0,1.0,0.0,0.0",
            "0.1,1.0,0.0,0.5"]
    path.write_text("# q=0 n=3\n" + "\n".join(rows) + "\n")


# a 401-digit integer, and a fraction whose denominator has 1 501 digits
_HUGE_INT = "1" + "0" * 400
_LONG_FRACTION = "1/1" + "0" * 1500


@pytest.mark.parametrize("argv, message", [
    (["family", "milnor", "--params", "1/0,1,1"], "bad parameter '1/0'"),
    (["sequence", "milnor", "--params-list", "1,1/0,1", "--limit", "H3"], "bad parameter '1/0'"),
    (["sequence", "milnor", "--params-list", "1,1", "--limit", "H3"],
     "missing 1 required positional argument"),
    (["sequence", "milnor", "--params-list", "1,1,1;1,2,2", "--limit", "H3",
      "--pairs", "1:2", "--limit-pair", "1:1"], "1 topology pairs for 2 parameter tuples"),
    (["sequence", "milnor", "--params-list", "1,1,1", "--limit", "H3",
      "--pairs", "1:2", "--limit-pair", "1"], "expected an integer pair p:q"),
    (["sequence", "milnor", "--params-list", "1,1,1", "--limit", "H3",
      "--pairs", "1", "--limit-pair", "1:1"], "expected an integer pair p:q"),
    (["flow", "NO_N", "--resume", "--t-end", "0.5"], "not '# q=.. n=..'"),
    (["flow", "SHORT_ROW", "--resume", "--t-end", "0.5"], "the last row has 4 fields"),
    (["flow", "HUGE_N", "--resume", "--t-end", "0.5"], "exceeds the largest supported dimension"),
    (["flow", "LONG_FIELD", "--resume", "--t-end", "0.5"], "is not a trajectory CSV"),
    (["family", "milnor", "--params", f"{_HUGE_INT},1,1"], "entries too large"),
    (["family", "milnor", "--params", f"{_HUGE_INT},1,1.0"], "entries too large"),
    (["family", "aloff_wallach", "--params", f"{_HUGE_INT},1,1,1,1,1"],
     "cannot build aloff_wallach from (1000...0000 (401 characters), 1, 1, 1, 1, 1): "
     "parameter p = 1000...0000 (401 characters) is outside the float range"),
    (["family", "aloff_wallach", "--params", f"1,2,1,{_HUGE_INT},1,1"],
     "parameter b = 1000...0000 (401 characters) is outside the float range"),
    (["family", "aloff_wallach", "--params", f"1{'0' * 200},1,1,1,1,1"], "entries too large"),
    (["family", "milnor", "--params", f"1/0,{_HUGE_INT}"],
     "bad parameter '1/0' in '1/0,...0000 (405 characters)'"),
    (["family", "circle5", "--params", ",".join([_HUGE_INT] * 9)],
     "from (" + ", ".join(["1000...0000 (401 characters)"] * 9) + "): circle_isotropy5()"),
    (["family", "milnor", "--params", "1e200,1,1"], "entries too large"),
    (["sequence", "milnor", "--params-list", "1e200,1,1", "--limit", "H3"], "entries too large"),
    (["family", "circle5", "--params", "1,2,1,2,1,-1,1,-1,0"],
     "takes 8 positional arguments but 9 were given"),
    (["family", "aloff_wallach", "--params", "1,2,1,1,1,1,0"],
     "takes 6 positional arguments but 7 were given"),
    (["family", "milnor", "--params", "1e200,1,1", "--output", "OUT"], "entries too large"),
    (["family", "milnor", "--params", f"{_LONG_FRACTION},1,1", "--output", "OUT"],
     "MAX_EXACT_DIGITS"),
    (["sequence", "milnor", "--params-list", ";", "--limit", "H3"], "no parameter tuples"),
    (["family", "aloff_wallach", "--params", "1/3,1,1,1,1,1e308"], "entries too large"),
    (["flow", "H3", "--t-end", "0.5", "--stride", "0"], "record_stride must be >= 1, got 0"),
    (["flow", "H3", "--t-end", "0.5", "--max-steps", "0"], "max_steps must be >= 1, got 0"),
    (["flow", "H3", "--t-end", "0.5", "--max-steps=-5"], "max_steps must be >= 1, got -5"),
    (["flow", "H3", "--t-end", "nan"], "t_end must be finite and > 0, got nan"),
    (["flow", "H3", "--t-end", "inf"], "t_end must be finite and > 0, got inf"),
    (["flow", "H3", "--t-end", "0.5", "--rtol", "nan"], "rtol must be finite and >= 0, got nan"),
    (["flow", "H3", "--t-end", "0.5", "--rtol=-1e-9"], "rtol must be finite and >= 0, got -1e-09"),
    (["check", "H3", "--tol", "nan"], "tol must be finite and >= 0, got nan"),
    (["check", "H3", "--tol", "inf"], "tol must be finite and >= 0, got inf"),
    (["sequence", "milnor", "--params-list", "1,1,1", "--limit", "H3", "--pairs", "1:2"],
     "topology_pairs (--pairs) and limit_pair (--limit-pair) go together"),
    (["sequence", "milnor", "--params-list", "1,1,1", "--limit", "H3", "--limit-pair", "1:1"],
     "topology_pairs (--pairs) and limit_pair (--limit-pair) go together"),
], ids=["zero_denominator", "sequence_zero_denominator", "too_few_params",
        "pair_count", "short_limit_pair", "short_pair", "resume_header", "resume_short_row",
        "resume_oversized", "resume_field_above_csv_limit", "family_huge_integer",
        "family_huge_integer_float_bracket", "aloff_wallach_huge_integer",
        "aloff_wallach_huge_metric", "aloff_wallach_overflowing_pair",
        "long_parameter_list", "circle5_huge_extra_params",
        "family_overflowing_norm", "sequence_overflowing_norm",
        "circle5_extra_param", "aloff_wallach_extra_param", "family_output_overflowing_norm",
        "family_output_long_denominator", "sequence_without_params",
        "aloff_wallach_overflowing_metric", "flow_stride_0", "flow_max_steps_0",
        "flow_max_steps_negative", "flow_t_end_nan", "flow_t_end_inf",
        "flow_rtol_nan", "flow_rtol_negative", "check_tol_nan", "check_tol_inf",
        "sequence_pairs_without_limit_pair", "sequence_limit_pair_without_pairs"])
def test_malformed_input_exits_1_without_traceback(argv, message, h3_file, tmp_path, capsys):
    (tmp_path / "no_n.csv").write_text("# q=0 x=3\nt,norm\n0.0,1.0\n")
    # q + n above brackets.MAX_DIM is refused before anything is allocated
    (tmp_path / "huge.csv").write_text("# q=0 n=1000000\nt,norm\n0.0,1.0\n")
    _short_last_row(tmp_path / "short.csv")
    # the csv module refuses fields above 128 KiB with its own exception type
    (tmp_path / "long.csv").write_text("# q=0 n=3\nt,norm\n" + "1" * 200000 + ",1.0\n")
    files = {"H3": h3_file, "NO_N": str(tmp_path / "no_n.csv"),
             "SHORT_ROW": str(tmp_path / "short.csv"), "HUGE_N": str(tmp_path / "huge.csv"),
             "LONG_FIELD": str(tmp_path / "long.csv"), "OUT": str(tmp_path / "out.json")}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([files.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and message in lines[0]
    assert not (tmp_path / "out.json").exists()


_F140 = br.milnor_bracket(1e140, 1e140, 1e140)
_E80 = br.milnor_bracket(10**80, 10**80, 10**80)
_F2 = "scalar invariant f_2 = tr(Ric^2)"


# f_k, |nabla^k Riem|^2 and jet coefficients leave the float range inside
# MAX_NORM_SQ; MU is the bracket file, OUT an output file that must not appear
@pytest.mark.parametrize("argv, mu, quantity", [
    (["curvature", "MU", "--output", "OUT"], _F140, _F2),
    (["invariants", "MU", "--output", "OUT"], _F140, _F2),
    (["curvature", "MU", "--output", "OUT"], br.milnor_bracket(1e75, 1e75, 1e75),
     "scalar invariant f_3 = tr(Ric^3)"),
    (["invariants", "MU", "--output", "OUT"], br.milnor_bracket(1e45, 2e45, 3e45),
     "|nabla^2 Riem|^2"),
    (["invariants", "MU", "--output", "OUT"],
     br.milnor_bracket(10**45, 2 * 10**45, 3 * 10**45), "|nabla^2 Riem|^2"),
    (["invariants", "MU", "--output", "OUT"], _E80, _F2),
    (["distance", "MU", "MU"], _F140, "|nabla^0 Riem|^2"),
    (["distance", "MU", "MU"], _E80, "|nabla^0 Riem|^2"),
    (["sequence", "milnor", "--params-list", "1e140,2e140,3e140", "--limit", "MU",
      "--output", "OUT"], br.milnor_bracket(1.0, 0.0, 0.0), _F2),
    (["sequence", "milnor", "--params-list", ",".join([str(10**80)] * 3), "--limit", "MU",
      "--output", "OUT"], br.milnor_bracket(1.0, 0.0, 0.0), _F2),
    # f_3 = 1.2e308 against the limit's -7.5e307: each in range, their gap is not
    (["sequence", "milnor", "--params-list", "2.6e51,2.6e51,2.6e51", "--limit", "MU",
      "--output", "OUT"], br.milnor_bracket(-1.5e51, 1.5e51, 1.5e51),
     "gap3 = |f_3 - f_3(limit)|"),
    (["jet", "MU", "--degree", "3", "--output", "OUT"], _F140,
     "metric jet coefficient of degree 3"),
], ids=["curvature_f2", "invariants_f2", "curvature_f3", "invariants_norm",
        "invariants_exact_norm", "invariants_exact_f2", "distance", "distance_exact",
        "sequence", "sequence_exact", "sequence_gap", "jet"])
def test_curvature_beyond_the_float_range_exits_1(tmp_path, capsys, argv, mu, quantity):
    path, out = tmp_path / "mu.json", tmp_path / "out.json"
    br.write_bracket(path, mu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([{"MU": str(path), "OUT": str(out)}.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {quantity} is outside the float range |x| <= 1.798e+308\n"


def test_exact_jet_beyond_the_float_range_is_written_exactly(tmp_path, capsys):
    # exact coefficients are written as p/q strings, so the float range does not bound them
    path, out = tmp_path / "mu.json", tmp_path / "out.json"
    br.write_bracket(path, _E80)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["jet", str(path), "--degree", "4", "--output", str(out)]) == 0
    values = [Fraction(e[3]) for e in json.loads(out.read_text())["entries"]]
    assert max(map(abs, values)) > 10**308


@pytest.mark.parametrize("command", ["curvature", "invariants"])
def test_curvature_just_inside_the_float_range_is_printed(tmp_path, capsys, command):
    # f_k of su(2) at scale s is 3 (s^2 / 2)^k: at s = 2^150, f_3 = 3 * 2^897 ~ 3.2e270
    path = tmp_path / "mu.json"
    s = 2.0 ** 150
    br.write_bracket(path, br.milnor_bracket(s, s, s))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(path)]) == 0
    want = [3 * (s * s / 2) ** k for k in (1, 2, 3)]
    assert f"scalar invariants f_k: {' '.join(map(repr, want))}\n" in capsys.readouterr().out


@pytest.mark.parametrize("family, params", [("torus", "1,1,1"), ("milnor", "1,1")])
def test_family_and_sequence_word_errors_alike(h3_file, capsys, family, params):
    assert main(["family", family, "--params", params]) == 1
    from_family = capsys.readouterr().err
    assert main(["sequence", family, "--params-list", params, "--limit", h3_file]) == 1
    assert capsys.readouterr().err == from_family


def test_reproduce_writes_named_csv(tmp_path):
    outdir = str(tmp_path)
    assert main(["reproduce", "berger", "--output", outdir]) == 0
    with open(tmp_path / "berger.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["k", "sign"]
    assert len(rows) == 15


def test_reproduce_unknown_experiment(capsys):
    assert main(["reproduce", "everything"]) == 1
    assert "choose from" in capsys.readouterr().err


def _reproduce(tmp_path, name):
    assert main(["reproduce", name, "--output", str(tmp_path)]) == 0
    with open(tmp_path / f"{name.replace('-', '_')}.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def _columns(header, row, prefix):
    return [float(row[i]) for i, name in enumerate(header) if name.startswith(prefix)]


def test_reproduce_berger_ricci_matches_closed_form(tmp_path):
    header, rows = _reproduce(tmp_path, "berger")
    assert header == ["k", "sign", "ric_1", "ric_2", "ric_3", "expected_1", "expected_2",
                      "expected_3", "rescaling_residual"]
    assert len(rows) == 14
    for row in rows:
        assert np.allclose(_columns(header, row, "ric_"), _columns(header, row, "expected_"),
                           rtol=0, atol=1e-12)
        assert (row[-1] == "") == (row[1] == "-1")


def test_reproduce_collapse_ricci_matches_closed_form(tmp_path):
    header, rows = _reproduce(tmp_path, "collapse")
    assert header == (["p", "member"] + [f"ric_{i}" for i in range(1, 6)]
                      + [f"expected_{i}" for i in range(1, 6)])
    assert len(rows) == 9
    for row in rows[:-1]:
        assert row[1] == "True"
        assert np.allclose(_columns(header, row, "ric_"), _columns(header, row, "expected_"),
                           rtol=0, atol=1e-12)
    assert rows[-1][:2] == ["limit", "q1_member=False,q2_member=True"]
    # n = 4 after the resplit: four Ricci cells, then ric_5 and expected_* empty
    assert all(rows[-1][2:6]) and rows[-1][6:] == [""] * 6


@pytest.mark.parametrize("name", sorted(REPRODUCE))
def test_reproduce_rows_have_the_header_length(tmp_path, name):
    header, rows = _reproduce(tmp_path, name)
    assert rows and all(len(row) == len(header) for row in rows)


def test_reproduce_heisenberg_limit_scales_the_first_gap(tmp_path):
    header, rows = _reproduce(tmp_path, "heisenberg-limit")
    assert header == ["k", "bracket_distance", "f1", "f2", "f3",
                      "gap1", "gap2", "gap3", "scaled_gap1"]
    assert [int(r[0]) for r in rows] == list(range(2, 65))
    for row in rows:
        assert float(row[-1]) == int(row[0]) * float(row[header.index("gap1")])


def test_reproduce_hyperbolic_limit_twins_are_indistinguishable(tmp_path):
    header, rows = _reproduce(tmp_path, "hyperbolic-limit")
    assert header == ["k", "isometry_verdict", "invariant_distance", "ric_1", "ric_2", "ric_3"]
    assert [r[0] for r in rows] == ["4", "16", "64", "256", "limit"]
    for row in rows[:-1]:
        assert row[1] == "indistinguishable_at_order_1"
        assert float(row[2]) <= 1e-10
    assert rows[-1][1:3] == ["membership=True", ""]


def test_reproduce_aloff_wallach_sequence_topology_flags(tmp_path):
    header, rows = _reproduce(tmp_path, "aloff-wallach-sequence")
    assert header == ["p", "q", "bracket_distance_to_limit", "r", "s",
                      "homotopy_equivalent_to_limit", "homeomorphic_to_limit"]
    assert len(rows) == 20
    for row in rows:
        rep = cl.aw_equivalence(int(row[0]), int(row[1]), 1, 1)
        assert row[3:] == [str(rep.r), str(rep.s), str(rep.homotopy_equivalent),
                           str(rep.homeomorphic)]
        assert float(row[2]) > 0


# ---------------------------------------------------------------------------
# malformed input: exit 0, 1 or 2, never a traceback
# ---------------------------------------------------------------------------

_SU2_ROW = {"c_0_1_2": "1.0", "c_0_2_1": "-1.0", "c_1_2_0": "1.0"}
_SU2_COLUMNS = ["t", "norm", "soliton_residual", "ric_1", "ric_2", "ric_3"] + [
    f"c_{i}_{j}_{k}" for i in range(3) for j in range(i + 1, 3) for k in range(3)]


def _resume_file(path, meta, header, row):
    path.write_text(f"{meta}\n" + ",".join(header) + "\n" + ",".join(row) + "\n")


@pytest.mark.parametrize("column, value, message", [
    ("c_1_2_0", "1e200", "entries too large: ||mu||^2 exceeds 1e+300"),
    ("c_1_2_0", "1e160", "entries too large: ||mu||^2 exceeds 1e+300"),
    ("c_1_2_0", "nan", "structure constants must be finite"),
    ("c_1_2_0", "inf", "structure constants must be finite"),
    ("t", "nan", "not a finite time"),
])
def test_resume_row_passes_the_bracket_file_bounds(tmp_path, capsys, column, value, message):
    cells = {"t": "0.5", **_SU2_ROW, column: value}
    path = tmp_path / "run.csv"
    _resume_file(path, "# q=0 n=3", _SU2_COLUMNS, [cells.get(c, "0.0") for c in _SU2_COLUMNS])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["flow", str(path), "--resume", "--t-end", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


def test_resume_names_a_missing_constant_column(tmp_path, capsys):
    path = tmp_path / "run.csv"
    header = [c for c in _SU2_COLUMNS if c != "c_0_2_1"]
    _resume_file(path, "# q=0 n=3", header, [_SU2_ROW.get(c, "0.0") for c in header])
    assert main(["flow", str(path), "--resume", "--t-end", "0.1"]) == 1
    assert "missing the c_0_2_1 column" in capsys.readouterr().err


def _assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ")
    if code == 2:
        assert "status: " in err


_FLOW = ["--t-end", "0.01", "--max-steps", "20"]
# an explicit alphabet: hypothesis's default one costs seconds to build
# on a first run
_TEXT = string.printable + "\x00é∞−"

_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**400, 10**400),
    st.sampled_from([1e200, 1e160, -0.0, "1/2", "1/0", "1e999999999", "x", None, [], True,
                     10**400, -10**200]))
# mostly near a valid su(2) bracket, so that many cases reach the flow
_values = st.one_of(st.floats(-3, 3), _numbers)
# q and n: integers, integral and non-integral floats, and non-numbers
_dims = st.one_of(st.integers(-1, 3), st.floats(-1.5, 3.5), st.sampled_from(["x", "3", True, None]))
_su2_like = st.builds(lambda a, b, c, n: {"q": 0, "n": n,
                                          "entries": [[1, 2, 0, a], [0, 2, 1, b], [0, 1, 2, c]]},
                      _values, _values, _values, st.one_of(st.just(3), st.floats(2.5, 3.5)))
_entries = st.lists(st.one_of(
    st.tuples(st.integers(-1, 4), st.integers(-1, 4), st.integers(-1, 4), _values).map(list),
    st.lists(_numbers, max_size=5), _numbers), max_size=8)
_documents = st.one_of(
    _su2_like,
    st.fixed_dictionaries({"q": _dims, "n": _dims,
                           "entries": _entries},
                          optional={"family": st.sampled_from(["milnor", "circle3", 5]),
                                    "params": st.one_of(_numbers, st.dictionaries(
                                        st.sampled_from("abcd"), _numbers, max_size=3))}),
    st.dictionaries(st.sampled_from(["q", "n", "entries", "c"]), _numbers, max_size=4))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.one_of(_documents.map(json.dumps), st.text(_TEXT, max_size=40)))
# ||mu||^2 = 2e280: the flow residual's ||mu||^3 leaves the float range
@example(doc='{"q": 0, "n": 3, "entries": [[1, 2, 0, 0.0], [0, 2, 1, 0.0], [0, 1, 2, 1e140]]}')
# su(2) at 1e140: f_2 and |Riem|^2 leave the float range
@example(doc='{"q": 0, "n": 3, "entries": [[1, 2, 0, 1e140], [0, 2, 1, -1e140], [0, 1, 2, 1e140]]}')
# ||mu||^3 underflows: the flow residual is taken at unit norm
@example(doc='{"q": 0, "n": 3, "entries": [[0, 1, 2, 3.7807420145360457e-143]]}')
def test_fuzzed_bracket_files_exit_cleanly(tmp_path, capsys, doc):
    path = tmp_path / "mu.json"
    path.write_text(doc)
    for argv in (["check", str(path)], ["flow", str(path), *_FLOW], ["curvature", str(path)],
                 ["invariants", str(path), "--order", "0"], ["distance", str(path), str(path)],
                 ["jet", str(path), "--degree", "2"]):
        code = main(argv)
        _assert_clean_exit(code, capsys.readouterr().err)


_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e200", "1e160", "nan", "inf", "-0.0", "", "x", "1/2"]),
    st.text(alphabet="0123456789.e-+x", max_size=6))
_names = st.one_of(st.sampled_from(_SU2_COLUMNS),
                   st.text(alphabet="ct_0123-x", min_size=1, max_size=8))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=st.one_of(st.just(_SU2_COLUMNS), st.lists(_names, max_size=16)),
       data=st.data())
def test_fuzzed_resume_files_exit_cleanly(tmp_path, capsys, columns, data):
    # a valid su(2) row with a few cells replaced, sometimes cut short
    meta = (data.draw(st.sampled_from(["# q=0 n=3", "# q=1 n=3", "# q=0 n=40", "# q=-1 n=3",
                                       "# q=0 x=3"])) if data.draw(st.integers(0, 4))
            else data.draw(st.text(_TEXT, max_size=12)))
    row = [_SU2_ROW.get(c, "0.0") for c in columns]
    for i in data.draw(st.sets(st.integers(0, max(len(row) - 1, 0)), max_size=3)):
        row[i:i + 1] = [data.draw(_cells)]
    if data.draw(st.integers(0, 3)) == 0:
        row = row[:data.draw(st.integers(0, len(row)))]
    path = tmp_path / "run.csv"
    _resume_file(path, meta.replace("\n", " "), columns, row)
    code = main(["flow", str(path), "--resume", *_FLOW])
    _assert_clean_exit(code, capsys.readouterr().err)


# parameter lists of the four families' lengths, or of any length up to 9,
# drawn from the numbers of the bracket-file strategies
_param_text = st.one_of(st.sampled_from([3, 4, 6, 8]), st.integers(0, 9)).flatmap(
    lambda k: st.lists(_values.map(str), min_size=k, max_size=k)).map(",".join)
_family_names = st.sampled_from(["milnor", "circle3", "circle5", "aloff_wallach", "torus"])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=_family_names, params=st.lists(_param_text, min_size=1, max_size=3),
       irrational=st.booleans())
@example(name="aloff_wallach", params=[f"{_HUGE_INT},1,1,1,1,1"], irrational=False)
def test_fuzzed_family_parameters_exit_cleanly(capsys, h3_file, name, params, irrational):
    code = main(["family", name, f"--params={params[0]}"] + ["--irrational"] * irrational)
    _assert_clean_exit(code, capsys.readouterr().err)
    code = main(["sequence", name, f"--params-list={';'.join(params)}", "--limit", h3_file])
    _assert_clean_exit(code, capsys.readouterr().err)


# option values as typed: zero, negative, huge, NaN, inf and values near the
# defaults; the int options get integers, which argparse reads, so every
# value reaches the library.  Orders 5-12 and jet degrees 5-24 are admitted
# and skipped here: fingerprint order 12 alone takes seconds and a gigabyte.
_float_options = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(1e-12, 2.0).map(repr),
    st.sampled_from(["0", "-0.0", "-1", "nan", "inf", "-inf", "1e300", "5e-324"]))
_int_options = st.one_of(st.integers(-3, 4), st.integers(25, 10**30)).map(str)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(t_end=_float_options, rtol=_float_options, stride=_int_options,
       max_steps=_int_options, tol=_float_options, order=_int_options)
@example(t_end="0.5", rtol="1e-9", stride="0", max_steps="100", tol="nan", order="0")
@example(t_end="2.0", rtol="1e300", stride="1", max_steps="100000", tol="inf", order="-1")
def test_fuzzed_numeric_options_exit_cleanly(su2_file, capsys, t_end, rtol, stride, max_steps,
                                             tol, order):
    # su(2) blows up before t = 1, so every flow ends quickly
    for argv in (["flow", su2_file, f"--t-end={t_end}", f"--rtol={rtol}", f"--stride={stride}",
                  f"--max-steps={max_steps}"],
                 ["check", su2_file, f"--tol={tol}"],
                 ["invariants", su2_file, f"--order={order}"],
                 ["distance", su2_file, su2_file, f"--order={order}"],
                 ["jet", su2_file, f"--degree={order}"]):
        code = main(argv)
        _assert_clean_exit(code, capsys.readouterr().err)


_ARITY = {"milnor": 3, "circle3": 4, "circle5": 8, "aloff_wallach": 6}
# small values, and values near the bounds of bracket files: ||mu||^2 near
# MAX_NORM_SQ = 1e300, exact values near MAX_EXACT_DIGITS = 1000
_member_values = st.one_of(
    st.integers(-3, 3).map(str), st.floats(-3, 3).map(repr),
    st.fractions(max_denominator=10).map(str),
    st.floats(1e140, 1e160).map(repr), st.integers(10**140, 10**160).map(str),
    st.sampled_from(["1/" + "3" * 998, "-1/" + "3" * 998, "1/" + "3" * 999, _HUGE_INT]))
_members = st.sampled_from(sorted(_ARITY)).flatmap(lambda name: st.tuples(
    st.just(name), st.lists(_member_values, min_size=_ARITY[name], max_size=_ARITY[name])))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(member=_members, irrational=st.booleans())
# milnor writes mu(e0, e2) = -b e1, and the sign makes "-1/33...3" 1 001 characters long
@example(member=("milnor", ["1", "1/" + "3" * 998, "1"]), irrational=False)
def test_family_output_is_read_by_check(tmp_path, capsys, member, irrational):
    name, values = member
    out = tmp_path / "member.json"
    out.unlink(missing_ok=True)
    code = main(["family", name, "--params=" + ",".join(values), "--output", str(out)]
                + ["--irrational"] * irrational)
    _assert_clean_exit(code, capsys.readouterr().err)
    assert out.exists() == (code == 0)
    if code == 0:
        assert main(["check", str(out)]) == 0
