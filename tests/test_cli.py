import csv
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

import homlie.brackets as br
import homlie.coordinates as co
from homlie.cli import main


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
], ids=["negative_q", "zero_n", "huge_n", "overflowing_norm", "params_not_object",
        "params_bad_fraction", "params_exponent_1e7", "params_exponent_1e9",
        "entry_exponent_minus_1e7", "entry_exponent_1e9"])
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


def _short_last_row(path):
    rows = ["t,norm,soliton_residual,ric_1,ric_2,ric_3,c_0_1_0,c_0_1_1,c_0_1_2,"
            "c_0_2_0,c_0_2_1,c_0_2_2,c_1_2_0,c_1_2_1,c_1_2_2",
            "0.0,1.0,0.0,0.5,0.5,0.5,0.0,0.0,1.0,0.0,-1.0,0.0,1.0,0.0,0.0",
            "0.1,1.0,0.0,0.5"]
    path.write_text("# q=0 n=3\n" + "\n".join(rows) + "\n")


@pytest.mark.parametrize("argv", [
    ["family", "milnor", "--params", "1/0,1,1"],
    ["sequence", "milnor", "--params-list", "1,1/0,1", "--limit", "H3"],
    ["sequence", "milnor", "--params-list", "1,1", "--limit", "H3"],
    ["sequence", "milnor", "--params-list", "1,1,1;1,2,2", "--limit", "H3",
     "--pairs", "1:2", "--limit-pair", "1:1"],
    ["sequence", "milnor", "--params-list", "1,1,1", "--limit", "H3",
     "--pairs", "1:2", "--limit-pair", "1"],
    ["sequence", "milnor", "--params-list", "1,1,1", "--limit", "H3",
     "--pairs", "1", "--limit-pair", "1:1"],
    ["flow", "NO_N", "--resume", "--t-end", "0.5"],
    ["flow", "SHORT_ROW", "--resume", "--t-end", "0.5"],
    ["flow", "HUGE_N", "--resume", "--t-end", "0.5"],
], ids=["zero_denominator", "sequence_zero_denominator", "too_few_params",
        "pair_count", "short_limit_pair", "short_pair", "resume_header", "resume_short_row",
        "resume_oversized"])
def test_malformed_input_exits_1_without_traceback(argv, h3_file, tmp_path, capsys):
    (tmp_path / "no_n.csv").write_text("# q=0 x=3\nt,norm\n0.0,1.0\n")
    # q + n above brackets.MAX_DIM is refused before anything is allocated
    (tmp_path / "huge.csv").write_text("# q=0 n=1000000\nt,norm\n0.0,1.0\n")
    _short_last_row(tmp_path / "short.csv")
    files = {"H3": h3_file, "NO_N": str(tmp_path / "no_n.csv"),
             "SHORT_ROW": str(tmp_path / "short.csv"), "HUGE_N": str(tmp_path / "huge.csv")}
    assert main([files.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


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
