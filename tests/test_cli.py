import json
import math
import subprocess
import sys

import numpy as np
import pytest

from csorbit import dump_model, load_model
from csorbit.cli import run


def invoke(argv, capsys):
    code, report = run(argv)
    out = capsys.readouterr().out
    return code, out, report


def test_catalog_listing(capsys):
    code, out, _ = invoke(["catalog"], capsys)
    assert code == 0
    for name in ("heisenberg", "su2", "su11", "su3"):
        assert name in out


def test_realize_su2_table(capsys):
    code, out, report = invoke(["realize", "--model", "su2", "--j", "1"], capsys)
    assert code == 0
    assert "J- : P = 2 z1, Q1 = -z1^2" in out
    assert "J+ : P = 0, Q1 = 1" in out
    assert "J0 : P = 1, Q1 = -z1" in out
    assert report.status == "pass"


def test_realize_json_schema(capsys):
    code, out, _ = invoke(["realize", "--model", "su2", "--j", "1", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["model"] == "su2"
    assert data["params"] == {"j": 1.0}
    rec = {r["label"]: r for r in data["realization"]}
    assert rec["J-"]["P"] == "2 z1"
    assert rec["J-"]["Q"] == ["-z1^2"]
    assert rec["J-"]["degQ"] == 2
    assert data["status"] == "pass"


def test_kernel_eval_truncated_exponential(capsys):
    code, out, report = invoke(
        ["kernel", "--model", "heisenberg", "--trunc", "8", "--eval", "0.3,0", "0.5,0"], capsys
    )
    assert code == 0
    expected = sum(0.15**n / math.factorial(n) for n in range(9))
    value = report.kernel["eval"]["value"]
    assert value[0] == pytest.approx(expected, abs=1e-12)
    assert value[1] == pytest.approx(0.0, abs=1e-12)
    assert "value:" in out


def test_kernel_vectors_flag(capsys):
    code, out, _ = invoke(["kernel", "--model", "su2", "--j", "0.5", "--vectors"], capsys)
    assert code == 0
    assert "K(z1, w1) = 1 + z1 w1" in out
    assert "E[1] = z1" in out
    assert "omega[1] = z1" in out


def test_kernel_eval_token_count(capsys):
    code, _, _ = invoke(["kernel", "--model", "su3", "--eval", "0.1,0", "0.2,0"], capsys)
    assert code == 2


def test_check_su3_homomorphism_degree(capsys):
    code, out, report = invoke(
        ["check", "--model", "su3", "--p", "1", "--q", "1", "--suite", "homomorphism,degree"],
        capsys,
    )
    assert code == 0
    by_name = {c["check"]: c for c in report.checks}
    assert by_name["degree"]["residual"] == 3.0
    assert by_name["degree"]["pass"] is True
    assert by_name["homomorphism"]["residual"] <= 1e-9


def test_check_full_suite_json_deterministic(capsys):
    argv = ["check", "--model", "su2", "--j", "1", "--json"]
    code1, out1, _ = invoke(argv, capsys)
    code2, out2, _ = invoke(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["status"] == "pass"
    names = [c["check"] for c in data["checks"]]
    assert names == [
        "structure",
        "representation",
        "model",
        "intertwining",
        "homomorphism",
        "degree",
        "flow",
        "cocycle",
        "roundtrip",
        "parseval",
        "reproducing",
        "adjoint",
    ]
    for c in data["checks"]:
        assert set(c) >= {"check", "model", "params", "residual", "tolerance", "pass", "status"}


def test_check_su3_skips_measure_checks(capsys):
    code, _, report = invoke(["check", "--model", "su3", "--json"], capsys)
    assert code == 0
    by_name = {c["check"]: c for c in report.checks}
    for name in ("parseval", "reproducing", "adjoint"):
        assert by_name[name]["status"] == "skip"
        assert by_name[name]["pass"] is False
    assert report.status == "pass"


def test_check_failure_exit_code(capsys):
    code, _, report = invoke(
        ["check", "--model", "su2", "--j", "1", "--suite", "flow", "--tol", "1e-16"], capsys
    )
    assert code == 1
    assert report.status == "fail"


def test_unknown_model_and_flags(capsys):
    code, _, _ = invoke(["realize", "--model", "nope"], capsys)
    assert code == 2
    code, _, _ = invoke(["realize"], capsys)
    assert code == 2
    code, _, _ = invoke(["check", "--model", "su2", "--suite", "bogus"], capsys)
    assert code == 2
    code, _, _ = invoke(["realize", "--model", "su2", "--j", "0.7"], capsys)
    assert code == 2


def test_degree_cap_below_one_is_usage_error(capsys):
    code, report = run(["realize", "--model", "su2", "--j", "1", "--degree-cap", "0"])
    err = capsys.readouterr().err
    assert code == 2 and report is None
    assert "--degree-cap: must be >= 1" in err


def test_quadrature_counts_below_one_are_usage_error(capsys):
    code, report = run(["check", "--model", "su2", "--j", "1", "--suite", "parseval", "--quad", "0,0"])
    err = capsys.readouterr().err
    assert code == 2 and report is None
    assert "needs node counts >= 1" in err


def test_unknown_exp_label_is_usage_error(capsys):
    code, report = run(
        ["check", "--model", "su2", "--j", "1", "--suite", "cocycle",
         "--g1-exp", "Jq:0.1", "--g2-exp", "J0:0.1"]
    )
    err = capsys.readouterr().err
    assert code == 2 and report is None
    assert "unknown generator 'Jq'" in err


def test_broken_model_file_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\"dim\": 1}")
    code, _, _ = invoke(["realize", "--model-file", str(path)], capsys)
    assert code == 2


def test_model_file_through_cli(tmp_path, capsys, su2_one):
    path = tmp_path / "su2.json"
    dump_model(su2_one, path)
    code, out, _ = invoke(["realize", "--model-file", str(path)], capsys)
    assert code == 0
    assert "J- : P = 2 z1, Q1 = -z1^2" in out


def test_degree_check_skipped_without_target(tmp_path, capsys, su2_one):
    from csorbit import model_to_dict

    data = model_to_dict(su2_one)
    data["name"] = "custom-spin"
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(data))
    code, _, report = invoke(
        ["check", "--model-file", str(path), "--suite", "degree"], capsys
    )
    assert code == 0
    assert report.checks[0]["status"] == "skip"
    assert report.checks[0]["residual"] == 2.0


def test_cocycle_exp_convenience(capsys):
    code, _, report = invoke(
        ["check", "--model", "su2", "--j", "1", "--suite", "cocycle",
         "--g1-exp", "J+:0.1,0", "--g2-exp", "J-:0.05,0.02"],
        capsys,
    )
    assert code == 0
    assert report.checks[0]["residual"] <= 1e-8


def test_cocycle_from_group_element_files(tmp_path, capsys):
    import scipy.linalg

    m = load_model("su2", j=1)
    g1 = scipy.linalg.expm(0.05 * np.array(m.rep.matrices[1]) - 0.02 * np.array(m.rep.matrices[2]))
    g2 = scipy.linalg.expm(0.03j * np.array(m.rep.matrices[0]) + 0.04 * np.array(m.rep.matrices[2]))
    p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
    for p, g in ((p1, g1), (p2, g2)):
        p.write_text(json.dumps([[[x.real, x.imag] for x in row] for row in g]))
    code, _, report = invoke(
        ["check", "--model", "su2", "--j", "1", "--suite", "cocycle",
         "--g1-file", str(p1), "--g2-file", str(p2)],
        capsys,
    )
    assert code == 0
    assert report.checks[0]["residual"] <= 1e-8


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "csorbit.cli", "realize", "--model", "su2", "--j", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "J- : P = 2 z1, Q1 = -z1^2" in proc.stdout


def test_group_element_file_of_wrong_size_is_usage_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
    code, report = run(
        ["check", "--model", "su2", "--j", "1", "--suite", "cocycle",
         "--g1-file", str(path), "--g2-file", str(path)]
    )
    err = capsys.readouterr().err
    assert code == 2 and report is None
    assert "must hold 3 x 3 matrices" in err


@pytest.mark.parametrize("j", ["20", "40"])
def test_check_passes_every_check_for_large_spin(j, capsys):
    code, _, report = invoke(["check", "--model", "su2", "--j", j, "--json"], capsys)
    assert code == 0
    assert len(report.checks) == 12
    assert all(c["status"] == "pass" for c in report.checks)


def test_adjoint_pairs_must_cover_every_index(tmp_path, capsys, su2_one):
    from csorbit import model_to_dict

    data = model_to_dict(su2_one)
    data["adjoint_pairs"] = {"0": 0}
    path = tmp_path / "partial-adjoint.json"
    path.write_text(json.dumps(data))
    code, report = run(["check", "--model-file", str(path), "--suite", "adjoint"])
    err = capsys.readouterr().err
    assert code == 2 and report is None
    assert "adjoint_pairs must be an involution" in err


def test_kernel_eval_negative_real_part_in_one_argument(capsys):
    code, _, report = invoke(["kernel", "--model", "su2", "--j", "1", "--eval", "-0.3,0.1 0.2,0"], capsys)
    assert code == 0
    assert report.kernel["eval"]["z"] == [[-0.3, 0.1]]
    assert report.kernel["eval"]["w"] == [[0.2, 0.0]]
    zw = complex(-0.3, 0.1) * 0.2
    value = report.kernel["eval"]["value"]
    assert complex(*value) == pytest.approx(1 + 2 * zw + zw**2, abs=1e-14)
