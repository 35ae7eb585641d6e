import copy
import json
import math
import resource
import subprocess
import sys

import numpy as np
import pytest

from csorbit import dump_model, load_model, model_to_dict
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


def test_quadrature_counts_above_the_bound_are_usage_error(capsys):
    # a huge radial count used to run out of memory building its Gauss rule
    from csorbit.cli import MAX_QUAD_NODES

    assert MAX_QUAD_NODES >= 1025  # the sized rule's counts at MAX_DIM_REP: 513 x 1,025
    for quad in ("100000000,1", f"1,{MAX_QUAD_NODES + 1}"):
        code, report = run(["check", "--model", "su2", "--j", "0.5", "--suite", "parseval", "--quad", quad])
        captured = capsys.readouterr()
        assert code == 2 and report is None and captured.out == ""
        assert f"needs node counts <= MAX_QUAD_NODES = {MAX_QUAD_NODES}" in captured.err


def test_overflowing_exp_element_is_usage_error(capsys):
    # exp(1e300 J+) is not finite: refused before the check, without warnings
    code, report = run(
        ["check", "--model", "su2", "--j", "1", "--suite", "cocycle",
         "--g1-exp", "J+:1e300,0", "--g2-exp", "J-:1,0"]
    )
    captured = capsys.readouterr()
    assert code == 2 and report is None and captured.out == ""
    assert captured.err.strip() == "error: exp(t J+) at t = (1e+300+0j) is not finite"


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


def test_import_loads_no_scipy_sparse():
    # importing scipy.sparse adds about 0.1 s to every command's start-up
    code = "import sys, csorbit, csorbit.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_runs_as_module():
    run_module = lambda *argv: subprocess.run([sys.executable, "-m", "csorbit", *argv], capture_output=True, text=True)
    proc = run_module("realize", "--model", "su2", "--j", "1")
    assert proc.returncode == 0
    assert "J- : P = 2 z1, Q1 = -z1^2" in proc.stdout
    assert run_module("check", "--model", "so5").returncode == 2


def test_kernel_eval_overflow_exits_2():
    # the powers at 1e200 overflow: a NaN value, which JSON cannot hold
    proc = subprocess.run(
        [sys.executable, "-m", "csorbit", "kernel", "--model", "su2", "--j", "1", "--eval", "1e200,0", "1e200,0", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: kernel value at z = [(1e+200+0j)], w = [(1e+200+0j)] is not finite: (nan+nanj)"
    ]


@pytest.mark.parametrize("j", ["60", "100"])
def test_large_spin_check_passes_without_numpy_warnings(j):
    # the Fubini-Study weights underflow at the outer nodes where the
    # symbols overflow; the quadrature checks sum in log space, so the whole
    # suite passes and stderr carries no numpy warning
    proc = subprocess.run(
        [sys.executable, "-m", "csorbit", "check", "--model", "su2", "--j", j, "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    records = json.loads(proc.stdout)["checks"]
    assert [r["status"] for r in records] == ["pass"] * 12


def test_reused_parser_matches_fresh_processes(capsys):
    # one process parses every run with the same parser; --eval extends a
    # fresh list each run, so the second kernel run does not see the first
    # run's tokens
    runs = [
        ["check", "--model", "su2", "--j", "1", "--json"],
        ["kernel", "--model", "su2", "--j", "1", "--eval", "0.3,0.1", "0.2,0", "--json"],
        ["kernel", "--model", "su2", "--j", "1", "--eval", "0.1,0", "--eval", "0.2,-0.1", "--json"],
        ["realize", "--model", "su2", "--j", "1"],
    ]
    for argv in runs:
        code, _ = run(argv)
        fresh = subprocess.run([sys.executable, "-m", "csorbit", *argv], capture_output=True, text=True)
        assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout)
        assert code == 0


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "flags",
    [
        ["--model", "su2", "--j", "1e300"],
        ["--model", "heisenberg", "--trunc", "100000"],
        ["--model", "su11", "--trunc", "100000"],
        ["--model", "su3", "--p", "40", "--q", "40"],
    ],
    ids=lambda flags: flags[1],
)
def test_parameters_above_the_dimension_bound_exit_2(flags):
    # under a 1 GiB address-space limit and a timeout, a builder that
    # allocates before it checks its size fails fast instead of exhausting
    # the machine's memory
    proc = subprocess.run(
        [sys.executable, "-m", "csorbit", "check", *flags, "--json"],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {flags[1]}: dimension") and "exceeds MAX_DIM_REP = 1024" in proc.stderr


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


def test_kernel_eval_flags_add_up(capsys):
    # each --eval adds its tokens; --eval=... takes a negative real part
    code, out, report = invoke(["kernel", "--model", "su2", "--eval=-0.3,0.1", "--eval=0.2,0"], capsys)
    assert code == 0
    assert report.kernel["eval"]["z"] == [[-0.3, 0.1]]
    assert report.kernel["eval"]["w"] == [[0.2, 0.0]]
    assert "value: 0.94+0.02j" in out


def test_heisenberg_trunc80_renders_every_term(capsys):
    # the series and the kernel keep 1/sqrt(k!) and 1/k! however small: no
    # entry of E or omega renders as "0", and K has all 81 terms z^k w^k
    code, _, report = invoke(["kernel", "--model", "heisenberg", "--trunc", "80", "--vectors"], capsys)
    assert code == 0
    section = report.kernel
    for key in ("coherent_vector", "covector"):
        assert len(section[key]) == 81 and "0" not in section[key]
    assert section["poly"].count(" + ") == 80
    assert section["poly"].endswith("z1^80 w1^80")


def test_quadrature_below_the_sized_rule_says_so(capsys):
    # d = 81 sizes the rule to 64 x 82; 64 angles alias the symbols' products
    base = ["check", "--model", "su11", "--k", "1.5", "--trunc", "80", "--suite", "parseval,reproducing,adjoint"]
    note = "rule 64x64 is below the sized 64x82 for d = 81"
    code, _, report = invoke([*base, "--quad", "64,64", "--json"], capsys)
    assert code == 1
    assert [(r["status"], r["note"]) for r in report.checks] == [("fail", note)] * 3
    for quad in ([], ["--quad", "64,82"], ["--quad", "70,90"]):
        code, _, report = invoke([*base, *quad, "--json"], capsys)
        assert code == 0
        assert all(r["status"] == "pass" and "note" not in r for r in report.checks)


def _input_files(tmp_path) -> dict:
    """Malformed files named by the placeholders of the cases below."""
    nan_matrix = tmp_path / "nan.json"
    nan_matrix.write_text(json.dumps([[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "café"}'.encode("latin-1"))
    flat = tmp_path / "flat.json"
    flat.write_text("[1, 2, 3]")
    data = model_to_dict(load_model("su2", j=1))
    data["structure"][0][3] = math.nan
    nan_structure = tmp_path / "nan-structure.json"
    nan_structure.write_text(json.dumps(data))
    files = {"dir": tmp_path, "nan_matrix": nan_matrix, "identity": identity, "latin1": latin1, "flat": flat,
             "nan_structure": nan_structure}
    # model-file fields of the wrong JSON type
    for name, key, value in [
        ("measure_list", "measure", [1]),
        ("domain_number", "measure", {"kind": "gaussian", "domain": 5}),
        ("domain_type_list", "measure", {"kind": "gaussian", "domain": [1]}),
        ("adjoint_pairs_bool", "adjoint_pairs", True),
        ("measure_param_null", "measure", {"kind": "fubini-study", "params": {"j": None}}),
    ]:
        data = model_to_dict(load_model("su2", j=1))
        data[key] = value
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(data))
    return files


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["check", "--model", "su2", "--suite", "cocycle", "--g1-exp", "J0:1,0", "--g2-exp", "J0:nan"], id="g2-exp-nan"),
        pytest.param(["check", "--model", "su2", "--suite", "cocycle", "--g1-exp", "J0:inf,0", "--g2-exp", "J0:1"], id="g1-exp-inf"),
        pytest.param(["kernel", "--model", "su2", "--eval", "1,0", "nan,0"], id="eval-nan"),
        pytest.param(["kernel", "--model", "su2", "--eval", "1,-inf", "0,0"], id="eval-inf"),
        pytest.param(["check", "--model", "su2", "--tol", "nan"], id="tol-nan"),
        pytest.param(["realize", "--model", "su2", "--j", "nan"], id="j-nan"),
        pytest.param(["realize", "--model", "su2", "--j", "inf"], id="j-inf"),
        pytest.param(["realize", "--model", "su11", "--k", "nan"], id="k-nan"),
        pytest.param(["check", "--model", "su2", "--suite", "cocycle", "--g1-file", "{nan_matrix}", "--g2-file", "{identity}"], id="g1-file-nan"),
        pytest.param(["realize", "--model-file", "{dir}"], id="model-file-directory"),
        pytest.param(["realize", "--model-file", "{latin1}"], id="model-file-not-utf8"),
        pytest.param(["check", "--model-file", "{nan_structure}", "--suite", "structure"], id="model-file-nan-structure-constant"),
        pytest.param(["check", "--model", "su2", "--suite", "cocycle", "--g1-file", "{flat}", "--g2-file", "{identity}"], id="g1-file-flat-list"),
        pytest.param(["check", "--model-file", "{measure_list}"], id="model-file-measure-list"),
        pytest.param(["check", "--model-file", "{domain_number}"], id="model-file-domain-number"),
        pytest.param(["check", "--model-file", "{domain_type_list}"], id="model-file-domain-list"),
        pytest.param(["check", "--model-file", "{adjoint_pairs_bool}"], id="model-file-adjoint-pairs-bool"),
        pytest.param(["check", "--model-file", "{measure_param_null}"], id="model-file-measure-param-null"),
        pytest.param(["check", "--model", "su2", "--suite", ",,"], id="suite-names-no-check"),
        pytest.param(["check", "--model", "su2", "--suite", ""], id="suite-empty"),
    ],
)
def test_malformed_input_exits_2(argv, tmp_path, capsys):
    files = _input_files(tmp_path)
    code, report = run([arg.format(**files) for arg in argv] + ["--json"])
    captured = capsys.readouterr()
    assert code == 2 and report is None
    assert captured.out == "" and captured.err


def test_nan_residual_fails_its_check(monkeypatch, capsys):
    from csorbit import realize

    cocycle = realize.cocycle_residual

    def second_is_nan(*args):
        residuals = cocycle(*args)  # one per pair
        residuals[1] = math.nan
        return residuals

    monkeypatch.setattr(realize, "cocycle_residual", second_is_nan)
    code, out, report = invoke(["check", "--model", "su2", "--suite", "cocycle", "--json"], capsys)
    assert code == 1
    assert report.checks[0]["status"] == "fail" and report.checks[0]["residual"] is None
    assert json.loads(out)["checks"][0]["note"] == "residual is nan"


def test_model_with_nan_covector_exits_2(tmp_path, capsys):
    # a finite chart coefficient whose powers overflow: the covector series
    # is NaN, and validation must say so instead of reporting 0.0
    data = model_to_dict(load_model("su2", j=1))
    data["mprime"][0][2] = [0.0, 1e308]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    with np.errstate(over="ignore", invalid="ignore"):
        code, report = run(["check", "--model-file", str(path), "--suite", "structure,representation,model"])
    err = capsys.readouterr().err
    assert code == 2 and report is None
    assert "failed validation" in err and "'grading_triangularity': nan" in err


def test_degree_cap_fails_every_table_check(capsys):
    code, _, report = invoke(
        ["check", "--model", "su2", "--j", "1", "--degree-cap", "1", "--suite", "flow,adjoint"], capsys
    )
    assert code == 1
    assert [(c["check"], c["status"], c["note"]) for c in report.checks] == [
        (name, "fail", "partial table: J-: degree 2 > degree cap 1") for name in ("flow", "adjoint")
    ]


def _paths(obj, prefix=()):
    """Every key path into a nested JSON document, the root excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, val in items:
        yield prefix + (key,)
        yield from _paths(val, prefix + (key,))


DELETE = object()


def _mutated(base, mutations):
    """A copy of ``base`` with each (key path, value) applied in turn; the
    value ``DELETE`` removes the entry, and a path that an earlier mutation
    removed or turned into a scalar is passed over."""
    data = copy.deepcopy(base)
    for keys, value in mutations:
        holder = data
        try:
            for key in keys[:-1]:
                holder = holder[key]
            holder[keys[-1]]
        except (KeyError, IndexError, TypeError):
            continue
        if not isinstance(holder, (dict, list)):
            continue
        if value is DELETE:
            del holder[keys[-1]]
        else:
            holder[keys[-1]] = value
    return data


def test_mutated_model_files_never_raise(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    base = model_to_dict(load_model("su2", j=1))
    # small magnitudes only: overflow warnings are errors in this suite
    values = st.one_of(
        st.just(DELETE), st.none(), st.booleans(), st.integers(-3, 5), st.floats(-4, 4),
        st.text(max_size=3), st.lists(st.integers(-2, 3), max_size=3),
        st.dictionaries(st.sampled_from(["0", "1", "type", "kind"]), st.integers(-1, 2), max_size=2),
    )
    path = tmp_path_factory.mktemp("fuzz") / "model.json"

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.lists(st.tuples(st.sampled_from(list(_paths(base))), values), min_size=1, max_size=3))
    def check(mutations):
        path.write_text(json.dumps(_mutated(base, mutations)))
        code, _ = run(["check", "--model-file", str(path), "--json"])
        assert code in (0, 1, 2)

    check()
