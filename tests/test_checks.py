import json

import pytest

import csorbit as cs
from csorbit import algebra, checks
from csorbit.cli import run


@pytest.mark.parametrize("name,params,argv", [
    ("su2", {"j": 1}, ["--model", "su2", "--j", "1"]),
    ("su3", {"p": 1, "q": 1}, ["--model", "su3", "--p", "1", "--q", "1"]),
])
def test_run_checks_matches_check_json(name, params, argv, capsys):
    code, _ = run(["check", *argv, "--json"])
    assert code == 0
    assert cs.run_checks(cs.load_model(name, **params)) == json.loads(capsys.readouterr().out)["checks"]


def test_run_checks_subset_in_check_order(su2_one):
    records = cs.run_checks(su2_one, ["adjoint", "flow"])
    assert [r["check"] for r in records] == ["flow", "adjoint"]
    assert all(r["status"] == "pass" for r in records)


def test_one_validation_pass(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for fn in (algebra.validate_structure, algebra.validate_representation):
        monkeypatch.setattr(algebra, fn.__name__, counted(fn))
    suite = ["structure", "representation", "model"]
    once = ["validate_structure", "validate_representation"]
    for validate in (True, False):
        # the metrics are the model's own: load_model and run_checks share
        # one computation, and a later run_checks reuses it
        model = cs.load_model("su2", validate=validate, j=1)
        assert calls == (once if validate else [])
        records = cs.run_checks(model, suite)
        assert calls == once
        assert [r["status"] for r in records] == ["pass"] * 3
        assert [r["tolerance"] for r in cs.run_checks(model, suite, tol=1e-30)] == [1e-30] * 3
        assert calls == once
        calls.clear()


def test_tol_overrides_checks_not_acceptance():
    model = cs.load_model("su2", j=16)  # intertwining defect 3.4e-15, accepted at realize.SOLVER_TOL
    records = cs.run_checks(model, ["intertwining", "parseval", "cocycle"], tol=1e-30)
    assert [r["tolerance"] for r in records] == [1e-30] * 3
    assert records[0]["status"] == "fail" and records[0]["residual"] > 0 and "note" not in records[0]


def test_cocycle_blocks_do_not_change_the_record(monkeypatch, su3_11):
    whole = cs.run_checks(su3_11, ["cocycle", "roundtrip"])
    monkeypatch.setattr(checks, "STACK_BYTES", 7 * 16 * su3_11.dim_rep**2)  # blocks of 7 pairs
    assert cs.run_checks(su3_11, ["cocycle", "roundtrip"]) == whole
