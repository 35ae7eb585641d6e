"""Tests of the benchmark itself.  Not part of the package's test suite; run
them explicitly (about a minute on 2 cores):

    PYTHONPATH=src python -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import verify  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_pass(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in values.values())
    elif workload == "symbolic-build":
        assert values["realize.flow_crosscheck.self_s"] == 0
        assert values["orbit.group_action.calls"] == 0
        assert values["ext.expm.calls"] == 0
    elif workload == "point-stream":
        assert values["ext.lstsq.calls"] == 0
        assert values["catalog.load_model.calls"] == 0
        assert values["orbit.group_action.calls"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "--workload", "point-stream", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_known_defects_match_exactly():
    key = "check heisenberg(trunc=40)"
    assert verify.classify(key, [("parseval", "residual 1.0")]).name == "heisenberg-trunc40-parseval"
    assert verify.classify(key, [("parseval", "residual 1.0"), ("flow", "residual 1e-3")]) is None
    assert verify.classify("check su2(j=16)", [("parseval", "residual 1.0")]) is None


@pytest.fixture(scope="module")
def check_report():
    code, report = workloads.call_cli(["check", "--model", "su2", "--j", "1", "--json"])
    assert verify.verify_check(report, code, "su2", {"j": 1}) == []
    return code, report


def _problem_keys(problems):
    return {key for key, _ in problems}


def test_rejects_loosened_tolerance(check_report):
    code, report = copy.deepcopy(check_report)
    flow = next(c for c in report["checks"] if c["check"] == "flow")
    flow["tolerance"] = 1e-3
    assert "flow" in _problem_keys(verify.verify_check(report, code, "su2", {"j": 1}))


def test_rejects_missing_check(check_report):
    code, report = copy.deepcopy(check_report)
    report["checks"] = [c for c in report["checks"] if c["check"] != "cocycle"]
    assert "checks" in _problem_keys(verify.verify_check(report, code, "su2", {"j": 1}))


def test_rejects_wrong_kernel_value():
    import csorbit

    z, w = np.array([0.3 + 0.1j]), np.array([0.2 - 0.1j])
    argv = ["kernel", "--model", "su2", "--j", "1", "--eval", "0.3,0.1", "0.2,-0.1", "--json"]
    code, report = workloads.call_cli(argv)
    oracle = verify.DenseOracle(csorbit.load_model("su2", j=1))
    probe = np.array([0.1 + 0.2j, 0.3 - 0.1j])
    assert verify.verify_kernel(report, code, oracle, probe, (z, w)) == []
    re, im = report["kernel"]["eval"]["value"]
    report["kernel"]["eval"]["value"] = [re * (1 + 1e-7), im]
    assert "eval" in _problem_keys(verify.verify_kernel(report, code, oracle, probe, (z, w)))


def test_rejects_wrong_group_action_multiplier():
    import csorbit

    model = csorbit.load_model("su3", p=1, q=1)
    g = workloads.near_identity(model, np.random.default_rng(0))
    z, mu0 = np.array([0.2 + 0.1j, -0.1j, 0.3]), 0.8 - 0.4j
    out = workloads.point_request(model, g, z, mu0)
    oracle = verify.DenseOracle(model)
    assert verify.verify_point(oracle, g, z, mu0, out) == []
    norm, v, mu, z_back, J, z_moved = out
    tampered = (norm, v, mu, z_back, J * (1 + 1e-6), z_moved)
    assert "group_action" in _problem_keys(verify.verify_point(oracle, g, z, mu0, tampered))
