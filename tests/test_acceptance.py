"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import math
import time

import numpy as np

from csorbit import (
    AlgebraElement,
    adjoint_residual,
    cocycle_residual,
    degree_report,
    extract_coordinates,
    flow_crosscheck,
    group_element,
    homomorphism_residual,
    kernel,
    load_model,
    parseval_residual,
    quadrature_rule,
    realize_all,
)
from csorbit.algebra import covector_direct
from csorbit.orbit import coherent_covector
from csorbit.polyops import PolyEntries

CATALOG = [
    ("su2", {"j": 0.5}),
    ("su2", {"j": 1}),
    ("su2", {"j": 1.5}),
    ("su2", {"j": 2}),
    ("heisenberg", {"trunc": 10, "margin": 3}),
    ("su11", {"k": 1}),
    ("su11", {"k": 1.5}),
    ("su3", {"p": 1, "q": 1}),
    ("su3", {"p": 2, "q": 1}),
]


def report(num, label, ok, detail):
    print(f"ACCEPTANCE {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_su2_golden_realization(coeff_gap):
    t0 = time.perf_counter()
    worst = 0.0
    E = np.array([[0], [1], [2]])  # rows (P, Q1) over the exponents 1, z, z^2
    for j in (0.5, 1, 1.5, 2):
        m = load_model("su2", j=j)
        golden = {
            0: PolyEntries(E, np.array([[j, 0, 0], [0, -1, 0]])),
            1: PolyEntries(E, np.array([[0, 0, 0], [1, 0, 0]])),
            2: PolyEntries(E, np.array([[0, 2 * j, 0], [0, 0, -1]])),
        }
        table = realize_all(m)
        for idx, want in golden.items():
            worst = max(worst, coeff_gap(table.entries[idx], want))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "su2 golden realization",
        worst <= 1e-10 and elapsed < 1.0,
        f"max coeff err {worst:.2e} <= 1e-10, {elapsed:.2f}s < 1s",
    )


def test_criterion_02_heisenberg_golden_realization(coeff_gap):
    t0 = time.perf_counter()
    m = load_model("heisenberg", trunc=10, margin=3)
    E = np.array([[0], [1]])  # rows (P, Q1) over the exponents 1, z
    golden = {
        0: PolyEntries(E, np.array([[0, 0], [1, 0]])),
        1: PolyEntries(E, np.array([[0, 1], [0, 0]])),
        2: PolyEntries(E, np.array([[1, 0], [0, 0]])),
    }
    table = realize_all(m)
    worst = max(coeff_gap(table.entries[i], golden[i]) for i in range(3))
    elapsed = time.perf_counter() - t0
    report(
        2,
        "heisenberg golden realization",
        worst <= 1e-10 and elapsed < 1.0,
        f"max coeff err {worst:.2e} <= 1e-10, {elapsed:.2f}s < 1s",
    )


def test_criterion_03_degree_claims():
    hermitian_max = 0
    for name, params in [("su2", {"j": 1}), ("su2", {"j": 2}), ("su11", {"k": 1}), ("su11", {"k": 1.5})]:
        hermitian_max = max(
            hermitian_max, degree_report(realize_all(load_model(name, **params))).max_degree
        )
    t0 = time.perf_counter()
    su3_degrees = [
        degree_report(realize_all(load_model("su3", p=p, q=q))).max_degree
        for p, q in ((1, 1), (2, 1))
    ]
    elapsed = time.perf_counter() - t0
    ok = hermitian_max <= 2 and all(d == 3 for d in su3_degrees) and elapsed < 10.0
    report(
        3,
        "degree claims",
        ok,
        f"hermitian-symmetric max {hermitian_max} <= 2, su3 degrees {su3_degrees} == 3, "
        f"su3 in {elapsed:.2f}s < 10s",
    )


def test_criterion_04_homomorphism_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for name, params in CATALOG:
        m = load_model(name, **params)
        worst = max(worst, homomorphism_residual(m, realize_all(m)))
    elapsed = time.perf_counter() - t0
    report(
        4,
        "homomorphism suite",
        worst <= 1e-9 and elapsed < 10.0,
        f"max residual {worst:.2e} <= 1e-9 over {len(CATALOG)} models, {elapsed:.2f}s < 10s",
    )


def test_criterion_05_flow_consistency():
    rng = np.random.default_rng(501)
    worst = 0.0
    for name, params in CATALOG:
        m = load_model(name, **params)
        for _ in range(20):
            z0 = 0.3 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
            for idx in range(m.spec.dim):
                worst = max(worst, flow_crosscheck(m, AlgebraElement.basis(m.spec.dim, idx), z0, h=1e-4))
    report(5, "flow/solver consistency", worst <= 1e-5, f"max residual {worst:.2e} <= 1e-5")


def test_criterion_06_cocycle_suite():
    rng = np.random.default_rng(601)
    worst = 0.0
    for name, params in CATALOG:
        m = load_model(name, **params)
        scale = 0.15 / max(1.0, max(float(np.max(np.abs(mm))) for mm in m.rep.matrices))
        for _ in range(50):
            c1 = scale * (rng.standard_normal(m.spec.dim) + 1j * rng.standard_normal(m.spec.dim))
            c2 = scale * (rng.standard_normal(m.spec.dim) + 1j * rng.standard_normal(m.spec.dim))
            g1 = group_element(m, AlgebraElement(c1))
            g2 = group_element(m, AlgebraElement(c2))
            z = 0.3 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
            worst = max(worst, cocycle_residual(m, g1, g2, z))
    report(6, "cocycle suite", worst <= 1e-8, f"max residual {worst:.2e} <= 1e-8")


def test_criterion_07_kernel_golden_values():
    worst = 0.0
    for j in (0.5, 1, 1.5, 2):
        kp = kernel(load_model("su2", j=j)).entries[0]
        twoj = int(round(2 * j))
        for k in range(twoj + 1):
            got = kp.terms.get((k, k), 0.0)
            worst = max(worst, abs(got - math.comb(twoj, k)))
        off = [e for e in kp.terms if e[0] != e[1]]
        worst = max(worst, 1.0 if off else 0.0)
    trunc = 10
    kp = kernel(load_model("heisenberg", trunc=trunc, margin=3)).entries[0]
    for n in range(trunc + 1):
        got = kp.terms.get((n, n), 0.0)
        worst = max(worst, abs(got - 1.0 / math.factorial(n)))
    report(7, "kernel golden values", worst <= 1e-12, f"max coeff err {worst:.2e} <= 1e-12")


def test_criterion_08_parseval_isometry():
    results = []
    for name, params, tol in [
        ("su2", {"j": 0.5}, 1e-8),
        ("su2", {"j": 1}, 1e-8),
        ("su2", {"j": 1.5}, 1e-8),
        ("su2", {"j": 2}, 1e-8),
        ("heisenberg", {"trunc": 10, "margin": 3}, 1e-6),
        ("su11", {"k": 1}, 1e-6),
        ("su11", {"k": 1.5}, 1e-6),
    ]:
        t0 = time.perf_counter()
        m = load_model(name, **params)
        res_lo = parseval_residual(m, quadrature_rule(m, 32, 32))
        res_hi = parseval_residual(m, quadrature_rule(m, 64, 64))
        converged = res_hi <= res_lo / 10 or res_lo <= 1e-10
        elapsed = time.perf_counter() - t0
        results.append((m.describe(), res_hi, tol, converged, elapsed))
    ok = all(r <= tol and conv and el < 5.0 for _, r, tol, conv, el in results)
    detail = "; ".join(f"{d}: {r:.1e} (conv={c}, {e:.2f}s)" for d, r, tol, c, e in results)
    report(8, "parseval/isometry", ok, detail)


def test_criterion_09_roundtrip_extraction_su3():
    rng = np.random.default_rng(901)
    m = load_model("su3", p=1, q=1)
    # the grade-2 functional carries a product correction from the two
    # grade-1 coordinates; make sure it is actually engaged
    omega = coherent_covector(m).entries
    _, _, _, phi, _ = m.derived.chart
    probe = np.array([entry.eval([0.7, 0.9, 0.0]) for entry in omega])
    correction = abs(probe @ phi[:, 2])
    worst = 0.0
    for _ in range(20):
        z0 = 0.7 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        mu0 = (0.5 + rng.uniform(0, 1.5)) * np.exp(2j * np.pi * rng.uniform())
        v = mu0 * covector_direct(m, z0)
        mu, z = extract_coordinates(m, v)
        worst = max(worst, abs(mu - mu0) / (1 + abs(mu0)), float(np.max(np.abs(z - z0))))
    report(
        9,
        "roundtrip extraction su3",
        worst <= 1e-12 and correction > 1e-3,
        f"max err {worst:.2e} <= 1e-12, grade-2 correction magnitude {correction:.2e}",
    )


def test_criterion_10_adjoint_symmetry():
    rng = np.random.default_rng(1001)
    worst = 0.0
    m = load_model("su2", j=1)
    rule = quadrature_rule(m, 64, 64)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    for idx in (0, 1, 2):
        worst = max(worst, adjoint_residual(m, rule, AlgebraElement.basis(3, idx), f, g))
    mh = load_model("heisenberg", trunc=10, margin=3)
    rule_h = quadrature_rule(mh, 64, 64)
    fh = np.zeros(11, dtype=complex)
    gh = np.zeros(11, dtype=complex)
    fh[:8] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    gh[:8] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    for idx in (0, 1):
        worst = max(worst, adjoint_residual(mh, rule_h, AlgebraElement.basis(3, idx), fh, gh))
    report(10, "adjoint symmetry", worst <= 1e-7, f"max residual {worst:.2e} <= 1e-7")
