import numpy as np
import pytest

from csorbit import (
    AlgebraElement,
    UnsupportedCheckError,
    adjoint_residual,
    load_model,
    model_from_dict,
    model_to_dict,
    parseval_residual,
    quadrature_rule,
    realize_all,
    reproducing_residual,
    run_checks,
    symbol,
)
from csorbit.checks import _random_block_vector
from csorbit.orbit import coherent_covector
from csorbit.polyops import PolyEntries


def test_rule_normalization_su2(su2_one):
    rule = quadrature_rule(su2_one, 64, 64)
    assert rule.mass_defect < 1e-10
    assert np.all(rule.weights > 0)
    assert rule.nodes.shape == (64 * 64,)


def test_rule_normalization_heisenberg(heis10):
    rule = quadrature_rule(heis10, 64, 64)
    assert rule.mass_defect < 1e-12


@pytest.mark.parametrize("k", [1, 1.5])
def test_rule_normalization_su11(k):
    rule = quadrature_rule(load_model("su11", k=k), 64, 64)
    assert rule.mass_defect < 1e-12
    # nodes stay inside the unit disk
    assert np.max(np.abs(rule.nodes)) < 1.0


def test_rule_errors(su2_one, su3_11):
    with pytest.raises(ValueError):
        quadrature_rule(su2_one, 0, 64)
    with pytest.raises(UnsupportedCheckError):
        quadrature_rule(su3_11, 16, 16)


@pytest.mark.parametrize(
    "name,params,tol",
    [
        ("su2", {"j": 0.5}, 1e-8),
        ("su2", {"j": 1}, 1e-8),
        ("su2", {"j": 2}, 1e-8),
        ("heisenberg", {"trunc": 10, "margin": 3}, 1e-6),
        ("su11", {"k": 1}, 1e-6),
        ("su11", {"k": 1.5}, 1e-6),
    ],
)
def test_parseval(name, params, tol):
    m = load_model(name, **params)
    rule = quadrature_rule(m, 64, 64)
    assert parseval_residual(m, rule) <= tol


def test_parseval_convergence_on_doubling(su2_one):
    res_lo = parseval_residual(su2_one, quadrature_rule(su2_one, 32, 32))
    res_hi = parseval_residual(su2_one, quadrature_rule(su2_one, 64, 64))
    assert res_hi <= res_lo / 10 or res_lo <= 1e-10


def test_parseval_heisenberg_interior_block(heis10):
    rule = quadrature_rule(heis10, 64, 64)
    # explicit interior block: indices n <= 6
    assert parseval_residual(heis10, rule, basis_indices=range(7)) <= 1e-6


def test_parseval_gram_values_match_gaussian_moments(heis10):
    # integral conj(z^m/sqrt(m!)) z^n/sqrt(n!) e^{-|z|^2}/pi = delta_mn
    import math

    rule = quadrature_rule(heis10, 64, 64)
    pts = rule.nodes.reshape(-1, 1)
    v3, v5 = (symbol(heis10, np.eye(11)[k]).eval(pts)[:, 0] for k in (3, 5))
    assert np.sum(rule.weights * v3.conj() * v3) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.sum(rule.weights * v3.conj() * v5)) < 1e-12
    raw = np.sum(rule.weights * np.conj(pts[:, 0] ** 3) * pts[:, 0] ** 3)
    assert raw == pytest.approx(math.factorial(3), rel=1e-12)


def test_parseval_invariant_under_basis_permutation(su2_one):
    # permuting the representation basis permutes the Gram matrix only
    perm = [2, 0, 1]
    P = np.eye(3)[perm]
    data = model_to_dict(su2_one)
    mats = [np.array([[complex(a, b) for a, b in row] for row in mrows]) for mrows in data["rep"]["matrices"]]
    for i, mat in enumerate(mats):
        new = P @ mat @ P.T
        data["rep"]["matrices"][i] = [[[x.real, x.imag] for x in row] for row in new]
    data["e0_index"] = perm.index(0)
    permuted = model_from_dict(data)
    r1 = parseval_residual(su2_one, quadrature_rule(su2_one, 48, 48))
    r2 = parseval_residual(permuted, quadrature_rule(permuted, 48, 48))
    assert abs(r1 - r2) < 1e-12


def test_reproducing_examples(su2_half):
    rule = quadrature_rule(su2_half, 64, 64)
    assert reproducing_residual(su2_half, rule, [1, 0], [0.0]) <= 1e-8
    # F_psi(w) = w for psi = |1/2,-1/2>
    assert reproducing_residual(su2_half, rule, [0, 1], [0.7]) <= 1e-8
    assert reproducing_residual(su2_half, rule, [0, 0], [0.3]) == pytest.approx(0.0, abs=1e-15)


def test_reproducing_heisenberg_interior(heis10, rng):
    rule = quadrature_rule(heis10, 64, 64)
    psi = np.zeros(11, dtype=complex)
    psi[:8] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    w = [0.3 - 0.4j]
    assert reproducing_residual(heis10, rule, psi, w) <= 1e-6


def test_reproducing_heisenberg_trunc40_below_pruning(rng):
    # the kernel's terms (z conj w)^k / k! for k >= 17 lie below 1e-14, so
    # the residual shows whether K is summed with all of them (a kernel
    # that drops them reads about 1e-9)
    m = load_model("heisenberg", trunc=40)
    rule = quadrature_rule(m, 64, 64)
    block = m.rep.block_dim
    for _ in range(3):
        psi = np.zeros(m.dim_rep, dtype=complex)
        psi[:block] = rng.standard_normal(block) + 1j * rng.standard_normal(block)
        w = 0.4 * (rng.uniform(-1, 1, 1) + 1j * rng.uniform(-1, 1, 1))
        assert reproducing_residual(m, rule, psi, w) <= 1e-12


def test_reproducing_stack_is_max_of_single_pairs(su2_one, rng):
    rule = quadrature_rule(su2_one, 1, 2)  # coarse, so residuals are far above rounding
    psis = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    ws = 0.5 * (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1)))
    single = [reproducing_residual(su2_one, rule, psi, w) for psi, w in zip(psis, ws)]
    assert min(single) > 1e-3
    assert reproducing_residual(su2_one, rule, psis, ws) == pytest.approx(max(single), rel=1e-12)


def test_adjoint_su2(su2_one, rng):
    rule = quadrature_rule(su2_one, 64, 64)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert adjoint_residual(su2_one, rule, AlgebraElement.basis(3, 1), f, g) <= 1e-7
    assert adjoint_residual(su2_one, rule, AlgebraElement.basis(3, 2), f, g) <= 1e-7
    assert adjoint_residual(su2_one, rule, AlgebraElement.basis(3, 0), f, g) <= 1e-7
    zero = np.zeros(3)
    assert adjoint_residual(su2_one, rule, AlgebraElement.basis(3, 1), zero, g) == pytest.approx(
        0.0, abs=1e-15
    )


def test_adjoint_heisenberg_interior(heis10, rng):
    rule = quadrature_rule(heis10, 64, 64)
    f = np.zeros(11, dtype=complex)
    g = np.zeros(11, dtype=complex)
    f[:8] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    g[:8] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert adjoint_residual(heis10, rule, AlgebraElement.basis(3, 0), f, g) <= 1e-7
    assert adjoint_residual(heis10, rule, AlgebraElement.basis(3, 1), f, g) <= 1e-7


def test_adjoint_reads_a_complete_table(heis10, rng):
    rule = quadrature_rule(heis10, 64, 64)
    table = realize_all(heis10)
    f = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    g = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    for idx in range(3):
        x = AlgebraElement.basis(3, idx)
        assert adjoint_residual(heis10, rule, x, f, g, table=table) == adjoint_residual(heis10, rule, x, f, g)


def test_adjoint_needs_declared_pairs(su2_one, rng):
    from csorbit import OrbitModel

    bare = OrbitModel(
        spec=su2_one.spec,
        rep=su2_one.rep,
        e0_index=0,
        mprime=su2_one.mprime,
        grading=su2_one.grading,
        measure=su2_one.measure,
        name="su2-nopairs",
    )
    rule = quadrature_rule(bare, 16, 16)
    with pytest.raises(UnsupportedCheckError):
        adjoint_residual(bare, rule, AlgebraElement.basis(3, 1), np.ones(3), np.ones(3))


def test_default_rule_is_sized_from_the_model():
    # heisenberg trunc=80 keeps all 81 entries, whose products 64 angles
    # alias; the sized rule takes d + 1 = 82
    m = load_model("heisenberg", trunc=80)
    rule = quadrature_rule(m)
    assert (rule.radial, rule.angular) == (64, 82)
    assert [r["status"] for r in run_checks(m, ["parseval", "adjoint"])] == ["pass", "pass"]
    assert len(quadrature_rule(load_model("heisenberg", trunc=40)).nodes) == 64 * 64


# -- the moment forms against sums at the nodes -------------------------------


@pytest.mark.parametrize(
    "name,params,quad",
    [
        ("su2", {"j": 16}, None),  # the sized rule, 64 x 64
        ("heisenberg", {"trunc": 10}, (64, 64)),
        ("su11", {"k": 1.5}, (64, 64)),
        ("su2", {"j": 16}, (16, 16)),  # d = 33 > 16: aliased pairs
    ],
)
def test_moment_forms_match_node_sums(name, params, quad, rng):
    # each residual against the same integral summed at rule.nodes with
    # rule.weights, within 1e-12 of the sum of the magnitudes it adds up
    m = load_model(name, **params)
    rule = quadrature_rule(m, *(quad or ()))
    nodes, w = rule.nodes[:, None], rule.weights
    omega = coherent_covector(m)
    at = omega.eval(nodes)  # (nodes, d)
    form = lambda f, g: (np.sum(w * f.conj() * g), np.sum(w * np.abs(f) * np.abs(g)))

    V = at[:, : m.rep.block_dim]
    G, S = (V.conj().T * w) @ V, (np.abs(V).T * w) @ np.abs(V)
    assert abs(parseval_residual(m, rule) - np.max(np.abs(G - np.eye(V.shape[1])))) <= 1e-12 * S.max()

    psi, point = _random_block_vector(rng, m), np.array([0.3 - 0.2j])
    at_w = omega.eval(point)
    scale = max(1.0, np.sum(np.abs(at_w * psi)))
    integral, size = form(at @ at_w.conj(), at @ psi)
    reference = abs(np.sum(at_w * psi) - integral) / scale
    assert abs(reproducing_residual(m, rule, psi, point) - reference) <= 1e-12 * size / scale

    # D F at the nodes as P F + Q F', with F' from omega's derivative
    derivative = PolyEntries(np.maximum(omega.exponents - 1, 0), omega.coeffs * omega.exponents[:, 0])
    d_at = derivative.eval(nodes)
    table = realize_all(m)

    def apply(idx, psi):
        P, Q = table.entries[idx].eval(nodes).T
        return P * (at @ psi) + Q * (d_at @ psi)

    for idx in sorted(m.adjoint_pairs):
        f, g = _random_block_vector(rng, m), _random_block_vector(rng, m)
        (lhs, lhs_size), (rhs, rhs_size) = form(apply(idx, f), at @ g), form(at @ f, apply(m.adjoint_pairs[idx], g))
        residual = adjoint_residual(m, rule, AlgebraElement.basis(m.spec.dim, idx), f, g, table=table)
        assert abs(residual - abs(lhs - rhs)) <= 1e-12 * (lhs_size + rhs_size)


def test_rule_below_the_sized_one_still_fails_with_its_note():
    # 64 angles alias the products of su11 trunc=80's 81 entries: the
    # aliased pairs are kept, so the three checks fail, and say why
    m = load_model("su11", k=1.5, trunc=80)
    records = run_checks(m, ["parseval", "reproducing", "adjoint"], quad=(64, 64))
    assert [r["status"] for r in records] == ["fail"] * 3
    assert {r["note"] for r in records} == {"rule 64x64 is below the sized 64x82 for d = 81"}


def test_quadrature_checks_pass_at_large_spin():
    # at j = 200 the outer nodes' weights underflow where |omega|^2
    # overflows; summed in log space the three checks pass
    m = load_model("su2", j=200)
    records = run_checks(m, ["parseval", "reproducing", "adjoint"])
    assert [r["status"] for r in records] == ["pass"] * 3
