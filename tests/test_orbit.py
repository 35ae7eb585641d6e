import gc
import math
import weakref

import numpy as np
import pytest
import scipy.linalg

from csorbit import (
    AlgebraElement,
    DegeneratePointError,
    ModelStructureError,
    PointOffOrbitError,
    PolarDivisorError,
    TruncationWarning,
    coherent_covector,
    coherent_vector,
    extract_coordinates,
    group_action,
    group_element,
    kernel,
    kernel_eval,
    load_model,
    max_coeff_diff,
    normalization,
    polar_check,
)
from csorbit.algebra import _chart, covector_direct, covector_numeric
from csorbit.polyops import MultiPoly

ALL_MODELS = [
    ("su2", {"j": 0.5}),
    ("su2", {"j": 1}),
    ("su2", {"j": 2}),
    ("heisenberg", {"trunc": 10, "margin": 3}),
    ("su11", {"k": 1.5}),
    ("su3", {"p": 1, "q": 1}),
    ("su3", {"p": 2, "q": 1}),
]


def test_spin_half_vectors(su2_half):
    E = coherent_vector(su2_half).entries
    om = coherent_covector(su2_half).entries
    z = MultiPoly.variable(1, 0)
    assert max_coeff_diff(E[0], MultiPoly.constant(1, 1.0)) == 0
    assert max_coeff_diff(E[1], z) == 0
    assert max_coeff_diff(om[0], MultiPoly.constant(1, 1.0)) == 0
    assert max_coeff_diff(om[1], z) == 0


def test_heisenberg_vector_entries():
    m = load_model("heisenberg", trunc=8)
    E = coherent_vector(m).entries
    for n in range(9):
        expected = MultiPoly(1, {(n,): 1 / math.sqrt(math.factorial(n))})
        assert max_coeff_diff(E[n], expected) < 1e-14


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_extremal_entry_is_one_and_value_at_zero(name, params):
    m = load_model(name, **params)
    E = coherent_vector(m).entries
    om = coherent_covector(m).entries
    one = MultiPoly.constant(m.n, 1.0)
    assert max_coeff_diff(E[m.e0_index], one) == 0
    assert max_coeff_diff(om[m.e0_index], one) == 0
    at_zero = np.array([e.eval(np.zeros(m.n)) for e in E])
    want = np.zeros(m.dim_rep)
    want[m.e0_index] = 1.0
    assert np.max(np.abs(at_zero - want)) == 0


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_vector_matches_matrix_exponential(name, params, rng):
    m = load_model(name, **params)
    A, B, _, _, _ = _chart(m)
    E = coherent_vector(m).entries
    om = coherent_covector(m).entries
    e0 = np.zeros(m.dim_rep)
    e0[m.e0_index] = 1.0
    for _ in range(3):
        z = 0.4 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
        sym = np.array([e.eval(z) for e in E])
        if m.chart == "sum":
            num = scipy.linalg.expm(sum(zz * a for zz, a in zip(z, A))) @ e0
        else:
            num = e0.astype(complex)
            for a in range(m.n - 1, -1, -1):
                num = scipy.linalg.expm(z[a] * A[a]) @ num
        assert np.max(np.abs(sym - num)) < 1e-12
        # covector entries are the coefficient-conjugated vector entries
        omv = np.array([o.eval(z) for o in om])
        conj_route = np.conj(np.array([e.eval(np.conj(z)) for e in E]))
        assert np.max(np.abs(omv - conj_route)) < 1e-12


def test_kernel_goldens(su2_half, su2_one):
    # j = 1/2: K = 1 + z w
    kp = kernel(su2_half)
    assert kp.poly.terms == {(0, 0): 1.0, (1, 1): 1.0}
    # j = 1: K = 1 + 2 z w + z^2 w^2
    kp1 = kernel(su2_one)
    want = MultiPoly(2, {(0, 0): 1.0, (1, 1): 2.0, (2, 2): 1.0})
    assert max_coeff_diff(kp1.poly, want) < 1e-14
    # evaluation example
    assert kp1.poly.eval([1, 1]) == pytest.approx(4.0)
    assert kernel_eval(su2_one, [1], [1]) == pytest.approx(4.0)


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_kernel_hermitian_and_normalized_at_zero(name, params):
    m = load_model(name, **params)
    kp = kernel(m)
    n = kp.n
    for expo, coeff in kp.poly.terms.items():
        alpha, beta = expo[:n], expo[n:]
        mirrored = kp.poly.terms.get(beta + alpha)
        assert mirrored is not None
        assert abs(coeff - np.conj(mirrored)) < 1e-13
    assert kernel_eval(m, np.zeros(n), np.zeros(n)) == pytest.approx(1.0)
    zpt = 0.3 * np.ones(n)
    assert kernel_eval(m, zpt, np.zeros(n)) == pytest.approx(1.0)


def test_normalization_values(su2_half, su2_one):
    assert normalization(su2_half, [1.0]) == pytest.approx(1 / math.sqrt(2))
    assert normalization(su2_half, [0.0]) == pytest.approx(1.0)
    # closed form (1 + |z|^2)^(-j)
    z = 0.6 - 0.3j
    assert normalization(su2_one, [z]) == pytest.approx((1 + abs(z) ** 2) ** -1.0)


def test_normalization_heisenberg_tail_bound():
    trunc = 8
    m = load_model("heisenberg", trunc=trunc)
    for zv in (0.5, 0.9):
        x = zv * zv
        got = normalization(m, [zv])
        exact = math.exp(-x / 2)
        tail = x ** (trunc + 1) / math.factorial(trunc + 1) * math.exp(x)
        assert abs(got - exact) <= tail


def test_extraction_examples(su2_half):
    mu, z = extract_coordinates(su2_half, [1.0, 0.7 - 0.2j])
    assert mu == pytest.approx(1.0)
    assert z[0] == pytest.approx(0.7 - 0.2j)

    mu, z = extract_coordinates(su2_half, [5.0, 0.0])
    assert mu == pytest.approx(5.0)
    assert np.max(np.abs(z)) == 0


def test_extraction_polar_and_off_orbit(su2_one):
    with pytest.raises(PolarDivisorError):
        extract_coordinates(su2_one, [0.0, 1.0, 0.0])
    # (1, 0, 1) is not of the form (1, sqrt(2) z, z^2)
    with pytest.raises(PointOffOrbitError):
        extract_coordinates(su2_one, [1.0, 0.0, 1.0])


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_extraction_roundtrip(name, params, rng):
    m = load_model(name, **params)
    for _ in range(10):
        z0 = 0.5 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
        mu0 = (0.5 + rng.uniform(0, 1.5)) * np.exp(2j * np.pi * rng.uniform())
        v = mu0 * covector_direct(m, z0)
        mu, z = extract_coordinates(m, v)
        assert abs(mu - mu0) < 1e-12 * (1 + abs(mu0))
        assert np.max(np.abs(z - z0)) < 1e-12


def _expm_covector(m, z):
    """e0^T exp(...) by scipy's expm on the B_a matrices, in chart order."""
    _, B, e0_row, _, _ = _chart(m)
    if m.chart == "sum":
        return e0_row @ scipy.linalg.expm(sum(za * b for za, b in zip(z, B)))
    row = e0_row
    for a in range(m.n - 1, -1, -1):
        row = row @ scipy.linalg.expm(z[a] * B[a])
    return row


@pytest.mark.parametrize("covector", [covector_numeric, covector_direct], ids=lambda f: f.__name__)
@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_covector_matches_expm(name, params, covector, rng):
    # ALL_MODELS has sum-chart (rank one) and product-chart (su3) models
    m = load_model(name, **params)
    for _ in range(5):
        z = 0.5 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
        ref = _expm_covector(m, z)
        got = covector(m, z)
        assert np.max(np.abs(got - ref)) < 1e-12 * max(1.0, float(np.max(np.abs(ref))))


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_kernel_eval_matches_kernel_polynomial(name, params, rng):
    m = load_model(name, **params)
    kp = kernel(m)
    for _ in range(5):
        z = 0.5 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
        w = 0.5 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
        ref = kp.poly.eval(list(z) + list(np.conj(w)))
        assert abs(kernel_eval(m, z, w) - ref) < 1e-12 * max(1.0, abs(ref))


def test_dense_table_built_on_first_point_evaluation():
    m = load_model("su2", j=3)
    kernel(m)  # builds both series without evaluating them at a point
    assert "table" not in vars(coherent_covector(m))
    assert "table" not in vars(coherent_vector(m))
    kernel_eval(m, [0.1], [0.2j])
    assert "table" in vars(coherent_covector(m)) and "table" in vars(coherent_vector(m))


# heisenberg coefficients fall under the absolute PRUNE_TOL from k = 17 in
# the expanded kernel (1/k!) and from k = 27 in the series (1/sqrt(k!)),
# which shows at chart points a few units from the origin
HEISENBERG_40 = ("heisenberg", {"trunc": 40})


def _far_point(rng, n, radius=2.0):
    return radius * np.exp(2j * np.pi * rng.uniform(size=n))


@pytest.mark.parametrize(
    "covector",
    [
        covector_direct,
        pytest.param(
            covector_numeric,
            marks=pytest.mark.xfail(strict=True, reason="series entries k >= 27 fall under the absolute PRUNE_TOL"),
        ),
    ],
    ids=lambda f: f.__name__,
)
def test_covector_matches_expm_heisenberg_far_point(covector):
    m = load_model(HEISENBERG_40[0], **HEISENBERG_40[1])
    z = np.array([3.0])
    ref = _expm_covector(m, z)
    assert np.max(np.abs(covector(m, z) - ref)) < 1e-12 * float(np.max(np.abs(ref)))


@pytest.mark.parametrize("name,params", ALL_MODELS + [HEISENBERG_40])
def test_kernel_eval_matches_expm(name, params, rng):
    # E_k(conj w) = conj(omega_k(w)), so K(z, w) = omega(z) . conj(omega(w))
    m = load_model(name, **params)
    for _ in range(5):
        z, w = _far_point(rng, m.n), _far_point(rng, m.n)
        oz, ow = _expm_covector(m, z), _expm_covector(m, w)
        ref = complex(oz @ np.conj(ow))
        scale = float(np.linalg.norm(oz) * np.linalg.norm(ow))
        assert abs(kernel_eval(m, z, w) - ref) < 1e-12 * scale


@pytest.mark.xfail(strict=True, reason="kernel terms k >= 17 fall under the absolute PRUNE_TOL")
def test_kernel_polynomial_matches_kernel_eval_heisenberg_far_point():
    m = load_model(HEISENBERG_40[0], **HEISENBERG_40[1])
    ref = kernel_eval(m, [2.0], [2.0])
    assert abs(kernel(m).poly.eval([2.0, 2.0]) - ref) < 1e-12 * abs(ref)


@pytest.mark.parametrize("covector", [covector_numeric, covector_direct], ids=lambda f: f.__name__)
def test_covector_rejects_wrong_length(su3_11, covector):
    with pytest.raises(ModelStructureError):
        covector(su3_11, [0.1, 0.2])


def test_group_action_examples(su2_half, su2_one):
    jp = np.array(su2_half.rep.matrices[1])
    jm = np.array(su2_half.rep.matrices[2])

    J, z1 = group_action(su2_half, np.eye(2), [0.2])
    assert J == pytest.approx(1.0) and z1[0] == pytest.approx(0.2)

    # exp(w J+): translation with unit multiplier
    J, z1 = group_action(su2_half, scipy.linalg.expm(0.3 * jp), [0.2])
    assert J == pytest.approx(1.0)
    assert z1[0] == pytest.approx(0.5)

    # exp(w J-): Moebius flow, multiplier (1 + w z)^(2j)
    J, z1 = group_action(su2_half, scipy.linalg.expm(0.4 * jm), [0.2])
    assert J == pytest.approx(1.08)
    assert z1[0] == pytest.approx(0.2 / 1.08)

    J, _ = group_action(su2_one, scipy.linalg.expm(0.4 * np.array(su2_one.rep.matrices[2])), [0.2])
    assert J == pytest.approx(1.08**2)


def test_group_action_polar_divisor(su2_half):
    # rotate the extremal covector onto the antipodal point
    g = scipy.linalg.expm((math.pi / 2) * np.array([[0, 1], [-1, 0]]))
    with pytest.raises(PolarDivisorError):
        group_action(su2_half, g, [0.0])


def _random_unitary(model, rng, scale=0.3):
    norm = max(1.0, max(float(np.max(np.abs(m))) for m in model.rep.matrices))
    X = np.zeros((model.dim_rep, model.dim_rep), dtype=complex)
    pairs = model.adjoint_pairs or {}
    for i in range(model.spec.dim):
        c = (scale / norm) * (rng.standard_normal() + 1j * rng.standard_normal())
        X += c * model.rep.matrices[i] - np.conj(c) * model.rep.matrices[pairs[i]]
    return scipy.linalg.expm(X)


@pytest.mark.parametrize("name,params", [("su2", {"j": 1}), ("su3", {"p": 1, "q": 1})])
def test_left_action_composition(name, params, rng):
    m = load_model(name, **params)
    for _ in range(10):
        g1 = _random_unitary(m, rng)
        g2 = _random_unitary(m, rng)
        z = 0.25 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
        _, z12 = group_action(m, g2 @ g1, z)
        _, z2 = group_action(m, g2, z)
        _, z12b = group_action(m, g1, z2)
        assert np.max(np.abs(z12 - z12b)) < 1e-9


@pytest.mark.parametrize("name,params", [("su2", {"j": 1}), ("su3", {"p": 1, "q": 1})])
def test_kernel_transformation_law(name, params, rng):
    # J(g,x) K(g.x, conj(g.y)) conj(J(g,y)) = K(x, conj y) for unitary g
    m = load_model(name, **params)
    for _ in range(10):
        g = _random_unitary(m, rng)
        x = 0.3 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
        y = 0.3 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
        Jx, gx = group_action(m, g, x)
        Jy, gy = group_action(m, g, y)
        lhs = Jx * kernel_eval(m, gx, gy) * np.conj(Jy)
        assert abs(lhs - kernel_eval(m, x, y)) < 1e-8


def test_su11_kernel_coefficients():
    # truncated binomial series of (1 - z w)^(-2k): coefficient (2k)_n / n!
    k, trunc = 1.5, 12
    m = load_model("su11", k=k, trunc=trunc)
    kp = kernel(m)
    for n in range(trunc + 1):
        poch = 1.0
        for i in range(n):
            poch *= 2 * k + i
        want = poch / math.factorial(n)
        assert kp.poly.terms.get((n, n), 0.0) == pytest.approx(want, rel=1e-12)


def test_group_element_helper(su2_half):
    g = group_element(su2_half, AlgebraElement.basis(3, 1), 0.3)
    assert np.allclose(g, scipy.linalg.expm(0.3 * np.array(su2_half.rep.matrices[1])))


def test_polar_check(su2_half):
    assert polar_check(su2_half, [1.0], [-1.0]) is True
    assert polar_check(su2_half, [1.0], [0.0]) is False


def test_polar_check_heisenberg_truncation_warning():
    m = load_model("heisenberg", trunc=12, margin=3)
    assert polar_check(m, [0.5], [0.4]) is False
    # truncated exponential has spurious complex zeros; trunc=2 gives
    # 1 + x + x^2/2 with a root at x = -1 + i
    m2 = load_model("heisenberg", trunc=2, margin=1)
    with pytest.warns(TruncationWarning):
        assert polar_check(m2, [1.0], [complex(-1.0, -1.0)]) is True


def test_non_nilpotent_chart_direction_is_a_model_error(su2_one):
    from csorbit import ModelValidationError, OrbitModel, validate_model

    # J0 keeps e0 on its own line, so exp(z J0) e0 never terminates
    bad = OrbitModel(
        spec=su2_one.spec,
        rep=su2_one.rep,
        e0_index=0,
        mprime=(AlgebraElement.basis(3, 0),),
        grading=(1,),
        name="su2-badchart",
    )
    with pytest.raises(ModelValidationError):
        coherent_vector(bad)
    rep = validate_model(bad)
    assert not rep.passed


def test_degenerate_normalization_guard(su2_half, monkeypatch):
    # the diagonal is a sum of squared moduli, so valid models cannot reach
    # this branch; the guard is exercised directly
    import csorbit.orbit as orbit_mod

    monkeypatch.setattr(orbit_mod, "kernel_eval", lambda m, z, w: complex(-1.0, 0.0))
    with pytest.raises(DegeneratePointError):
        orbit_mod.normalization(su2_half, [0.3])
    monkeypatch.setattr(orbit_mod, "kernel_eval", lambda m, z, w: complex(1.0, 0.8))
    with pytest.raises(DegeneratePointError):
        orbit_mod.normalization(su2_half, [0.3])


def test_derived_data_is_collected_with_its_model():
    model = load_model("su2", j=2)
    omega = coherent_covector(model)
    assert coherent_covector(model) is omega and kernel(model) is kernel(model)
    covector_numeric(model, [0.1])  # builds the dense table as well
    refs = weakref.ref(model), weakref.ref(omega)
    del model, omega
    gc.collect()
    assert [r() for r in refs] == [None, None]
