import gc
import json
import math
import weakref

import numpy as np
import pytest
import scipy.linalg

import csorbit.orbit as orbit_mod
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
    model_from_dict,
    model_to_dict,
    normalization,
    polar_check,
    run_checks,
)
from csorbit.algebra import covector_direct, covector_numeric, derived_matrix
from csorbit.orbit import Exp, act
from csorbit.polyops import PolyEntries

ALL_MODELS = [
    ("su2", {"j": 0.5}),
    ("su2", {"j": 1}),
    ("su2", {"j": 2}),
    ("heisenberg", {"trunc": 10, "margin": 3}),
    ("su11", {"k": 1.5}),
    ("su3", {"p": 1, "q": 1}),
    ("su3", {"p": 2, "q": 1}),
]
# su3(1,1) in the sum chart: the one case (n >= 2, single exponential) where
# several chart factors add terms to the same exponent in one series order
SU3_SUM_CHART = ("su3", {"p": 1, "q": 1, "chart": "sum"})


def _load(name, params):
    """load_model, with an optional "chart" entry replacing the model's chart."""
    params = dict(params)
    chart = params.pop("chart", None)
    m = load_model(name, **params)
    if chart is None:
        return m
    data = model_to_dict(m)
    data["chart"] = chart
    return model_from_dict(data)


def test_spin_half_vectors(su2_half, coeff_gap):
    # entries 1 and z
    want = PolyEntries(np.array([[0], [1]]), np.eye(2))
    assert coeff_gap(coherent_vector(su2_half), want) == 0
    assert coeff_gap(coherent_covector(su2_half), want) == 0


def test_heisenberg_vector_entries(coeff_gap):
    m = load_model("heisenberg", trunc=8)
    want = PolyEntries(np.arange(9)[:, None], np.diag([1 / math.sqrt(math.factorial(n)) for n in range(9)]))
    assert coeff_gap(coherent_vector(m), want) < 1e-14


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_extremal_entry_is_one_and_value_at_zero(name, params):
    m = load_model(name, **params)
    E = coherent_vector(m).entries
    om = coherent_covector(m).entries
    one = {(0,) * m.n: 1.0}
    assert E[m.e0_index].terms == one
    assert om[m.e0_index].terms == one
    at_zero = np.array([e.eval(np.zeros(m.n)) for e in E])
    want = np.zeros(m.dim_rep)
    want[m.e0_index] = 1.0
    assert np.max(np.abs(at_zero - want)) == 0


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_vector_matches_matrix_exponential(name, params, rng):
    m = load_model(name, **params)
    A, B, _, _, _ = m.derived.chart
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


def test_kernel_goldens(su2_half, su2_one, coeff_gap):
    # j = 1/2: K = 1 + z w
    kp = kernel(su2_half).entries[0]
    assert kp.terms == {(0, 0): 1.0, (1, 1): 1.0}
    # j = 1: K = 1 + 2 z w + z^2 w^2
    kp1 = kernel(su2_one)
    want = PolyEntries(np.array([[0, 0], [1, 1], [2, 2]]), np.array([[1.0, 2.0, 1.0]]))
    assert coeff_gap(kp1, want) < 1e-14
    # evaluation example
    assert kp1.entries[0].eval([1, 1]) == pytest.approx(4.0)
    assert kernel_eval(su2_one, [1], [1]) == pytest.approx(4.0)


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_kernel_hermitian_and_normalized_at_zero(name, params):
    m = load_model(name, **params)
    kp = kernel(m).entries[0]
    n = m.n
    for expo, coeff in kp.terms.items():
        alpha, beta = expo[:n], expo[n:]
        mirrored = kp.terms.get(beta + alpha)
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
    _, B, e0_row, _, _ = m.derived.chart
    if m.chart == "sum":
        return e0_row @ scipy.linalg.expm(sum(za * b for za, b in zip(z, B)))
    row = e0_row
    for a in range(m.n - 1, -1, -1):
        row = row @ scipy.linalg.expm(z[a] * B[a])
    return row


@pytest.mark.parametrize("covector", [covector_numeric, covector_direct], ids=lambda f: f.__name__)
@pytest.mark.parametrize("name,params", ALL_MODELS + [SU3_SUM_CHART])
def test_covector_matches_expm(name, params, covector, rng):
    # sum-chart (rank one and su3) and product-chart (su3) models
    m = _load(name, params)
    for _ in range(5):
        z = 0.5 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
        ref = _expm_covector(m, z)
        got = covector(m, z)
        assert np.max(np.abs(got - ref)) < 1e-12 * max(1.0, float(np.max(np.abs(ref))))


@pytest.mark.parametrize("name,params", ALL_MODELS + [SU3_SUM_CHART])
def test_covector_direct_stack_matches_expm(name, params, rng):
    # one series for the whole stack, each row within the one-point bound
    m = _load(name, params)
    z = 0.5 * (rng.standard_normal((6, m.n)) + 1j * rng.standard_normal((6, m.n)))
    got = covector_direct(m, z)
    assert got.shape == (6, m.dim_rep)
    for row, point in zip(got, z):
        ref = _expm_covector(m, point)
        assert np.max(np.abs(row - ref)) < 1e-12 * max(1.0, float(np.max(np.abs(ref))))


def test_covector_direct_stack_of_wrong_width_is_a_structure_error(su3_11):
    with pytest.raises(ModelStructureError, match="expected 3 coordinates, got 2"):
        covector_direct(su3_11, np.zeros((4, 2)))
    assert covector_direct(su3_11, np.zeros((0, 3))).shape == (0, su3_11.dim_rep)


def _series_over_lowering_matrices(m):
    """E as the chart series over the A_a themselves (the row recursion
    row -> row @ A_a.T), built apart from omega."""
    return orbit_mod._exp_series(m, [a.T for a in m.derived.chart[0]]).entries


def _bits(p, conjugate=False):
    """Terms in stored order, each coefficient as the exact bits of its two
    parts; ``conjugate`` conjugates first and adds 0j, as MultiPoly does, so
    that a conjugated zero imaginary part reads +0."""
    coeffs = ((e, 0j + c.conjugate() if conjugate else c) for e, c in p.terms.items())
    return [(e, c.real.hex(), c.imag.hex()) for e, c in coeffs]


def _assert_vector_is_conjugated_covector(m):
    E, om = coherent_vector(m).entries, coherent_covector(m).entries
    ref = _series_over_lowering_matrices(m)
    for e, o, r in zip(E, om, ref, strict=True):
        assert _bits(r) == _bits(o, conjugate=True)
        assert _bits(e) == _bits(r)


CONJUGATION_MODELS = [
    *[("su2", {"j": j}) for j in (0.5, 1, 2, 16, 40)],
    *[("heisenberg", {"trunc": t}) for t in (8, 40, 80)],
    ("su11", {}),
    ("su11", {"k": 1.5, "trunc": 40}),
    ("su11", {"trunc": 80}),
    *[("su3", {"p": p, "q": q}) for p, q in ((1, 1), (2, 1), (3, 3), (4, 4))],
]


@pytest.mark.parametrize("name,params", CONJUGATION_MODELS)
def test_vector_is_covector_with_conjugated_coefficients(name, params):
    # the series over the A_a and the one over conj(A_a) agree bit for bit
    # up to conjugation, signed zeros included, and in the same term order
    _assert_vector_is_conjugated_covector(load_model(name, **params))


def test_vector_is_covector_with_conjugated_coefficients_non_real_model(tmp_path, su2_one):
    # su2 j = 1 in the basis e_k -> e^{ik theta} e_k: the chart matrices have
    # non-real entries, so conjugation changes every series coefficient
    D = np.diag(np.exp(0.7j * np.arange(3)))
    data = model_to_dict(su2_one)
    data["rep"]["matrices"] = [
        [[[x.real, x.imag] for x in row] for row in D @ mat @ D.conj()] for mat in su2_one.rep.matrices
    ]
    path = tmp_path / "su2_phase.json"
    path.write_text(json.dumps(data))
    m = load_model(path)
    assert any(c.imag != 0 for e in coherent_covector(m).entries for c in e.terms.values())
    _assert_vector_is_conjugated_covector(m)


def test_one_series_per_model(monkeypatch):
    calls = []
    series = orbit_mod._exp_series
    monkeypatch.setattr(orbit_mod, "_exp_series", lambda *args: calls.append(1) or series(*args))
    m = load_model("su3", p=1, q=1)
    coherent_covector(m)
    built = len(calls)
    assert built > 0
    coherent_vector(m)
    kernel(m)
    kernel_eval(m, [0.1, 0.2, 0.3], [0.3j, 0.2, 0.1])
    assert len(calls) == built


@pytest.mark.parametrize("name,params,z", [("su2", {"j": 1}, [1e200]), ("heisenberg", {}, [1e100])])
def test_kernel_at_overflowing_point_is_an_error(name, params, z):
    # the powers overflow to a NaN kernel value; no RuntimeWarning escapes
    m = load_model(name, **params)
    with pytest.raises(DegeneratePointError, match="not finite"):
        kernel_eval(m, z, z)
    with pytest.raises(DegeneratePointError, match="not finite"):
        normalization(m, z)


@pytest.mark.parametrize("name,params", ALL_MODELS + [SU3_SUM_CHART])
def test_kernel_eval_matches_kernel_polynomial(name, params, rng):
    m = _load(name, params)
    kp = kernel(m).entries[0]
    for _ in range(5):
        z = 0.5 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
        w = 0.5 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
        ref = kp.eval(list(z) + list(np.conj(w)))
        assert abs(kernel_eval(m, z, w) - ref) < 1e-12 * max(1.0, abs(ref))


def test_dense_table_built_on_first_point_evaluation():
    # omega's coefficient array is its table, and points read it alone:
    # E(conj w) is read as conj(omega(w)), so E is not built for them
    m = load_model("su2", j=3)
    kernel(m)
    kernel_eval(m, [0.1], [0.2j])
    assert "covector" in vars(m.derived) and "vector" not in vars(m.derived)


# heisenberg coefficients 1/sqrt(k!) and 1/k! are small but are no
# cancellation residue: the series and the expanded kernel polynomial, both
# pruned relative to the magnitudes they sum, keep them, which shows at
# chart points a few units from the origin
HEISENBERG_40 = ("heisenberg", {"trunc": 40})


def _far_point(rng, n, radius=2.0):
    return radius * np.exp(2j * np.pi * rng.uniform(size=n))


@pytest.mark.parametrize("covector", [covector_direct, covector_numeric], ids=lambda f: f.__name__)
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


def test_kernel_polynomial_matches_kernel_eval_heisenberg_far_point():
    m = load_model(HEISENBERG_40[0], **HEISENBERG_40[1])
    ref = kernel_eval(m, [2.0], [2.0])
    assert abs(kernel(m).entries[0].eval([2.0, 2.0]) - ref) < 1e-12 * abs(ref)


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
    kp = kernel(m).entries[0]
    for n in range(trunc + 1):
        poch = 1.0
        for i in range(n):
            poch *= 2 * k + i
        want = poch / math.factorial(n)
        assert kp.terms.get((n, n), 0.0) == pytest.approx(want, rel=1e-12)


def test_group_element_helper(su2_half):
    g = group_element(su2_half, AlgebraElement.basis(3, 1), 0.3)
    assert np.allclose(g, scipy.linalg.expm(0.3 * np.array(su2_half.rep.matrices[1])))


CATALOG_DEFAULTS = [("su2", {}), ("heisenberg", {}), ("su11", {}), ("su3", {})]


def _term_loop_scale(model, z, w):
    """The largest kernel term at (z, conj w), over the polynomial's terms
    one by one."""
    point = list(z) + list(np.conj(w))
    scale = 0.0
    for expo, coeff in kernel(model).entries[0].terms.items():
        mag = abs(coeff)
        for pi, ei in zip(point, expo):
            if ei:
                mag *= abs(pi) ** ei
        scale = max(scale, mag)
    return scale


@pytest.mark.parametrize("name,params", CATALOG_DEFAULTS + [HEISENBERG_40])
def test_kernel_scale_matches_term_loop(name, params, rng):
    m = load_model(name, **params)
    for radius in (0.3, 2.0):
        z, w = _far_point(rng, m.n, radius), _far_point(rng, m.n, radius)
        assert orbit_mod._kernel_scale(m, z, w) == pytest.approx(_term_loop_scale(m, z, w), rel=1e-13)


def _generator(rng, d, norm):
    """A random complex (d, d) generator whose largest absolute row sum is ``norm``."""
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return A * (norm / np.abs(A).sum(axis=1).max())


@pytest.mark.parametrize("norm", [0.3, 1.0, 7.5])
def test_act_matches_expm(rng, norm):
    A = _generator(rng, 12, norm)
    rows = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
    ref = rows @ scipy.linalg.expm(A)
    assert np.max(np.abs(act(rows, A) - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(act(rows[0], A) - ref[0])) <= 1e-13 * np.max(np.abs(ref[0]))


def test_act_stack_matches_expm_row_by_row(rng):
    # 1-norms from 0.5 to 6.5: one to seven scaled steps
    As = np.array([_generator(rng, 10, 0.5 + 1.5 * k) for k in range(5)])
    rows = rng.standard_normal((5, 10)) + 1j * rng.standard_normal((5, 10))
    got = act(rows, As)
    for k in range(5):
        ref = rows[k] @ scipy.linalg.expm(As[k])
        assert np.max(np.abs(got[k] - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_act_stack_rows_are_their_one_row_results(rng):
    As = np.array([_generator(rng, 10, 0.5 + 1.5 * k) for k in range(5)])
    rows = rng.standard_normal((5, 10)) + 1j * rng.standard_normal((5, 10))
    stacked = act(rows, As)
    for k in range(5):
        assert np.array_equal(stacked[k], act(rows[k], As[k]))
        assert np.array_equal(stacked[k], act(rows[k : k + 1], As[k])[0])
    shared = act(rows, As[3])
    assert all(np.array_equal(shared[k], act(rows[k], As[3])) for k in range(5))


def test_act_zero_and_nilpotent_generators(rng):
    rows = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    assert np.array_equal(act(rows, np.zeros((6, 6))), rows)
    N = 3.0 * np.triu(rng.standard_normal((6, 6)), 1)  # 1-norm well above 1
    exact = sum(np.linalg.matrix_power(N, k) / math.factorial(k) for k in range(6))
    ref = rows @ exact
    assert np.max(np.abs(act(rows, N) - ref)) <= 1e-13 * np.max(np.abs(ref))
    with pytest.raises(ValueError, match="not finite"):
        act(rows, np.full((6, 6), np.nan))


@pytest.mark.parametrize("name,params", [("su2", {"j": 2}), ("su3", {"p": 2, "q": 1})])
def test_group_action_by_generator(name, params, rng):
    m = load_model(name, **params)
    c = 0.1 * (rng.standard_normal(m.spec.dim) + 1j * rng.standard_normal(m.spec.dim))
    X = derived_matrix(m, AlgebraElement(c))
    points = 0.3 * (rng.standard_normal((4, m.n)) + 1j * rng.standard_normal((4, m.n)))
    J, Z = group_action(m, Exp(X), points)
    J_ref, Z_ref = group_action(m, scipy.linalg.expm(X), points)
    assert np.max(np.abs(J - J_ref)) < 1e-13 and np.max(np.abs(Z - Z_ref)) < 1e-13
    for k, z in enumerate(points):
        j, zk = group_action(m, Exp(X), z)
        assert j == J[k] and np.array_equal(zk, Z[k])
    with pytest.raises(ModelStructureError):
        group_action(m, Exp(np.eye(m.dim_rep + 1)), points)


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
    assert rep.metrics["grading_triangularity"] == math.inf
    # in a stack, the zero point terminates at once and the other rows do not
    with pytest.raises(ModelValidationError, match="does not terminate"):
        covector_direct(bad, [[0.0], [0.3], [0.1j]])


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
    covector_numeric(model, [0.1])  # evaluates omega at a point as well
    refs = weakref.ref(model), weakref.ref(omega)
    del model, omega
    gc.collect()
    assert [r() for r in refs] == [None, None]


# -- stacks of covectors and points ------------------------------------------

CHECK_SUITE_MODELS = [
    ("su3", {"p": 1, "q": 1}),
    ("su2", {"j": 16}),
    ("su11", {"k": 1.5, "trunc": 40}),
    ("heisenberg", {"trunc": 40}),
    ("su3", {"p": 2, "q": 2}),
    ("su3", {"p": 3, "q": 3}),
]


def _near_identity(model, rng, scale=0.15):
    norm = max(1.0, max(float(np.max(np.abs(m))) for m in model.rep.matrices))
    c = (scale / norm) * (rng.standard_normal(model.spec.dim) + 1j * rng.standard_normal(model.spec.dim))
    return scipy.linalg.expm(sum(ci * m for ci, m in zip(c, model.rep.matrices)))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_stacks_match_single_rows_bit_for_bit():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    models = [load_model(name, **params) for name, params in CHECK_SUITE_MODELS]

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(range(len(models))), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def check(index, rows, seed):
        m = models[index]
        rng = np.random.default_rng(seed)
        points = 0.5 * (rng.uniform(-1, 1, (rows, m.n)) + 1j * rng.uniform(-1, 1, (rows, m.n)))
        mu0 = (0.5 + rng.uniform(0, 1.5, rows)) * np.exp(2j * np.pi * rng.uniform(size=rows))
        covectors = np.array([c * covector_direct(m, z) for c, z in zip(mu0, points)])
        mu, z = extract_coordinates(m, covectors)
        for k in range(rows):
            mu_k, z_k = extract_coordinates(m, covectors[k])
            assert _same_bits(mu[k], mu_k) and _same_bits(z[k], z_k)
        g = _near_identity(m, rng)
        gs = np.array([_near_identity(m, rng) for _ in range(rows)])
        for elements, element_of in ((g, lambda k: g), (gs, lambda k: gs[k])):
            J, moved = group_action(m, elements, points)
            for k in range(rows):
                J_k, moved_k = group_action(m, element_of(k), points[k])
                assert _same_bits(J[k], J_k) and _same_bits(moved[k], moved_k)

    check()


def _one_point_error(fn, *args):
    with pytest.raises((PolarDivisorError, PointOffOrbitError)) as info:
        fn(*args)
    return info.type, str(info.value)


@pytest.mark.parametrize("bad_rows", [(1, 2), (2, 1)])
def test_stacked_extraction_raises_first_failing_row(su2_one, bad_rows):
    good = covector_direct(su2_one, [0.3 - 0.1j])
    polar = np.array([0.0, 1.0, 0.0])
    off_orbit = np.array([1.0, 0.0, 1.0])  # not of the form (1, sqrt(2) z, z^2)
    stack = np.array([good, good, good, good])
    stack[bad_rows[0]], stack[bad_rows[1]] = off_orbit, polar
    kind, message = _one_point_error(extract_coordinates, su2_one, stack[min(bad_rows)])
    with pytest.raises(kind) as info:
        extract_coordinates(su2_one, stack)
    assert str(info.value) == message


def test_stacked_group_action_raises_first_failing_row(su2_one, rng):
    not_a_group_element = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    antipodal = scipy.linalg.expm((math.pi / 2) * np.array(su2_one.rep.matrices[1] - su2_one.rep.matrices[2]))
    points = np.full((4, 1), 0.1 + 0.2j)
    gs = np.array([np.eye(3), not_a_group_element, np.eye(3), antipodal])
    kind, message = _one_point_error(group_action, su2_one, not_a_group_element, points[1])
    assert kind is PointOffOrbitError
    with pytest.raises(PointOffOrbitError) as info:
        group_action(su2_one, gs, points)
    assert str(info.value) == message
    points[0] = 0.0  # the antipodal point of 0 is on the polar divisor of the base point
    gs[0] = antipodal
    with pytest.raises(PolarDivisorError):
        group_action(su2_one, gs, points)


def test_stack_shape_mismatches(su2_one):
    d, n = su2_one.dim_rep, su2_one.n
    with pytest.raises(ModelStructureError):
        extract_coordinates(su2_one, np.ones((2, d + 1)))
    with pytest.raises(ModelStructureError):
        group_action(su2_one, np.eye(d), np.zeros((2, n + 1)))
    with pytest.raises(ModelStructureError):
        group_action(su2_one, np.eye(d + 1), np.zeros((2, n)))
    with pytest.raises(ModelStructureError):
        group_action(su2_one, np.array([np.eye(d)] * 3), np.zeros((2, n)))
    with pytest.raises(ModelStructureError):
        group_action(su2_one, np.array([np.eye(d)] * 2), np.zeros(n))


@pytest.mark.parametrize(
    "name,params,index,value", [("su2", {"j": 1}, 1, math.nan), ("su3", {"p": 1, "q": 1}, 5, math.inf)]
)
def test_non_finite_covector_is_off_the_orbit(name, params, index, value):
    # a NaN residual used to pass the residual test and give NaN coordinates
    m = load_model(name, **params)
    good = covector_direct(m, np.full(m.n, 0.2 - 0.1j))
    bad = good.copy()
    bad[index] = value
    with np.errstate(invalid="ignore"), pytest.raises(PointOffOrbitError):
        extract_coordinates(m, bad)
    with np.errstate(invalid="ignore"), pytest.raises(PointOffOrbitError):
        extract_coordinates(m, np.array([good, bad, good]))


def test_polar_guard_does_not_grow_with_the_orbit():
    # max|v| / |mu| reaches 2.8e15 at ordinary points of su2 j = 100, which
    # a guard relative to max|v| took for the polar divisor
    m = load_model("su2", j=100)
    z0 = np.array([0.5 - 0.5j])
    v = (0.7 + 0.2j) * covector_direct(m, z0)
    assert np.max(np.abs(v)) / abs(v[m.e0_index]) > 1e12
    mu, z = extract_coordinates(m, v)
    assert abs(mu - (0.7 + 0.2j)) < 1e-12 and np.max(np.abs(z - z0)) < 1e-12
    assert run_checks(m, ["roundtrip"])[0]["status"] == "pass"
