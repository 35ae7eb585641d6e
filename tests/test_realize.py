import math

import numpy as np
import pytest
import scipy.linalg

from csorbit import (
    AlgebraElement,
    LieAlgebraSpec,
    MatrixRep,
    ModelStructureError,
    NonpolynomialRealizationError,
    OrbitModel,
    PartialTableError,
    PointOffOrbitError,
    PolarDivisorError,
    cocycle_residual,
    degree_report,
    flow_crosscheck,
    group_element,
    homomorphism_residual,
    intertwining_residual,
    load_model,
    realize_all,
    realize_generator,
    symbol,
)
from csorbit import realize
from csorbit.algebra import derived_matrix
from csorbit.orbit import Exp, coherent_covector, extract_coordinates
from csorbit.polyops import PolyEntries, diffop_array, partials
from csorbit.realize import _closed_form, _intertwining_defect

ALL_MODELS = [
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


def su2_golden_table(j):
    """The su2 operators as rows (P, Q1) over the exponents 1, z, z^2."""
    E = np.array([[0], [1], [2]])
    return {
        "J0": PolyEntries(E, np.array([[j, 0, 0], [0, -1, 0]])),
        "J+": PolyEntries(E, np.array([[0, 0, 0], [1, 0, 0]])),
        "J-": PolyEntries(E, np.array([[0, 2 * j, 0], [0, 0, -1]])),
    }


def heisenberg_golden_table():
    """The heisenberg operators as rows (P, Q1) over the exponents 1, z."""
    E = np.array([[0], [1]])
    return {
        "a": PolyEntries(E, np.array([[0, 0], [1, 0]])),
        "a+": PolyEntries(E, np.array([[0, 1], [0, 0]])),
        "e": PolyEntries(E, np.array([[1, 0], [0, 0]])),
    }


def test_symbol_examples(su2_half, heis10, coeff_gap):
    E = np.array([[0], [1]])
    assert coeff_gap(symbol(su2_half, [1, 0]), PolyEntries(E, np.array([[1, 0]]))) == 0
    assert coeff_gap(symbol(su2_half, [0, 1]), PolyEntries(E, np.array([[0, 1]]))) == 0
    for n in (0, 3, 7):
        psi = np.zeros(11)
        psi[n] = 1.0
        want = PolyEntries(np.array([[n]]), np.array([[1 / math.sqrt(math.factorial(n))]]))
        assert coeff_gap(symbol(heis10, psi), want) < 1e-14


def test_symbol_linearity(su2_one, rng):
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a, b = 0.3 + 1j, -2.0
    lhs = symbol(su2_one, a * f + b * g).coeffs
    rhs = a * symbol(su2_one, f).coeffs + b * symbol(su2_one, g).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    with pytest.raises(ValueError):
        symbol(su2_one, [1, 0])


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 2])
def test_su2_golden_realization(j, coeff_gap):
    m = load_model("su2", j=j)
    golden = su2_golden_table(j)
    table = realize_all(m)
    assert not table.partial
    for idx, label in enumerate(m.spec.basis_labels):
        assert coeff_gap(table.entries[idx], golden[label]) < 1e-10
        assert table.residuals[idx] < 1e-10


def test_heisenberg_golden_realization(heis10, coeff_gap):
    table = realize_all(heis10)
    golden = heisenberg_golden_table()
    for idx, label in enumerate(heis10.spec.basis_labels):
        assert coeff_gap(table.entries[idx], golden[label]) < 1e-10


@pytest.mark.parametrize("k", [1, 1.5, 3])
def test_su11_golden_realization(k, coeff_gap):
    # K0 = k + z d/dz, K+ = 2k z + z^2 d/dz, K- = d/dz over the exponents 1, z, z^2
    m = load_model("su11", k=k)
    E = np.array([[0], [1], [2]])
    golden = {
        "K0": PolyEntries(E, np.array([[k, 0, 0], [0, 1, 0]])),
        "K+": PolyEntries(E, np.array([[0, 2 * k, 0], [0, 0, 1]])),
        "K-": PolyEntries(E, np.array([[0, 0, 0], [1, 0, 0]])),
    }
    table = realize_all(m)
    for idx, label in enumerate(m.spec.basis_labels):
        assert coeff_gap(table.entries[idx], golden[label]) < 1e-10


def test_realize_zero_element(su2_one):
    op = realize_generator(su2_one, AlgebraElement(np.zeros(3)))
    assert op.coeffs.shape[0] == 2 and not np.any(op.coeffs)


def test_realize_linearity(su2_one, rng, on_table, coeff_gap):
    x = AlgebraElement(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    y = AlgebraElement(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    a, b = 1.2 - 0.7j, 0.4 + 0.4j
    dx = realize_generator(su2_one, x)
    dy = realize_generator(su2_one, y)
    dxy = realize_generator(su2_one, AlgebraElement(a * x.coeffs + b * y.coeffs))
    E = np.array([[0], [1], [2]])
    combined = a * on_table(dx.exponents, dx.coeffs, E) + b * on_table(dy.exponents, dy.coeffs, E)
    assert coeff_gap(dxy, PolyEntries(E, combined)) < 1e-10


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_intertwining_identity(name, params, on_table):
    m = load_model(name, **params)
    table = realize_all(m)
    assert not table.partial
    assert intertwining_residual(m, table) <= 1e-9
    # spot check through the public pieces: D_x F_bk = F_(X bk), with D_x
    # applied through its array on omega's exponents
    X = np.array(m.rep.matrices[0])
    E = coherent_covector(m).exponents
    out, A, _ = diffop_array(table.entries[0], E)
    on_omega = lambda p: on_table(p.exponents, p.coeffs[0], E)
    limit = m.rep.block_dim if m.rep.truncated else np.inf
    for k in range(m.dim_rep):
        bk = np.zeros(m.dim_rep)
        bk[k] = 1.0
        diff = on_omega(symbol(m, bk)) @ A
        diff[: len(E)] -= on_omega(symbol(m, X @ bk))
        assert np.max(np.abs(diff[out.sum(axis=1) <= limit]), initial=0.0) <= 1e-9


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_homomorphism(name, params):
    m = load_model(name, **params)
    assert homomorphism_residual(m, realize_all(m)) <= 1e-9


def test_realize_all_abelian_trivial():
    spec = LieAlgebraSpec(1, ("x",), ())
    rep = MatrixRep(1, (np.zeros((1, 1)),))
    m = OrbitModel(spec=spec, rep=rep, e0_index=0, mprime=(), grading=())
    table = realize_all(m)
    assert not table.partial
    assert table.entries[0].coeffs.shape[0] == 1 and not np.any(table.entries[0].coeffs)


def corrupted_su2(j=1):
    m = load_model("su2", j=j)
    mats = [np.array(x) for x in m.rep.matrices]
    mats[1][0, 2] = 0.5
    return OrbitModel(
        spec=m.spec,
        rep=MatrixRep(m.dim_rep, tuple(mats)),
        e0_index=0,
        mprime=m.mprime,
        grading=m.grading,
        name="su2-corrupted",
    )


def test_nonpolynomial_realization_is_reported():
    # j=40: the identity's coefficients reach 1.3e13, but the corrupted one
    # is O(1) and must still be seen
    for j in (1, 40):
        bad = corrupted_su2(j)
        with pytest.raises(NonpolynomialRealizationError):
            realize_generator(bad, AlgebraElement.basis(3, 1), degree_cap=3)
        table = realize_all(bad, degree_cap=3)
        assert table.partial
        assert 1 in table.failures
        # other generators still solved
        assert 0 in table.entries
        with pytest.raises(PartialTableError):
            homomorphism_residual(bad, table)
        with pytest.raises(PartialTableError):
            degree_report(table)


def test_degree_cap_below_one_rejected(su2_one):
    with pytest.raises(ValueError, match="degree_cap must be >= 1"):
        realize_all(su2_one, degree_cap=0)


def test_flow_crosscheck_su2_golden(su2_one):
    # lowering flow: multiplier (1 + t z)^(2j), derivative at 0 is 2jz = 0.6
    res = flow_crosscheck(su2_one, AlgebraElement.basis(3, 2), [0.3])
    assert res < 1e-6


def test_flow_crosscheck_heisenberg_raising(heis10):
    # omega(z) exp(t a+) = e^(t z) omega(z): FD of multiplier is z0, Q is 0
    h = 1e-4
    z0 = 0.37 - 0.21j
    X = np.array(heis10.rep.matrices[1])
    from csorbit import group_action

    jp, _ = group_action(heis10, scipy.linalg.expm(h * X), [z0])
    jm, _ = group_action(heis10, scipy.linalg.expm(-h * X), [z0])
    assert abs((jp - jm) / (2 * h) - z0) < 1e-6
    assert flow_crosscheck(heis10, AlgebraElement.basis(3, 1), [z0]) < 1e-6


def _moving_off_the_orbit(monkeypatch, model, elements, points, failing):
    """Patch the flow's ``act`` so that the rows of each (element, point,
    step t) in ``failing`` leave the orbit, each by a different amount.  A
    row is found by its generator t X and its input omega(z), not by its
    place in the stack.  Returns the rows as moved, by name."""
    real_act, moved = realize.act, {}
    omega = coherent_covector(model)

    def act(rows, A):
        out = real_act(rows, A)
        gens = np.broadcast_to(A, (*out.shape[:-1], *A.shape[-2:]))
        for k, (g, p, t) in enumerate(failing):
            tX = t * derived_matrix(model, elements[g])
            for r in np.ndindex(out.shape[:-1]):
                if np.array_equal(gens[r], tX) and np.array_equal(rows[r], omega.eval(points[g, p])):
                    out[r][-1] += 10.0 ** (k + 1)
                    moved[g, p, t] = out[r].copy()
        return out

    monkeypatch.setattr(realize, "act", act)
    return moved


def _errors_alone(model, moved):
    """The extraction error of each moved row alone, by name."""
    messages = {}
    for where, row in moved.items():
        with pytest.raises(PointOffOrbitError) as alone:
            extract_coordinates(model, row)
        messages[where] = str(alone.value)
    assert len(set(messages.values())) == len(moved)
    return messages


def test_flow_crosscheck_stack_raises_first_failing_point(su2_one, monkeypatch):
    # point 2 fails in its first action (exp(hX)), point 1 in its last
    # (exp(-hX/2)): the one-point order reaches point 1 first
    h = realize.FLOW_STEP
    points = np.array([[0.1], [0.2], [0.3]], dtype=complex)
    x = AlgebraElement.basis(3, 2)
    moved = _moving_off_the_orbit(monkeypatch, su2_one, [x], points[None], [(0, 2, h), (0, 1, -h / 2)])
    with pytest.raises(PointOffOrbitError) as stacked:
        flow_crosscheck(su2_one, x, points)
    assert str(stacked.value) == _errors_alone(su2_one, moved)[0, 1, -h / 2]


@pytest.mark.parametrize("name,params", [("su2", {"j": 16}), ("su3", {"p": 2, "q": 1})])
def test_flow_check_is_max_of_generator_calls(name, params):
    # the check draws every generator's points first, in the order the
    # per-generator loop drew them, and stacks the whole basis: each
    # generator's residual, and so the record, is bit for bit its own call's
    from csorbit import checks

    m = load_model(name, **params)
    rng = np.random.default_rng(checks.RNG_SEED)
    basis = [AlgebraElement.basis(m.spec.dim, idx) for idx in range(m.spec.dim)]
    points = np.array([[checks._random_point(rng, m, 0.3) for _ in range(checks.FLOW_POINTS)] for _ in basis])
    table = realize_all(m)
    singles = [flow_crosscheck(m, x, p, table=table) for x, p in zip(basis, points)]
    assert flow_crosscheck(m, basis, points, table=table).tolist() == singles
    assert flow_crosscheck(m, basis, points).tolist() == singles
    assert checks.run_checks(m, ["flow"])[0]["residual"] == max(singles)


def test_flow_crosscheck_generator_stack_raises_first_failing_generator(su2_one, monkeypatch):
    # generator 2 fails at its point 0, generator 1 at its point 2 in its
    # actions exp(hX/2) and exp(-hX): generator 1's exp(-hX) comes first
    h = realize.FLOW_STEP
    basis = [AlgebraElement.basis(3, idx) for idx in range(3)]
    points = (0.02 * np.arange(1, 10) + 0j).reshape(3, 3, 1)
    moved = _moving_off_the_orbit(monkeypatch, su2_one, basis, points, [(2, 0, h), (1, 2, h / 2), (1, 2, -h)])
    with pytest.raises(PointOffOrbitError) as stacked:
        flow_crosscheck(su2_one, basis, points)
    assert str(stacked.value) == _errors_alone(su2_one, moved)[1, 2, -h]


def _one_point_flow(model, x, z, h, op):
    """The flow's Richardson estimate at one point from four one-point
    :func:`group_action` calls, against ``op`` there."""
    from csorbit import group_action

    X = derived_matrix(model, x)
    moved = [group_action(model, Exp(t * X), z) for t in (h, -h, h / 2, -h / 2)]
    pairs = [np.concatenate([[J], z_t]) for J, z_t in moved]
    d_h, d_half = (pairs[0] - pairs[1]) / (2 * h), (pairs[2] - pairs[3]) / (2 * (h / 2))
    return np.max(np.abs((4 * d_half - d_h) / 3 - op.eval(z)))


@pytest.mark.parametrize(
    "name,params", [("su2", {"j": 16}), ("su3", {"p": 2, "q": 1}), ("heisenberg", {"trunc": 40})]
)
def test_flow_crosscheck_matches_one_point_group_actions(name, params, rng):
    # the stacked flow, bit for bit, against one-point actions at each point
    m = load_model(name, **params)
    table = realize_all(m)
    basis = [AlgebraElement.basis(m.spec.dim, idx) for idx in range(m.spec.dim)]
    points = 0.3 * (rng.uniform(-1, 1, (len(basis), 4, m.n)) + 1j * rng.uniform(-1, 1, (len(basis), 4, m.n)))
    reference = [
        max(_one_point_flow(m, x, z, realize.FLOW_STEP, table.entries[idx]) for z in points[idx])
        for idx, x in enumerate(basis)
    ]
    assert flow_crosscheck(m, basis, points, table=table).tolist() == reference


def test_flow_crosscheck_shape_mismatches(su2_one):
    basis = [AlgebraElement.basis(3, idx) for idx in range(3)]
    for points in (np.zeros((2, 4, 1)), np.zeros((3, 4)), np.zeros((3, 4, 2)), np.zeros((1, 3, 4, 1))):
        with pytest.raises(ModelStructureError):
            flow_crosscheck(su2_one, basis, points)
    for points in (np.zeros(2), np.zeros((4, 2)), np.zeros((1, 4, 1))):
        with pytest.raises(ModelStructureError):
            flow_crosscheck(su2_one, basis[0], points)


def test_flow_crosscheck_over_no_points(su2_one):
    basis = [AlgebraElement.basis(3, idx) for idx in range(3)]
    assert flow_crosscheck(su2_one, basis[2], np.zeros((0, 1))) == 0.0
    assert flow_crosscheck(su2_one, basis, np.zeros((3, 0, 1))).tolist() == [0.0, 0.0, 0.0]


def test_flow_crosscheck_zero_element(su2_one):
    assert flow_crosscheck(su2_one, AlgebraElement(np.zeros(3)), [0.2]) == 0


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_flow_crosscheck_random_points(name, params, rng):
    m = load_model(name, **params)
    for idx in range(m.spec.dim):
        x = AlgebraElement.basis(m.spec.dim, idx)
        for _ in range(3):
            z0 = 0.3 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
            assert flow_crosscheck(m, x, z0) <= 1e-5


def near_identity(model, rng, scale=0.15):
    norm = max(1.0, max(float(np.max(np.abs(mm))) for mm in model.rep.matrices))
    c = (scale / norm) * (rng.standard_normal(model.spec.dim) + 1j * rng.standard_normal(model.spec.dim))
    return group_element(model, AlgebraElement(c))


def test_cocycle_identity_element(su2_one, rng):
    z = [0.2 + 0.1j]
    g = near_identity(su2_one, rng)
    assert cocycle_residual(su2_one, g, np.eye(3), z) < 1e-12
    assert cocycle_residual(su2_one, np.eye(3), g, z) < 1e-12


def test_cocycle_inverse_pair(su2_one, rng):
    g = near_identity(su2_one, rng)
    z = [0.25 - 0.05j]
    assert cocycle_residual(su2_one, np.linalg.inv(g), g, z) <= 1e-10


@pytest.mark.parametrize("name,params", [("su2", {"j": 1}), ("su3", {"p": 1, "q": 1})])
def test_cocycle_random_pairs(name, params, rng):
    m = load_model(name, **params)
    for _ in range(20):
        g1, g2 = near_identity(m, rng), near_identity(m, rng)
        z = 0.3 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
        assert cocycle_residual(m, g1, g2, z) < 1e-8


@pytest.mark.parametrize("name,params", [("su2", {"j": 1}), ("su3", {"p": 1, "q": 1})])
def test_cocycle_stack_is_its_rows(name, params, rng):
    m = load_model(name, **params)
    g1s = np.array([near_identity(m, rng) for _ in range(6)])
    g2s = np.array([near_identity(m, rng) for _ in range(6)])
    points = 0.3 * (rng.standard_normal((6, m.n)) + 1j * rng.standard_normal((6, m.n)))
    singles = [cocycle_residual(m, *row) for row in zip(g1s, g2s, points)]
    assert cocycle_residual(m, g1s, g2s, points).tolist() == singles
    shared = [cocycle_residual(m, g1s[0], g2s[0], z) for z in points]
    assert cocycle_residual(m, g1s[0], g2s[0], points).tolist() == shared


def test_cocycle_stack_raises_first_failing_pair(su2_one, rng):
    # pair 2 fails in its second group action (onto the polar divisor),
    # pair 3 in its first (a matrix that is not a group element)
    J = su2_one.rep.matrices
    antipodal = scipy.linalg.expm((np.pi / 2) * np.array(J[1] - J[2]))
    g1s = np.array([np.eye(3)] * 4, dtype=complex)
    g2s = g1s.copy()
    g1s[2], g2s[2] = np.linalg.inv(antipodal), antipodal
    g1s[3] = rng.standard_normal((3, 3))
    points = np.zeros((4, 1), dtype=complex)
    with pytest.raises(PolarDivisorError):
        cocycle_residual(su2_one, g1s[2], g2s[2], points[2])
    with pytest.raises(PointOffOrbitError):
        cocycle_residual(su2_one, g1s[3], g2s[3], points[3])
    with pytest.raises(PolarDivisorError):
        cocycle_residual(su2_one, g1s, g2s, points)


def _generators(model, rng, count):
    norm = max(1.0, max(float(np.max(np.abs(mm))) for mm in model.rep.matrices))
    c = (0.15 / norm) * (rng.standard_normal((count, model.spec.dim)) + 1j * rng.standard_normal((count, model.spec.dim)))
    return np.array([derived_matrix(model, AlgebraElement(ck)) for ck in c])


@pytest.mark.parametrize("name,params", [("su2", {"j": 1}), ("su3", {"p": 2, "q": 1})])
def test_cocycle_by_generators(name, params, rng):
    # exp(A2) then exp(A1) on the rows, against the matrices and their product
    m = load_model(name, **params)
    A1s, A2s = _generators(m, rng, 6), _generators(m, rng, 6)
    points = 0.3 * (rng.standard_normal((6, m.n)) + 1j * rng.standard_normal((6, m.n)))
    stacked = cocycle_residual(m, Exp(A1s), Exp(A2s), points)
    assert np.max(stacked) < 1e-13
    assert stacked.tolist() == [cocycle_residual(m, Exp(a1), Exp(a2), z) for a1, a2, z in zip(A1s, A2s, points)]
    shared = cocycle_residual(m, Exp(A1s[0]), Exp(A2s[0]), points)
    assert shared.tolist() == [cocycle_residual(m, Exp(A1s[0]), Exp(A2s[0]), z) for z in points]
    g1, g2 = scipy.linalg.expm(A1s[0]), scipy.linalg.expm(A2s[0])
    assert np.max(np.abs(shared - cocycle_residual(m, g1, g2, points))) < 1e-13


def test_cocycle_by_generators_raises_first_failing_pair(su2_one, rng):
    # pair 1's g2 is not in the algebra and moves its point off the orbit;
    # pair 2's g2 moves its point onto the polar divisor, up to rounding
    J = su2_one.rep.matrices
    A2s = np.zeros((3, 3, 3), dtype=complex)
    A2s[1] = rng.standard_normal((3, 3))
    A2s[2] = (np.pi / 2) * np.array(J[1] - J[2])
    points = np.zeros((3, 1), dtype=complex)
    with pytest.raises(PointOffOrbitError) as alone:
        cocycle_residual(su2_one, Exp(-A2s[1]), Exp(A2s[1]), points[1])
    with pytest.raises(PointOffOrbitError) as stacked:
        cocycle_residual(su2_one, Exp(-A2s), Exp(A2s), points)
    assert str(stacked.value) == str(alone.value)


def test_cocycle_stack_shape_mismatches(su2_one, rng):
    A1s, A2s = _generators(su2_one, rng, 3), _generators(su2_one, rng, 3)
    points = np.zeros((2, 1), dtype=complex)
    for g1, g2 in [
        (Exp(A1s), Exp(A2s)),
        (Exp(A1s[:1]), Exp(A2s[:1])),
        (Exp(A1s[0]), Exp(A2s)),
        (Exp(A1s), Exp(A2s[0])),
        (scipy.linalg.expm(A1s), scipy.linalg.expm(A2s)),
        (scipy.linalg.expm(A1s[:1]), scipy.linalg.expm(A2s[0])),
        (scipy.linalg.expm(A1s[0]), scipy.linalg.expm(A2s)),
    ]:
        with pytest.raises(ModelStructureError):
            cocycle_residual(su2_one, g1, g2, points)
    with pytest.raises(ModelStructureError):
        cocycle_residual(su2_one, np.eye(3), np.eye(3), np.zeros((2, 2)))
    with pytest.raises(ModelStructureError):
        cocycle_residual(su2_one, Exp(A1s[:2]), Exp(A2s[:2]), np.zeros(1))


def _pointwise_gap(model, op, X, z):
    """The largest entry of omega(z) X - P omega(z) - sum_i Q_i d_i omega(z)
    at the points z, over the artifact-free block, relative to the largest
    entry of omega(z) X (floored at 1)."""
    omega = coherent_covector(model)
    dexp, owner, dcoeffs = partials(omega.exponents, omega.coeffs)
    at, values = omega.eval(z), op.eval(z)
    rhs = values[:, :1] * at
    for i in range(model.n):
        rhs = rhs + values[:, 1 + i, None] * PolyEntries(dexp[owner == i], dcoeffs[:, owner == i]).eval(z)
    block = model.rep.block_dim
    lhs = at @ X
    return float(np.max(np.abs(lhs - rhs)[:, :block]) / max(1.0, np.max(np.abs(lhs[:, :block]))))


@pytest.mark.parametrize(
    "name,params", [("su2", {}), ("heisenberg", {}), ("su11", {}), ("su3", {}), ("su3", {"p": 4, "q": 4})]
)
def test_array_defect_matches_pointwise_identity(name, params, rng):
    # the defining identity omega(z) X = P omega + sum_i Q_i d_i omega holds
    # at random points to rounding, as the array defect says; with one
    # coefficient of P moved by 1e-6 both see it
    m = load_model(name, **params)
    z = 0.3 * (rng.standard_normal((4, m.n)) + 1j * rng.standard_normal((4, m.n)))
    expos, ops = _closed_form(m, m.rep.matrices)
    for X, coeffs in zip(m.rep.matrices, ops):
        op = PolyEntries(expos, coeffs)
        defect, scale = _intertwining_defect(m, op, X)
        assert scale >= 1
        assert defect <= 1e-14 and _pointwise_gap(m, op, X, z) <= 1e-13
        moved = coeffs.copy()
        moved[0, np.flatnonzero(expos.sum(axis=1) == 0)] += 1e-6  # P's constant term
        moved_op = PolyEntries(expos, moved)
        assert _intertwining_defect(m, moved_op, X)[0] >= 1e-8
        assert _pointwise_gap(m, moved_op, X, z) >= 1e-8


def test_degree_reports():
    assert degree_report(realize_all(load_model("su2", j=2))).max_degree == 2
    assert degree_report(realize_all(load_model("su11", k=1.5))).max_degree == 2
    assert degree_report(realize_all(load_model("heisenberg"))).max_degree == 1
    rep = degree_report(realize_all(load_model("su3", p=1, q=1)))
    assert rep.max_degree == 3
    assert rep.per_generator["e1"] == (-1, 0)


def test_escalation_finds_minimal_degree(su2_one):
    # J- has degree 2 (P = 2z, Q = -z^2), within the default cap
    op = realize_generator(su2_one, AlgebraElement.basis(3, 2))
    assert max(op.degrees) == 2


@pytest.mark.parametrize("p,q", [(1, 2), (2, 2)])
def test_su3_degree_three_beyond_catalog_defaults(p, q):
    m = load_model("su3", p=p, q=q)
    table = realize_all(m)
    assert degree_report(table).max_degree == 3
    assert homomorphism_residual(m, table) <= 1e-9


def test_su3_degree_is_chart_dependent(su3_11):
    # in single-exponential coordinates the same orbit realizes at degree 4,
    # with the defining identities still holding exactly
    from csorbit import model_from_dict, model_to_dict

    data = model_to_dict(su3_11)
    data["chart"] = "sum"
    m = model_from_dict(data)
    table = realize_all(m)
    assert degree_report(table).max_degree == 4
    assert homomorphism_residual(m, table) <= 1e-9
    assert intertwining_residual(m, table) <= 1e-9


def test_su3_33_degrees_match_su3_11(su3_11):
    small = degree_report(realize_all(su3_11)).per_generator
    large = degree_report(realize_all(load_model("su3", p=3, q=3))).per_generator
    assert large == small


def test_large_spin_realizes_with_relative_defect(coeff_gap):
    # su2 j=40: the identity's coefficients reach 1.3e13, so the defect is only
    # meaningful relative to them
    m = load_model("su2", j=40)
    table = realize_all(m)
    assert not table.partial
    assert table.max_residual() <= 1e-12
    golden = su2_golden_table(40)
    for idx, label in enumerate(m.spec.basis_labels):
        assert coeff_gap(table.entries[idx], golden[label]) < 1e-10


@pytest.mark.parametrize("name,params", [("su2", {"j": 16}), ("su3", {"p": 2, "q": 1})])
def test_flow_crosscheck_stack_is_max_of_points(name, params, rng):
    m = load_model(name, **params)
    points = 0.3 * (rng.standard_normal((5, m.n)) + 1j * rng.standard_normal((5, m.n)))
    for idx in range(m.spec.dim):
        x = AlgebraElement.basis(m.spec.dim, idx)
        singles = [flow_crosscheck(m, x, z) for z in points]
        assert flow_crosscheck(m, x, points) == max(singles)


@pytest.mark.parametrize("name,params", [("su2", {"j": 16}), ("su3", {"p": 2, "q": 1})])
def test_table_operator_is_linear_realization(name, params, rng, coeff_gap):
    m = load_model(name, **params)
    table = realize_all(m)
    x = AlgebraElement(rng.standard_normal(m.spec.dim) + 1j * rng.standard_normal(m.spec.dim))
    assert coeff_gap(table.operator(x), realize_generator(m, x)) < 1e-10
    points = 0.3 * (rng.standard_normal((5, m.n)) + 1j * rng.standard_normal((5, m.n)))
    for idx in range(m.spec.dim):
        basis = AlgebraElement.basis(m.spec.dim, idx)
        assert coeff_gap(table.operator(basis), table.entries[idx]) == 0
        assert flow_crosscheck(m, basis, points, table=table) == flow_crosscheck(m, basis, points)


def test_partial_table_gives_no_operator():
    table = realize_all(corrupted_su2(), degree_cap=3)
    with pytest.raises(PartialTableError):
        table.operator(AlgebraElement.basis(3, 0))


def test_degree_cap_is_checked_after_the_fact(su2_one):
    table = realize_all(su2_one, degree_cap=1)
    assert table.failures == {2: "degree 2 > degree cap 1"}
    with pytest.raises(NonpolynomialRealizationError, match="degree 2 > degree cap 1"):
        realize_generator(su2_one, AlgebraElement.basis(3, 2), degree_cap=1)
