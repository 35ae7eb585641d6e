import math

import numpy as np
import pytest

from csorbit import (
    AlgebraElement,
    LieAlgebraSpec,
    MatrixRep,
    ModelStructureError,
    OrbitModel,
    derived_matrix,
    load_model,
    validate_model,
    validate_representation,
    validate_structure,
)

SU2_STRUCTURE = ((0, 1, 1, 1.0), (0, 2, 2, -1.0), (1, 2, 0, 2.0))


def su2_spec():
    return LieAlgebraSpec(3, ("J0", "J+", "J-"), SU2_STRUCTURE)


def test_validate_structure_su2_passes_exactly():
    rep = validate_structure(su2_spec(), tol=1e-12)
    assert rep.passed
    assert rep.metrics["antisymmetry"] == 0
    assert rep.metrics["jacobi"] == 0


def test_validate_structure_abelian():
    spec = LieAlgebraSpec(4, tuple("abcd"), ())
    assert validate_structure(spec).passed


def test_validate_structure_one_sided_negation_fails():
    # both orientations stored, but (2,1) not negated: antisymmetry violation
    bad = LieAlgebraSpec(
        3,
        ("J0", "J+", "J-"),
        SU2_STRUCTURE + ((2, 1, 0, 2.0),),
    )
    rep = validate_structure(bad)
    assert not rep.passed
    assert rep.metrics["antisymmetry"] == pytest.approx(4.0)


def test_malformed_indices_are_structural_errors():
    with pytest.raises(ModelStructureError):
        LieAlgebraSpec(3, ("a", "b", "c"), ((0, 5, 1, 1.0),))
    with pytest.raises(ModelStructureError):
        LieAlgebraSpec(2, ("a",), ())


def test_non_finite_input_is_a_structural_error():
    with pytest.raises(ModelStructureError, match="non-finite constant"):
        LieAlgebraSpec(3, ("a", "b", "c"), ((0, 1, 2, math.nan),))
    with pytest.raises(ModelStructureError, match="must be finite"):
        MatrixRep(2, (np.array([[0, math.inf], [0, 0]]),))
    with pytest.raises(ModelStructureError, match="must be finite"):
        AlgebraElement([1.0, complex(0, math.nan)])


def test_validation_propagates_nan():
    # a NaN set after construction reaches the Jacobi sum, which Python's
    # max(0.0, nan) would drop
    spec = LieAlgebraSpec(3, ("a", "b", "c"), ((0, 1, 2, 1.0),))
    spec.structure = ((0, 1, 2, complex(math.nan)),)
    report = validate_structure(spec)
    assert math.isnan(report.metrics["jacobi"])
    assert not report.passed


def test_bracket_derives_reverse_orientation():
    spec = su2_spec()
    fwd = spec.bracket(1, 2)
    rev = spec.bracket(2, 1)
    assert np.allclose(fwd + rev, 0)
    assert fwd[0] == 2.0


def test_validate_representation_spin_half():
    m = load_model("su2", j=0.5)
    rep = validate_representation(m, tol=1e-10)
    assert rep.passed
    assert rep.metrics["commutator_global"] < 1e-14


def test_validate_representation_truncated_fock_block():
    # d = 6 ladder with margin 1: [a, a+] - 1 has a single defect -6 at the
    # last diagonal entry, outside the leading 5x5 block
    d = 6
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = math.sqrt(n)
    spec = LieAlgebraSpec(3, ("a", "a+", "e"), ((0, 1, 2, 1.0),))
    rep = MatrixRep(d, (a, a.conj().T, np.eye(d)), truncated=True, trunc_margin=1)
    model = OrbitModel(
        spec=spec, rep=rep, e0_index=0, mprime=(AlgebraElement.basis(3, 1),), grading=(1,)
    )
    report = validate_representation(model, tol=1e-10)
    assert report.passed
    assert report.metrics["commutator_block"] < 1e-14
    assert report.metrics["commutator_global"] == pytest.approx(6.0)

    defect = a @ a.conj().T - a.conj().T @ a - np.eye(d)
    assert defect[d - 1, d - 1] == pytest.approx(-6.0)
    assert np.max(np.abs(defect[: d - 1, : d - 1])) < 1e-14


def test_validate_representation_trivial_abelian():
    spec = LieAlgebraSpec(2, ("x", "y"), ())
    rep = MatrixRep(3, (np.zeros((3, 3)), np.zeros((3, 3))))
    model = OrbitModel(spec=spec, rep=rep, e0_index=0, mprime=(), grading=())
    assert validate_representation(model).passed


def test_rep_dimension_mismatch_is_structural():
    spec = su2_spec()
    with pytest.raises(ModelStructureError):
        MatrixRep(2, (np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((2, 2))))
    with pytest.raises(ModelStructureError):
        OrbitModel(
            spec=spec,
            rep=MatrixRep(2, (np.zeros((2, 2)),) * 2),
            e0_index=0,
            mprime=(),
            grading=(),
        )


def test_derived_matrix_basis_and_linearity(su2_one, rng):
    jp = derived_matrix(su2_one, AlgebraElement.basis(3, 1))
    assert np.array_equal(jp, su2_one.rep.matrices[1])

    x = AlgebraElement(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    y = AlgebraElement(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    a, b = 0.3 - 1j, 2.5 + 0.1j
    lhs = derived_matrix(su2_one, AlgebraElement(a * x.coeffs + b * y.coeffs))
    rhs = a * derived_matrix(su2_one, x) + b * derived_matrix(su2_one, y)
    assert np.max(np.abs(lhs - rhs)) < 1e-13

    assert np.max(np.abs(derived_matrix(su2_one, AlgebraElement(np.zeros(3))))) == 0
    with pytest.raises(ModelStructureError):
        derived_matrix(su2_one, AlgebraElement(np.zeros(2)))


def test_complex_combination_example(su2_one):
    x = AlgebraElement(np.array([0, 1, 1j]))
    got = derived_matrix(su2_one, x)
    want = su2_one.rep.matrices[1] + 1j * su2_one.rep.matrices[2]
    assert np.max(np.abs(got - want)) == 0


@pytest.mark.parametrize(
    "name,params",
    [
        ("su2", {"j": 0.5}),
        ("su2", {"j": 2}),
        ("heisenberg", {"trunc": 10, "margin": 3}),
        ("su11", {"k": 1.5}),
        ("su3", {"p": 1, "q": 1}),
        ("su3", {"p": 2, "q": 1}),
    ],
)
def test_catalog_models_validate(name, params):
    model = load_model(name, **params)
    assert validate_model(model, tol=1e-10).passed


@pytest.mark.parametrize("name", ["su2", "heisenberg", "su11", "su3"])
def test_lowering_images_independent_and_orthogonal(name):
    model = load_model(name)
    _, B, e0_row, _, U = model.derived.chart
    e0 = e0_row.conj()
    # orthogonal to e0 and full rank
    for a in range(model.n):
        assert abs(np.vdot(e0, U[:, a])) < 1e-12
        assert np.linalg.norm(U[:, a]) > 1e-8
    assert np.linalg.matrix_rank(U) == model.n
    # raising counterparts annihilate e0
    for b in B:
        assert np.max(np.abs(b @ e0)) < 1e-12


def test_grading_violation_detected(su3_11):
    # swapping the grading of f1 and f3 breaks triangularity
    bad = OrbitModel(
        spec=su3_11.spec,
        rep=su3_11.rep,
        e0_index=0,
        mprime=su3_11.mprime,
        grading=(2, 1, 1),
        name="su3-badgrading",
        chart=su3_11.chart,
    )
    report = validate_model(bad)
    assert not report.passed
    assert report.metrics["grading_triangularity"] > 1e-6


def test_validation_builds_no_symbolic_series():
    # the terminating-series probe is numeric, so an untrusted model is
    # proven safe before any symbolic series is built for it
    model = load_model("su3", p=1, q=1, validate=False)
    assert validate_model(model).passed
    assert {"vector", "covector", "kernel"}.isdisjoint(vars(model.derived))
