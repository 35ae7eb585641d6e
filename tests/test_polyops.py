import numpy as np
import pytest

from csorbit.polyops import (
    DenseTable,
    DiffOp1,
    MultiPoly,
    diffop_apply,
    diffop_commutator,
    diffop_max_diff,
    max_coeff_diff,
    render_diffop,
    render_poly,
)


def rand_poly(rng, nvars, deg, nterms=6):
    terms = {}
    for _ in range(nterms):
        expo = tuple(int(e) for e in rng.integers(0, deg + 1, nvars))
        if sum(expo) > deg:
            continue
        terms[expo] = complex(rng.standard_normal(), rng.standard_normal())
    return MultiPoly(nvars, terms)


def rand_op(rng, nvars, deg):
    return DiffOp1(rand_poly(rng, nvars, deg), [rand_poly(rng, nvars, deg) for _ in range(nvars)])


def test_construction_prunes_tiny_coefficients():
    p = MultiPoly(2, {(1, 0): 1e-15, (0, 1): 1.0})
    assert (1, 0) not in p.terms
    assert p.terms[(0, 1)] == 1.0


def test_construction_accumulates_duplicate_cancellation():
    p = MultiPoly(1, {(2,): 1.0}) - MultiPoly(1, {(2,): 1.0})
    assert p.is_zero()
    assert p.degree() == -1


def test_nvars_and_exponent_validation():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        MultiPoly(1, {(-1,): 1.0})
    with pytest.raises(ValueError):
        MultiPoly(1, {(0,): 1.0}) + MultiPoly(2, {(0, 0): 1.0})


def test_poly_eval_examples():
    p = MultiPoly(2, {(0, 0): 1.0, (1, 1): 1.0})  # 1 + z1 z2
    assert p.eval([2, 3]) == pytest.approx(7)
    assert MultiPoly.zero(3).eval([1, 2, 3]) == 0
    with pytest.raises(ValueError):
        p.eval([1.0])


def test_dense_table_matches_eval(rng):
    polys = [rand_poly(rng, 3, 4) for _ in range(5)] + [MultiPoly.zero(3), MultiPoly.constant(3, 2.0)]
    table = DenseTable(polys)
    assert table.coeffs.shape == (len(polys), table.exponents.shape[0])
    for _ in range(5):
        pt = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        want = np.array([p.eval(pt) for p in polys])
        assert np.max(np.abs(table.eval(pt) - want)) < 1e-12
    assert np.array_equal(table.eval(np.zeros(3)), [p.eval([0, 0, 0]) for p in polys])
    with pytest.raises(ValueError):
        table.eval([1.0, 2.0])


def test_dense_table_batch_matches_eval(rng):
    polys = [rand_poly(rng, 3, 4) for _ in range(5)] + [MultiPoly.zero(3)]
    table = DenseTable(polys)
    pts = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    batch = table.eval(pts)
    assert batch.shape == (8, len(polys))
    for pt, row in zip(pts, batch):
        assert np.max(np.abs(row - [p.eval(pt) for p in polys])) < 1e-12
        assert np.array_equal(row, table.eval(pt))  # a stack row is the one-point value
    with pytest.raises(ValueError):
        table.eval(pts[:, :2])
    with pytest.raises(ValueError):
        table.eval(pts[None])


def test_ring_distributivity_exact(rng):
    for _ in range(20):
        p, q, r = (rand_poly(rng, 2, 3) for _ in range(3))
        lhs = (p + q) * r
        rhs = p * r + q * r
        assert max_coeff_diff(lhs, rhs) <= 1e-12


def test_partials_commute(rng):
    for _ in range(20):
        p = rand_poly(rng, 3, 5)
        assert max_coeff_diff(p.partial(0).partial(2), p.partial(2).partial(0)) == 0


def test_diffop_apply_examples():
    ddz = DiffOp1(MultiPoly.zero(1), [MultiPoly.constant(1, 1.0)])
    z = MultiPoly.variable(1, 0)
    assert max_coeff_diff(diffop_apply(ddz, z * z), 2.0 * z) == 0

    mult_z = DiffOp1(z, [MultiPoly.zero(1)])
    assert max_coeff_diff(diffop_apply(mult_z, MultiPoly.constant(1, 1.0)), z) == 0

    # su2 j=1 lowering operator applied to the symbol z: 2z*z - z^2*1 = z^2
    jm = DiffOp1(2.0 * z, [-(z * z)])
    assert max_coeff_diff(diffop_apply(jm, z), z * z) == 0


def test_diffop_apply_nvars_mismatch():
    ddz = DiffOp1(MultiPoly.zero(1), [MultiPoly.constant(1, 1.0)])
    with pytest.raises(ValueError):
        diffop_apply(ddz, MultiPoly.zero(2))


def test_diffop_apply_linearity(rng):
    D = rand_op(rng, 2, 3)
    f, g = rand_poly(rng, 2, 3), rand_poly(rng, 2, 3)
    a, b = 1.7 - 0.3j, -0.4 + 2j
    lhs = diffop_apply(D, a * f + b * g)
    rhs = a * diffop_apply(D, f) + b * diffop_apply(D, g)
    assert max_coeff_diff(lhs, rhs) <= 1e-12


def test_commutator_canonical_pair():
    ddz = DiffOp1(MultiPoly.zero(1), [MultiPoly.constant(1, 1.0)])
    z_op = DiffOp1(MultiPoly.variable(1, 0), [MultiPoly.zero(1)])
    c = diffop_commutator(ddz, z_op)
    assert render_diffop(c) == "P = 1, Q1 = 0"


def test_commutator_antisymmetry(rng):
    D = rand_op(rng, 2, 3)
    assert diffop_max_diff(diffop_commutator(D, D), DiffOp1.zero(2)) == 0


def test_commutator_su2_example():
    # [d/dz, 2jz - z^2 d/dz] = 2j - 2z d/dz for j = 1
    z = MultiPoly.variable(1, 0)
    ddz = DiffOp1(MultiPoly.zero(1), [MultiPoly.constant(1, 1.0)])
    jm = DiffOp1(2.0 * z, [-(z * z)])
    got = diffop_commutator(ddz, jm)
    want = DiffOp1(MultiPoly.constant(1, 2.0), [-2.0 * z])
    assert diffop_max_diff(got, want) == 0


def test_commutator_matches_action(rng):
    for _ in range(5):
        D1, D2 = rand_op(rng, 2, 2), rand_op(rng, 2, 2)
        f = rand_poly(rng, 2, 3)
        lhs = diffop_apply(diffop_commutator(D1, D2), f)
        rhs = diffop_apply(D1, diffop_apply(D2, f)) - diffop_apply(D2, diffop_apply(D1, f))
        assert max_coeff_diff(lhs, rhs) <= 1e-10


def test_commutator_jacobi_identity(rng):
    for _ in range(5):
        A, B, C = (rand_op(rng, 2, 3) for _ in range(3))
        total = diffop_commutator(A, diffop_commutator(B, C))
        total = total + diffop_commutator(B, diffop_commutator(C, A))
        total = total + diffop_commutator(C, diffop_commutator(A, B))
        assert diffop_max_diff(total, DiffOp1.zero(2)) <= 1e-12


def test_embed():
    e = MultiPoly.variable(1, 0).embed(3, offset=2)
    assert e.terms == {(0, 0, 1): 1.0}


def test_rendering_format():
    z = MultiPoly.variable(1, 0)
    assert render_poly(2.0 * z) == "2 z1"
    assert render_poly(-(z * z)) == "-z1^2"
    assert render_poly(MultiPoly.zero(2)) == "0"
    p = MultiPoly(2, {(0, 0): 1.0, (1, 1): -2.0, (2, 0): 1 + 2j})
    assert render_poly(p) == "1 - 2 z1 z2 + (1+2i) z1^2"
    # 12 significant digits
    assert render_poly(MultiPoly.constant(1, 1 / 3)) == "0.333333333333"
    # imaginary and negative-imaginary coefficients fold their sign
    assert render_poly(MultiPoly(1, {(1,): 2j})) == "2i z1"
    assert render_poly(MultiPoly(1, {(0,): 1.0, (1,): -0.5j})) == "1 - 0.5i z1"


def test_degree_after_pruning():
    p = MultiPoly(1, {(5,): 1e-16, (2,): 1.0})
    assert p.degree() == 2
