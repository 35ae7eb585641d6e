import itertools
import tracemalloc

import numpy as np
import pytest

from csorbit import ModelStructureError, coherent_covector, load_model, quadrature_rule
from csorbit.polyops import (
    MultiPoly,
    PolyEntries,
    collect,
    commutators,
    diffop_array,
    partials,
    render_diffop,
    render_poly,
)


def monomials(nvars, deg):
    """Every exponent of total degree at most ``deg``, in lexicographic order."""
    return np.array([e for e in itertools.product(range(deg + 1), repeat=nvars) if sum(e) <= deg]).reshape(-1, nvars)


def rand_rows(rng, shape, expos, density=0.4):
    """Random complex coefficient rows of the given leading shape over ``expos``,
    about ``density`` of them nonzero."""
    c = rng.standard_normal((*shape, len(expos))) + 1j * rng.standard_normal((*shape, len(expos)))
    return np.where(rng.uniform(size=c.shape) < density, c, 0)


def ONE(nvars):
    """The exponent table of the one monomial 1: a sum through collect."""
    return np.zeros((1, nvars), dtype=int)


def test_construction_prunes_tiny_coefficients():
    # collect drops cancellation residue, relative to the magnitudes summed
    # into a coefficient, but keeps a coefficient that is small by itself
    ea = np.array([[1, 0], [0, 1], [1, 0]])
    pairs = np.array([[1 + 2**-52], [1e-15], [-1.0]])  # (1 + eps) z1 + 1e-15 z2 - z1
    expos, coeffs, mags = collect(ea, ONE(2), pairs, np.abs(pairs))
    assert expos.tolist() == [[0, 1]]
    assert coeffs.tolist() == [1e-15]
    assert mags.tolist() == [1e-15]


def test_construction_keeps_nan_coefficients():
    pairs = np.array([[np.nan], [1e-30]])
    expos, coeffs, _ = collect(np.array([[1], [2]]), ONE(1), pairs, np.ones((2, 1)))
    p = PolyEntries(expos, coeffs[None]).entries[0]
    assert list(p.terms) == [(1,)]
    assert np.isnan(p.terms[(1,)])


def test_construction_accumulates_duplicate_cancellation():
    # z^2 - z^2: the pairs on one monomial sum to exactly 0, and no monomial is left
    expos, coeffs, _ = collect(np.array([[2], [2]]), ONE(1), np.array([[1.0], [-1.0]]))
    assert expos.shape == (0, 1) and coeffs.shape == (0,)
    assert PolyEntries(expos, coeffs[None]).degrees.tolist() == [-1]


def test_nvars_and_exponent_validation():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        MultiPoly(1, {(-1,): 1.0})
    # a point, or an exponent table an operator acts on, of the wrong width
    with pytest.raises(ValueError):
        MultiPoly(1, {(1,): 1.0}).eval([0.0, 0.0])
    with pytest.raises(ValueError):
        PolyEntries(np.zeros((1, 1), dtype=int), np.ones((1, 1))).eval([0.0, 0.0])
    with pytest.raises(ValueError):
        diffop_array(_op([[0]], [0], [1]), np.zeros((1, 2), dtype=int))


def test_poly_eval_examples():
    p = MultiPoly(2, {(0, 0): 1.0, (1, 1): 1.0})  # 1 + z1 z2
    assert p.eval([2, 3]) == pytest.approx(7)
    assert MultiPoly(3).eval([1, 2, 3]) == 0
    with pytest.raises(ValueError):
        p.eval([1.0])


def _random_table(rng, rows=5):
    """Random rows over the monomials of degree <= 4 in 3 variables, with a
    zero row and the constant 2 added."""
    expos = monomials(3, 4)
    coeffs = np.vstack([rand_rows(rng, (rows,), expos), np.zeros(len(expos)), 2.0 * (expos.sum(axis=1) == 0)])
    return PolyEntries(expos, coeffs)


def test_dense_table_matches_eval(rng):
    table = _random_table(rng)
    assert table.coeffs.shape == (7, table.exponents.shape[0])
    for _ in range(5):
        pt = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        want = np.array([p.eval(pt) for p in table.entries])
        assert np.max(np.abs(table.eval(pt) - want)) < 1e-12
    assert np.array_equal(table.eval(np.zeros(3)), [p.eval([0, 0, 0]) for p in table.entries])
    with pytest.raises(ValueError):
        table.eval([1.0, 2.0])


def test_dense_table_batch_matches_eval(rng):
    table = _random_table(rng)
    pts = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    batch = table.eval(pts)
    assert batch.shape == (8, 7)
    for pt, row in zip(pts, batch):
        assert np.max(np.abs(row - [p.eval(pt) for p in table.entries])) < 1e-12
        assert np.array_equal(row, table.eval(pt))  # a stack row is the one-point value
    with pytest.raises(ValueError):
        table.eval(pts[:, :2])
    with pytest.raises(ValueError):
        table.eval(pts[None])


def _heisenberg_nodes():
    model = load_model("heisenberg", trunc=40)
    return coherent_covector(model), quadrature_rule(model).nodes[:, None]


def test_dense_table_blocks_are_bitwise_one_point(rng):
    heisenberg = _heisenberg_nodes()  # 4,096 default-rule nodes
    random = _random_table(rng), rng.standard_normal((5000, 3)) + 1j * rng.standard_normal((5000, 3))
    for table, pts in (heisenberg, random):
        assert len(pts) > 2 * table._block_rows
        batch = table.eval(pts)
        assert batch.shape == (len(pts), len(table.coeffs))
        assert np.array_equal(batch, [table.eval(pt) for pt in pts])


def test_dense_table_empty_stack():
    table = PolyEntries(np.array([[0, 0], [1, 0]]), np.array([[0, 1.0], [1.0, 0], [0, 0]]))  # z1, 1, 0
    assert table.eval(np.zeros((0, 2))).shape == (0, 3)


def test_dense_table_stack_memory_is_bounded():
    table, nodes = _heisenberg_nodes()
    table.eval(nodes)
    tracemalloc.start()
    try:
        out = table.eval(nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unblocked evaluation peaked at 6.2 MB for this 2.7 MB output
    assert peak <= out.nbytes + 256 * 1024


def test_ring_distributivity_exact(rng, on_table):
    E, big = monomials(2, 3), monomials(2, 6)
    for _ in range(20):
        p, q, r = rand_rows(rng, (3,), E)
        lhs = collect(E, E, (p + q)[:, None] * r)
        rhs = collect(np.concatenate([E, E]), E, np.concatenate([p, q])[:, None] * r)  # p r + q r
        assert np.max(np.abs(on_table(*lhs[:2], big) - on_table(*rhs[:2], big))) <= 1e-12


def _partial(expos, coeffs, i):
    dexp, owner, dcoeffs = partials(expos, coeffs)
    return dexp[owner == i], dcoeffs[..., owner == i]


def test_partials_commute(rng, on_table):
    E = monomials(3, 5)
    for _ in range(20):
        c = rand_rows(rng, (), E)
        a = _partial(*_partial(E, c, 0), 2)
        b = _partial(*_partial(E, c, 2), 0)
        assert np.array_equal(on_table(*a, E), on_table(*b, E))


def _apply(op, expos, coeffs):
    """op applied to the polynomial with ``coeffs`` over ``expos``, through
    its array (:func:`diffop_array`)."""
    out, A, _ = diffop_array(op, expos)
    return out, coeffs @ A


def _op(expos, P, *Q):
    return PolyEntries(np.array(expos), np.array([P, *Q], dtype=complex))


def test_diffop_apply_examples(on_table):
    ddz = _op([[0]], [0], [1])
    assert np.array_equal(on_table(*_apply(ddz, np.array([[2]]), np.array([1.0])), [[1]]), [2])

    mult_z = _op([[1]], [1], [0])
    assert np.array_equal(on_table(*_apply(mult_z, np.array([[0]]), np.array([1.0])), [[1]]), [1])

    # su2 j=1 lowering operator applied to the symbol z: 2z*z - z^2*1 = z^2
    jm = _op([[1], [2]], [2, 0], [0, -1])
    assert np.array_equal(on_table(*_apply(jm, np.array([[1]]), np.array([1.0])), [[2]]), [1])


def test_diffop_apply_nvars_mismatch():
    ddz = _op([[0]], [0], [1])
    with pytest.raises(ValueError):
        diffop_array(ddz, np.zeros((1, 2), dtype=int))


def test_diffop_apply_linearity(rng):
    E = monomials(2, 3)
    D = PolyEntries(E, rand_rows(rng, (3,), E))
    f, g = rand_rows(rng, (2,), E)
    a, b = 1.7 - 0.3j, -0.4 + 2j
    out, A, _ = diffop_array(D, E)
    assert np.max(np.abs((a * f + b * g) @ A - (a * (f @ A) + b * (g @ A)))) <= 1e-12


def test_commutator_canonical_pair():
    E = np.array([[0], [1]])
    ddz, z_op = np.array([[0, 0], [1, 0]]), np.array([[0, 1], [0, 0]])
    expos, c = commutators(E, ddz, z_op[None])
    assert render_diffop(PolyEntries(expos, c[0])) == "P = 1, Q1 = 0"


def test_commutator_antisymmetry(rng):
    E = monomials(2, 3)
    D = rand_rows(rng, (3,), E)
    _, c = commutators(E, D, D[None])
    assert not np.any(c)


def test_commutator_su2_example(on_table):
    # [d/dz, 2jz - z^2 d/dz] = 2j - 2z d/dz for j = 1
    E = np.array([[0], [1], [2]])
    ddz = np.array([[0, 0, 0], [1, 0, 0]])
    jm = np.array([[0, 2, 0], [0, 0, -1]])
    expos, c = commutators(E, ddz, jm[None])
    assert np.array_equal(on_table(expos, c[0], E), [[2, 0, 0], [0, -2, 0]])


def test_commutator_matches_action(rng, on_table):
    # [D1, D2] f against D1 (D2 f) - D2 (D1 f), each through diffop_array
    E, F, big = monomials(2, 2), monomials(2, 3), monomials(2, 7)
    for _ in range(5):
        D1, D2 = (PolyEntries(E, rand_rows(rng, (3,), E)) for _ in range(2))
        f = rand_rows(rng, (), F)
        expos, c = commutators(E, D1.coeffs, D2.coeffs[None])
        lhs = on_table(*_apply(PolyEntries(expos, c[0]), F, f), big)
        rhs = on_table(*_apply(D1, *_apply(D2, F, f)), big) - on_table(*_apply(D2, *_apply(D1, F, f)), big)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_commutator_jacobi_identity(rng, on_table):
    E, mid, big = monomials(2, 3), monomials(2, 5), monomials(2, 7)
    for _ in range(5):
        ops = rand_rows(rng, (3, 3), E)
        total = np.zeros((3, len(big)), dtype=complex)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            inner = on_table(*commutators(E, ops[b], ops[c][None]), mid)  # [B, C], of degree <= 5
            outer = commutators(mid, on_table(E, ops[a], mid), inner)
            total += on_table(outer[0], outer[1][0], big)
        assert np.max(np.abs(total)) <= 1e-12


def test_rendering_format():
    assert render_poly(MultiPoly(1, {(1,): 2.0})) == "2 z1"
    assert render_poly(MultiPoly(1, {(2,): -1.0})) == "-z1^2"
    assert render_poly(MultiPoly(2)) == "0"
    p = MultiPoly(2, {(0, 0): 1.0, (1, 1): -2.0, (2, 0): 1 + 2j})
    assert render_poly(p) == "1 - 2 z1 z2 + (1+2i) z1^2"
    # 12 significant digits
    assert render_poly(MultiPoly(1, {(0,): 1 / 3})) == "0.333333333333"
    # imaginary and negative-imaginary coefficients fold their sign
    assert render_poly(MultiPoly(1, {(1,): 2j})) == "2i z1"
    assert render_poly(MultiPoly(1, {(0,): 1.0, (1,): -0.5j})) == "1 - 0.5i z1"


def test_degree_after_pruning():
    # z^2 plus cancellation residue at z^5, which collect drops
    pairs = np.array([[1.0], [1 + 2**-52], [-1.0]])
    expos, coeffs, _ = collect(np.array([[2], [5], [5]]), ONE(1), pairs, np.abs(pairs))
    assert PolyEntries(expos, coeffs[None]).degrees.tolist() == [2]


def test_collect_rejects_exponent_codes_beyond_int64():
    # 8 variables with exponents 300 on each side need 601^8 > 2^63 codes;
    # they used to wrap, giving exponents such as [1, 419, 63, 475, ...]
    e = np.full((1, 8), 300)
    with pytest.raises(ModelStructureError, match="n = 8 variables up to 600 overflow int64"):
        collect(e, e, np.ones((1, 1, 1), dtype=complex))
    expos, coeffs, _ = collect(e[:, :6], e[:, :6], np.ones((1, 1, 1), dtype=complex))
    assert expos.tolist() == [[600] * 6] and coeffs.tolist() == [[1]]
