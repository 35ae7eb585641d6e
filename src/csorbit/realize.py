"""Realization of algebra generators as first-order differential operators
with polynomial coefficients, plus the validation battery around it
(intertwining, homomorphism, flow, cocycle, degree reporting).

Differentiating omega(z) exp(tX) = J(t, z) omega(z_t) at t = 0 gives the
defining identity of the realized operator D_X = P + sum_i Q_i d/dz_i,

    omega(z) X = P(z) omega(z) + sum_i Q_i(z) d omega(z)/dz_i,

which, read entry by entry, is the intertwining identity on symbols
D_X F_{b_k} = F_{X b_k} with F_psi(z) = omega(z) . psi.  It gives P and Q
in closed form.  The extremal entry of omega is identically 1, so
P = sum_i X[i, e0] omega_i.  The chart functionals phi_a turn omega into
f_a = omega . phi_a = z_a + (a polynomial in lower-grade coordinates), and
Q solves (I + N) Q = omega X phi - P f with N = df/dz - I, which the grading
makes nilpotent, so its Neumann series terminates.

Polynomiality is a falsifiable hypothesis: the closed form uses only
the e0 and phi components of the identity, so it is accepted only when the
whole identity holds within the tolerance (each monomial's defect relative
to the magnitudes summed into it, floored at 1) and its degree is within
the cap.  A rejected generator is reported as a first-class error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, OrbitModel, derived_matrix
from .errors import CsorbitError, NonpolynomialRealizationError, PartialTableError
from .orbit import Exp, act, coherent_covector, extract_coordinates, group_action, moved_covector
from .polyops import (
    DenseTable,
    DiffOp1,
    MultiPoly,
    diffop_array,
    diffop_commutator,
    max_coeff_diff,
)

SOLVER_TOL = 1e-9
DEGREE_CAP = 6
FLOW_STEP = 1e-4


@dataclass(eq=False)
class RealizationTable:
    """Realized operators per algebra basis index.

    ``residuals`` holds each accepted generator's relative intertwining
    defect (see :func:`_intertwining_defect`), and ``failures`` says why a
    generator's closed form was rejected (defect above the tolerance or
    degree above the cap), which also marks the table partial.
    """

    labels: tuple[str, ...]
    entries: dict[int, DiffOp1] = field(default_factory=dict)
    residuals: dict[int, float] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        return bool(self.failures) or len(self.entries) < len(self.labels)

    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    def operator(self, x: AlgebraElement) -> DiffOp1:
        """D_x = sum_i x_i D_i, the realization being linear in x."""
        if self.partial:
            raise PartialTableError("reading an operator needs a complete table")
        terms = (c * self.entries[i] for i, c in enumerate(x.coeffs) if c != 0)
        return sum(terms, DiffOp1.zero(self.entries[0].nvars))


def symbol(model: OrbitModel, psi: Sequence[complex]) -> MultiPoly:
    """Symbol of a representation-space vector: F_psi(z) = omega(z) . psi,
    linear in psi, polynomial of degree bounded by the representation depth."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != model.dim_rep:
        raise ValueError(f"psi length {psi.shape[0]} != dim_rep {model.dim_rep}")
    omega = coherent_covector(model)
    return omega.poly(psi @ omega.coeffs)


def _closed_form(model: OrbitModel, X: np.ndarray) -> DiffOp1:
    """P and Q of D_X from omega X = P omega + sum_i Q_i d_i omega, as in
    the module docstring."""
    n = model.n
    phi = model.derived.chart[3]
    P = symbol(model, X[:, model.e0_index])
    f = [symbol(model, phi[:, a]) for a in range(n)]
    Xphi = X @ phi
    Q = term = [symbol(model, Xphi[:, a]) - P * f[a] for a in range(n)]
    N = [[f[a].partial(i) - float(a == i) for i in range(n)] for a in range(n)]
    for _ in range(n - 1):  # N is strictly triangular in the grading
        term = [-sum((N[a][i] * term[i] for i in range(n)), MultiPoly.zero(n)) for a in range(n)]
        Q = [q + t for q, t in zip(Q, term)]
    return DiffOp1(P, Q)


def _intertwining_defect(model: OrbitModel, op: DiffOp1, X: np.ndarray) -> tuple[float, float]:
    """Max coefficientwise defect of D F_{b_k} = F_{X b_k} over all basis
    vectors b_k: with (A, S) D's arrays on omega's exponents
    (:func:`polyops.diffop_array`), the rows of C @ A against those of
    X.T @ C.  Each monomial's defect is divided by its scale
    |C| @ S + |X|.T @ |C|, the summed magnitudes of the terms both sides add
    up there, floored at 1, which bounds the rounding there.  Truncated
    models count only monomials in the artifact-free degree block.  Returns
    the worst relative defect and the scale of its monomial."""
    omega = coherent_covector(model)
    C, M = omega.coeffs, omega.coeffs.shape[1]
    expos, A, S = diffop_array(op, omega.exponents)
    defect = C @ A
    defect[:, :M] -= X.T @ C
    scale = np.abs(C) @ S
    scale[:, :M] += np.abs(X).T @ np.abs(C)
    relative = np.abs(defect) / np.maximum(scale, 1.0)
    if model.rep.truncated:
        relative[:, expos.sum(axis=1) > model.rep.block_dim] = 0
    worst = np.unravel_index(np.argmax(relative), relative.shape)  # a NaN is found first
    if relative[worst] == 0:
        return 0.0, 1.0
    return float(relative[worst]), max(1.0, float(scale[worst]))


def _degrees(op: DiffOp1) -> tuple[int, int]:
    """(deg P, max deg Q), the zero polynomial having degree -1."""
    return op.P.degree(), max((q.degree() for q in op.Q), default=-1)


def _realize(model: OrbitModel, X: np.ndarray, tol: float, degree_cap: int):
    """(operator, defect, reason) for X; ``reason`` is None when the
    closed form is accepted and otherwise says why it is not."""
    if degree_cap < 1:
        raise ValueError(f"degree_cap must be >= 1, got {degree_cap}")
    op = _closed_form(model, X)
    defect, scale = _intertwining_defect(model, op, X)
    degree = max(_degrees(op))
    reason = None
    if not defect <= tol:
        reason = f"intertwining defect {defect:.3e} > tol {tol:.1e} (scale {scale:.3e} at its monomial)"
    elif degree > degree_cap:
        reason = f"degree {degree} > degree cap {degree_cap}"
    return op, defect, reason


def realize_generator(
    model: OrbitModel,
    x: AlgebraElement,
    tol: float = SOLVER_TOL,
    degree_cap: int = DEGREE_CAP,
) -> DiffOp1:
    """Realize one algebra element as D = P + sum_i Q_i d/dz_i.

    Raises :class:`NonpolynomialRealizationError` if the closed form misses
    the intertwining identity by more than ``tol`` (see
    :func:`_intertwining_defect`) or has degree above ``degree_cap``; for
    models outside the catalog that outcome is a legitimate finding.
    """
    op, _, reason = _realize(model, derived_matrix(model, x), tol, degree_cap)
    if reason is not None:
        raise NonpolynomialRealizationError(f"no polynomial realization: {reason}")
    return op


def realize_all(
    model: OrbitModel, tol: float = SOLVER_TOL, degree_cap: int = DEGREE_CAP
) -> RealizationTable:
    """Realize every basis generator; per-generator failures are recorded
    and the remaining generators still realized."""
    table = RealizationTable(labels=model.spec.basis_labels)
    for idx in range(model.spec.dim):
        op, defect, reason = _realize(model, model.rep.matrices[idx], tol, degree_cap)
        if reason is None:
            table.entries[idx] = op
            table.residuals[idx] = defect
        else:
            table.failures[idx] = reason
    return table


def intertwining_residual(model: OrbitModel, table: RealizationTable) -> float:
    """Max relative defect of D_x F_{b_k} = F_{dT(x) b_k} over all
    generators and basis vectors: the defects :func:`realize_all` measured
    when it accepted each generator, so nothing is recomputed."""
    if table.partial:
        raise PartialTableError("intertwining check needs a complete table")
    return table.max_residual()


def homomorphism_residual(model: OrbitModel, table: RealizationTable) -> float:
    """Max defect of [D_i, D_j] = sum_k c(i,j,k) D_k over all basis pairs."""
    if table.partial:
        raise PartialTableError("homomorphism check needs a complete table")
    worst = 0.0
    for i in range(model.spec.dim):
        for j in range(i + 1, model.spec.dim):
            lhs = diffop_commutator(table.entries[i], table.entries[j])
            diff = lhs - table.operator(AlgebraElement(model.spec.bracket(i, j)))
            for p in (diff.P, *diff.Q):
                worst = max(worst, max_coeff_diff(p, MultiPoly.zero(model.n)))
    return worst


def flow_crosscheck(
    model: OrbitModel,
    x: AlgebraElement,
    z0: Sequence[complex] | np.ndarray,
    h: float = FLOW_STEP,
    table: RealizationTable | None = None,
) -> float:
    """Consistency of the realized operator with the one-parameter flow.

    Differentiating omega(z) exp(t X) = J(t, z) omega(z_t) at t = 0 gives
    P(z) = dJ/dt|_0 and Q_i(z) = d(z_t)_i/dt|_0 directly in the
    right-multiplication convention used by :func:`group_action` (the su2
    golden operators fix this sign convention).  Both derivatives are
    estimated by Richardson extrapolation of central differences with steps
    h and h/2, (4 D(h/2) - D(h)) / 3, and compared with the realized
    polynomials.  ``z0`` is one point (length n) or a stack of points
    (N, n); the operator and four stacked :func:`group_action` calls, which
    apply exp(+-hX) and exp(+-hX/2) to the rows by their generators
    (:class:`orbit.Exp`), serve all of them, and each point's estimate
    is bit for bit the one it has alone.  If a point fails, the error is
    the one-point error of the first failing point, taking its four group
    actions in the order +h, -h, +h/2, -h/2.  The operator is read from
    ``table`` when given (a partial table raises :class:`PartialTableError`),
    otherwise realized by :func:`realize_generator` at its defaults.
    Returns the max deviation over the points.
    """
    points = np.atleast_2d(np.asarray(z0, dtype=complex))
    X = derived_matrix(model, x)
    op = realize_generator(model, x) if table is None else table.operator(x)
    realized = DenseTable.from_polys([op.P, *op.Q]).eval(points)
    flows = [(s, Exp(s * X), Exp(-s * X)) for s in (h, h / 2)]

    def central(z, s, g_plus, g_minus):
        j_plus, z_plus = group_action(model, g_plus, z)
        j_minus, z_minus = group_action(model, g_minus, z)
        return (np.column_stack([j_plus, z_plus]) - np.column_stack([j_minus, z_minus])) / (2 * s)

    try:
        d_h, d_half = (central(points, *flow) for flow in flows)
    except CsorbitError:
        for z in points:  # the first failure in point order raises
            for flow in flows:
                central(z[None], *flow)
        raise
    return float(np.max(np.abs((4 * d_half - d_h) / 3 - realized)))


def cocycle_residual(
    model: OrbitModel, g1: np.ndarray | Exp, g2: np.ndarray | Exp, z: Sequence[complex] | np.ndarray
) -> float | np.ndarray:
    """|J(g1 o g2, z) - J(g1, g2.z) J(g2, z)| where the composite g1 o g2
    (g2 acting first) is realized as the matrix product g2 @ g1, or, for
    elements given by generators (:class:`orbit.Exp`), as two successive
    actions: omega(z) exp(A2) exp(A1), with no matrix formed.

    ``z`` may be a stack of points (N, n), with g1 and g2 each one element
    or a stack of N per-row elements; the result is then the (N,)
    residuals, each bit for bit the one-point value, from stacked group
    actions.  If a row fails, the error is the one-point error of the first
    failing row."""
    if not isinstance(g1, Exp):
        g1 = np.asarray(g1, dtype=complex)
        g2 = np.asarray(g2, dtype=complex)
    try:
        moved = moved_covector(model, g2, z)
        composite = act(moved, g1.A) if isinstance(g1, Exp) else moved_covector(model, g2 @ g1, z)
        j12, _ = extract_coordinates(model, composite)
        j2, z2 = extract_coordinates(model, moved)
        j1, _ = group_action(model, g1, z2)
    except CsorbitError:
        if np.ndim(z) == 2:  # the first failing row raises
            row = lambda g, k: g if g.ndim == 2 else g[k]
            for k, zk in enumerate(np.asarray(z, dtype=complex)):
                cocycle_residual(model, row(g1, k), row(g2, k), zk)
        raise
    if np.ndim(z) != 2:
        return abs(j12 - j1 * j2)
    # on numpy scalars, as one row alone: the vectorized complex product and
    # abs can differ from them in the last bit
    return np.array([abs(a - b * c) for a, b, c in zip(j12, j1, j2)])


@dataclass
class DegreeReport:
    """Polynomial degrees of the realized operators after pruning."""

    per_generator: dict[str, tuple[int, int]]
    max_degree: int


def degree_report(table: RealizationTable) -> DegreeReport:
    """Per-generator (deg P, max deg Q) and the global maximum degree."""
    if table.partial:
        raise PartialTableError("degree report needs a complete table")
    per = {table.labels[idx]: _degrees(op) for idx, op in table.entries.items()}
    return DegreeReport(per, max([0, *(max(d) for d in per.values())]))
