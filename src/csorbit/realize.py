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

A realized operator is one coefficient array: the rows P, Q_1 .. Q_n over
an exponent table (:class:`polyops.PolyEntries`).  The closed form runs
for a whole stack of generators at once, P = X[:, :, e0] @ C and
f = phi.T @ C, with P f and the Neumann steps as products of stacked rows
(:func:`polyops.collect`), each coefficient dropped only at cancellation
residue of the magnitudes summed into it.  The homomorphism check forms
every commutator on the same arrays.

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
from .errors import CsorbitError, ModelStructureError, NonpolynomialRealizationError, PartialTableError
from .orbit import Exp, act, coherent_covector, extract_coordinates, group_action, moved_covector
from .polyops import PolyEntries, collect, commutators, diffop_array, partials, prune

SOLVER_TOL = 1e-9
DEGREE_CAP = 6
FLOW_STEP = 1e-4


@dataclass(eq=False)
class RealizationTable:
    """Realized operators per algebra basis index, each with the rows P,
    Q_1 .. Q_n over one exponent table that all of them share.

    ``residuals`` holds each accepted generator's relative intertwining
    defect (see :func:`_intertwining_defect`), and ``failures`` says why a
    generator's closed form was rejected (defect above the tolerance or
    degree above the cap), which also marks the table partial.
    """

    labels: tuple[str, ...]
    entries: dict[int, PolyEntries] = field(default_factory=dict)
    residuals: dict[int, float] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        return bool(self.failures) or len(self.entries) < len(self.labels)

    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    def operator(self, x: AlgebraElement) -> PolyEntries:
        """D_x = sum_i x_i D_i, the realization being linear in x, over the
        monomials it uses."""
        if self.partial:
            raise PartialTableError("reading an operator needs a complete table")
        rows = np.tensordot(x.coeffs, np.array([self.entries[i].coeffs for i in range(len(self.labels))]), 1)
        used = rows.any(axis=0)
        return PolyEntries(self.entries[0].exponents[used], rows[:, used])


def symbol(model: OrbitModel, psi: Sequence[complex]) -> PolyEntries:
    """Symbol of a representation-space vector: F_psi(z) = omega(z) . psi,
    one row psi @ C, linear in psi, polynomial of degree bounded by the
    representation depth."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != model.dim_rep:
        raise ValueError(f"psi length {psi.shape[0]} != dim_rep {model.dim_rep}")
    expos, rows, _ = _symbol_rows(model, psi[None, None])
    return PolyEntries(expos, rows[0])


def _symbol_rows(model: OrbitModel, psi: np.ndarray):
    """The symbols of a (g, k, d) stack of vectors, each (k, d) block
    multiplied as one alone and pruned as the series is: (exponents,
    coefficients, magnitudes) over the monomials some row uses."""
    omega = coherent_covector(model)
    rows, mags = psi @ omega.coeffs, np.abs(psi) @ np.abs(omega.coeffs)
    prune(rows, mags)
    used = rows.reshape(-1, rows.shape[-1]).any(axis=0)
    return omega.exponents[used], rows[..., used], mags[..., used]


def _closed_form(model: OrbitModel, X: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """P and Q of D_X for each generator of a sequence X, as in the module
    docstring: (exponents, (g, n + 1, M) rows P, Q_1 .. Q_n) over one table.
    Every product and sum goes through :func:`polyops.collect`, which
    carries the summed magnitudes and prunes against them as the series
    does; a generator's rows are the ones it has alone."""
    n = model.n
    phi = model.derived.chart[3]
    one = np.zeros((1, n), dtype=int)  # the monomial 1: a sum is a product by it

    def add(a, b):  # two (exponents, coefficients, magnitudes) on their union
        return collect(np.concatenate([a[0], b[0]]), one, *(np.concatenate(p, axis=-1)[..., None] for p in zip(a[1:], b[1:])))

    eP, cP, sP = _symbol_rows(model, np.array([x[None, :, model.e0_index] for x in X]))  # (g, 1, M)
    ef, (cf,), (sf,) = _symbol_rows(model, phi.T[None])  # f_a, (n, M)
    Pf = collect(eP, ef, cP[..., None] * cf[:, None, :], sP[..., None] * sf[:, None, :])  # (g, n, M)
    Q = add(_symbol_rows(model, np.array([(x @ phi).T for x in X])), (Pf[0], -Pf[1], Pf[2]))
    if n > 1:  # N[a, i] = df_a/dz_i - delta_ai, from the derivative columns l in z_owner[l]
        dexp, owner, df = partials(ef, cf)
        mine = owner == np.arange(n)[:, None]
        pairs = lambda d, eye: np.concatenate([np.where(mine, d[:, None], 0), eye[..., None]], axis=-1)[..., None]
        N = collect(np.concatenate([dexp, one]), one, pairs(df, -np.eye(n)), pairs(partials(ef, sf)[2], np.eye(n)))
        term, times = Q, lambda a, b: np.einsum("aim,gik->gamk", a, b)  # N[a, i] term[g, i], pairs of monomials
        for _ in range(n - 1):  # N is strictly triangular in the grading: term <- -N term
            term = collect(N[0], term[0], -times(N[1], term[1]), times(N[2], term[2]))
            Q = add(Q, term)
    rows = np.zeros((len(X), n + 1, len(eP) + len(Q[0])), dtype=complex)
    rows[:, :1, : len(eP)], rows[:, 1:, len(eP) :] = cP, Q[1]
    return collect(np.concatenate([eP, Q[0]]), one, rows[..., None])[:2]


def _intertwining_defect(model: OrbitModel, op: PolyEntries, X: np.ndarray) -> tuple[float, float]:
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


def _degrees(op: PolyEntries) -> tuple[int, int]:
    """(deg P, max deg Q), the zero polynomial having degree -1."""
    degrees = op.degrees
    return int(degrees[0]), int(degrees[1:].max(initial=-1))


def _realize(model: OrbitModel, X: Sequence[np.ndarray], labels: tuple[str, ...], tol: float, degree_cap: int):
    """The :class:`RealizationTable` of the generators X, their closed
    forms found at once; a failure says why a generator is not accepted."""
    if degree_cap < 1:
        raise ValueError(f"degree_cap must be >= 1, got {degree_cap}")
    expos, ops = _closed_form(model, X)
    table = RealizationTable(labels=labels)
    for idx, (x, coeffs) in enumerate(zip(X, ops)):
        op = PolyEntries(expos, coeffs)
        defect, scale = _intertwining_defect(model, op, x)
        degree = max(_degrees(op))
        if not defect <= tol:
            table.failures[idx] = f"intertwining defect {defect:.3e} > tol {tol:.1e} (scale {scale:.3e} at its monomial)"
        elif degree > degree_cap:
            table.failures[idx] = f"degree {degree} > degree cap {degree_cap}"
        else:
            table.entries[idx], table.residuals[idx] = op, defect
    return table


def realize_generator(
    model: OrbitModel,
    x: AlgebraElement,
    tol: float = SOLVER_TOL,
    degree_cap: int = DEGREE_CAP,
) -> PolyEntries:
    """Realize one algebra element as D = P + sum_i Q_i d/dz_i, the rows
    P, Q_1 .. Q_n over the monomials they use.

    Raises :class:`NonpolynomialRealizationError` if the closed form misses
    the intertwining identity by more than ``tol`` (see
    :func:`_intertwining_defect`) or has degree above ``degree_cap``; for
    models outside the catalog that outcome is a legitimate finding.
    """
    table = _realize(model, [derived_matrix(model, x)], ("x",), tol, degree_cap)
    if table.partial:
        raise NonpolynomialRealizationError(f"no polynomial realization: {table.failures[0]}")
    return table.entries[0]


def realize_all(
    model: OrbitModel, tol: float = SOLVER_TOL, degree_cap: int = DEGREE_CAP
) -> RealizationTable:
    """Realize every basis generator in one closed form for the whole
    basis; per-generator failures are recorded and the remaining
    generators still realized."""
    return _realize(model, model.rep.matrices, model.spec.basis_labels, tol, degree_cap)


def intertwining_residual(model: OrbitModel, table: RealizationTable) -> float:
    """Max relative defect of D_x F_{b_k} = F_{dT(x) b_k} over all
    generators and basis vectors: the defects :func:`realize_all` measured
    when it accepted each generator, so nothing is recomputed."""
    if table.partial:
        raise PartialTableError("intertwining check needs a complete table")
    return table.max_residual()


def homomorphism_residual(model: OrbitModel, table: RealizationTable) -> float:
    """Max coefficient of [D_i, D_j] - sum_k c(i,j,k) D_k over all basis
    pairs, unpruned, from :func:`polyops.commutators` of each D_i with the
    D_j after it."""
    if table.partial:
        raise PartialTableError("homomorphism check needs a complete table")
    dim, expos = model.spec.dim, table.entries[0].exponents
    ops = np.array([table.entries[k].coeffs for k in range(dim)])
    worst = 0.0
    for i in range(dim - 1):
        lhs_expos, lhs = commutators(expos, ops[i], ops[i + 1 :])
        rhs = np.tensordot([model.spec.bracket(i, j) for j in range(i + 1, dim)], ops, 1)
        pairs = np.concatenate([lhs, -rhs], axis=-1)[..., None]
        _, diff, _ = collect(np.concatenate([lhs_expos, expos]), np.zeros((1, model.n), dtype=int), pairs)
        worst = max(worst, float(np.max(np.abs(diff), initial=0.0)))
    return worst


def flow_crosscheck(
    model: OrbitModel,
    x: AlgebraElement | Sequence[AlgebraElement],
    z0: Sequence[complex] | np.ndarray,
    h: float = FLOW_STEP,
    table: RealizationTable | None = None,
) -> float | np.ndarray:
    """Consistency of the realized operator with the one-parameter flow.

    Differentiating omega(z) exp(t X) = J(t, z) omega(z_t) at t = 0 gives
    P(z) = dJ/dt|_0 and Q_i(z) = d(z_t)_i/dt|_0 in the right-multiplication
    convention of :func:`group_action` (the su2 golden operators fix its
    sign).  Both are estimated by Richardson extrapolation of central
    differences with steps h and h/2, (4 D(h/2) - D(h)) / 3, and compared
    with the realized polynomials, read from ``table`` when given (a partial
    table raises :class:`PartialTableError`), else realized at the defaults.

    ``x`` is one element and ``z0`` one point (n,) or a stack (N, n), giving
    the max deviation, or G elements and a (G, N, n) stack, giving the (G,)
    deviations.  exp(+-hX) and exp(+-hX/2) act on omega at the points as one
    :func:`orbit.act` on (G, N, 4, d) rows, extracted at once: each value is
    bit for bit its one-point :func:`group_action`'s, and the error raised
    is the first failing row's: element, then point, then action.
    """
    elements = [x] if isinstance(x, AlgebraElement) else list(x)
    points = np.asarray(z0, dtype=complex)
    points = np.atleast_2d(points)[None] if isinstance(x, AlgebraElement) else points
    if points.ndim != 3 or points.shape[0] != len(elements) or points.shape[2] != model.n:
        raise ModelStructureError(f"points {np.shape(z0)} do not fit {len(elements)} element(s) with n = {model.n}")
    d, steps = model.dim_rep, np.array([h, -h, h / 2, -h / 2])
    X = steps[:, None, None] * np.array([derived_matrix(model, y) for y in elements])[:, None, None]  # (G, 1, 4, d, d)
    ops = [realize_generator(model, y) if table is None else table.operator(y) for y in elements]
    realized = np.array([op.eval(p) for op, p in zip(ops, points)])  # (G, N, n + 1)
    rows = coherent_covector(model).eval(points.reshape(-1, model.n)).reshape(*points.shape[:-1], 1, d)
    mu, moved = extract_coordinates(model, act(np.broadcast_to(rows, (*points.shape[:-1], 4, d)), X))
    pairs = np.concatenate([mu[..., None], moved], axis=-1)  # (J, z') side by side
    d_h, d_half = np.moveaxis((pairs[..., ::2, :] - pairs[..., 1::2, :]) / (2 * steps[::2, None]), -2, 0)
    deviation = np.max(np.abs((4 * d_half - d_h) / 3 - realized), axis=(1, 2), initial=0.0)
    return float(deviation[0]) if isinstance(x, AlgebraElement) else deviation


def cocycle_residual(
    model: OrbitModel, g1: np.ndarray | Exp, g2: np.ndarray | Exp, z: Sequence[complex] | np.ndarray
) -> float | np.ndarray:
    """|J(g1 o g2, z) - J(g1, g2.z) J(g2, z)| where the composite g1 o g2
    (g2 acting first) is realized as the matrix product g2 @ g1, or, for
    elements given by generators (:class:`orbit.Exp`), as two successive
    actions: omega(z) exp(A2) exp(A1), with no matrix formed.

    ``z`` is one point (n,), run as a stack of one, or a stack (N, n) with
    g1 and g2 each one element or N per-row ones, giving the (N,) residuals.
    Shapes are checked first.  A failing stack of several rows is run again
    row by row, so that the first failing row's error is raised: the last
    action starts from the second's output, so the stack's own errors do
    not come in row order."""
    points = np.atleast_2d(np.asarray(z, dtype=complex))
    if not isinstance(g1, Exp):
        g1, g2 = np.asarray(g1, dtype=complex), np.asarray(g2, dtype=complex)
    d = model.dim_rep
    if g1.shape not in ((d, d), (len(points), d, d)):
        raise ModelStructureError(f"group element must be {d} x {d} or a stack of {len(points)} of them")
    moved = moved_covector(model, g2, points)  # checks the points and g2 before acting
    try:
        composite = act(moved, g1.A) if isinstance(g1, Exp) else moved_covector(model, g2 @ g1, points)
        j12, _ = extract_coordinates(model, composite)
        j2, z2 = extract_coordinates(model, moved)
        j1, _ = group_action(model, g1, z2)
    except CsorbitError:
        if len(points) > 1:  # the first failing row raises
            for k in range(len(points)):
                cocycle_residual(model, *(g if len(g.shape) == 2 else g[k] for g in (g1, g2)), points[k])
        raise
    # on numpy scalars, one row at a time: the vectorized complex product
    # and abs can differ from them in the last bit
    residuals = np.array([abs(a - b * c) for a, b, c in zip(j12, j1, j2)])
    return residuals if np.ndim(z) == 2 else residuals[0]


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
