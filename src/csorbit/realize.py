"""Realization of algebra generators as first-order differential operators
with polynomial coefficients, plus the validation battery around it
(intertwining, homomorphism, flow, cocycle, degree reporting).

The defining property of the realized operator D_x is the intertwining
identity on symbols: for every representation basis vector b_k,

    D_x F_{b_k} = F_{dT(x) b_k},        F_psi(z) = omega(z) . psi.

Polynomiality of P and Q is treated as a falsifiable hypothesis: the solver
escalates the ansatz degree and reports the achieved residual; if no degree
up to the cap works, that is surfaced as a first-class error rather than a
numerical fudge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np
import scipy.linalg

from .algebra import AlgebraElement, OrbitModel, derived_matrix
from .errors import NonpolynomialRealizationError, PartialTableError
from .orbit import coherent_covector, group_action
from .polyops import (
    DiffOp1,
    MultiPoly,
    diffop_apply,
    diffop_commutator,
    max_coeff_diff,
    monomials_upto,
)

SOLVER_TOL = 1e-9
DEGREE_CAP = 6
FLOW_STEP = 1e-4


@dataclass(eq=False)
class RealizationTable:
    """Realized operators per algebra basis index, with solve diagnostics.

    ``residuals`` holds the max coefficientwise defect of the defining
    linear system per generator, ``degree_summary`` maps index to
    (deg P, max deg Q), ``nullspace_dims`` counts undetermined ansatz
    directions (the minimal-norm solution fixes them to zero), ``failures``
    records generators with no polynomial realization within the cap, which
    also marks the table partial.
    """

    labels: tuple[str, ...]
    entries: dict[int, DiffOp1] = field(default_factory=dict)
    residuals: dict[int, float] = field(default_factory=dict)
    degree_summary: dict[int, tuple[int, int]] = field(default_factory=dict)
    nullspace_dims: dict[int, int] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        return bool(self.failures) or len(self.entries) < len(self.labels)

    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)


def symbol(model: OrbitModel, psi: Sequence[complex]) -> MultiPoly:
    """Symbol of a representation-space vector: F_psi(z) = omega(z) . psi,
    linear in psi, polynomial of degree bounded by the representation depth."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != model.dim_rep:
        raise ValueError(f"psi length {psi.shape[0]} != dim_rep {model.dim_rep}")
    omega = coherent_covector(model).entries
    out = MultiPoly.zero(model.n)
    for c, entry in zip(psi, omega):
        if c != 0 and not entry.is_zero():
            out = out + c * entry
    return out


@lru_cache(maxsize=None)
def _symbol_data(model: OrbitModel):
    omega = coherent_covector(model).entries
    derivs = tuple(tuple(F.partial(i) for i in range(model.n)) for F in omega)
    max_deg = max((F.degree() for F in omega), default=0)
    deg_limit = model.rep.block_dim if model.rep.truncated else None
    return omega, derivs, max_deg, deg_limit


@lru_cache(maxsize=None)
def _system_matrix(model: OrbitModel, deg: int):
    """Linear system matrix for the ansatz degree ``deg``.

    Unknowns: coefficients of P then Q_1..Q_n on all monomials of total
    degree <= deg (slot-major, lexicographic).  Rows: one per (basis index
    k, monomial nu) with nu running over total degree <= row cap; for
    truncated models the row cap is the artifact-free degree block, which
    quarantines truncation defects out of the match.
    """
    omega, derivs, max_deg, deg_limit = _symbol_data(model)
    n = model.n
    d = model.dim_rep
    cols_mono = monomials_upto(n, deg)
    row_cap = deg + max_deg if deg_limit is None else min(deg + max_deg, deg_limit)
    rows_mono = monomials_upto(n, row_cap)
    row_pos = {nu: r for r, nu in enumerate(rows_mono)}
    nrows_per_k = len(rows_mono)
    A = np.zeros((d * nrows_per_k, (n + 1) * len(cols_mono)), dtype=complex)
    for k in range(d):
        sources = [omega[k]] + [derivs[k][i] for i in range(n)]
        for slot, src in enumerate(sources):
            for c_idx, mu in enumerate(cols_mono):
                col = slot * len(cols_mono) + c_idx
                for expo, coeff in src.terms.items():
                    nu = tuple(a + b for a, b in zip(expo, mu))
                    r = row_pos.get(nu)
                    if r is not None:
                        A[k * nrows_per_k + r, col] += coeff
    return A, cols_mono, row_pos, nrows_per_k


def _rhs_vector(model: OrbitModel, X: np.ndarray, row_pos, nrows_per_k) -> np.ndarray:
    omega, _, _, _ = _symbol_data(model)
    d = model.dim_rep
    b = np.zeros(d * nrows_per_k, dtype=complex)
    for k in range(d):
        # G_k = symbol(X b_k) = sum_i X[i, k] * omega_i
        for i in range(d):
            if X[i, k] == 0:
                continue
            for expo, coeff in omega[i].terms.items():
                r = row_pos.get(expo)
                if r is not None:
                    b[k * nrows_per_k + r] += X[i, k] * coeff
    return b


def _solve(model: OrbitModel, X: np.ndarray, tol: float, degree_cap: int):
    """Degree-escalating minimal-norm least squares for D_X; memoized on the
    matrix bytes since flow checks revisit the same generators."""
    if degree_cap < 1:
        raise ValueError(f"degree_cap must be >= 1, got {degree_cap}")
    key = np.ascontiguousarray(X, dtype=complex).tobytes()
    return _solve_cached(model, key, float(tol), int(degree_cap))


@lru_cache(maxsize=None)
def _solve_cached(model: OrbitModel, xbytes: bytes, tol: float, degree_cap: int):
    """Returns (DiffOp1, residual, nullspace_dim, met) at the first degree
    meeting ``tol``; on failure the best attempt with met=False."""
    X = np.frombuffer(xbytes, dtype=complex).reshape(model.dim_rep, model.dim_rep)
    n = model.n
    best = None
    for deg in range(1, degree_cap + 1):
        A, cols_mono, row_pos, nrows_per_k = _system_matrix(model, deg)
        b = _rhs_vector(model, X, row_pos, nrows_per_k)
        x, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        residual = float(np.max(np.abs(A @ x - b))) if b.size else 0.0
        nullspace = A.shape[1] - int(rank)
        ncols = len(cols_mono)
        polys = []
        for slot in range(n + 1):
            coeffs = {
                mu: x[slot * ncols + i]
                for i, mu in enumerate(cols_mono)
                if abs(x[slot * ncols + i]) != 0.0
            }
            polys.append(MultiPoly(n, coeffs))
        op = DiffOp1(polys[0], polys[1:])
        if best is None or residual < best[1]:
            best = (op, residual, nullspace)
        if residual <= tol:
            return op, residual, nullspace, True
    op, residual, nullspace = best
    return op, residual, nullspace, False


def realize_generator(
    model: OrbitModel,
    x: AlgebraElement,
    tol: float = SOLVER_TOL,
    degree_cap: int = DEGREE_CAP,
) -> DiffOp1:
    """Realize one algebra element as D = P + sum_i Q_i d/dz_i.

    Raises :class:`NonpolynomialRealizationError` if no polynomial ansatz up
    to ``degree_cap`` matches the intertwining identity within ``tol``; for
    models outside the catalog that outcome is a legitimate finding.
    """
    X = derived_matrix(model, x)
    op, residual, _, met = _solve(model, X, tol, degree_cap)
    if not met:
        raise NonpolynomialRealizationError(
            f"no polynomial realization up to degree {degree_cap}: "
            f"best residual {residual:.3e} > tol {tol:.1e}"
        )
    return op


def realize_all(
    model: OrbitModel, tol: float = SOLVER_TOL, degree_cap: int = DEGREE_CAP
) -> RealizationTable:
    """Realize every basis generator; per-generator failures are recorded
    and the remaining generators still solved."""
    table = RealizationTable(labels=model.spec.basis_labels)
    for idx in range(model.spec.dim):
        X = model.rep.matrices[idx]
        op, residual, nullspace, met = _solve(model, X, tol, degree_cap)
        if met:
            table.entries[idx] = op
            table.residuals[idx] = residual
            table.nullspace_dims[idx] = nullspace
            table.degree_summary[idx] = (op.P.degree(), max((q.degree() for q in op.Q), default=-1))
        else:
            table.failures[idx] = f"best residual {residual:.3e} at degree cap {degree_cap}"
    return table


def intertwining_residual(model: OrbitModel, table: RealizationTable) -> float:
    """Max coefficientwise defect of D_x F_{b_k} = F_{dT(x) b_k} over all
    generators and basis vectors, recomputed through the operator action
    (independent of the solver's own residual bookkeeping)."""
    if table.partial:
        raise PartialTableError("intertwining check needs a complete table")
    omega, derivs, max_deg, deg_limit = _symbol_data(model)
    worst = 0.0
    for idx, op in table.entries.items():
        X = model.rep.matrices[idx]
        for k in range(model.dim_rep):
            lhs = diffop_apply(op, omega[k])
            rhs = MultiPoly.zero(model.n)
            for i in range(model.dim_rep):
                if X[i, k] != 0:
                    rhs = rhs + X[i, k] * omega[i]
            diff = lhs - rhs
            for expo, coeff in diff.terms.items():
                if deg_limit is not None and sum(expo) > deg_limit:
                    continue
                worst = max(worst, abs(coeff))
    return worst


def homomorphism_residual(model: OrbitModel, table: RealizationTable) -> float:
    """Max defect of [D_i, D_j] = sum_k c(i,j,k) D_k over all basis pairs."""
    if table.partial:
        raise PartialTableError("homomorphism check needs a complete table")
    worst = 0.0
    for i in range(model.spec.dim):
        for j in range(i + 1, model.spec.dim):
            lhs = diffop_commutator(table.entries[i], table.entries[j])
            rhs = DiffOp1.zero(model.n)
            for k, c in enumerate(model.spec.bracket(i, j)):
                if c != 0:
                    rhs = rhs + c * table.entries[k]
            diff = lhs - rhs
            worst = max(worst, max_coeff_diff(diff.P, MultiPoly.zero(model.n)))
            for q in diff.Q:
                worst = max(worst, max_coeff_diff(q, MultiPoly.zero(model.n)))
    return worst


def flow_crosscheck(
    model: OrbitModel,
    x: AlgebraElement,
    z0: Sequence[complex],
    h: float = FLOW_STEP,
    tol: float = SOLVER_TOL,
    degree_cap: int = DEGREE_CAP,
) -> float:
    """Consistency of the symbolic solve against the one-parameter flow.

    Differentiating omega(z) exp(t X) = J(t, z) omega(z_t) at t = 0 gives
    P(z) = dJ/dt|_0 and Q_i(z) = d(z_t)_i/dt|_0 directly in the
    right-multiplication convention used by :func:`group_action` (the su2
    golden operators fix this sign convention).  Central finite differences
    of the multiplier and of the coordinate flow are compared with the
    solved polynomials at z0; returns the max deviation.
    """
    z0 = np.asarray(z0, dtype=complex).reshape(-1)
    X = derived_matrix(model, x)
    op = realize_generator(model, x, tol=tol, degree_cap=degree_cap)
    g_plus = scipy.linalg.expm(h * X)
    g_minus = scipy.linalg.expm(-h * X)
    j_plus, z_plus = group_action(model, g_plus, z0)
    j_minus, z_minus = group_action(model, g_minus, z0)
    p_fd = (j_plus - j_minus) / (2 * h)
    q_fd = (z_plus - z_minus) / (2 * h)
    worst = abs(p_fd - op.P.eval(z0))
    for i in range(model.n):
        worst = max(worst, abs(q_fd[i] - op.Q[i].eval(z0)))
    return float(worst)


def cocycle_residual(
    model: OrbitModel, g1: np.ndarray, g2: np.ndarray, z: Sequence[complex]
) -> float:
    """|J(g1 o g2, z) - J(g1, g2.z) J(g2, z)| where the composite g1 o g2
    (g2 acting first) is realized as the matrix product g2 @ g1."""
    g1 = np.asarray(g1, dtype=complex)
    g2 = np.asarray(g2, dtype=complex)
    j12, _ = group_action(model, g2 @ g1, z)
    j2, z2 = group_action(model, g2, z)
    j1, _ = group_action(model, g1, z2)
    return abs(j12 - j1 * j2)


@dataclass
class DegreeReport:
    """Polynomial degrees of the realized operators after pruning."""

    per_generator: dict[str, tuple[int, int]]
    max_degree: int


def degree_report(table: RealizationTable) -> DegreeReport:
    """Per-generator (deg P, max deg Q) and the global maximum degree."""
    if table.partial:
        raise PartialTableError("degree report needs a complete table")
    per = {}
    global_max = 0
    for idx, op in table.entries.items():
        dp = op.P.degree()
        dq = max((q.degree() for q in op.Q), default=-1)
        per[table.labels[idx]] = (dp, dq)
        global_max = max(global_max, dp, dq)
    return DegreeReport(per, global_max)
