"""Symbolic coherent-state vectors, the reproducing kernel on the orbit,
coordinate extraction, and the group action with its multiplier.

Conventions.  With A_a = dT(mprime[a]) and B_a = A_a^dagger, the one
series built per model is the coherent covector field, in the sum chart

    omega(z) = e0^dagger exp(sum_a z_a B_a)   (row, polynomial entries),

and in the product chart with the adjoint factors of exp(z_1 A_1) ...
exp(z_n A_n) in reversed order.  It terminates (the chart directions are
nilpotent on the orbit of e0).  It is built as one coefficient array C,
omega(z) = sum_m z^m c_m with column c_m of C the Fock-space component at
z^m, and the rest is read from C: a symbol F_psi = omega . psi has the
coefficients psi @ C; the coherent vector E(z) = exp(sum_a z_a A_a) e0
(resp. the ordered product) has conj(C), so E(conj w) = conj(omega(w))
and every stored object is holomorphic in z; the kernel polynomial

    K(z, w) = sum_k omega_k(z) E_k(w)

in 2n variables has C.T @ conj(C), and is evaluated at w = conj(point)
when a sesquilinear pairing is wanted.
Group elements act on covectors by right multiplication, omega(z) g =
J(g, z) omega(g.z); with that convention the composite of g1 and g2 (g2
acting first) is the matrix product g2 @ g1, applied as g2 and then g1
acting on the rows.  An element exp(A) may also be given by its generator,
:class:`Exp`, acting by :func:`act` without its matrix being formed; both
kinds act through :func:`_apply`.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg

from .algebra import AlgebraElement, OrbitModel, _validation_metrics, derived_matrix
from .errors import (
    DegeneratePointError,
    ModelStructureError,
    ModelValidationError,
    PointOffOrbitError,
    PolarDivisorError,
    TruncationWarning,
)
from .polyops import PolyEntries, collect, prune

EXTRACT_TOL = 1e-10
POLAR_TOL = 1e-12


def _exp_series(model: OrbitModel, mats: Sequence[np.ndarray]) -> PolyEntries:
    """e0^T exp(sum_a z_a mats[a]) (sum chart) or e0^T exp(z_n mats[n]) ...
    exp(z_1 mats[1]) (product chart) as one array.  The order-k term maps
    each monomial's coefficient row to row @ mats[a] / k at that monomial
    times z_a, summed over the factors.  Beside each coefficient the series
    sums the magnitudes |row| @ |mats[a]| / k it adds up, and drops the
    coefficient when it is at most ``polyops.SERIES_ULPS`` ulps of them, which
    removes cancellation residue but keeps a small term such as heisenberg's
    1 / sqrt(k!).  It ends because each matrix strictly shifts the weight
    level."""
    n, d = model.n, model.dim_rep
    sizes = [np.abs(m) for m in mats]
    expos, rows = np.zeros((1, n), dtype=int), np.eye(1, d, model.e0_index, dtype=complex)
    for group in filter(None, [range(n)] if model.chart == "sum" else [[a] for a in reversed(range(n))]):
        terms, factors = [(expos, rows)], np.eye(n, dtype=int)[list(group)]
        for order in range(1, d + 2):
            term_e, term_r = terms[-1]
            # a vector-matrix product per monomial and factor, row by row, times
            # 1 / order rather than divided by it: the recorded reports were so
            products = np.concatenate([(term_r[:, None, :] @ mats[a])[:, 0] for a in group]) * (1.0 / order)
            magnitudes = np.concatenate([np.abs(term_r) @ sizes[a] for a in group]) * (1.0 / order)
            if len(group) == 1:  # each monomial moves to its own, in sorted order; + 0j clears signed zeros
                term_e, term_r, term_m = term_e + factors[0], products + 0j, magnitudes
            else:  # pairs[k, a, m]: component k of factor a's product at monomial m
                pairs = lambda p: p.T.reshape(d, len(group), len(term_e))
                term_e, term_r, term_m = collect(factors, term_e, pairs(products), pairs(magnitudes))
                term_r, term_m = term_r.T, term_m.T
            prune(term_r, term_m)
            kept = term_r.any(axis=1)
            if not kept.any():
                break
            if order > d:
                raise ModelValidationError("coherent series does not terminate within the representation dimension")
            terms.append((term_e[kept], term_r[kept]))
        expos, rows = (np.concatenate(part) for part in zip(*terms))
    expos, sort = np.unique(expos, axis=0, return_index=True)  # sorted lexicographically
    return PolyEntries(expos, np.ascontiguousarray(rows[sort].T))


# -- chart functionals -------------------------------------------------------
#
# For each chart direction alpha let A_a = dT(mprime[a]) and B_a = A_a^dagger.
# The covector field omega(z) = e0^dagger exp(sum_a z_a B_a) starts as
# e0^dagger + sum_a z_a c_a + (higher order), with c_a = e0^dagger B_a.  The
# functionals phi_a below are dual to {c_a} within span{e0^dagger, c_1..c_n},
# so phi_a(omega(z)) = z_a + (a polynomial in strictly lower-grade
# coordinates).  That triangular structure is what coordinate extraction and
# its validation rely on.


class DerivedData:
    """Everything the package derives from one model, each part built on
    first use: the chart matrices and functionals, the validation metrics,
    the series omega, E read from omega, and the kernel polynomial.
    ``OrbitModel.derived`` owns one, so it lives exactly as long as the model."""

    def __init__(self, model: OrbitModel):
        self.model = model

    @cached_property
    def chart(self) -> tuple:
        """(A, B, e0_row, phi, lowering_images): the chart matrices A_a and
        B_a, the extremal row, the d x n functionals phi and the columns
        A_a e0."""
        model = self.model
        d = model.dim_rep
        A = [derived_matrix(model, x) for x in model.mprime]
        B = [a.conj().T for a in A]
        e0_row = np.zeros(d, dtype=complex)
        e0_row[model.e0_index] = 1.0
        rows = [e0_row] + [b[model.e0_index, :] for b in B]
        dual = np.linalg.pinv(np.array(rows))  # d x (n+1); columns 1.. are the phi functionals
        lowering_images = np.column_stack([a[:, model.e0_index] for a in A]) if A else np.zeros((d, 0))
        return tuple(A), tuple(B), e0_row, dual[:, 1:], lowering_images

    @cached_property
    def validation(self) -> dict[str, float]:
        """The metrics that ``algebra.validate_model`` bounds."""
        return _validation_metrics(self.model)

    @cached_property
    def grade_steps(self) -> tuple[list[int], ...]:
        """The chart directions grouped by grade, in increasing grade: the
        order in which coordinate extraction solves for them."""
        grading = self.model.grading
        return tuple([a for a in range(self.model.n) if grading[a] == g] for g in sorted(set(grading)))

    @cached_property
    def grade_one(self) -> np.ndarray:
        """The functionals phi_a of the lowest-grade directions, (d, k): the
        coordinates the polar guard of coordinate extraction reads."""
        return self.chart[3][:, self.grade_steps[0] if self.grade_steps else []]

    @cached_property
    def covector(self) -> PolyEntries:
        """omega: the chart series over the B_a, e0^dagger exp(sum_a z_a
        B_a) for the sum chart and e0^dagger exp(z_n B_n) ... exp(z_1 B_1)
        for the product chart."""
        return _exp_series(self.model, self.chart[1])

    @cached_property
    def vector(self) -> PolyEntries:
        """E: omega's array conjugated, the series over conj(B_a) = A_a.T.
        Points read omega instead, E(conj w) being conj(omega(w))."""
        return PolyEntries(self.covector.exponents, np.conj(self.covector.coeffs))

    @cached_property
    def kernel(self) -> PolyEntries:
        """K(z, w) as one row in 2n variables: its coefficient at z^e w^f is
        entry (e, f) of C.T @ conj(C), pruned against |C|.T @ |C| as the
        series is."""
        expos, C = self.covector.exponents, self.covector.coeffs
        K = C.T @ np.conj(C)
        prune(K, np.abs(C).T @ np.abs(C))
        i, j = np.nonzero(K)
        return PolyEntries(np.hstack([expos[i], expos[j]]), K[i, j][None])


def coherent_vector(model: OrbitModel) -> PolyEntries:
    """E(z) = exp(sum_a z_a A_a) e0 as an exact finite series, read from
    omega's entries by conjugating their coefficients."""
    return model.derived.vector


def coherent_covector(model: OrbitModel) -> PolyEntries:
    """omega(z), the row series over B_a = A_a^dagger matching the model's
    chart; the one series built per model."""
    return model.derived.covector


def kernel(model: OrbitModel) -> PolyEntries:
    """K(z, w) = sum_k omega_k(z) E_k(w) in 2n variables, for display; its
    values come from :func:`kernel_eval`."""
    return model.derived.kernel


def kernel_eval(model: OrbitModel, z: Sequence[complex], w: Sequence[complex]) -> complex:
    """Evaluate K at chart points: the second point enters conjugated.

    Computed as the defining sum omega(z) . E(conj w) = omega(z) .
    conj(omega(w)) on omega's array, which is how every kernel value in
    the package is evaluated; the polynomial ``kernel(model)`` expands the
    same sum.  A value that overflows raises :class:`DegeneratePointError`."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    if z.shape[0] != model.n or w.shape[0] != model.n:
        raise ModelStructureError(f"expected two points with {model.n} coordinates")
    omega = coherent_covector(model)
    with np.errstate(all="ignore"):
        at_z = omega.eval(z)
        val = complex(at_z @ np.conj(at_z if z.tobytes() == w.tobytes() else omega.eval(w)))
    if not cmath.isfinite(val):
        raise DegeneratePointError(f"kernel value at z = {z.tolist()}, w = {w.tolist()} is not finite: {val}")
    return val


def normalization(model: OrbitModel, z: Sequence[complex]) -> float:
    """K(z, conj z)^(-1/2); the norm factor relating the coherent vector to
    its unit-length representative."""
    val = kernel_eval(model, z, z)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise DegeneratePointError(f"kernel diagonal not real at {z}: {val}")
    if val.real <= 0:
        raise DegeneratePointError(
            f"kernel diagonal nonpositive at {z}: {val.real} (truncation artifact)"
        )
    return float(val.real) ** -0.5


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of a complex (N, k) stack, computed as
    ``np.linalg.norm`` computes one vector (a real and an imaginary dot
    product per row), so each is bit for bit the one-row value."""
    dot = lambda r: (r[:, None, :] @ r[:, :, None])[:, 0, 0]
    return np.sqrt(dot(x.real) + dot(x.imag))


def _on_polar_divisor(model: OrbitModel, v: np.ndarray, mu) -> np.ndarray:
    """True where a covector (or each row of a stack) lies on the polar
    divisor of the base point: mu = 0, or a grade-one coordinate
    phi_a(v) / mu beyond 1 / POLAR_TOL.  Measured against those
    coordinates rather than against max|v|, which grows with the orbit
    (to 2.8e15 |mu| at ordinary points of su2 j = 100)."""
    low = np.abs(v[..., None, :] @ model.derived.grade_one)[..., 0, :]
    return (mu == 0) | (np.max(low, axis=-1, initial=0.0) > np.abs(mu) / POLAR_TOL)


def extract_coordinates(model: OrbitModel, v: Sequence[complex] | np.ndarray) -> tuple[complex | np.ndarray, np.ndarray]:
    """Graded triangular solve of v = mu * omega(z).

    mu is read off the extremal component; a covector on the polar divisor
    (see :func:`_on_polar_divisor`) raises :class:`PolarDivisorError`.  Chart
    directions are processed in increasing grading; at grade g the
    functional phi_a applied to omega(z) equals z_a plus a polynomial in the
    already-determined lower-grade coordinates, so each coordinate costs one
    linear step with a polynomial correction.  The residual
    |v - mu omega(z)| <= EXTRACT_TOL |v| is verified afterwards; for
    truncated models it is measured on the artifact-free block and the
    threshold is widened by the magnitude carried in the artifact zone,
    since group motion legitimately leaks truncation tails downward and a
    mismatch below that scale cannot be distinguished from truncation error.

    ``v`` is one covector (d,), giving (mu, z), or a stack (..., d), giving
    (mu, z) of shapes (...) and (..., n): one table evaluation per grade for
    the whole stack, each row bit for bit the one-covector result.  If any
    row fails, the first failing row in C order raises its one-covector
    error, read from the numbers the stack already holds.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim >= 2:
        mu, z = _extract_stack(model, v.reshape(-1, v.shape[-1]))
        return mu.reshape(v.shape[:-1]), z.reshape(*v.shape[:-1], model.n)
    v = v.reshape(-1)
    if v.shape[0] != model.dim_rep:
        raise ModelStructureError(f"covector length {v.shape[0]} != dim_rep {model.dim_rep}")
    mu = v[model.e0_index]
    with np.errstate(all="ignore"):  # a covector that is not finite fails the residual test
        polar = _on_polar_divisor(model, v, mu)
        W = v / mu
        phi = model.derived.chart[3]
        omega = coherent_covector(model)
        z = np.zeros(model.n, dtype=complex)
        for step, active in enumerate(model.derived.grade_steps):
            partial = omega.coeffs[:, 0] if step == 0 else omega.eval(z)  # omega(0) is its constant column
            for a in active:
                z[a] = (W - partial) @ phi[:, a]
        block = model.rep.block_dim
        rnorm = float(np.linalg.norm(v[:block] - mu * omega.eval(z)[:block]))
        threshold = EXTRACT_TOL * float(np.linalg.norm(v[:block])) + float(np.linalg.norm(v[block:]))
    if polar or not rnorm <= threshold:  # a NaN residual fails too
        raise _extraction_error(polar, rnorm, threshold)
    return mu, z


def _extraction_error(polar: bool, rnorm: float, threshold: float) -> PolarDivisorError | PointOffOrbitError:
    """The error of a rejected covector: on the polar divisor, or with residual ``rnorm`` above ``threshold``."""
    if polar:
        return PolarDivisorError("covector lies on the polar divisor of the base point")
    return PointOffOrbitError(f"extraction residual {rnorm:.3e} exceeds {threshold:.3e}; covector is not on the orbit")


def _extract_stack(model: OrbitModel, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stacked form of :func:`extract_coordinates`.  Every product is
    taken row by row in the shape the one-covector path uses (a row with
    ``[:, None, :] @``, a functional on phi's strided column), which keeps
    each row bit for bit the one-covector result, polar test, residual and threshold included."""
    if V.shape[1] != model.dim_rep:
        raise ModelStructureError(f"covector length {V.shape[1]} != dim_rep {model.dim_rep}")
    mu = V[:, model.e0_index]
    phi = model.derived.chart[3]
    omega = coherent_covector(model)
    Z = np.zeros((len(V), model.n), dtype=complex)
    with np.errstate(all="ignore"):
        polar = _on_polar_divisor(model, V, mu)
        # polar rows are rejected below; dividing them by 1 keeps them finite
        W = V / np.where(polar, 1, mu)[:, None]
        for step, active in enumerate(model.derived.grade_steps):
            D = (W - (omega.coeffs[:, 0] if step == 0 else omega.eval(Z)))[:, None, :]
            for a in active:
                Z[:, a] = (D @ phi[:, a][:, None])[:, 0, 0]
        block = model.rep.block_dim
        rnorm = _row_norms(V[:, :block] - mu[:, None] * omega.eval(Z)[:, :block])
        threshold = EXTRACT_TOL * _row_norms(V[:, :block]) + _row_norms(V[:, block:])
    for k in np.flatnonzero(polar | ~(rnorm <= threshold))[:1]:
        raise _extraction_error(polar[k], rnorm[k], threshold[k])
    return mu, Z


@dataclass(frozen=True)
class Exp:
    """The group element exp(A) by its generator, one (d, d) matrix or an
    (N, d, d) stack, applied to rows by :func:`act` without being formed."""

    A: np.ndarray


def act(rows: np.ndarray, A: np.ndarray) -> np.ndarray:
    """rows @ exp(A) for (..., d) rows (or one row) and one (d, d)
    generator, or a stack of generators broadcast over the rows' leading
    shape, such as (N, d, d) row by row or (G, 1, d, d) on (G, N, d) rows;
    each row is bit for bit its one-row result.  A Taylor series (Al-Mohy
    and Higham, SIAM J. Sci. Comput. 33, 2011): with s the 1-norm of
    v -> v @ A (A's largest absolute row sum) rounded up, exp(A / s) is
    applied s times, each summed until every row's term is at most one ulp
    of its sum (in its largest real or imaginary part); so the work grows
    with s."""
    return _act(rows, A, np.ones(1))[..., 0, :]


def _act(rows: np.ndarray, A: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """rows @ exp(c A) for each signed power of two c of ``scales``,
    (..., S, d), each bit for bit :func:`act` of c A (barring subnormal
    terms).  When every c A takes one step (|c| s <= 1), the k-th term of
    c A is exactly c^k times A's, as every product and the division by k
    scale exactly, so one chain of terms serves all S sums, each with its
    own stop test.  Otherwise each c A acts as its own generator."""
    rows, A = np.asarray(rows, dtype=complex), np.asarray(A, dtype=complex)
    norms = np.abs(A).sum(axis=-1).max(axis=-1, initial=0.0)
    if not np.all(np.isfinite(norms)):
        raise ValueError("generator is not finite")
    if len(scales) > 1 and np.max(np.abs(scales)) * np.max(norms, initial=0.0) > 1:
        rows = np.broadcast_to(rows[..., None, :], (*rows.shape[:-1], len(scales), rows.shape[-1]))
        return _act(rows, scales[:, None, None] * A[..., None, :, :], np.ones(1))[..., 0, :]
    steps = np.broadcast_to(np.ceil(np.maximum(norms, 1.0)), rows.shape[:-1])
    size = lambda v: np.max(np.abs(v.view(float)), axis=-1)  # the largest real or imaginary part
    out = np.repeat(rows[..., None, :], len(scales), axis=-2)
    for step in range(int(steps.max(initial=0))):  # one step unless there is one scale
        term, total, power, k = out[..., 0, :], out.copy(), np.ones(len(scales)), 0
        going = np.repeat((steps > step)[..., None], len(scales), axis=-1)
        while going.any():
            k += 1
            # row by row, in the shape one row alone takes
            term = (term[..., None, :] @ A)[..., 0, :] / (k * steps)[..., None]
            power *= scales
            scaled = (term.view(float)[..., None, :] * power[:, None]).view(complex)  # c^k times the term
            np.add(total, scaled, out=total, where=going[..., None])
            going &= np.abs(power) * size(term)[..., None] > np.finfo(float).eps * size(total)
        out = total
    return out


def _apply(rows: np.ndarray, g: np.ndarray | Exp) -> np.ndarray:
    """rows @ g for one (d,) row or (..., N, d) rows, with g one element or
    one per row of the last stack axis, (N, d, d): matrices multiply each
    row alone, generators (:class:`Exp`) act by :func:`act`."""
    A = np.asarray(g.A if isinstance(g, Exp) else g, dtype=complex)
    d = rows.shape[-1]
    if A.shape not in ((d, d), (*rows.shape[-2:-1], d, d)):
        raise ModelStructureError(f"group element of shape {A.shape} is not {d} x {d} or one such per row of {rows.shape[:-1]}")
    return act(rows, A) if isinstance(g, Exp) else (rows[..., None, :] @ A)[..., 0, :]


def moved_covector(model: OrbitModel, g: np.ndarray | Exp, z: Sequence[complex] | np.ndarray) -> np.ndarray:
    """omega(z) g for one point (n,), a scalar when n = 1, or an (N, n)
    stack, giving one covector or an (N, d) stack (see :func:`_apply`)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.ndim > 2 or z.shape[-1] != model.n:
        raise ModelStructureError(f"points of shape {z.shape} are not one point or a stack of points with {model.n} coordinates")
    return _apply(coherent_covector(model).eval(z), g)


def group_action(
    model: OrbitModel, g: np.ndarray | Exp, z: Sequence[complex] | np.ndarray
) -> tuple[complex | np.ndarray, np.ndarray]:
    """Transform a chart point by a group element given as its d x d
    representation matrix, or as its generator (:class:`Exp`):
    omega(z) g = J omega(z'), returning (J, z').

    J is the multiplier (cocycle) value; composites obey
    J(g1 o g2, z) = J(g1, g2.z) J(g2, z) with g1 o g2 (g2 acting first)
    being g2 and then g1 acting on the rows (covectors are acted on from the right).

    ``z`` may also be a stack of points (N, n), acted on by one element
    ``g`` or row by row by a stack (N, d, d); the result is (J, z') of
    shapes (N,) and (N, n), each row bit for bit the one-point result, and
    an error is the one-point error of the first failing row (see
    :func:`extract_coordinates`).
    """
    return extract_coordinates(model, moved_covector(model, g, z))


def group_element(model: OrbitModel, x: AlgebraElement, t: complex = 1.0) -> np.ndarray:
    """Representation matrix exp(t dT(x)): one-parameter subgroup element."""
    return scipy.linalg.expm(complex(t) * derived_matrix(model, x))


def _kernel_scale(model: OrbitModel, z: np.ndarray, w: np.ndarray) -> float:
    """The largest term |K_ef z^e conj(w)^f| of the kernel polynomial at
    (z, conj w)."""
    K, at = kernel(model), np.abs(np.concatenate([z, w]))
    return float(np.max(np.abs(K.coeffs[0]) * np.prod(at**K.exponents, axis=1), initial=0.0))


def polar_check(
    model: OrbitModel, z: Sequence[complex], w: Sequence[complex], tol: float = POLAR_TOL
) -> bool:
    """True iff w lies on the polar divisor of z, i.e. K(z, conj w) vanishes
    relative to the largest kernel term at the evaluation point."""
    val = abs(kernel_eval(model, z, w))
    z = np.asarray(z, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    scale = _kernel_scale(model, z, w)
    hit = bool(val < tol * max(scale, tol))
    if hit and model.rep.truncated:
        warnings.warn(
            "kernel zero found on a truncated model; it may be a truncation artifact",
            TruncationWarning,
            stacklevel=2,
        )
    return hit
