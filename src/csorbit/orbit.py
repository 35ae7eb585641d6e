"""Symbolic coherent-state vectors, the reproducing kernel on the orbit,
coordinate extraction, and the group action with its multiplier.

Conventions.  With A_a = dT(mprime[a]) and B_a = A_a^dagger, the coherent
vector and covector fields in the sum chart are

    E(z)     = exp(sum_a z_a A_a) e0          (column, polynomial entries)
    omega(z) = e0^dagger exp(sum_a z_a B_a)   (row, polynomial entries)

and in the product chart E(z) = exp(z_1 A_1) ... exp(z_n A_n) e0 with
omega carrying the adjoint factors in reversed order.  Both are exact
terminating series (the chart directions are nilpotent on the orbit of
e0).  Entrywise, omega_k(z) equals E_k(z) with conjugated coefficients, so
every stored object is holomorphic in z.  The kernel is the polynomial in
2n variables

    K(z, w) = sum_k omega_k(z) E_k(w),

to be evaluated at w = conj(point) when a sesquilinear pairing is wanted.
Group elements act on covectors by right multiplication, omega(z) g =
J(g, z) omega(g.z); with that convention the composite of g1 and g2 (g2
acting first) is the matrix product g2 @ g1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg

from .algebra import AlgebraElement, OrbitModel, covector_numeric, derived_matrix
from .errors import (
    DegeneratePointError,
    ModelStructureError,
    ModelValidationError,
    PointOffOrbitError,
    PolarDivisorError,
    TruncationWarning,
)
from .polyops import DenseTable, MultiPoly

EXTRACT_TOL = 1e-10
POLAR_TOL = 1e-12


@dataclass(eq=False)
class _PolyEntries:
    """One polynomial per representation basis entry."""

    entries: tuple[MultiPoly, ...]

    @cached_property
    def table(self) -> DenseTable:
        """The entries as a dense coefficient table for evaluation at
        points; built on first use, so symbolic-only paths never build it."""
        return DenseTable(self.entries)


class PolyVector(_PolyEntries):
    """Coherent vector E(z).  The entry at the extremal index is identically 1."""


class PolyCovector(_PolyEntries):
    """Coherent covector omega(z); pairing omega(z) . psi is the symbol of
    psi.  The entry at the extremal index is identically 1."""


@dataclass(eq=False)
class KernelPoly:
    """Reproducing kernel as a polynomial in (z_1..z_n, w_1..w_n), the w
    block standing for conjugated coordinates of the second point."""

    poly: MultiPoly
    n: int


def _apply_matrix(M: np.ndarray, vec: list[MultiPoly], n: int) -> list[MultiPoly]:
    d = len(vec)
    out = []
    for kk in range(d):
        col = MultiPoly.zero(n)
        for ii in range(d):
            if M[kk, ii] != 0 and not vec[ii].is_zero():
                col = col + M[kk, ii] * vec[ii]
        out.append(col)
    return out


def _exp_factor(model: OrbitModel, M: np.ndarray, var: int, vec: list[MultiPoly]) -> list[MultiPoly]:
    """exp(z_var M) applied to a symbolic vector, as a terminating series."""
    n = model.n
    d = model.dim_rep
    za = MultiPoly.variable(n, var)
    entries = list(vec)
    term = list(vec)
    for order in range(1, d + 2):
        term = [(1.0 / order) * (za * t) for t in _apply_matrix(M, term, n)]
        if all(t.is_zero() for t in term):
            break
        if order > d:
            raise ModelValidationError(
                "coherent series does not terminate within the representation dimension"
            )
        entries = [e + t for e, t in zip(entries, term)]
    return entries


def _series(model: OrbitModel, mats: Sequence[np.ndarray], start: np.ndarray) -> tuple[MultiPoly, ...]:
    """Symbolic chart series applied to a start vector: the single
    exponential of sum_a z_a M_a for the sum chart, the ordered product
    exp(z_1 M_1) ... exp(z_n M_n) (rightmost factor first) for the product
    chart.  Terminates because each M_a strictly shifts the weight level.
    """
    n = model.n
    d = model.dim_rep
    entries = [
        MultiPoly.constant(n, start[k]) if start[k] != 0 else MultiPoly.zero(n)
        for k in range(d)
    ]
    if model.chart == "product":
        for a in range(n - 1, -1, -1):
            entries = _exp_factor(model, mats[a], a, entries)
        return tuple(entries)
    term = list(entries)
    for order in range(1, d + 2):
        nxt = [MultiPoly.zero(n) for _ in range(d)]
        for a in range(n):
            za = MultiPoly.variable(n, a)
            applied = _apply_matrix(mats[a], term, n)
            for kk in range(d):
                if not applied[kk].is_zero():
                    nxt[kk] = nxt[kk] + (1.0 / order) * (za * applied[kk])
        term = nxt
        if all(t.is_zero() for t in term):
            break
        if order > d:
            raise ModelValidationError(
                "coherent series does not terminate within the representation dimension"
            )
        entries = [e + t for e, t in zip(entries, term)]
    return tuple(entries)


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
    first use: the chart matrices and functionals, the coherent vector E and
    covector omega (see :func:`coherent_vector`, :func:`coherent_covector`)
    with their dense tables, and the kernel polynomial.  ``OrbitModel.derived``
    owns one, so it lives exactly as long as the model."""

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
    def vector(self) -> PolyVector:
        A, _, e0_row, _, _ = self.chart
        return PolyVector(_series(self.model, A, e0_row))

    @cached_property
    def covector(self) -> PolyCovector:
        _, B, e0_row, _, _ = self.chart
        return PolyCovector(_series(self.model, [b.T for b in B], e0_row))  # row @ B == B.T @ column

    @cached_property
    def kernel(self) -> KernelPoly:
        n = self.model.n
        total = MultiPoly.zero(2 * n)
        for ok, ek in zip(self.covector.entries, self.vector.entries):
            if not (ok.is_zero() or ek.is_zero()):
                total = total + ok.embed(2 * n, 0) * ek.embed(2 * n, n)
        return KernelPoly(total, n)


def coherent_vector(model: OrbitModel) -> PolyVector:
    """E(z) = exp(sum_a z_a A_a) e0 as an exact finite series."""
    return model.derived.vector


def coherent_covector(model: OrbitModel) -> PolyCovector:
    """Row series over B_a = A_a^dagger matching the model's chart, so that
    omega_k(z) = conj-coefficients of E_k(z) holds entrywise."""
    return model.derived.covector


def kernel(model: OrbitModel) -> KernelPoly:
    """K(z, w) = sum_k omega_k(z) E_k(w) in 2n variables, for display; its
    values come from :func:`kernel_eval`."""
    return model.derived.kernel


def kernel_eval(model: OrbitModel, z: Sequence[complex], w: Sequence[complex]) -> complex:
    """Evaluate K at chart points: the second point enters conjugated.

    Computed from the kernel's defining sum omega(z) . E(conj w) on the
    dense tables, which is how every kernel value in the package is
    evaluated.  The polynomial ``kernel(model)`` expands the same sum but
    drops each product coefficient below ``polyops.PRUNE_TOL``: on
    heisenberg with ``trunc >= 17`` the terms (z conj w)^k / k! for
    k = 17..26, about 1e-6 relative at |z| = |w| = 2."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    if z.shape[0] != model.n or w.shape[0] != model.n:
        raise ModelStructureError(f"expected two points with {model.n} coordinates")
    omega = coherent_covector(model).table.eval(z)
    return complex(omega @ coherent_vector(model).table.eval(np.conj(w)))


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


def extract_coordinates(
    model: OrbitModel, v: Sequence[complex], tol: float = EXTRACT_TOL
) -> tuple[complex, np.ndarray]:
    """Graded triangular solve of v = mu * omega(z).

    mu is read off the extremal component.  Chart directions are processed
    in increasing grading; at grade g the functional phi_a applied to
    omega(z) equals z_a plus a polynomial in the already-determined
    lower-grade coordinates, so each coordinate costs one linear step with
    a polynomial correction.  The residual |v - mu omega(z)| <= tol |v| is
    verified afterwards; for truncated models it is measured on the
    artifact-free block and the threshold is widened by the magnitude
    carried in the artifact zone, since group motion legitimately leaks
    truncation tails downward and a mismatch below that scale cannot be
    distinguished from truncation error.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape[0] != model.dim_rep:
        raise ModelStructureError(f"covector length {v.shape[0]} != dim_rep {model.dim_rep}")
    scale = float(np.max(np.abs(v)))
    mu = v[model.e0_index]
    if scale == 0.0 or abs(mu) <= POLAR_TOL * scale:
        raise PolarDivisorError("covector lies on the polar divisor of the base point")
    W = v / mu
    phi = model.derived.chart[3]
    omega = coherent_covector(model).table
    z = np.zeros(model.n, dtype=complex)
    for g in sorted(set(model.grading)):
        active = [a for a in range(model.n) if model.grading[a] == g]
        partial = omega.eval(z)
        for a in active:
            z[a] = (W - partial) @ phi[:, a]
    block = model.rep.block_dim
    resid = v[:block] - mu * omega.eval(z)[:block]
    rnorm = float(np.linalg.norm(resid))
    threshold = tol * float(np.linalg.norm(v[:block])) + float(np.linalg.norm(v[block:]))
    if rnorm > threshold:
        raise PointOffOrbitError(
            f"extraction residual {rnorm:.3e} exceeds {threshold:.3e}; "
            "covector is not on the orbit"
        )
    return mu, z


def group_action(
    model: OrbitModel, g: np.ndarray, z: Sequence[complex]
) -> tuple[complex, np.ndarray]:
    """Transform a chart point by a group element given as its d x d
    representation matrix: omega(z) g = J omega(z'), returning (J, z').

    J is the multiplier (cocycle) value; composites obey
    J(g1 o g2, z) = J(g1, g2.z) J(g2, z) when the composite g1 o g2 is the
    matrix product g2 @ g1 (covectors are acted on from the right).
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (model.dim_rep, model.dim_rep):
        raise ModelStructureError(f"group element must be {model.dim_rep} x {model.dim_rep}")
    row = covector_numeric(model, z) @ g
    return extract_coordinates(model, row)


def group_element(model: OrbitModel, x: AlgebraElement, t: complex = 1.0) -> np.ndarray:
    """Representation matrix exp(t dT(x)): one-parameter subgroup element."""
    return scipy.linalg.expm(complex(t) * derived_matrix(model, x))


def polar_check(
    model: OrbitModel, z: Sequence[complex], w: Sequence[complex], tol: float = POLAR_TOL
) -> bool:
    """True iff w lies on the polar divisor of z, i.e. K(z, conj w) vanishes
    relative to the largest kernel term at the evaluation point."""
    val = abs(kernel_eval(model, z, w))
    z = np.asarray(z, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    point = list(z) + list(np.conj(w))
    scale = 0.0
    for expo, coeff in kernel(model).poly.terms.items():
        mag = abs(coeff)
        for pi, ei in zip(point, expo):
            if ei:
                mag *= abs(pi) ** ei
        scale = max(scale, mag)
    hit = bool(val < tol * max(scale, tol))
    if hit and model.rep.truncated:
        warnings.warn(
            "kernel zero found on a truncated model; it may be a truncation artifact",
            TruncationWarning,
            stacklevel=2,
        )
    return hit
