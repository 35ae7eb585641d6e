"""Sparse multivariate polynomials over complex coefficients, and the algebra
of first-order holomorphic differential operators built from them.

Exponents are tuples of nonnegative ints of length ``nvars``.  Coefficients
with magnitude below ``PRUNE_TOL`` are dropped on construction so that degree
queries and rendered output stay stable against cancellation residue.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

PRUNE_TOL = 1e-14

# Target size in bytes of each temporary in a stacked DenseTable.eval.
_BLOCK_BYTES = 64 * 1024


class MultiPoly:
    """Sparse polynomial in ``nvars`` complex variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, complex] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = int(nvars)
        acc: dict[tuple[int, ...], complex] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.nvars:
                raise ValueError(f"exponent {expo} does not match nvars={self.nvars}")
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            acc[expo] = acc.get(expo, 0j) + complex(coeff)
        self.terms = {e: c for e, c in acc.items() if not abs(c) < PRUNE_TOL}  # keeps NaN

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: complex) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        expo = tuple(1 if k == i else 0 for k in range(nvars))
        return cls(nvars, {expo: 1.0})

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        self._check_compatible(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0j) + c
        return MultiPoly(self.nvars, acc)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return MultiPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check_compatible(other)
        acc: dict[tuple[int, ...], complex] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, 0j) + c1 * c2
        return MultiPoly(self.nvars, acc)

    def __rmul__(self, other):
        return self * other

    # -- calculus and queries ----------------------------------------------

    def partial(self, i: int) -> "MultiPoly":
        """Partial derivative with respect to variable ``i``."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        acc = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                key = tuple(v - 1 if k == i else v for k, v in enumerate(e))
                acc[key] = acc.get(key, 0j) + c * e[i]
        return MultiPoly(self.nvars, acc)

    def degree(self) -> int:
        """Total degree after pruning; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __abs__(self) -> "MultiPoly":
        """Same monomials, coefficient magnitudes."""
        return MultiPoly(self.nvars, {e: abs(c) for e, c in self.terms.items()})

    def eval(self, point: Sequence[complex]) -> complex:
        """Evaluate at a point; terms are summed in lexicographic exponent order."""
        if len(point) != self.nvars:
            raise ValueError(f"point length {len(point)} does not match nvars={self.nvars}")
        z = [complex(v) for v in point]
        out = 0j
        for e in sorted(self.terms):
            val = self.terms[e]
            for zi, ei in zip(z, e):
                if ei:
                    val *= zi**ei
            out += val
        return out

    def __repr__(self):
        return f"MultiPoly({render_poly(self)})"


class DenseTable:
    """A non-empty vector of polynomials in the same variables as one dense
    coefficient matrix over a shared exponent table: entry k is
    sum_m coeffs[k, m] * z^exponents[m].

    ``exponents`` is an (M, nvars) int array of the monomials used by any
    entry, sorted lexicographically, and ``coeffs`` the C-contiguous (d, M)
    complex matrix; both are used as given.  Evaluating at a point is one
    gather from a table of coordinate powers and one matrix-vector product,
    instead of a sparse loop per entry.

    A stack of points is evaluated in blocks of rows into one (N, d)
    output, sized so that each temporary (power table, gathered monomials,
    product) is at most about ``_BLOCK_BYTES`` however many points there
    are.  Temporaries that small are reused from the heap; one per stack
    would be megabytes at the quadrature checks' 4,096 nodes, a fresh
    mapping whose pages fault in again on every call.
    """

    __slots__ = ("nvars", "exponents", "coeffs", "_block_rows", "_powers")

    def __init__(self, exponents: np.ndarray, coeffs: np.ndarray):
        self.nvars = exponents.shape[1]
        self.exponents = exponents
        self.coeffs = coeffs
        top = int(exponents.max()) if exponents.size else 0
        self._powers = np.arange(top + 1)
        # complex entries per point of the largest temporary
        row_items = max(self.nvars * (top + 1), exponents.size, len(coeffs))
        self._block_rows = max(1, _BLOCK_BYTES // (16 * row_items))

    @classmethod
    def from_polys(cls, polys: Sequence[MultiPoly]) -> "DenseTable":
        """The table of a non-empty sequence of polynomials."""
        expos = sorted({e for p in polys for e in p.terms})
        column = {e: m for m, e in enumerate(expos)}
        coeffs = np.zeros((len(polys), len(expos)), dtype=complex)
        for k, p in enumerate(polys):
            for e, c in p.terms.items():
                coeffs[k, column[e]] = c
        return cls(np.array(expos, dtype=int).reshape(len(expos), polys[0].nvars), coeffs)

    def eval(self, points: Sequence[complex] | np.ndarray) -> np.ndarray:
        """All entries at one point, (nvars,) -> (d,), or at each of a stack
        of points, (N, nvars) -> (N, d).  A row of a stack is bit for bit
        the value at that point alone."""
        z = np.asarray(points, dtype=complex)
        if z.ndim not in (1, 2) or z.shape[-1] != self.nvars:
            raise ValueError(f"points of shape {z.shape} do not have nvars={self.nvars} coordinates")
        if z.ndim == 1:
            return self._eval(z)
        out = np.empty((len(z), len(self.coeffs)), dtype=complex)
        for start in range(0, len(z), self._block_rows):
            stop = start + self._block_rows
            out[start:stop] = self._eval(z[start:stop])
        return out

    def _eval(self, z: np.ndarray) -> np.ndarray:
        powers = z[..., None] ** self._powers  # powers[..., i, e] = z_i^e
        # gathered contiguously and contracted point by point, so that a
        # stack is multiplied and summed in the same order as one point
        monomials = np.ascontiguousarray(powers[..., np.arange(self.nvars), self.exponents]).prod(axis=-1)
        return (self.coeffs @ monomials[..., None])[..., 0]


def max_coeff_diff(p: MultiPoly, q: MultiPoly) -> float:
    """Max absolute coefficient difference over the union of supports."""
    p._check_compatible(q)
    keys = set(p.terms) | set(q.terms)
    return max((abs(p.terms.get(e, 0j) - q.terms.get(e, 0j)) for e in keys), default=0.0)


class DiffOp1:
    """First-order operator  f -> P*f + sum_i Q[i]*df/dz_i."""

    __slots__ = ("P", "Q")

    def __init__(self, P: MultiPoly, Q: Iterable[MultiPoly]):
        self.P = P
        self.Q = tuple(Q)
        for q in self.Q:
            if q.nvars != P.nvars:
                raise ValueError("all component polynomials must share nvars")
        if len(self.Q) != P.nvars:
            raise ValueError(f"expected {P.nvars} derivative components, got {len(self.Q)}")

    @property
    def nvars(self) -> int:
        return self.P.nvars

    @classmethod
    def zero(cls, nvars: int) -> "DiffOp1":
        return cls(MultiPoly.zero(nvars), [MultiPoly.zero(nvars) for _ in range(nvars)])

    def __add__(self, other: "DiffOp1") -> "DiffOp1":
        return DiffOp1(self.P + other.P, [a + b for a, b in zip(self.Q, other.Q)])

    def __sub__(self, other: "DiffOp1") -> "DiffOp1":
        return DiffOp1(self.P - other.P, [a - b for a, b in zip(self.Q, other.Q)])

    def __neg__(self) -> "DiffOp1":
        return DiffOp1(-self.P, [-q for q in self.Q])

    def __mul__(self, scalar) -> "DiffOp1":
        return DiffOp1(self.P * scalar, [q * scalar for q in self.Q])

    __rmul__ = __mul__

    def __repr__(self):
        return f"DiffOp1({render_diffop(self)})"


def diffop_apply(D: DiffOp1, f: MultiPoly) -> MultiPoly:
    """Apply the operator: P*f + sum_i Q[i]*df/dz_i, pruned."""
    if D.nvars != f.nvars:
        raise ValueError(f"nvars mismatch: operator {D.nvars}, polynomial {f.nvars}")
    out = D.P * f
    for i, q in enumerate(D.Q):
        out = out + q * f.partial(i)
    return out


def diffop_array(D: DiffOp1, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D on the monomials z^e_m of an (M, n) exponent table: (out, A, S)
    with the (M', n) output exponents (the M input ones first, in order),
    the (M, M') array with D z^e_m = sum_m' A[m, m'] z^out[m'], so that
    coefficients c on the table map to c @ A, and the real array S summing
    the magnitudes of the terms each entry of A adds up."""
    M, n = exponents.shape
    # seeded with empty arrays, so that the zero operator concatenates too
    images, rows, values = [exponents], [np.zeros(0, dtype=int)], [np.zeros(0, dtype=complex)]
    for e, c in D.P.terms.items():
        images.append(exponents + e)
        rows.append(np.arange(M))
        values.append(np.full(M, c))
    for i, q in enumerate(D.Q):
        has = np.flatnonzero(exponents[:, i])
        lowered = exponents[has] - np.eye(n, dtype=int)[i]
        for e, c in q.terms.items():
            images.append(lowered + e)
            rows.append(has)
            values.append(c * exponents[has, i])
    unique, first, where = np.unique(np.concatenate(images), axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)  # by first appearance: the input exponents come first
    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    index = (np.concatenate(rows), column[where.reshape(-1)[M:]])
    vals = np.concatenate(values)
    A = np.zeros((M, len(order)), dtype=complex)
    S = np.zeros(A.shape)
    np.add.at(A, index, vals)
    np.add.at(S, index, np.abs(vals))
    return unique[order], A, S


def diffop_commutator(D1: DiffOp1, D2: DiffOp1) -> DiffOp1:
    """Commutator [D1, D2] of two first-order operators.

    First-order operators close under the commutator: the second-order parts
    cancel and what remains is
        P  = Q1.grad(P2) - Q2.grad(P1),
        Qi = Q1.grad(Q2[i]) - Q2.grad(Q1[i]),
    where X.grad(f) = sum_k X[k] * df/dz_k.
    """
    if D1.nvars != D2.nvars:
        raise ValueError(f"nvars mismatch: {D1.nvars} vs {D2.nvars}")
    n = D1.nvars

    def directional(Q, f):
        out = MultiPoly.zero(n)
        for k in range(n):
            out = out + Q[k] * f.partial(k)
        return out

    P = directional(D1.Q, D2.P) - directional(D2.Q, D1.P)
    Q = [directional(D1.Q, D2.Q[i]) - directional(D2.Q, D1.Q[i]) for i in range(n)]
    return DiffOp1(P, Q)


def diffop_max_diff(D1: DiffOp1, D2: DiffOp1) -> float:
    """Max coefficientwise difference across P and all Q components."""
    out = max_coeff_diff(D1.P, D2.P)
    for a, b in zip(D1.Q, D2.Q):
        out = max(out, max_coeff_diff(a, b))
    return out


# -- rendering -------------------------------------------------------------
#
# Terms are sorted lexicographically by exponent, coefficients printed with
# 12 significant digits, variables named z1..zn unless overridden.  This
# format is used verbatim in reports.


def _fmt_real(x: float) -> str:
    s = f"{x:.12g}"
    return "0" if s == "-0" else s


def _fmt_coeff(c: complex) -> tuple[str, int]:
    """Render a coefficient; returns (text, sign) where sign=-1 means the
    leading minus was folded out of the text (real/imaginary cases only)."""
    re, im = c.real, c.imag
    scale = max(abs(re), abs(im), 1.0)
    if abs(im) <= 1e-14 * scale:
        return _fmt_real(abs(re)), (-1 if re < 0 else 1)
    if abs(re) <= 1e-14 * scale:
        return _fmt_real(abs(im)) + "i", (-1 if im < 0 else 1)
    return f"({_fmt_real(re)}{'+' if im >= 0 else '-'}{_fmt_real(abs(im))}i)", 1


def _fmt_monomial(expo: tuple[int, ...], names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, expo):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return " ".join(parts)


def render_poly(p: MultiPoly, names: Sequence[str] | None = None) -> str:
    if names is None:
        names = [f"z{i + 1}" for i in range(p.nvars)]
    if not p.terms:
        return "0"
    pieces = []
    for expo in sorted(p.terms):
        coeff_txt, sign = _fmt_coeff(p.terms[expo])
        mono = _fmt_monomial(expo, names)
        if mono and coeff_txt == "1":
            body = mono
        elif mono:
            body = f"{coeff_txt} {mono}"
        else:
            body = coeff_txt
        if not pieces:
            pieces.append(("-" if sign < 0 else "") + body)
        else:
            pieces.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(pieces)


def render_diffop(D: DiffOp1, names: Sequence[str] | None = None) -> str:
    parts = [f"P = {render_poly(D.P, names)}"]
    for i, q in enumerate(D.Q):
        parts.append(f"Q{i + 1} = {render_poly(q, names)}")
    return ", ".join(parts)
