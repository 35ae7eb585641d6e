"""Vectors of polynomials as coefficient arrays over an exponent table, the
one product routine on them, and the rendering of polynomials and of
first-order operators.

A :class:`PolyEntries` holds k polynomials in n variables as an (M, n) int
exponent table and a (k, M) complex coefficient array.  omega, E, a symbol,
the kernel (one row in 2n variables) and a realized operator D = P + sum_i
Q_i d/dz_i (the rows P, Q_1 .. Q_n) are all one.  Products and sums of rows
go through :func:`collect`, which sums pair products onto integer-encoded
exponents and drops a coefficient only when it is at most ``SERIES_ULPS``
ulps of the magnitudes summed into it.  :class:`MultiPoly` is the term dict
that rendering reads, with a term-by-term ``eval`` as a reference.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

# A coefficient is dropped only when it is at most this many ulps of the
# magnitudes summed into it: cancellation residue, not a small term.
SERIES_ULPS = 64

# Target size in bytes of each temporary in a stacked PolyEntries.eval.
_BLOCK_BYTES = 64 * 1024


class MultiPoly:
    """Sparse polynomial in ``nvars`` complex variables, as the term dict
    that rendering reads."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, complex] | None = None):
        self.nvars = int(nvars)
        # adding to 0j also clears the signed zeros that conjugation makes
        self.terms = {tuple(int(e) for e in expo): 0j + complex(c) for expo, c in (terms or {}).items()}
        if any(len(e) != self.nvars or min(e, default=0) < 0 for e in self.terms):
            raise ValueError(f"exponents must be {self.nvars} nonnegative ints, got {list(self.terms)}")

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

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


class PolyEntries:
    """A non-empty vector of polynomials in the same variables as one
    coefficient array over a shared exponent table: entry k is
    sum_m coeffs[k, m] * z^exponents[m].

    ``exponents`` is an (M, nvars) int array, ``coeffs`` the (k, M) complex
    array; both are used as given.  Evaluating at a point is one gather
    from a table of coordinate powers and one matrix-vector product.

    A stack of points is evaluated in blocks of rows into one (N, k)
    output, each temporary (power table, gathered monomials, product) at
    most about ``_BLOCK_BYTES``, which the heap reuses; one per stack would
    be a fresh mapping whose pages fault in again on every call.
    """

    def __init__(self, exponents: np.ndarray, coeffs: np.ndarray):
        self.nvars = exponents.shape[1]
        self.exponents = exponents
        self.coeffs = coeffs
        top = int(exponents.max()) if exponents.size else 0
        self._powers = np.arange(top + 1)
        # complex entries per point of the largest temporary
        row_items = max(self.nvars * (top + 1), exponents.size, len(coeffs))
        self._block_rows = max(1, _BLOCK_BYTES // (16 * row_items))

    @property
    def entries(self) -> tuple[MultiPoly, ...]:
        """The entries as term dicts, for rendering."""
        expos = self.exponents.tolist()
        return tuple(MultiPoly(self.nvars, {tuple(expos[m]): row[m] for m in np.flatnonzero(row)}) for row in self.coeffs)

    @property
    def degrees(self) -> np.ndarray:
        """Each entry's total degree, -1 for the zero polynomial."""
        return np.where(self.coeffs != 0, self.exponents.sum(axis=1), -1).max(axis=-1, initial=-1)

    def eval(self, points: Sequence[complex] | np.ndarray) -> np.ndarray:
        """All entries at one point, (nvars,) -> (k,), or at each of a stack
        of points, (N, nvars) -> (N, k).  A row of a stack is bit for bit
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


def prune(coeffs: np.ndarray, mags: np.ndarray) -> None:
    """Zero, in place, each coefficient that is at most ``SERIES_ULPS`` ulps
    of ``mags``, the magnitudes summed into it.  NaN is kept."""
    coeffs[np.abs(coeffs) <= SERIES_ULPS * np.finfo(float).eps * mags] = 0


def collect(ea: np.ndarray, eb: np.ndarray, pairs: np.ndarray, sizes: np.ndarray | None = None):
    """Sum pair terms onto their monomials: pairs[..., i, j] is a coefficient
    at z^(ea[i] + eb[j]).  Exponents are encoded as integers in mixed radix,
    first variable most significant: sorted codes are sorted exponents, and
    a sum of exponents is a sum of codes.  Pairs are summed per code in
    pair order.  Returns (exponents, coeffs, mags) over the monomials some
    row uses; with ``sizes``, the magnitudes the pairs carry, mags are their
    sums and the coefficients are pruned against them (:func:`prune`),
    without, mags is None.  A sum is a product by the one monomial 1."""
    radix = ea.max(axis=0, initial=0) + eb.max(axis=0, initial=0) + 1
    place = np.array([np.prod(radix[i + 1 :]) for i in range(len(radix))], dtype=np.int64)
    codes, where = np.unique((ea @ place)[:, None] + eb @ place, return_inverse=True)
    lead, width = pairs.shape[:-2], len(codes)
    rows = int(np.prod(lead))
    index = (np.arange(rows)[:, None] * width + where.reshape(-1)).reshape(-1)
    total = lambda w: np.bincount(index, w.reshape(-1), rows * width).reshape(rows, width)
    coeffs = np.empty((rows, width), dtype=complex)
    coeffs.real, coeffs.imag = total(pairs.real), total(pairs.imag)
    mags = None if sizes is None else total(sizes)
    if mags is not None:
        prune(coeffs, mags)
    used = coeffs.any(axis=0)
    expos = codes[used, None] // place % radix
    shape = (*lead, int(used.sum()))
    return expos, coeffs[:, used].reshape(shape), None if mags is None else mags[:, used].reshape(shape)


def partials(exponents: np.ndarray, coeffs: np.ndarray):
    """Every first partial derivative of rows over an (M, n) exponent table,
    side by side: (exponents', owner, coeffs') with column l of coeffs' the
    derivative in z_owner[l] at z^exponents'[l], one column per monomial
    with a positive z_i exponent, lowered by one and times that exponent."""
    owner, source = np.nonzero(exponents.T)
    lowered = exponents[source] - np.eye(exponents.shape[1], dtype=int)[owner]
    return lowered, owner, coeffs[..., source] * exponents[source, owner]


def commutators(exponents: np.ndarray, left: np.ndarray, right: np.ndarray):
    """[L, R_j] for one operator L, rows (P, Q_1 .. Q_n), and each of a
    stack R of (J, n + 1, M) operators, all over one (M, n) exponent table.
    First-order operators close under the commutator: the second-order
    parts cancel and what remains is

        P = L_Q . grad(R_P) - R_Q . grad(L_P),
        Q_c = L_Q . grad(R_Q_c) - R_Q . grad(L_Q_c).

    Returns (exponents', (J, n + 1, M') coefficients), unpruned; the two
    products of each pair of terms are summed next to each other, so
    [D, D] is exactly 0."""
    dexp, owner, dleft = partials(exponents, left)
    _, _, dright = partials(exponents, right)
    forward = left[1:][owner].T * dright[:, :, None, :]  # L's Q_owner[l] at m times dR_j's column l
    backward = np.swapaxes(right[:, 1:][:, owner], 1, 2)[:, None] * dleft[:, None, :]  # the same with L, R_j swapped
    pairs = np.stack([forward, -backward], axis=-1).reshape(*forward.shape[:-1], -1)
    return collect(exponents, np.repeat(dexp, 2, axis=0), pairs)[:2]


def diffop_array(op: PolyEntries, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The operator with rows (P, Q_1 .. Q_n) on the monomials z^e_m of an
    (M, n) exponent table: (out, A, S) with the (M', n) output exponents
    (the M input ones first, in order), the (M, M') array with
    D z^e_m = sum_m' A[m, m'] z^out[m'], so that coefficients c on the
    table map to c @ A, and the real array S summing the magnitudes of the
    terms each entry of A adds up."""
    M, n = exponents.shape
    if op.nvars != n:
        raise ValueError(f"nvars mismatch: operator {op.nvars}, exponents {n}")
    # seeded with empty arrays, so that the zero operator concatenates too
    images, rows, values = [exponents], [np.zeros(0, dtype=int)], [np.zeros(0, dtype=complex)]
    for r, m in zip(*np.nonzero(op.coeffs)):
        # P multiplies; Q_i differentiates in z_i, lowering its exponent
        has = np.arange(M) if r == 0 else np.flatnonzero(exponents[:, r - 1])
        images.append(exponents[has] - np.eye(n + 1, dtype=int)[r, 1:] + op.exponents[m])
        rows.append(has)
        values.append(op.coeffs[r, m] * (np.ones(M, dtype=int) if r == 0 else exponents[has, r - 1]))
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


def render_diffop(op: PolyEntries, names: Sequence[str] | None = None) -> str:
    """An operator with rows (P, Q_1 .. Q_n) as "P = ..., Q1 = ..."."""
    P, *Q = op.entries
    parts = [f"P = {render_poly(P, names)}"]
    for i, q in enumerate(Q):
        parts.append(f"Q{i + 1} = {render_poly(q, names)}")
    return ", ".join(parts)
