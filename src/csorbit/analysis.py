"""Quadrature-based functional-analytic checks on rank-one charts:
normalization of the invariant measure, the Parseval / isometry property of
the symbol map, the reproducing property of the kernel, and formal-adjoint
symmetry of realized operators.

All rules are tensor products of a radial Gauss rule adapted to the measure
kind with a uniform angular grid:

    gaussian       u = r^2,        Gauss-Laguerre on [0, inf)
    fubini-study   t = u / (1+u),  Gauss-Legendre on [0, 1], weight
                   (2j+1) (1-t)^{2j} absorbed into the node weights
    bergman-disk   u = r^2,        Gauss-Jacobi with weight (1-u)^{2k-2}

so the node weights sum to the total mass 1 exactly up to rule exactness.
Each check integrates conj(f) g for polynomials given by coefficient rows
a, b over a rank-one exponent table e_m, which on the rule is the form
sum conj(a_m) b_m' sum_i w_i r_i^(e_m + e_m') over the pairs with A
dividing e_m - e_m' (the A angles sum the others to 0), so no integrand is
evaluated at the nodes.  :func:`_pairing` sums each pair in log space
relative to the monomials' norms, so no weight underflows where a symbol
overflows; A > d keeps only the diagonal, a smaller A its aliased pairs.
Models without a measure (e.g. the su3 catalog entry) cannot run these
checks and raise :class:`UnsupportedCheckError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp, roots_jacobi

from .algebra import AlgebraElement, OrbitModel
from .errors import UnsupportedCheckError
from .orbit import coherent_covector
from .polyops import diffop_array
from .realize import RealizationTable, realize_generator

QUAD_RADIAL = 64
QUAD_ANGULAR = 64


@dataclass(eq=False)
class QuadratureRule:
    """Radial Gauss nodes r_i with weights w_i, kept as ``log_r`` and
    ``log_w``, times ``angular`` uniform angles; ``mass_defect`` is
    |sum(w) - 1|."""

    log_r: np.ndarray
    log_w: np.ndarray
    radial: int
    angular: int
    mass_defect: float

    @property
    def nodes(self) -> np.ndarray:
        """The tensor rule's nodes r_i exp(2 pi i l / A), radius-major."""
        return np.outer(np.exp(self.log_r), np.exp(2j * np.pi * np.arange(self.angular) / self.angular)).ravel()

    @property
    def weights(self) -> np.ndarray:
        """The weight w_i / A of each node of :attr:`nodes`."""
        return np.repeat(np.exp(self.log_w) / self.angular, self.angular)


def sized_counts(model: OrbitModel) -> tuple[int, int]:
    """(R, A) sized from the dimension d, the degree bound of the symbols
    and their images under D_x: R = max(QUAD_RADIAL, ceil(d/2) + 1) Gauss
    nodes (exact to radial degree 2R - 1 > d), A = max(QUAD_ANGULAR, d + 1)."""
    d = model.dim_rep
    return max(QUAD_RADIAL, -(-d // 2) + 1), max(QUAD_ANGULAR, d + 1)


def quadrature_rule(model: OrbitModel, radial: int | None = None, angular: int | None = None) -> QuadratureRule:
    """Tensor rule (radial Gauss nodes x uniform angles) for the model's
    measure; see the module docstring for the per-kind radial maps.  A
    node count left as None is sized by :func:`sized_counts`."""
    ms = model.measure
    if ms is None or ms.kind == "none":
        raise UnsupportedCheckError(
            f"model {model.describe()} declares no measure; quadrature checks unavailable"
        )
    if model.n != 1:
        raise UnsupportedCheckError("quadrature rules are implemented for rank-one charts")
    sized = sized_counts(model)
    radial = sized[0] if radial is None else radial
    angular = sized[1] if angular is None else angular
    if radial < 1 or angular < 1:
        raise ValueError("radial and angular node counts must be >= 1")
    if ms.kind == "gaussian":
        u, wu = np.polynomial.laguerre.laggauss(radial)
        log_u, log_w = np.log(u), np.log(wu)
    elif ms.kind == "fubini-study":
        j = float(ms.params["j"])
        x, wx = np.polynomial.legendre.leggauss(radial)
        t = (x + 1.0) / 2.0
        log_u = np.log(t) - np.log1p(-t)
        log_w = np.log(2 * j + 1) + 2 * j * np.log1p(-t) + np.log(wx / 2.0)
    elif ms.kind == "bergman-disk":
        k = float(ms.params["k"])
        x, wx = roots_jacobi(radial, 2 * k - 2, 0.0)
        log_u = np.log((x + 1.0) / 2.0)
        log_w = np.log(2 * k - 1) - (2 * k - 1) * np.log(2.0) + np.log(wx)
    else:  # pragma: no cover - MeasureSpec already validates kinds
        raise UnsupportedCheckError(f"unsupported measure kind {ms.kind!r}")
    mass_defect = float(abs(np.exp(log_w).sum() - 1.0))
    return QuadratureRule(log_u / 2.0, log_w, radial, angular, mass_defect)


def _pairing(rule: QuadratureRule, exponents: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S, H) for coefficient rows over a rank-one (M, 1) exponent table,
    such that the rule's sum of conj(f_k) f_l is conj(S[k]) @ H @ S[l].
    With h_e = log ||z^e|| = logsumexp_i(log w_i + 2e log r_i) / 2, S is the
    rows times exp(h), and H[m, m'] = sum_i exp(log w_i + (e + e') log r_i -
    h_e - h_e') <= 1, summed directly for each pair with A dividing e - e'
    and 0 for the others."""
    e = exponents[:, 0]
    h = logsumexp(rule.log_w + 2 * e[:, None] * rule.log_r, axis=1) / 2
    m, m2 = np.nonzero((e[:, None] - e) % rule.angular == 0)
    H = np.zeros((len(e), len(e)))
    H[m, m2] = np.exp(rule.log_w + (e[m] + e[m2])[:, None] * rule.log_r - (h[m] + h[m2])[:, None]).sum(axis=1)
    # by two factors exp(h / 2): exp(h) overflows where a coefficient is
    # subnormal (heisenberg from z^301 on, h = log(301!) / 2 > 709)
    root = np.exp(h / 2)
    return rows * root * root, H


def parseval_residual(
    model: OrbitModel, rule: QuadratureRule, basis_indices: Sequence[int] | None = None
) -> float:
    """Max entry of G - I where G_kl = integral conj(F_k) F_l dnu over the
    basis symbols.  G = I is simultaneously the overcompleteness identity
    and (by sesquilinearity) the isometry of the symbol map.

    For truncated models the default basis is the artifact-free interior
    block of omega's rows.
    """
    omega = coherent_covector(model)
    C = omega.coeffs[: model.rep.block_dim] if basis_indices is None else omega.coeffs[list(basis_indices)]
    V, H = _pairing(rule, omega.exponents, C)
    G = V.conj() @ H @ V.T
    return float(np.max(np.abs(G - np.eye(len(V)))))


def reproducing_residual(
    model: OrbitModel, rule: QuadratureRule, psi: Sequence[complex], w: Sequence[complex]
) -> float:
    """|F_psi(w) - integral conj(K_w(z)) F_psi(z) dnu(z)| over the scale
    max(1, sum_k |omega_k(w) psi_k|) of the terms F_psi(w) sums: the
    point-evaluation property of K_w(z) = K(z, conj w) = omega(z) .
    conj(omega(w)), whose coefficients are conj(omega(w)) @ C.  ``psi`` and
    ``w`` are one vector and one point, or (K, d) and (K, n) stacks;
    returns the max relative residual."""
    psi = np.atleast_2d(np.asarray(psi, dtype=complex))
    w = np.atleast_2d(np.asarray(w, dtype=complex))
    if psi.shape[1] != model.dim_rep:
        raise ValueError(f"psi length {psi.shape[1]} != dim_rep {model.dim_rep}")
    omega = coherent_covector(model)
    at_w = omega.eval(w)
    terms = at_w * psi
    (u, v), H = _pairing(rule, omega.exponents, np.array([at_w.conj(), psi]) @ omega.coeffs)
    integrals = np.sum(u.conj() * (v @ H), axis=1)
    residuals = np.abs(terms.sum(axis=1) - integrals) / np.maximum(1.0, np.abs(terms).sum(axis=1))
    return float(np.max(residuals))


def adjoint_residual(
    model: OrbitModel,
    rule: QuadratureRule,
    x: AlgebraElement,
    f: Sequence[complex],
    g: Sequence[complex],
    table: RealizationTable | None = None,
) -> float:
    """|(D_x F_f, F_g) - (F_f, D_{x*} F_g)| under the quadrature pairing,
    where x* is built from the model's declared adjoint pairs
    (coefficientwise: conj(c_i) lands on the partner of basis index i).
    A complete ``table`` of the model supplies D_x and D_{x*} instead of
    realizing them again.  The four symbols share one exponent table: D_x
    F_f is (f @ C) @ A_x with A_x D_x's array on omega's exponents
    (:func:`polyops.diffop_array`), and D_{x*} F_g uses D_{x*}'s array on
    A_x's output table, which starts with omega's exponents."""
    if model.adjoint_pairs is None:
        raise UnsupportedCheckError(
            f"model {model.describe()} declares no adjoint pairs"
        )
    coeffs = np.zeros(model.spec.dim, dtype=complex)
    for i, c in enumerate(x.coeffs):
        if c != 0:
            coeffs[model.adjoint_pairs[i]] += np.conj(c)
    x_star = AlgebraElement(coeffs)
    d_x, d_xs = (realize_generator(model, y) if table is None else table.operator(y) for y in (x, x_star))
    omega = coherent_covector(model)
    f_sym, g_sym = np.array([f, g], dtype=complex) @ omega.coeffs
    expos_x, A_x, _ = diffop_array(d_x, omega.exponents)
    expos, A_xs, _ = diffop_array(d_xs, expos_x)
    symbols = np.zeros((4, len(expos)), dtype=complex)
    symbols[0, : len(expos_x)] = f_sym @ A_x
    symbols[1, : len(g_sym)] = g_sym
    symbols[2, : len(f_sym)] = f_sym
    symbols[3] = symbols[1, : len(expos_x)] @ A_xs
    S, H = _pairing(rule, expos, symbols)
    lhs, rhs = np.sum(S[[0, 2]].conj() * (S[[1, 3]] @ H), axis=1)
    return float(abs(lhs - rhs))
