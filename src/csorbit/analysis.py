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
Integrands are evaluated at all nodes at once by ``PolyEntries.eval``, the
kernel K(z, conj w) as omega(z) . conj(omega(w)) on omega's array.  The
integrands are evaluated with numpy's warnings off: at the outer nodes of a
large model they overflow, and the residual comes out large or NaN.
Models without a measure (e.g. the su3 catalog entry) cannot run these
checks and raise :class:`UnsupportedCheckError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import roots_jacobi

from .algebra import AlgebraElement, MeasureSpec, OrbitModel
from .errors import UnsupportedCheckError
from .orbit import coherent_covector
from .polyops import PolyEntries, diffop_array
from .realize import RealizationTable, realize_generator

QUAD_RADIAL = 64
QUAD_ANGULAR = 64


@dataclass(eq=False)
class QuadratureRule:
    """Nodes and weights approximating integration against the invariant
    measure on the chart; ``mass_defect`` is |sum(weights) - 1|."""

    nodes: np.ndarray
    weights: np.ndarray
    radial: int
    angular: int
    mass_defect: float


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
        r = np.sqrt(u)
        wrad = wu
    elif ms.kind == "fubini-study":
        j = float(ms.params["j"])
        x, wx = np.polynomial.legendre.leggauss(radial)
        t = (x + 1.0) / 2.0
        r = np.sqrt(t / (1.0 - t))
        wrad = (2 * j + 1) * (1.0 - t) ** (2 * j) * (wx / 2.0)
    elif ms.kind == "bergman-disk":
        k = float(ms.params["k"])
        alpha = 2 * k - 2
        x, wx = roots_jacobi(radial, alpha, 0.0)
        u = (x + 1.0) / 2.0
        r = np.sqrt(u)
        wrad = (2 * k - 1) * 2.0 ** (-(2 * k - 1)) * wx
    else:  # pragma: no cover - MeasureSpec already validates kinds
        raise UnsupportedCheckError(f"unsupported measure kind {ms.kind!r}")
    theta = 2.0 * np.pi * np.arange(angular) / angular
    nodes = np.outer(r, np.exp(1j * theta)).ravel()
    weights = np.repeat(wrad / angular, angular)
    mass_defect = float(abs(weights.sum() - 1.0))
    return QuadratureRule(nodes, weights, radial, angular, mass_defect)


def parseval_residual(
    model: OrbitModel, rule: QuadratureRule, basis_indices: Sequence[int] | None = None
) -> float:
    """Max entry of G - I where G_kl = integral conj(F_k) F_l dnu over the
    basis symbols.  G = I is simultaneously the overcompleteness identity
    and (by sesquilinearity) the isometry of the symbol map.

    For truncated models the default basis is the artifact-free interior
    block, read as a view of the node values (a list of indices copies).
    """
    with np.errstate(all="ignore"):
        at_nodes = coherent_covector(model).eval(rule.nodes[:, None])
        V = (at_nodes[:, : model.rep.block_dim] if basis_indices is None else at_nodes[:, list(basis_indices)]).T
        G = (V.conj() * rule.weights) @ V.T
        return float(np.max(np.abs(G - np.eye(len(V)))))


def reproducing_residual(
    model: OrbitModel, rule: QuadratureRule, psi: Sequence[complex], w: Sequence[complex]
) -> float:
    """|F_psi(w) - integral conj(K_w(z)) F_psi(z) dnu(z)|, the point-evaluation
    property of K_w(z) = K(z, conj w) summed as in :func:`orbit.kernel_eval`.
    ``psi`` and ``w`` are one vector and one point, or (K, d) and (K, n)
    stacks that share one evaluation at the nodes; returns the max residual."""
    psi = np.atleast_2d(np.asarray(psi, dtype=complex))
    w = np.atleast_2d(np.asarray(w, dtype=complex))
    if psi.shape[1] != model.dim_rep:
        raise ValueError(f"psi length {psi.shape[1]} != dim_rep {model.dim_rep}")
    omega = coherent_covector(model)
    with np.errstate(all="ignore"):
        at_nodes, at_w = omega.eval(rule.nodes[:, None]), omega.eval(w)
        k_w = at_nodes @ at_w.conj().T  # E(conj w) = conj(omega(w))
        integrals = rule.weights @ (k_w.conj() * (at_nodes @ psi.T))
        return float(np.max(np.abs(np.sum(at_w * psi, axis=1) - integrals)))


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
    with np.errstate(all="ignore"):
        values = PolyEntries(expos, symbols).eval(rule.nodes[:, None])
        lhs = np.sum(rule.weights * values[:, 0].conj() * values[:, 1])
        rhs = np.sum(rule.weights * values[:, 2].conj() * values[:, 3])
        return float(abs(lhs - rhs))
