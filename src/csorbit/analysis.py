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
Integrands are evaluated at all nodes at once by ``DenseTable.eval``, the
kernel K(z, conj w) as omega(z) . E(conj w) on the coherent tables.
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
from .orbit import coherent_covector, coherent_vector
from .polyops import DenseTable, diffop_apply
from .realize import RealizationTable, realize_generator, symbol

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


def quadrature_rule(model: OrbitModel, radial: int = QUAD_RADIAL, angular: int = QUAD_ANGULAR) -> QuadratureRule:
    """Tensor rule (radial Gauss nodes x uniform angles) for the model's
    measure; see the module docstring for the per-kind radial maps."""
    ms = model.measure
    if ms is None or ms.kind == "none":
        raise UnsupportedCheckError(
            f"model {model.describe()} declares no measure; quadrature checks unavailable"
        )
    if model.n != 1:
        raise UnsupportedCheckError("quadrature rules are implemented for rank-one charts")
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
    block.
    """
    if basis_indices is None:
        basis_indices = range(model.rep.block_dim)
    V = coherent_covector(model).table.eval(rule.nodes[:, None])[:, list(basis_indices)].T
    G = (V.conj() * rule.weights) @ V.T
    return float(np.max(np.abs(G - np.eye(len(basis_indices)))))


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
    omega = coherent_covector(model).table
    at_nodes = omega.eval(rule.nodes[:, None])
    k_w = at_nodes @ coherent_vector(model).table.eval(np.conj(w)).T
    integrals = rule.weights @ (k_w.conj() * (at_nodes @ psi.T))
    return float(np.max(np.abs(np.sum(omega.eval(w) * psi, axis=1) - integrals)))


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
    realizing them again."""
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
    ff = symbol(model, f)
    fg = symbol(model, g)
    values = DenseTable([diffop_apply(d_x, ff), fg, ff, diffop_apply(d_xs, fg)]).eval(rule.nodes[:, None])
    lhs = np.sum(rule.weights * values[:, 0].conj() * values[:, 1])
    rhs = np.sum(rule.weights * values[:, 2].conj() * values[:, 3])
    return float(abs(lhs - rhs))
