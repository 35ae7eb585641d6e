"""Lie algebras given by structure constants, matrix representations with an
extremal vector, and the validation suite run on every loaded model.

An :class:`OrbitModel` fixes everything the rest of the package needs: the
algebra, a d-dimensional representation, the extremal vector ``e0`` (a unit
coordinate vector annihilated by all raising directions), a basis ``mprime``
of chart directions whose representation matrices move ``e0`` away from
itself, and a positive integer grading per chart direction (the weight level
each direction descends).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ModelStructureError, ModelValidationError

STRUCTURE_TOL = 1e-10


@dataclass(eq=False)
class LieAlgebraSpec:
    """Structure constants of a Lie algebra (complex coefficients allowed,
    so the same object houses the complexification).

    ``structure`` holds entries ``(i, j, k, c)`` meaning ``[X_i, X_j]``
    contains ``c * X_k``.  Canonical input stores only ``i < j``; the other
    orientation is derived by antisymmetry.  Redundant orientations may be
    supplied and are checked for consistency by :func:`validate_structure`.
    """

    dim: int
    basis_labels: tuple[str, ...]
    structure: tuple[tuple[int, int, int, complex], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ModelStructureError("algebra dimension must be >= 1")
        self.basis_labels = tuple(str(s) for s in self.basis_labels)
        if len(self.basis_labels) != self.dim:
            raise ModelStructureError(
                f"expected {self.dim} basis labels, got {len(self.basis_labels)}"
            )
        entries = []
        for entry in self.structure:
            i, j, k, c = entry
            if not (0 <= i < self.dim and 0 <= j < self.dim and 0 <= k < self.dim):
                raise ModelStructureError(f"structure entry {entry} has index out of range")
            if not cmath.isfinite(complex(c)):
                raise ModelStructureError(f"structure entry {entry} has a non-finite constant")
            entries.append((int(i), int(j), int(k), complex(c)))
        self.structure = tuple(entries)

    def _oriented(self, i: int, j: int) -> np.ndarray | None:
        """Sum of stored entries for the exact orientation (i, j), or None."""
        found = False
        vec = np.zeros(self.dim, dtype=complex)
        for a, b, k, c in self.structure:
            if a == i and b == j:
                vec[k] += c
                found = True
        return vec if found else None

    def bracket(self, i: int, j: int) -> np.ndarray:
        """Coefficient vector of [X_i, X_j], preferring the stored
        orientation and falling back to antisymmetry."""
        if i == j:
            return np.zeros(self.dim, dtype=complex)
        vec = self._oriented(i, j)
        if vec is not None:
            return vec
        rev = self._oriented(j, i)
        if rev is not None:
            return -rev
        return np.zeros(self.dim, dtype=complex)


@dataclass(eq=False)
class AlgebraElement:
    """Element of the (complexified) algebra as a coefficient vector over
    the basis of its :class:`LieAlgebraSpec`."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(self.coeffs)):
            raise ModelStructureError("algebra element coefficients must be finite")

    @classmethod
    def basis(cls, dim: int, i: int) -> "AlgebraElement":
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        return cls(v)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


@dataclass(eq=False)
class MatrixRep:
    """Matrix representation: one d x d complex matrix per basis element.

    ``truncated`` marks representations obtained by cutting an infinite
    weight ladder; ``trunc_margin`` is the number of top indices that may
    carry truncation artifacts.  Indices below ``dim_rep - trunc_margin``
    are guaranteed artifact-free, and downstream consumers restrict degree
    matching to that block.
    """

    dim_rep: int
    matrices: tuple[np.ndarray, ...]
    truncated: bool = False
    trunc_margin: int = 0

    def __post_init__(self):
        if self.dim_rep < 1:
            raise ModelStructureError("representation dimension must be >= 1")
        mats = []
        for m in self.matrices:
            m = np.asarray(m, dtype=complex)
            if m.shape != (self.dim_rep, self.dim_rep):
                raise ModelStructureError(
                    f"representation matrix has shape {m.shape}, expected "
                    f"({self.dim_rep}, {self.dim_rep})"
                )
            if not np.all(np.isfinite(m)):
                raise ModelStructureError("representation matrix entries must be finite")
            mats.append(m)
        self.matrices = tuple(mats)
        if self.trunc_margin < 0 or self.trunc_margin >= self.dim_rep:
            raise ModelStructureError("trunc_margin must lie in [0, dim_rep)")
        if not self.truncated and self.trunc_margin != 0:
            raise ModelStructureError("trunc_margin requires truncated=True")

    @property
    def block_dim(self) -> int:
        """Size of the artifact-free leading block."""
        return self.dim_rep - self.trunc_margin if self.truncated else self.dim_rep


@dataclass(eq=False)
class MeasureSpec:
    """Radial weight of the invariant measure on the chart, when known.

    kinds: ``gaussian`` (weight e^{-|z|^2}/pi on the plane),
    ``fubini-study`` (weight (2j+1)/pi (1+|z|^2)^{-2j-2} on the plane),
    ``bergman-disk`` (weight (2k-1)/pi (1-|z|^2)^{2k-2} on the unit disk),
    ``none`` (quadrature checks unavailable).
    """

    kind: str
    params: dict = field(default_factory=dict)
    domain: str = "plane"
    radius: float = math.inf

    _KINDS = ("gaussian", "fubini-study", "bergman-disk", "none")
    _REQUIRED_PARAM = {"fubini-study": "j", "bergman-disk": "k"}

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ModelStructureError(f"unknown measure kind {self.kind!r}")
        key = self._REQUIRED_PARAM.get(self.kind)
        if key is not None:
            value = self.params.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ModelStructureError(f"{self.kind} measure needs parameter {key!r}, a finite number")
            if key == "k" and not value > 0.5:
                raise ModelStructureError("bergman-disk measure needs k > 1/2")
        if self.domain not in ("plane", "disk"):
            raise ModelStructureError(f"unknown chart domain {self.domain!r}")
        if self.domain == "disk" and not (0 < self.radius < math.inf):
            raise ModelStructureError("disk domain needs a finite positive radius")


@dataclass(eq=False)
class OrbitModel:
    """A validated coherent-state orbit: algebra + representation + chart.

    ``chart`` selects the coordinate map generated by the mprime directions:
    ``"sum"`` is the single exponential exp(sum_a z_a A_a) (canonical
    coordinates of the first kind), ``"product"`` the ordered product
    exp(z_1 A_1) ... exp(z_n A_n) realizing a Gauss-type decomposition of
    the unipotent chart group.  The two coincide whenever the chart
    directions commute (all rank-one models); polynomial degrees of realized
    operators are chart-dependent beyond that case.

    All fields are treated as immutable after construction; every operation
    in the package is a pure function of a model, so models are safe to
    share across parallel workers.
    """

    spec: LieAlgebraSpec
    rep: MatrixRep
    e0_index: int
    mprime: tuple[AlgebraElement, ...]
    grading: tuple[int, ...]
    measure: MeasureSpec | None = None
    name: str = "custom"
    parameters: dict = field(default_factory=dict)
    adjoint_pairs: dict[int, int] | None = None
    chart: str = "sum"

    def __post_init__(self):
        if self.chart not in ("sum", "product"):
            raise ModelStructureError(f"unknown chart kind {self.chart!r}")
        if len(self.rep.matrices) != self.spec.dim:
            raise ModelStructureError(
                f"representation supplies {len(self.rep.matrices)} matrices "
                f"for an algebra of dimension {self.spec.dim}"
            )
        if not 0 <= self.e0_index < self.rep.dim_rep:
            raise ModelStructureError("e0_index out of range")
        self.mprime = tuple(self.mprime)
        for x in self.mprime:
            if x.dim != self.spec.dim:
                raise ModelStructureError("mprime element length does not match algebra dim")
        self.grading = tuple(int(g) for g in self.grading)
        if len(self.grading) != len(self.mprime):
            raise ModelStructureError("grading length must match mprime length")
        if any(g < 1 for g in self.grading):
            raise ModelStructureError("grading entries must be positive integers")
        if self.adjoint_pairs is not None:
            pairs = {int(a): int(b) for a, b in self.adjoint_pairs.items()}
            if set(pairs) != set(range(self.spec.dim)) or any(pairs.get(b) != a for a, b in pairs.items()):
                raise ModelStructureError(
                    f"adjoint_pairs must be an involution of the basis indices 0..{self.spec.dim - 1}"
                )
            self.adjoint_pairs = pairs

    @property
    def n(self) -> int:
        """Number of chart coordinates."""
        return len(self.mprime)

    @property
    def dim_rep(self) -> int:
        return self.rep.dim_rep

    @cached_property
    def derived(self):
        """The model's :class:`orbit.DerivedData`: chart, validation
        metrics, the coherent series and the kernel, each
        built on first use and kept for the model's lifetime."""
        from .orbit import DerivedData  # orbit imports this module

        return DerivedData(self)

    def describe(self) -> str:
        pars = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        return f"{self.name}({pars})" if pars else self.name


@dataclass
class ValidationReport:
    """Outcome of a validation pass: named residual metrics and the bound
    each pass criterion puts on its metric.  A metric without a bound is
    reported only."""

    metrics: dict[str, float]
    bounds: dict[str, float]

    @property
    def failures(self) -> dict[str, float]:
        """The metrics above their bounds, NaN included."""
        return {k: v for k, v in self.metrics.items() if k in self.bounds and not v <= self.bounds[k]}

    @property
    def passed(self) -> bool:
        return not self.failures


def derived_matrix(model: OrbitModel, x: AlgebraElement) -> np.ndarray:
    """Matrix of the derived representation at ``x``: the complex-linear
    combination sum_i coeffs[i] * matrices[i]."""
    if x.dim != model.spec.dim:
        raise ModelStructureError(
            f"element length {x.dim} does not match algebra dimension {model.spec.dim}"
        )
    out = np.zeros((model.dim_rep, model.dim_rep), dtype=complex)
    for c, m in zip(x.coeffs, model.rep.matrices):
        if c != 0:
            out += c * m
    return out


def _worst(values) -> float:
    """Largest of the values, 0.0 for none.  A NaN among them propagates,
    where Python's ``max`` keeps whichever argument comes first."""
    return float(np.max([0.0, *values]))


def validate_structure(spec: LieAlgebraSpec, tol: float = STRUCTURE_TOL) -> ValidationReport:
    """Check antisymmetry of stored constants and the Jacobi identity.

    Antisymmetry violations can only arise from redundantly stored
    orientations (both (i,j) and (j,i) present but not opposite) or from
    diagonal entries (i, i, ., c != 0).
    """
    anti = []
    for i in range(spec.dim):
        diag = spec._oriented(i, i)
        if diag is not None:
            anti.append(np.max(np.abs(diag)))
        for j in range(i + 1, spec.dim):
            fwd = spec._oriented(i, j)
            rev = spec._oriented(j, i)
            if fwd is not None and rev is not None:
                anti.append(np.max(np.abs(fwd + rev)))

    brackets = {(i, j): spec.bracket(i, j) for i in range(spec.dim) for j in range(spec.dim)}

    def double_bracket(i, j, k):
        # [X_i, [X_j, X_k]] expanded through the structure table
        out = np.zeros(spec.dim, dtype=complex)
        for m, c in enumerate(brackets[j, k]):
            if c != 0:
                out += c * brackets[i, m]
        return out

    jac = [
        np.max(np.abs(double_bracket(i, j, k) + double_bracket(j, k, i) + double_bracket(k, i, j)))
        for i, j, k in itertools.combinations(range(spec.dim), 3)
    ]

    metrics = {"antisymmetry": _worst(anti), "jacobi": _worst(jac)}
    return ValidationReport(metrics, {"antisymmetry": tol, "jacobi": tol})


def validate_representation(model: OrbitModel, tol: float = STRUCTURE_TOL) -> ValidationReport:
    """Check commutator consistency [X_i, X_j] = sum_k c(i,j,k) X_k.

    For truncated representations the pass criterion uses only the
    artifact-free leading block; the global residual is reported alongside.
    """
    rep = model.rep
    b = rep.block_dim
    block_res = []
    global_res = []
    for i in range(model.spec.dim):
        for j in range(i + 1, model.spec.dim):
            defect = rep.matrices[i] @ rep.matrices[j] - rep.matrices[j] @ rep.matrices[i]
            for k, c in enumerate(model.spec.bracket(i, j)):
                if c != 0:
                    defect = defect - c * rep.matrices[k]
            global_res.append(np.max(np.abs(defect)))
            block_res.append(np.max(np.abs(defect[:b, :b])))
    metrics = {"commutator_block": _worst(block_res), "commutator_global": _worst(global_res)}
    return ValidationReport(metrics, {"commutator_block": tol})


def _nilpotent_exp(rows: np.ndarray, B: Sequence[np.ndarray], coeffs: np.ndarray, d: int) -> np.ndarray:
    """rows[k] @ exp(sum_a coeffs[k, a] B[a]) for an (N, d) stack of rows,
    through the terminating series of a nilpotent action.  The series stops
    when every row's term is exactly zero; a row whose d-th term is still
    above 1e-12 of its sum raises, and a NaN row is returned as NaN."""
    out = rows.copy()
    term = rows
    for k in range(1, d + 1):
        term = sum((c[:, None] * (term @ b) for c, b in zip(coeffs.T, B)), np.zeros_like(rows)) / k
        if not term.any():
            return out
        out = out + term
    if np.any(np.max(np.abs(term), axis=1) > 1e-12 * (1.0 + np.max(np.abs(out), axis=1))):
        raise ModelValidationError(
            "coherent series does not terminate: chart directions are not "
            "nilpotent on the extremal orbit"
        )
    return out


def covector_direct(model: OrbitModel, z: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Numeric covector e0^dagger exp(sum_a z_a B_a) (sum chart) or
    e0^dagger exp(z_n B_n) ... exp(z_1 B_1) (product chart), computed from
    the chart matrices by one terminating series without the symbolic one.
    ``z`` is one point (n,), giving (d,), or a stack (N, n), giving (N, d):
    the whole stack runs through each series term at once.

    Validation uses it to prove that the series terminates before anything
    symbolic is built; the round-trip check uses it as a reference for the
    series that :func:`covector_numeric` reads."""
    _, B, e0_row, _, _ = model.derived.chart
    z = np.asarray(z, dtype=complex)
    points = z if z.ndim == 2 else z.reshape(1, -1)
    if points.shape[1] != model.n:
        raise ModelStructureError(f"expected {model.n} coordinates, got {points.shape[1]}")
    d = model.dim_rep
    rows = np.repeat(e0_row[None, :], len(points), axis=0)
    if model.chart == "sum":
        rows = _nilpotent_exp(rows, B, points, d)
    else:
        for a in range(model.n - 1, -1, -1):
            rows = _nilpotent_exp(rows, B[a : a + 1], points[:, a : a + 1], d)
    return rows if z.ndim == 2 else rows[0]


def covector_numeric(model: OrbitModel, z: Sequence[complex]) -> np.ndarray:
    """Covector field omega(z) at a point, read from the coefficient array
    of the model's symbolic series (``orbit.coherent_covector``).

    It equals :func:`covector_direct` up to rounding: the series drops
    only coefficients that are cancellation residue (``polyops.SERIES_ULPS``),
    so heisenberg's entries 1/sqrt(k!) are kept however small."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.shape[0] != model.n:
        raise ModelStructureError(f"expected {model.n} coordinates, got {z.shape[0]}")
    return model.derived.covector.eval(z)


def _validation_metrics(model: OrbitModel) -> dict[str, float]:
    """The metrics :func:`validate_model` bounds, which do not depend on the
    tolerance; ``model.derived.validation`` computes them once per model."""
    metrics = {**validate_structure(model.spec).metrics, **validate_representation(model).metrics}
    _, B, e0_row, phi, U = model.derived.chart
    e0 = e0_row.conj()

    norms = [float(np.linalg.norm(U[:, a])) for a in range(model.n)]
    if model.n:
        sv = np.linalg.svd(U, compute_uv=False)
        independence = float(sv[-1]) if len(sv) == model.n else 0.0
    else:
        independence = math.inf
    lowering_ok = all(v > 1e-8 for v in norms) and independence > 1e-8  # False on NaN

    # completeness: dT(X_i) e0 decomposes over {e0} and the lowering images
    span = np.column_stack([e0.reshape(-1, 1), U]) if model.n else e0.reshape(-1, 1)
    qbasis, _ = np.linalg.qr(span)
    off_span = lambda v: np.linalg.norm(v - qbasis @ (qbasis.conj().T @ v))

    # grading triangularity at three deterministic pseudo-random points per
    # chart direction a, with the coordinates of grade below a's set to zero;
    # a non-terminating series (chart direction not nilpotent) counts as an
    # infinite violation instead of escaping the report
    rng = np.random.default_rng(0)
    grading = np.array(model.grading)
    direction = np.repeat(np.arange(model.n), 3)
    parts = rng.standard_normal((len(direction), 2, model.n))
    z = parts[:, 0] + 1j * parts[:, 1]
    z *= 0.7
    z[grading[None, :] < grading[direction][:, None]] = 0.0
    try:
        phi_z = (covector_direct(model, z)[:, None, :] @ phi.T[direction][:, :, None])[:, 0, 0]
        tri = _worst(np.abs(phi_z - z[np.arange(len(z)), direction]))
    except ModelValidationError:
        tri = math.inf

    return {
        **metrics,
        "raising_annihilates_e0": _worst(np.max(np.abs(b @ e0)) for b in B),
        "lowering_orthogonal_e0": _worst(abs(np.vdot(e0, U[:, a])) for a in range(model.n)),
        "isotropy_completeness": _worst(off_span(m @ e0) for m in model.rep.matrices),
        "grading_triangularity": tri,
        "mprime_independence": 0.0 if lowering_ok else 1.0,
    }


def validate_model(model: OrbitModel, tol: float = STRUCTURE_TOL) -> ValidationReport:
    """Full semantic validation: structure, representation, extremal-vector
    conditions and grading compatibility.

    Beyond the two algebraic reports, this checks that
      * each lowering image A_a e0 is nonzero, the set is independent and
        orthogonal to e0,
      * the raising counterparts B_a = A_a^dagger annihilate e0,
      * every basis matrix maps e0 into span{e0, A_a e0} (isotropy
        directions stay on the extremal line, chart directions account for
        the rest),
      * the declared grading is triangular: with all coordinates of grade
        < g_a set to zero, phi_a(omega(z)) - z_a vanishes identically.
    Each criterion bounds one metric, by ``tol`` except for the two sampled
    ones, isotropy and grading (ten times max(tol, 1e-12)).  The metrics
    are the model's ``derived.validation``, computed on the first call for
    a model and shared by every later one, whatever its ``tol``.
    """
    sampled = max(tol, 1e-12) * 10
    bounds = {
        "antisymmetry": tol,
        "jacobi": tol,
        "commutator_block": tol,
        "raising_annihilates_e0": tol,
        "lowering_orthogonal_e0": tol,
        "isotropy_completeness": sampled,
        "grading_triangularity": sampled,
        "mprime_independence": 0.0,
    }
    return ValidationReport(dict(model.derived.validation), bounds)
