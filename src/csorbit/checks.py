"""The check suite: twelve named checks of a model, its realization and its
quadrature, each reported as one JSON-ready record.

``structure``, ``representation`` and ``model`` read one
:func:`algebra.validate_model` report.  ``intertwining``, ``homomorphism``,
``degree``, ``flow`` and ``adjoint`` read one realization table; when the
table is partial all five fail with the same note, because a check of
operators the realization rejected would test something else.  ``cocycle``
and ``roundtrip`` test the group action, ``parseval``, ``reproducing`` and
``adjoint`` integrate against the model's measure.  Random draws come from
one ``RNG_SEED`` stream in check order, so reports are deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, orbit, realize
from .algebra import AlgebraElement, OrbitModel, covector_direct, derived_matrix, validate_model
from .catalog import DEGREE_TARGETS
from .errors import CsorbitError, UnsupportedCheckError

CHECK_ORDER = (
    "structure",
    "representation",
    "model",
    "intertwining",
    "homomorphism",
    "degree",
    "flow",
    "cocycle",
    "roundtrip",
    "parseval",
    "reproducing",
    "adjoint",
)

DEFAULT_TOLS = {
    "structure": 1e-10,
    "representation": 1e-10,
    "model": 1e-10,
    "intertwining": 1e-9,
    "homomorphism": 1e-9,
    "flow": 1e-5,
    "cocycle": 1e-8,
    "roundtrip": 1e-12,
    "adjoint": 1e-7,
}

FLOW_POINTS = 20
COCYCLE_PAIRS = 50
ROUNDTRIP_DRAWS = 20
REPRODUCING_DRAWS = 5
RNG_SEED = 20240801
# The flow and cocycle checks act in blocks of generators, so that each
# stack of generators stays within this many bytes: one block for every
# model up to d = 102 (the cocycle's 50 pairs) or d = 128 (the flow's su3
# basis, four actions each), and a few such stacks at a time however large
# the representation (all 50 cocycle pairs at once would take 2.5 GB at
# d = 1,024).
STACK_BYTES = 8 * 2**20

# the validate_model metrics whose maximum each validation check reports
VALIDATION_METRICS = {
    "structure": ("antisymmetry", "jacobi"),
    "representation": ("commutator_block",),
    "model": ("raising_annihilates_e0", "lowering_orthogonal_e0", "isotropy_completeness", "grading_triangularity"),
}
TABLE_CHECKS = ("intertwining", "homomorphism", "degree", "flow", "adjoint")
QUADRATURE_CHECKS = ("parseval", "reproducing", "adjoint")


def _random_point(rng, model, radius):
    return radius * (rng.uniform(-1, 1, model.n) + 1j * rng.uniform(-1, 1, model.n))


def _random_element(rng, model, scale):
    return AlgebraElement(scale * (rng.standard_normal(model.spec.dim) + 1j * rng.standard_normal(model.spec.dim)))


def _random_block_vector(rng, model):
    """A random vector supported on the artifact-free block."""
    psi = np.zeros(model.dim_rep, dtype=complex)
    block = model.rep.block_dim
    psi[:block] = rng.standard_normal(block) + 1j * rng.standard_normal(block)
    return psi


def _measured(residual, tolerance, passed=None):
    """(residual, tolerance, status, note) of a measured residual, which
    passes at most ``tolerance`` unless ``passed`` decides."""
    if not math.isfinite(residual):  # JSON has no NaN or infinity
        return None, tolerance, "fail", f"residual is {residual}"
    ok = residual <= tolerance if passed is None else passed
    return residual, tolerance, "pass" if ok else "fail", None


def run_checks(
    model: OrbitModel,
    names=CHECK_ORDER,
    tol: float | None = None,
    quad: tuple[int, int] | None = None,
    degree_cap: int = realize.DEGREE_CAP,
    cocycle_pair: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[dict]:
    """Run the named checks in ``CHECK_ORDER`` and return one record each.

    ``tol`` overrides every check tolerance, but not the realization's
    acceptance threshold (``realize.SOLVER_TOL``).  ``quad`` gives the
    radial and angular node counts of the quadrature rule, by default sized
    from the model (:func:`analysis.quadrature_rule`), ``degree_cap``
    the largest realization degree accepted, and ``cocycle_pair`` a fixed
    (g1, g2) for the cocycle check instead of random pairs.  A record holds
    the check, the model and its parameters, the residual (None when there
    is none), the tolerance, ``pass``, the status (pass, fail or skip) and
    an optional note.  Raises :class:`CsorbitError` for an unknown name
    or when no check is named.
    """
    unknown = [s for s in names if s not in CHECK_ORDER]
    if unknown:
        raise CsorbitError(f"unknown check(s): {', '.join(unknown)}")
    if not names:
        raise CsorbitError(f"no check named; choose from: {', '.join(CHECK_ORDER)}")
    names = [n for n in CHECK_ORDER if n in names]
    wants = lambda group: any(n in group for n in names)
    tol_of = lambda name: tol if tol is not None else DEFAULT_TOLS.get(name)
    rng = np.random.default_rng(RNG_SEED)

    report = validate_model(model, tol_of("model")) if wants(VALIDATION_METRICS) else None
    table = table_error = None
    if wants(TABLE_CHECKS):
        table = realize.realize_all(model, tol=realize.SOLVER_TOL, degree_cap=degree_cap)
        if table.partial:
            failures = (f"{model.spec.basis_labels[i]}: {msg}" for i, msg in table.failures.items())
            table_error = "partial table: " + "; ".join(failures)
    rule = rule_error = rule_note = None
    if wants(QUADRATURE_CHECKS):
        try:
            rule = analysis.quadrature_rule(model, *(quad or ()))
        except UnsupportedCheckError as exc:
            rule_error = str(exc)
        sized = analysis.sized_counts(model)
        if quad and (quad[0] < sized[0] or quad[1] < sized[1]):
            rule_note = f"rule {quad[0]}x{quad[1]} is below the sized {sized[0]}x{sized[1]} for d = {model.dim_rep}"

    def run_one(name, check_tol):
        if name in TABLE_CHECKS and table_error is not None:
            return None, check_tol, "fail", table_error
        if name in QUADRATURE_CHECKS and rule_error is not None:
            return None, check_tol, "skip", rule_error
        if name in VALIDATION_METRICS:
            residual = float(np.max([report.metrics[k] for k in VALIDATION_METRICS[name]]))
            return _measured(residual, check_tol, report.passed if name == "model" else None)
        if name == "intertwining":
            return _measured(realize.intertwining_residual(model, table), check_tol)
        if name == "homomorphism":
            return _measured(realize.homomorphism_residual(model, table), check_tol)
        if name == "degree":
            observed = float(realize.degree_report(table).max_degree)
            if model.name not in DEGREE_TARGETS:
                return observed, None, "skip", "no degree target declared"
            op, bound = DEGREE_TARGETS[model.name]
            ok = observed <= bound if op == "le" else observed == bound
            return observed, float(bound), "pass" if ok else "fail", f"target {op} {bound}"
        if name == "flow":
            basis = [AlgebraElement.basis(model.spec.dim, idx) for idx in range(model.spec.dim)]
            points = np.array([[_random_point(rng, model, 0.3) for _ in range(FLOW_POINTS)] for _ in basis])
            block = max(1, STACK_BYTES // (4 * 16 * model.dim_rep**2))
            residuals = [
                realize.flow_crosscheck(model, basis[k : k + block], points[k : k + block], table=table)
                for k in range(0, len(basis), block)
            ]
            return _measured(float(np.max(np.concatenate(residuals))), check_tol)
        if name == "cocycle":
            if cocycle_pair is not None:
                points = np.array([_random_point(rng, model, 0.3) for _ in range(5)])
                return _measured(float(np.max(realize.cocycle_residual(model, *cocycle_pair, points))), check_tol)
            # each pair acts on its point by its generators A1 and A2, drawn
            # near 0 relative to the matrix scale
            scale = 0.15 / max(1.0, max(float(np.max(np.abs(m))) for m in model.rep.matrices))
            d = model.dim_rep
            block = max(1, STACK_BYTES // (16 * d * d))
            residuals = []
            for start in range(0, COCYCLE_PAIRS, block):
                A1s, A2s = np.empty((2, min(block, COCYCLE_PAIRS - start), d, d), dtype=complex)
                points = np.empty((len(A1s), model.n), dtype=complex)
                for k in range(len(A1s)):
                    A1s[k], A2s[k] = (derived_matrix(model, _random_element(rng, model, scale)) for _ in range(2))
                    points[k] = _random_point(rng, model, 0.3)
                residuals.extend(realize.cocycle_residual(model, orbit.Exp(A1s), orbit.Exp(A2s), points))
            return _measured(float(np.max(residuals)), check_tol)
        if name == "roundtrip":
            # the reference covectors come from the chart matrices, not from
            # the symbolic series that extract_coordinates solves against
            draws = [
                (_random_point(rng, model, 0.5), (0.5 + rng.uniform(0, 1.5)) * np.exp(2j * np.pi * rng.uniform()))
                for _ in range(ROUNDTRIP_DRAWS)
            ]
            z0s, mu0s = map(np.array, zip(*draws))
            mus, zs = orbit.extract_coordinates(model, mu0s[:, None] * covector_direct(model, z0s))
            residuals = [*np.abs(mus - mu0s) / (1 + np.abs(mu0s)), *np.abs(zs - z0s).ravel()]
            return _measured(float(np.max(residuals)), check_tol)
        tier = tol if tol is not None else (1e-6 if model.rep.truncated else 1e-8)
        if name == "parseval":
            return _measured(analysis.parseval_residual(model, rule), tier)
        if name == "reproducing":
            psis, points = [], []
            for _ in range(REPRODUCING_DRAWS):
                psis.append(_random_block_vector(rng, model))
                points.append(_random_point(rng, model, 0.4))
            return _measured(analysis.reproducing_residual(model, rule, psis, points), tier)
        if model.adjoint_pairs is None:  # the last check, adjoint
            return None, check_tol, "skip", "no adjoint pairs declared"
        residuals = []
        for idx in sorted(model.adjoint_pairs):
            f, g = _random_block_vector(rng, model), _random_block_vector(rng, model)
            x = AlgebraElement.basis(model.spec.dim, idx)
            residuals.append(analysis.adjoint_residual(model, rule, x, f, g, table=table))
        return _measured(float(np.max(residuals)), check_tol)

    results = []
    for name in names:
        check_tol = tol_of(name)
        try:
            residual, tolerance, status, note = run_one(name, check_tol)
        except UnsupportedCheckError as exc:
            residual, tolerance, status, note = None, check_tol, "skip", str(exc)
        except CsorbitError as exc:
            residual, tolerance, status, note = None, check_tol, "fail", str(exc)
        if name in QUADRATURE_CHECKS and rule_note and status != "skip":
            note = "; ".join(filter(None, [note, rule_note]))
        entry = {
            "check": name,
            "model": model.name,
            "params": model.parameters,
            "residual": residual,
            "tolerance": tolerance,
            "pass": status == "pass",
            "status": status,
        }
        if note:
            entry["note"] = note
        results.append(entry)
    return results
