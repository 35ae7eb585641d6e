"""Built-in orbit models and the model-file format.

Catalog entries
---------------
heisenberg(trunc, margin)
    Boson algebra (a, a+, e) with [a, a+] = e on the Fock ladder truncated
    at occupation ``trunc`` (dimension trunc+1); e0 = |0>, chart direction
    a+.  Gaussian measure e^{-|z|^2}/pi on the plane.
su2(j)
    Spin algebra (J0, J+, J-) in the (2j+1)-dimensional representation,
    basis ordered |j,j>, |j,j-1>, ...; e0 = |j,j>, chart direction J-.
    Fubini-Study measure (2j+1)/pi (1+|z|^2)^{-2j-2}.
su11(k, trunc, margin)
    Discrete-series ladder (K0, K+, K-) with K0|n> = (k+n)|n>, truncated at
    level ``trunc``; e0 = |0>, chart direction K+.  Bergman measure
    (2k-1)/pi (1-|z|^2)^{2k-2} on the unit disk (needs k > 1/2).
su3(p, q)
    Cartan-Weyl basis (h1, h2, e1, e2, e3, f1, f2, f3) acting on the
    irreducible highest-weight module with labels (p, q), p, q >= 1,
    dimension (p+1)(q+1)(p+q+2)/2.  Built by closing the tensor product
    3^(x p) x 3bar^(x q) under the lowering operators from its top weight
    vector and projecting onto the resulting orthonormal basis.  Chart
    directions (f1, f2, f3) with grading (1, 1, 2).  No measure: quadrature
    checks are unavailable for this entry.
"""

from __future__ import annotations

import cmath
import json
import math
from pathlib import Path

import numpy as np

from .algebra import (
    AlgebraElement,
    LieAlgebraSpec,
    MatrixRep,
    MeasureSpec,
    OrbitModel,
    validate_model,
)
from .errors import ModelStructureError, ModelValidationError

# Expected global maximum polynomial degree of the realized operators, used
# by the degree check: ("le", d) bounds, ("eq", d) must match exactly.
DEGREE_TARGETS = {
    "heisenberg": ("le", 1),
    "su2": ("le", 2),
    "su11": ("le", 2),
    "su3": ("eq", 3),
}


def _build_heisenberg(trunc: int = 8, margin: int = 3) -> OrbitModel:
    trunc = int(trunc)
    margin = int(margin)
    if trunc < 1:
        raise ModelStructureError("heisenberg: trunc must be >= 1")
    if not 0 <= margin <= trunc:
        raise ModelStructureError("heisenberg: margin must lie in [0, trunc]")
    d = trunc + 1
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = math.sqrt(n)
    adag = a.conj().T
    spec = LieAlgebraSpec(3, ("a", "a+", "e"), ((0, 1, 2, 1.0),))
    rep = MatrixRep(d, (a, adag, np.eye(d, dtype=complex)), truncated=True, trunc_margin=margin)
    return OrbitModel(
        spec=spec,
        rep=rep,
        e0_index=0,
        mprime=(AlgebraElement.basis(3, 1),),
        grading=(1,),
        measure=MeasureSpec("gaussian", {}, "plane"),
        name="heisenberg",
        parameters={"trunc": trunc, "margin": margin},
        adjoint_pairs={0: 1, 1: 0, 2: 2},
    )


def _build_su2(j: float = 0.5) -> OrbitModel:
    twoj = 2 * float(j)
    if abs(twoj - round(twoj)) > 1e-12 or round(twoj) < 1:
        raise ModelStructureError("su2: j must be a positive half-integer (j >= 1/2)")
    twoj = int(round(twoj))
    j = twoj / 2.0
    d = twoj + 1
    # basis |j, j-k> for k = 0..2j
    j0 = np.diag([j - k for k in range(d)]).astype(complex)
    jp = np.zeros((d, d), dtype=complex)
    jm = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        jp[k - 1, k] = math.sqrt(k * (twoj - k + 1))
    for k in range(d - 1):
        jm[k + 1, k] = math.sqrt((twoj - k) * (k + 1))
    spec = LieAlgebraSpec(
        3, ("J0", "J+", "J-"), ((0, 1, 1, 1.0), (0, 2, 2, -1.0), (1, 2, 0, 2.0))
    )
    rep = MatrixRep(d, (j0, jp, jm))
    return OrbitModel(
        spec=spec,
        rep=rep,
        e0_index=0,
        mprime=(AlgebraElement.basis(3, 2),),
        grading=(1,),
        measure=MeasureSpec("fubini-study", {"j": j}, "plane"),
        name="su2",
        parameters={"j": j},
        adjoint_pairs={0: 0, 1: 2, 2: 1},
    )


def _build_su11(k: float = 1.0, trunc: int = 12, margin: int = 3) -> OrbitModel:
    k = float(k)
    trunc = int(trunc)
    margin = int(margin)
    if k <= 0.5:
        raise ModelStructureError("su11: k must exceed 1/2 for a square-integrable ladder")
    if trunc < 1:
        raise ModelStructureError("su11: trunc must be >= 1")
    if not 0 <= margin <= trunc:
        raise ModelStructureError("su11: margin must lie in [0, trunc]")
    d = trunc + 1
    k0 = np.diag([k + n for n in range(d)]).astype(complex)
    kp = np.zeros((d, d), dtype=complex)
    km = np.zeros((d, d), dtype=complex)
    for n in range(d - 1):
        kp[n + 1, n] = math.sqrt((n + 1) * (2 * k + n))
    for n in range(1, d):
        km[n - 1, n] = math.sqrt(n * (2 * k + n - 1))
    spec = LieAlgebraSpec(
        3, ("K0", "K+", "K-"), ((0, 1, 1, 1.0), (0, 2, 2, -1.0), (1, 2, 0, -2.0))
    )
    rep = MatrixRep(d, (k0, kp, km), truncated=True, trunc_margin=margin)
    return OrbitModel(
        spec=spec,
        rep=rep,
        e0_index=0,
        mprime=(AlgebraElement.basis(3, 1),),
        grading=(1,),
        measure=MeasureSpec("bergman-disk", {"k": k}, "disk", 1.0),
        name="su11",
        parameters={"k": k, "trunc": trunc, "margin": margin},
        adjoint_pairs={0: 0, 1: 2, 2: 1},
    )


_SU3_STRUCTURE = (
    (0, 2, 2, 2.0),
    (0, 3, 3, -1.0),
    (0, 4, 4, 1.0),
    (0, 5, 5, -2.0),
    (0, 6, 6, 1.0),
    (0, 7, 7, -1.0),
    (1, 2, 2, -1.0),
    (1, 3, 3, 2.0),
    (1, 4, 4, 1.0),
    (1, 5, 5, 1.0),
    (1, 6, 6, -2.0),
    (1, 7, 7, -1.0),
    (2, 3, 4, 1.0),
    (2, 5, 0, 1.0),
    (2, 7, 6, -1.0),
    (3, 6, 1, 1.0),
    (3, 7, 5, 1.0),
    (4, 5, 3, -1.0),
    (4, 6, 2, 1.0),
    (4, 7, 0, 1.0),
    (4, 7, 1, 1.0),
    (5, 6, 7, -1.0),
)


def _su3_defining_matrices() -> list[np.ndarray]:
    def unit(i, j):
        m = np.zeros((3, 3), dtype=complex)
        m[i, j] = 1.0
        return m

    h1 = unit(0, 0) - unit(1, 1)
    h2 = unit(1, 1) - unit(2, 2)
    return [h1, h2, unit(0, 1), unit(1, 2), unit(0, 2), unit(1, 0), unit(2, 1), unit(2, 0)]


def _build_su3(p: int = 1, q: int = 1) -> OrbitModel:
    p = int(p)
    q = int(q)
    if p < 1 or q < 1:
        raise ModelStructureError("su3: catalog entry needs p >= 1 and q >= 1")
    base = _su3_defining_matrices()
    dual = [-m.T for m in base]
    factors = [base] * p + [dual] * q
    nf = len(factors)
    big = []
    for g in range(8):
        total = np.zeros((3**nf, 3**nf), dtype=complex)
        for slot in range(nf):
            term = np.ones((1, 1), dtype=complex)
            for l, fac in enumerate(factors):
                term = np.kron(term, fac[g] if l == slot else np.eye(3))
            total += term
        big.append(total)

    # top weight vector: fundamental factors at basis index 0, dual at 2
    idx = 0
    for l in range(nf):
        idx = idx * 3 + (0 if l < p else 2)
    v0 = np.zeros(3**nf, dtype=complex)
    v0[idx] = 1.0

    # close under the lowering operators f1, f2 and orthonormalize
    basis = [v0]
    queue = [v0]
    while queue:
        v = queue.pop(0)
        for f in (big[5], big[6]):
            w = f @ v
            Q = np.column_stack(basis)
            w = w - Q @ (Q.conj().T @ w)
            w = w - Q @ (Q.conj().T @ w)
            norm = np.linalg.norm(w)
            if norm > 1e-10:
                w = w / norm
                basis.append(w)
                queue.append(w)
    expected = (p + 1) * (q + 1) * (p + q + 2) // 2
    if len(basis) != expected:
        raise ModelValidationError(
            f"su3({p},{q}): module closure produced {len(basis)} states, expected {expected}"
        )
    Q = np.column_stack(basis)
    wt1 = np.real(np.diag(Q.conj().T @ big[0] @ Q))
    wt2 = np.real(np.diag(Q.conj().T @ big[1] @ Q))
    level = np.rint((p - wt1) + (q - wt2)).astype(int)
    order = sorted(
        range(len(basis)),
        key=lambda i: (level[i], -int(round(wt1[i])), -int(round(wt2[i])), i),
    )
    Q = Q[:, order]
    mats = tuple(Q.conj().T @ g @ Q for g in big)

    spec = LieAlgebraSpec(
        8, ("h1", "h2", "e1", "e2", "e3", "f1", "f2", "f3"), _SU3_STRUCTURE
    )
    rep = MatrixRep(expected, mats)
    return OrbitModel(
        spec=spec,
        rep=rep,
        e0_index=0,
        mprime=(
            AlgebraElement.basis(8, 5),
            AlgebraElement.basis(8, 6),
            AlgebraElement.basis(8, 7),
        ),
        grading=(1, 1, 2),
        measure=None,
        name="su3",
        parameters={"p": p, "q": q},
        adjoint_pairs={0: 0, 1: 1, 2: 5, 3: 6, 4: 7, 5: 2, 6: 3, 7: 4},
        # Gauss-decomposition chart: the chart directions do not commute and
        # the polynomial-degree bound for the realized operators (max 3 on
        # this orbit) holds in the ordered-product coordinates.
        chart="product",
    )


_BUILDERS = {
    "heisenberg": _build_heisenberg,
    "su2": _build_su2,
    "su11": _build_su11,
    "su3": _build_su3,
}

CATALOG_INFO = {
    "heisenberg": "boson ladder; params trunc (default 8), margin (default 3); gaussian measure",
    "su2": "spin j ladder; params j (half-integer >= 1/2, default 1/2); fubini-study measure",
    "su11": "discrete series; params k (> 1/2, default 1), trunc (default 12), margin (default 3); bergman-disk measure",
    "su3": "highest weight (p, q), p, q >= 1 (default 1, 1); no measure (quadrature checks skipped)",
}


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


def load_model(source: str | Path, validate: bool = True, tol: float = 1e-10, **params) -> OrbitModel:
    """Build a catalog model by name, or read a model file.

    ``source`` is either one of :func:`catalog_names` (with keyword
    parameters forwarded to the builder) or a path to a JSON model file.
    The returned model has passed :func:`validate_model` unless
    ``validate=False``.
    """
    if isinstance(source, str) and source in _BUILDERS:
        try:
            model = _BUILDERS[source](**params)
        except TypeError as exc:
            raise ModelStructureError(f"{source}: bad parameters ({exc})") from exc
    else:
        path = Path(source)
        if not path.exists():
            raise ModelStructureError(
                f"unknown model {source!r}: not a catalog name "
                f"({', '.join(catalog_names())}) and no such file"
            )
        if params:
            raise ModelStructureError("model files do not take catalog parameters")
        model = model_from_dict(_read_json(path))
    if validate:
        report = validate_model(model, tol)
        if not report.passed:
            bad = {k: v for k, v in report.metrics.items() if v > tol}
            raise ModelValidationError(f"model {model.describe()} failed validation: {bad}")
    return model


# -- model files -------------------------------------------------------------
#
# A model file is one JSON document with 0-based indices and complex numbers
# encoded as [re, im]:
#   dim, basis_labels, structure [[i, j, k, re, im], ...],
#   rep {matrices (d x d of [re, im]), truncated?, trunc_margin?},
#   e0_index, mprime [[ [re, im], ... ], ...], grading,
#   measure {kind, params, domain {type, radius?}} | null,
#   adjoint_pairs {index: index} | null, name?, parameters?


def _enc_c(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def _dec_c(v) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ModelStructureError(f"expected [re, im] pair, got {v!r}")
    c = complex(float(v[0]), float(v[1]))
    if not cmath.isfinite(c):
        raise ModelStructureError(f"expected a finite [re, im] pair, got {v!r}")
    return c


def _enc_matrix(m: np.ndarray) -> list:
    return [[_enc_c(x) for x in row] for row in np.asarray(m, dtype=complex)]


def _dec_matrix(rows) -> np.ndarray:
    return np.array([[_dec_c(x) for x in row] for row in rows], dtype=complex)


def model_to_dict(model: OrbitModel) -> dict:
    measure = None
    if model.measure is not None:
        measure = {
            "kind": model.measure.kind,
            "params": dict(model.measure.params),
            "domain": {"type": model.measure.domain, "radius": model.measure.radius}
            if model.measure.domain == "disk"
            else {"type": "plane"},
        }
    return {
        "name": model.name,
        "parameters": dict(model.parameters),
        "dim": model.spec.dim,
        "basis_labels": list(model.spec.basis_labels),
        "structure": [[i, j, k, c.real, c.imag] for i, j, k, c in model.spec.structure],
        "rep": {
            "matrices": [_enc_matrix(m) for m in model.rep.matrices],
            "truncated": model.rep.truncated,
            "trunc_margin": model.rep.trunc_margin,
        },
        "e0_index": model.e0_index,
        "chart": model.chart,
        "mprime": [[_enc_c(c) for c in x.coeffs] for x in model.mprime],
        "grading": list(model.grading),
        "adjoint_pairs": {str(a): b for a, b in model.adjoint_pairs.items()}
        if model.adjoint_pairs
        else None,
        "measure": measure,
    }


def model_from_dict(data: dict) -> OrbitModel:
    try:
        spec = LieAlgebraSpec(
            int(data["dim"]),
            tuple(data["basis_labels"]),
            tuple((int(i), int(j), int(k), _dec_c([re, im])) for i, j, k, re, im in data["structure"]),
        )
        rep_data = data["rep"]
        mats = tuple(_dec_matrix(m) for m in rep_data["matrices"])
        if not mats:
            raise ModelStructureError("rep.matrices is empty")
        rep = MatrixRep(
            mats[0].shape[0],
            mats,
            truncated=bool(rep_data.get("truncated", False)),
            trunc_margin=int(rep_data.get("trunc_margin", 0)),
        )
        mprime = tuple(
            AlgebraElement(np.array([_dec_c(c) for c in row], dtype=complex))
            for row in data["mprime"]
        )
        measure = None
        mdata = data.get("measure")
        if mdata is not None and mdata.get("kind", "none") != "none":
            dom = mdata.get("domain", {"type": "plane"})
            measure = MeasureSpec(
                mdata["kind"],
                dict(mdata.get("params", {})),
                dom.get("type", "plane"),
                float(dom.get("radius", math.inf)) if dom.get("type") == "disk" else math.inf,
            )
        pairs = data.get("adjoint_pairs")
        return OrbitModel(
            spec=spec,
            rep=rep,
            e0_index=int(data["e0_index"]),
            mprime=mprime,
            grading=tuple(int(g) for g in data["grading"]),
            measure=measure,
            name=str(data.get("name", "custom")),
            chart=str(data.get("chart", "sum")),
            parameters=dict(data.get("parameters", {})),
            adjoint_pairs={int(a): int(b) for a, b in pairs.items()} if pairs else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelStructureError(f"malformed model file: {exc}") from exc


def _read_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelStructureError(f"{path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelStructureError(f"cannot read {path}: {exc}") from exc


def dump_model(model: OrbitModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def read_complex_matrix(path: str | Path) -> np.ndarray:
    """Read a d x d complex matrix stored as JSON rows of [re, im] pairs
    (the group-element file format)."""
    data = _read_json(Path(path))
    try:
        m = _dec_matrix(data)
    except (TypeError, ValueError) as exc:
        raise ModelStructureError(f"{path} does not hold rows of [re, im] pairs: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ModelStructureError(f"expected a square matrix, got shape {m.shape}")
    return m
