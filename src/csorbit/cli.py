"""Command-line front end.

Subcommands: ``catalog`` (list built-in models), ``realize`` (print the
realization table), ``kernel`` (print and optionally evaluate the
reproducing kernel), ``check`` (run the validation suite).  Exit codes:
0 pass, 1 check failure, 2 usage or model error.

Complex numbers on the command line are "re,im" pairs (a bare real is also
accepted); vectors are space-separated.  Machine-readable output (--json)
is deterministic: fixed orderings, fixed formatting, fixed random seeds.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import analysis, catalog, orbit, realize
from .algebra import AlgebraElement, covector_direct, validate_model, validate_representation, validate_structure
from .catalog import DEGREE_TARGETS, load_model, read_complex_matrix
from .errors import CsorbitError, UnsupportedCheckError
from .polyops import render_poly

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


@dataclass
class RunReport:
    """Deterministic record of one CLI invocation."""

    model: str
    params: dict = field(default_factory=dict)
    realization: list | None = None
    checks: list | None = None
    kernel: dict | None = None
    status: str = "pass"

    def to_dict(self) -> dict:
        out = {"model": self.model, "params": self.params}
        if self.realization is not None:
            out["realization"] = self.realization
        if self.kernel is not None:
            out["kernel"] = self.kernel
        if self.checks is not None:
            out["checks"] = self.checks
        out["status"] = self.status
        return out


def _parse_complex(token: str) -> complex:
    try:
        re_s, im_s = token.split(",", 1) if "," in token else (token, "0")
        value = complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise CsorbitError(f"cannot parse complex number {token!r} (want re,im)") from exc
    if not cmath.isfinite(value):
        raise CsorbitError(f"complex number {token!r} is not finite")
    return value


def _parse_quad(text: str) -> tuple[int, int]:
    try:
        r_s, a_s = text.split(",", 1)
        radial, angular = int(r_s), int(a_s)
    except ValueError as exc:
        raise CsorbitError(f"cannot parse quadrature spec {text!r} (want R,A)") from exc
    if radial < 1 or angular < 1:
        raise CsorbitError(f"quadrature spec {text!r} needs node counts >= 1")
    return radial, angular


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csorbit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--model", help="catalog model name")
        p.add_argument("--model-file", help="path to a JSON model file")
        p.add_argument("--j", type=_finite_float, help="su2 spin")
        p.add_argument("--k", type=_finite_float, help="su11 lowest weight")
        p.add_argument("--p", type=int, help="su3 first weight label")
        p.add_argument("--q", type=int, help="su3 second weight label")
        p.add_argument("--trunc", type=int, help="ladder truncation level")
        p.add_argument("--margin", type=int, help="truncation margin")
        p.add_argument("--tol", type=_finite_float, help="override all check tolerances")
        p.add_argument("--degree-cap", type=_positive_int, default=realize.DEGREE_CAP, help="largest degree accepted")
        p.add_argument("--quad", default="64,64", help="radial,angular quadrature nodes")
        p.add_argument("--json", action="store_true", help="emit the machine-readable report")

    sub.add_parser("catalog", help="list built-in models")

    p_real = sub.add_parser("realize", help="print the realization table")
    add_model_flags(p_real)

    p_ker = sub.add_parser("kernel", help="print the reproducing kernel")
    add_model_flags(p_ker)
    p_ker.add_argument("--eval", nargs="+", metavar="RE,IM", help="evaluate at z then w (n coordinates each); "
                       'a negative real part needs the tokens quoted as one argument: --eval "-0.3,0.1 0.2,0"')
    p_ker.add_argument("--vectors", action="store_true", help="also print E(z) and omega(z)")

    p_chk = sub.add_parser("check", help="run the validation suite")
    add_model_flags(p_chk)
    p_chk.add_argument("--suite", help="comma-separated subset of: " + ",".join(CHECK_ORDER))
    p_chk.add_argument("--g1-file", help="group element matrix file for the cocycle check")
    p_chk.add_argument("--g2-file", help="group element matrix file for the cocycle check")
    p_chk.add_argument("--g1-exp", metavar="LABEL:RE,IM", help="cocycle element exp(t X_label)")
    p_chk.add_argument("--g2-exp", metavar="LABEL:RE,IM", help="cocycle element exp(t X_label)")
    return parser


def _exp_element(model, spec_text: str) -> np.ndarray:
    try:
        label, t_text = spec_text.split(":", 1)
    except ValueError:
        raise CsorbitError(f"cannot parse {spec_text!r} (want LABEL:RE,IM)") from None
    if label not in model.spec.basis_labels:
        raise CsorbitError(f"unknown generator {label!r}; model has {model.spec.basis_labels}")
    idx = model.spec.basis_labels.index(label)
    t = _parse_complex(t_text)
    return orbit.group_element(model, AlgebraElement.basis(model.spec.dim, idx), t)


def _cocycle_pair(model, args) -> tuple[np.ndarray, np.ndarray] | None:
    """The fixed (g1, g2) of the cocycle check from --g1-/--g2- files or
    exponentials, or None for random pairs.  Read before any check runs, so
    that a malformed element is a usage error, not a failed check."""
    if args.g1_file or args.g2_file:
        if not (args.g1_file and args.g2_file):
            raise CsorbitError("cocycle from files needs both --g1-file and --g2-file")
        pair = read_complex_matrix(args.g1_file), read_complex_matrix(args.g2_file)
        d = model.dim_rep
        if any(g.shape != (d, d) for g in pair):
            raise CsorbitError(f"group element files must hold {d} x {d} matrices")
        return pair
    if args.g1_exp or args.g2_exp:
        if not (args.g1_exp and args.g2_exp):
            raise CsorbitError("cocycle from exponentials needs both --g1-exp and --g2-exp")
        return _exp_element(model, args.g1_exp), _exp_element(model, args.g2_exp)
    return None


def _load(args) -> object:
    if bool(args.model) == bool(args.model_file):
        raise CsorbitError("give exactly one of --model or --model-file")
    if args.model_file:
        return load_model(args.model_file)
    params = {}
    for key in ("j", "k", "p", "q", "trunc", "margin"):
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    return load_model(args.model, **params)


def _realization_records(model, table) -> list:
    records = []
    for idx in range(model.spec.dim):
        label = model.spec.basis_labels[idx]
        if idx in table.entries:
            op = table.entries[idx]
            records.append(
                {
                    "label": label,
                    "P": render_poly(op.P),
                    "Q": [render_poly(q) for q in op.Q],
                    "residual": table.residuals[idx],
                    "degP": op.P.degree(),
                    "degQ": table.degree_summary[idx][1],
                }
            )
        else:
            records.append({"label": label, "error": table.failures[idx]})
    return records


def cmd_catalog(args) -> tuple[int, RunReport]:
    lines = ["available models:"]
    for name in catalog.catalog_names():
        lines.append(f"  {name}: {catalog.CATALOG_INFO[name]}")
    print("\n".join(lines))
    return 0, RunReport(model="catalog", params={})


def cmd_realize(args) -> tuple[int, RunReport]:
    model = _load(args)
    tol = args.tol if args.tol is not None else realize.SOLVER_TOL
    table = realize.realize_all(model, tol=tol, degree_cap=args.degree_cap)
    records = _realization_records(model, table)
    status = "fail" if table.partial else "pass"
    report = RunReport(model=model.name, params=model.parameters, realization=records, status=status)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"model: {model.describe()}")
        for rec in records:
            if "error" in rec:
                print(f"{rec['label']} : FAILED ({rec['error']})")
            else:
                parts = [f"P = {rec['P']}"] + [f"Q{i + 1} = {q}" for i, q in enumerate(rec["Q"])]
                print(f"{rec['label']} : " + ", ".join(parts))
        print(f"max relative intertwining defect: {table.max_residual():.3e}")
        print(f"status: {status}")
    return (0 if status == "pass" else 1), report


def cmd_kernel(args) -> tuple[int, RunReport]:
    model = _load(args)
    kp = orbit.kernel(model)
    n = kp.n
    names = [f"z{i + 1}" for i in range(n)] + [f"w{i + 1}" for i in range(n)]
    rendered = render_poly(kp.poly, names)
    section = {"variables": names, "poly": rendered}
    if args.eval:
        tokens = [tok for arg in args.eval for tok in arg.split()]
        if len(tokens) != 2 * n:
            raise CsorbitError(f"--eval needs {2 * n} complex tokens ({n} for z, {n} for w)")
        pts = [_parse_complex(tok) for tok in tokens]
        z, w = pts[:n], pts[n:]
        val = orbit.kernel_eval(model, z, w)
        section["eval"] = {
            "z": [[c.real, c.imag] for c in z],
            "w": [[c.real, c.imag] for c in w],
            "value": [val.real, val.imag],
        }
    if args.vectors:
        evec = orbit.coherent_vector(model)
        ovec = orbit.coherent_covector(model)
        section["coherent_vector"] = [render_poly(e) for e in evec.entries]
        section["covector"] = [render_poly(e) for e in ovec.entries]
    report = RunReport(model=model.name, params=model.parameters, kernel=section)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"model: {model.describe()}")
        print(f"K({', '.join(names)}) = {rendered}")
        if "eval" in section:
            print(f"value: {val:.15g}")
        if args.vectors:
            for k, txt in enumerate(section["coherent_vector"]):
                print(f"E[{k}] = {txt}")
            for k, txt in enumerate(section["covector"]):
                print(f"omega[{k}] = {txt}")
    return 0, report


# -- check implementations ---------------------------------------------------


def _random_point(rng, model, radius):
    return radius * (rng.uniform(-1, 1, model.n) + 1j * rng.uniform(-1, 1, model.n))


def _random_group_element(rng, model, scale=0.15):
    # near identity in the representation: normalize by the matrix scale
    norm = max(1.0, max(float(np.max(np.abs(m))) for m in model.rep.matrices))
    coeffs = (scale / norm) * (
        rng.standard_normal(model.spec.dim) + 1j * rng.standard_normal(model.spec.dim)
    )
    return orbit.group_element(model, AlgebraElement(coeffs))


def _run_checks(model, names, args) -> list[dict]:
    rng = np.random.default_rng(RNG_SEED)
    tol_of = lambda name: args.tol if args.tol is not None else DEFAULT_TOLS.get(name)
    radial, angular = _parse_quad(args.quad)
    fixed_pair = _cocycle_pair(model, args)
    solver_tol = realize.SOLVER_TOL  # --tol overrides check tolerances, not realization acceptance

    table = None
    table_error = None
    if any(n in names for n in ("intertwining", "homomorphism", "degree", "flow", "adjoint")):
        table = realize.realize_all(model, tol=solver_tol, degree_cap=args.degree_cap)
        if table.partial:
            table_error = "; ".join(
                f"{model.spec.basis_labels[i]}: {msg}" for i, msg in table.failures.items()
            )
    # flow and adjoint read a complete table's operators; otherwise they realize their own
    complete = None if table_error is not None else table

    rule = None
    rule_error = None
    if any(n in names for n in ("parseval", "reproducing", "adjoint")):
        try:
            rule = analysis.quadrature_rule(model, radial, angular)
        except UnsupportedCheckError as exc:
            rule_error = str(exc)

    results = []

    def record(name, residual, tolerance, status, note=None):
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

    def simple(name, residual, tolerance):
        if not math.isfinite(residual):  # JSON has no NaN or infinity
            record(name, None, tolerance, "fail", note=f"residual is {residual}")
        else:
            record(name, residual, tolerance, "pass" if residual <= tolerance else "fail")

    def run_one(name, tol):
        if name == "structure":
            rep = validate_structure(model.spec, tol)
            simple(name, max(rep.metrics.values()), tol)
        elif name == "representation":
            rep = validate_representation(model, tol)
            simple(name, rep.metrics["commutator_block"], tol)
        elif name == "model":
            rep = validate_model(model, tol)
            residual = max(
                rep.metrics[k]
                for k in (
                    "raising_annihilates_e0",
                    "lowering_orthogonal_e0",
                    "isotropy_completeness",
                    "grading_triangularity",
                )
            )
            record(name, residual, tol, "pass" if rep.passed else "fail")
        elif name in ("intertwining", "homomorphism", "degree"):
            if table_error is not None:
                record(name, None, tol, "fail", note=f"partial table: {table_error}")
                return
            if name == "intertwining":
                simple(name, realize.intertwining_residual(model, table), tol)
            elif name == "homomorphism":
                simple(name, realize.homomorphism_residual(model, table), tol)
            else:
                target = DEGREE_TARGETS.get(model.name)
                observed = realize.degree_report(table).max_degree
                if target is None:
                    record(name, float(observed), None, "skip", note="no degree target declared")
                else:
                    op, bound = target
                    ok = observed <= bound if op == "le" else observed == bound
                    record(
                        name,
                        float(observed),
                        float(bound),
                        "pass" if ok else "fail",
                        note=f"target {op} {bound}",
                    )
        elif name == "flow":
            residuals = []
            for idx in range(model.spec.dim):
                x = AlgebraElement.basis(model.spec.dim, idx)
                points = [_random_point(rng, model, 0.3) for _ in range(FLOW_POINTS)]
                residuals.append(realize.flow_crosscheck(model, x, points, degree_cap=args.degree_cap, table=complete))
            simple(name, float(np.max(residuals)), tol)
        elif name == "cocycle":
            residuals = []
            for _ in range(COCYCLE_PAIRS if fixed_pair is None else 5):
                g1, g2 = fixed_pair or (_random_group_element(rng, model), _random_group_element(rng, model))
                residuals.append(realize.cocycle_residual(model, g1, g2, _random_point(rng, model, 0.3)))
            simple(name, float(np.max(residuals)), tol)
        elif name == "roundtrip":
            residuals = []
            # the reference covector comes from the chart matrices, not from
            # the symbolic series that extract_coordinates solves against
            for _ in range(ROUNDTRIP_DRAWS):
                z0 = _random_point(rng, model, 0.5)
                mu0 = (0.5 + rng.uniform(0, 1.5)) * np.exp(2j * np.pi * rng.uniform())
                v = mu0 * covector_direct(model, z0)
                mu, z = orbit.extract_coordinates(model, v)
                residuals += [abs(mu - mu0) / (1 + abs(mu0)), *np.abs(z - z0)]
            simple(name, float(np.max(residuals)), tol)
        elif name in ("parseval", "reproducing", "adjoint"):
            if rule_error is not None:
                record(name, None, tol, "skip", note=rule_error)
                return
            tier = 1e-6 if model.rep.truncated else 1e-8
            if name == "parseval":
                tol = args.tol if args.tol is not None else tier
                simple(name, analysis.parseval_residual(model, rule), tol)
            elif name == "reproducing":
                tol = args.tol if args.tol is not None else tier
                block = model.rep.block_dim
                psis = np.zeros((REPRODUCING_DRAWS, model.dim_rep), dtype=complex)
                points = []
                for psi in psis:
                    psi[:block] = rng.standard_normal(block) + 1j * rng.standard_normal(block)
                    points.append(_random_point(rng, model, 0.4))
                simple(name, analysis.reproducing_residual(model, rule, psis, points), tol)
            else:
                if model.adjoint_pairs is None:
                    record(name, None, tol, "skip", note="no adjoint pairs declared")
                    return
                residuals = []
                block = model.rep.block_dim
                for idx in sorted(model.adjoint_pairs):
                    f = np.zeros(model.dim_rep, dtype=complex)
                    g = np.zeros(model.dim_rep, dtype=complex)
                    f[:block] = rng.standard_normal(block) + 1j * rng.standard_normal(block)
                    g[:block] = rng.standard_normal(block) + 1j * rng.standard_normal(block)
                    x = AlgebraElement.basis(model.spec.dim, idx)
                    residuals.append(analysis.adjoint_residual(model, rule, x, f, g, table=complete))
                simple(name, float(np.max(residuals)), tol)

    for name in names:
        tol = tol_of(name)
        try:
            run_one(name, tol)
        except UnsupportedCheckError as exc:
            record(name, None, tol, "skip", note=str(exc))
        except CsorbitError as exc:
            record(name, None, tol, "fail", note=str(exc))
    return results


def cmd_check(args) -> tuple[int, RunReport]:
    model = _load(args)
    if args.suite:
        names = [s.strip() for s in args.suite.split(",") if s.strip()]
        unknown = [s for s in names if s not in CHECK_ORDER]
        if unknown:
            raise CsorbitError(f"unknown check(s): {', '.join(unknown)}")
        names = [n for n in CHECK_ORDER if n in names]
    else:
        names = list(CHECK_ORDER)
    results = _run_checks(model, names, args)
    failed = [r for r in results if r["status"] == "fail"]
    status = "fail" if failed else "pass"
    report = RunReport(model=model.name, params=model.parameters, checks=results, status=status)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"model: {model.describe()}")
        for r in results:
            res = "-" if r["residual"] is None else f"{r['residual']:.3e}"
            tol = "-" if r["tolerance"] is None else f"{r['tolerance']:.1e}"
            note = f"  ({r['note']})" if "note" in r else ""
            print(f"{r['check']:<16} residual={res:<12} tol={tol:<9} {r['status'].upper()}{note}")
        print(f"overall: {status.upper()}")
    return (0 if status == "pass" else 1), report


def run(argv=None) -> tuple[int, RunReport | None]:
    """Parse arguments and execute; returns (exit code, report)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (int(exc.code) if exc.code else 0), None
    try:
        if args.command == "catalog":
            return cmd_catalog(args)
        if args.command == "realize":
            return cmd_realize(args)
        if args.command == "kernel":
            return cmd_kernel(args)
        return cmd_check(args)
    except CsorbitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None


def main(argv=None) -> int:
    code, _ = run(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
