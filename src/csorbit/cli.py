"""Command-line front end: a thin shell that parses flags, calls the
library and renders its reports.

Subcommands: ``catalog`` (list built-in models), ``realize`` (print the
realization table), ``kernel`` (print and optionally evaluate the
reproducing kernel), ``check`` (run :func:`checks.run_checks`).  Exit codes:
0 pass, 1 check failure, 2 usage or model error.

Complex numbers on the command line are "re,im" pairs (a bare real is also
accepted); vectors are space-separated.  Machine-readable output (--json)
is deterministic: fixed orderings, fixed formatting, fixed random seeds.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import catalog, orbit, realize
from .algebra import AlgebraElement
from .catalog import load_model, read_complex_matrix
from .checks import CHECK_ORDER, run_checks
from .errors import CsorbitError
from .polyops import render_diffop, render_poly

MAX_QUAD_NODES = 2048  # twice the largest sized count, 1,025 angles at catalog.MAX_DIM_REP


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
        sections = {"realization": self.realization, "kernel": self.kernel, "checks": self.checks}
        present = {key: val for key, val in sections.items() if val is not None}
        return {"model": self.model, "params": self.params, **present, "status": self.status}


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
    if max(radial, angular) > MAX_QUAD_NODES:
        raise CsorbitError(f"quadrature spec {text!r} needs node counts <= MAX_QUAD_NODES = {MAX_QUAD_NODES}")
    return radial, angular


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    if (value := _finite_float(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache  # built on first use and reused: parsing leaves it unchanged
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
        p.add_argument("--tol", type=_tolerance, help="override all check tolerances")
        p.add_argument("--degree-cap", type=_positive_int, default=realize.DEGREE_CAP, help="largest degree accepted")
        p.add_argument("--quad", help="radial,angular quadrature nodes (default: sized from the model)")
        p.add_argument("--json", action="store_true", help="emit the machine-readable report")

    sub.add_parser("catalog", help="list built-in models")

    p_real = sub.add_parser("realize", help="print the realization table")
    add_model_flags(p_real)

    p_ker = sub.add_parser("kernel", help="print the reproducing kernel")
    add_model_flags(p_ker)
    p_ker.add_argument("--eval", nargs="+", action="extend", metavar="RE,IM",
                       help="evaluate at z then w (n coordinates each); repeated flags add up, and a negative real "
                       'part is given as --eval=-0.3,0.1 or quoted with the rest: --eval "-0.3,0.1 0.2,0"')
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
    with np.errstate(all="ignore"):  # an overflow is reported below
        g = orbit.group_element(model, AlgebraElement.basis(model.spec.dim, idx), t)
    if not np.all(np.isfinite(g)):
        raise CsorbitError(f"exp(t {label}) at t = {t} is not finite")
    return g


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
    params = {key: getattr(args, key) for key in ("j", "k", "p", "q", "trunc", "margin")}
    return load_model(args.model, **{key: val for key, val in params.items() if val is not None})


def _realization_records(model, table) -> list:
    records = []
    for idx in range(model.spec.dim):
        label = model.spec.basis_labels[idx]
        if idx in table.entries:
            P, *Q = table.entries[idx].entries
            degP, *degQ = table.entries[idx].degrees.tolist()
            records.append(
                {
                    "label": label,
                    "P": render_poly(P),
                    "Q": [render_poly(q) for q in Q],
                    "residual": table.residuals[idx],
                    "degP": degP,
                    "degQ": max(degQ, default=-1),
                }
            )
        else:
            records.append({"label": label, "error": table.failures[idx]})
    return records


def cmd_catalog(args) -> tuple[int, RunReport]:
    entries = (f"  {name}: {catalog.CATALOG_INFO[name]}" for name in catalog.catalog_names())
    print("\n".join(["available models:", *entries]))
    return 0, RunReport(model="catalog", params={})


def cmd_realize(args) -> tuple[int, RunReport]:
    model = _load(args)
    tol = args.tol if args.tol is not None else realize.SOLVER_TOL
    table = realize.realize_all(model, tol=tol, degree_cap=args.degree_cap)
    records = _realization_records(model, table)
    status = "fail" if table.partial else "pass"
    report = RunReport(model=model.name, params=model.parameters, realization=records, status=status)
    if not args.json:
        print(f"model: {model.describe()}")
        for idx, rec in enumerate(records):
            if "error" in rec:
                print(f"{rec['label']} : FAILED ({rec['error']})")
            else:
                print(f"{rec['label']} : {render_diffop(table.entries[idx])}")
        print(f"max relative intertwining defect: {table.max_residual():.3e}")
        print(f"status: {status}")
    return (0 if status == "pass" else 1), report


def cmd_kernel(args) -> tuple[int, RunReport]:
    model = _load(args)
    n = model.n
    names = [f"z{i + 1}" for i in range(n)] + [f"w{i + 1}" for i in range(n)]
    rendered = render_poly(orbit.kernel(model).entries[0], names)
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
        section["coherent_vector"] = [render_poly(e) for e in orbit.coherent_vector(model).entries]
        section["covector"] = [render_poly(e) for e in orbit.coherent_covector(model).entries]
    report = RunReport(model=model.name, params=model.parameters, kernel=section)
    if not args.json:
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


def cmd_check(args) -> tuple[int, RunReport]:
    model = _load(args)
    names = CHECK_ORDER if args.suite is None else [s.strip() for s in args.suite.split(",") if s.strip()]
    quad = None if args.quad is None else _parse_quad(args.quad)
    results = run_checks(model, names, args.tol, quad, args.degree_cap, _cocycle_pair(model, args))
    failed = [r for r in results if r["status"] == "fail"]
    status = "fail" if failed else "pass"
    report = RunReport(model=model.name, params=model.parameters, checks=results, status=status)
    if not args.json:
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return (int(exc.code) if exc.code else 0), None
    commands = {"catalog": cmd_catalog, "realize": cmd_realize, "kernel": cmd_kernel, "check": cmd_check}
    try:
        code, report = commands[args.command](args)
    except CsorbitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    if getattr(args, "json", False):
        print(json.dumps(report.to_dict(), indent=2))
    return code, report


def main(argv=None) -> int:
    code, _ = run(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
