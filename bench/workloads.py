"""The three closed-loop workloads.

One client sends each request only after the previous one returned, as a
CLI user or a script calling csorbit does.  The workload seed fixes the
request order within each pass and every random point; csorbit itself only
sees the generated arguments.

check-suite     full ``check --json`` per request, fresh model each time:
                the validation pipeline users run.  Dominated by su3(3,3),
                where the flow check (group_action, expm per sample point)
                takes more than half the time; realization and the rank-one
                quadrature checks make up most of the rest.  Fresh models
                churn the unbounded lru caches.
symbolic-build  ``kernel`` and ``realize`` per request, fresh model each
                time: su3 builder, series construction, kernel assembly,
                least squares and rendering, with no flow, group action or
                quadrature.  An optimisation of the per-point path must show
                no change here.  su3(4,3) is left out: about 6 s and 800 MB
                per request, nearly all in the builder, it would swamp the
                symbolic layers.
point-stream    long-lived library use: su3(3,3) (product chart, d=64) and
                su2 j=16 (sum chart) are loaded once in set-up, then each
                request takes one chart point through normalization, a
                covector round trip and group_action.  Warm caches and
                per-point evaluation only, the opposite use of the orbit
                layer to symbolic-build.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

import csorbit
import csorbit.cli
import verify

# In check-suite and symbolic-build the cheapest request and the third
# cheapest appear twice in a pass.  With six equally weighted request types
# the median latency falls on the boundary between two of them, and its
# run-to-run spread was about twice that of the machine; with these eight
# requests it falls in the middle of the doubled third type.
CHECK_SUITE = (
    ("su3", {"p": 1, "q": 1}),
    ("su2", {"j": 16}),
    ("su11", {"k": 1.5, "trunc": 40}),
    ("heisenberg", {"trunc": 40}),
    ("heisenberg", {"trunc": 40}),
    ("su3", {"p": 1, "q": 1}),
    ("su3", {"p": 2, "q": 2}),
    ("su3", {"p": 3, "q": 3}),
)
# (command, model, params, --vectors, --eval)
SYMBOLIC_BUILD = (
    ("kernel", "heisenberg", {"trunc": 80}, False, True),
    ("kernel", "su2", {"j": 40}, True, False),
    ("realize", "su2", {"j": 40}, False, False),
    ("realize", "su2", {"j": 40}, False, False),
    ("kernel", "heisenberg", {"trunc": 80}, False, True),
    ("realize", "su11", {"trunc": 80}, False, False),
    ("realize", "su3", {"p": 3, "q": 3}, False, False),
    ("kernel", "su3", {"p": 3, "q": 3}, True, True),
)
POINT_MODELS = (("su3", {"p": 3, "q": 3}), ("su2", {"j": 16}))

# Wall seconds one pass (requests plus their verification) takes at the seed
# on a 2-core x86 box; a run does round(--seconds / PASS_SECONDS) passes, so
# both sides of a comparison do the same work however fast they are.
PASS_SECONDS = {"check-suite": 6.5, "symbolic-build": 3.2, "point-stream": 0.0125}
POINT_RADIUS = 0.4
G_SCALE = 0.15  # near-identity group element, relative to the largest matrix entry
G_SEED = 20240801


@dataclass
class Request:
    key: str
    run: Callable[[], object]
    verify: Callable[[object], list]


def describe(name: str, params: dict) -> str:
    return f"{name}({','.join(f'{k}={v}' for k, v in params.items())})"


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def _complex_token(c: complex) -> str:
    return f"{float(c.real)!r},{float(c.imag)!r}"


def _model_flags(name: str, params: dict) -> list:
    flags = ["--model", name]
    for key, val in params.items():
        flags += [f"--{key}", str(val)]
    return flags


def call_cli(argv: list) -> tuple[int, dict | None]:
    """``csorbit.cli.run`` in-process; the JSON report it prints is returned
    parsed, as a script reading the CLI's output would see it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, _ = csorbit.cli.run(argv)
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def _point(rng, n: int, low: float = -1.0) -> np.ndarray:
    return POINT_RADIUS * (rng.uniform(low, 1, n) + 1j * rng.uniform(-1, 1, n))


class CheckSuite:
    name = "check-suite"
    per_pass = len(CHECK_SUITE)

    def setup(self):
        pass

    def requests(self, seed: int, npasses: int):
        order = random.Random(seed)
        for _ in range(npasses):
            for name, params in order.sample(CHECK_SUITE, len(CHECK_SUITE)):
                argv = ["check", *_model_flags(name, params), "--json"]
                yield Request(
                    f"check {describe(name, params)}",
                    lambda argv=argv: call_cli(argv),
                    lambda out, name=name, params=params: verify.verify_check(out[1], out[0], name, params),
                )


class SymbolicBuild:
    name = "symbolic-build"
    per_pass = len(SYMBOLIC_BUILD)

    def setup(self):
        self._oracles = {}

    def oracle(self, name: str, params: dict) -> verify.DenseOracle:
        """Built on first use from a model loaded without validation, so that
        it adds no lru-cache entries."""
        key = describe(name, params)
        if key not in self._oracles:
            self._oracles[key] = verify.DenseOracle(csorbit.catalog.load_model(name, validate=False, **params))
        return self._oracles[key]

    def requests(self, seed: int, npasses: int):
        order = random.Random(seed)
        rng = np.random.default_rng(seed)
        for _ in range(npasses):
            for command, name, params, vectors, evaluate in order.sample(SYMBOLIC_BUILD, len(SYMBOLIC_BUILD)):
                argv = [command, *_model_flags(name, params)]
                key = f"{command} {describe(name, params)}"
                if command == "realize":
                    check = lambda out, name=name: verify.verify_realize(out[1], out[0], name)
                else:
                    n = 3 if name == "su3" else 1
                    probe = _point(rng, 2 * n)
                    # --eval reads a token with a negative real part as an option
                    # and exits 2, so evaluation points keep real parts >= 0
                    points = (_point(rng, n, 0.0), _point(rng, n, 0.0)) if evaluate else None
                    if vectors:
                        argv.append("--vectors")
                    if evaluate:
                        argv += ["--eval", *map(_complex_token, np.concatenate(points))]
                    check = lambda out, name=name, params=params, probe=probe, points=points: verify.verify_kernel(
                        out[1], out[0], self.oracle(name, params), probe, points
                    )
                argv.append("--json")
                yield Request(key, lambda argv=argv: call_cli(argv), check)


def point_request(model, g: np.ndarray, z: np.ndarray, mu0: complex):
    """normalization, covector round trip and group action at one point."""
    norm = csorbit.orbit.normalization(model, z)
    v = mu0 * csorbit.algebra.covector_numeric(model, z)
    mu, z_back = csorbit.orbit.extract_coordinates(model, v)
    J, z_moved = csorbit.orbit.group_action(model, g, z)
    return norm, v, mu, z_back, J, z_moved


def near_identity(model, rng) -> np.ndarray:
    mats = model.rep.matrices
    scale = G_SCALE / max(1.0, max(float(np.max(np.abs(m))) for m in mats))
    coeffs = scale * (rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats)))
    return scipy.linalg.expm(sum(c * m for c, m in zip(coeffs, mats)))


class PointStream:
    name = "point-stream"
    per_pass = len(POINT_MODELS)

    def setup(self):
        rng = np.random.default_rng(G_SEED)
        self.models = []
        for name, params in POINT_MODELS:
            model = csorbit.load_model(name, **params)
            csorbit.orbit.coherent_vector(model)
            csorbit.orbit.coherent_covector(model)
            csorbit.orbit.kernel(model)
            g = near_identity(model, rng)
            oracle = verify.DenseOracle(model)
            self.models.append((f"point {describe(name, params)}", model, g, oracle))
        for _, model, g, _ in self.models:  # warm-up request per model
            point_request(model, g, np.full(model.n, 0.1 + 0.1j), 1.0)

    def requests(self, seed: int, npasses: int):
        rng = np.random.default_rng(seed)
        first = int(rng.integers(2))
        for i in range(self.per_pass * npasses):
            key, model, g, oracle = self.models[(first + i) % self.per_pass]
            z = _point(rng, model.n)
            mu0 = (0.5 + rng.uniform(0, 1.5)) * np.exp(2j * np.pi * rng.uniform())
            yield Request(
                key,
                lambda model=model, g=g, z=z, mu0=mu0: point_request(model, g, z, mu0),
                lambda out, oracle=oracle, g=g, z=z, mu0=mu0: verify.verify_point(oracle, g, z, mu0, out),
            )


WORKLOADS = {w.name: w for w in (CheckSuite, SymbolicBuild, PointStream)}
