"""The benchmark's three workloads, each one pass in a fresh interpreter.

A workload function takes the workload seed and returns a ``Pass``: the
verdicts it decided, each compared with its known answer, the
``perf_counter`` window from the first call into qsusy to the last verdict,
and optional extras (``windows`` holds named sub-windows).  The functions
reach qsusy only through module attributes at call time, so the tracer's
wrappers see every call they make.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Pass:
    start: float = 0.0
    end: float = 0.0
    attempted: int = 0
    failed: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def verdict(self, check_id: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed.append(check_id)


# ---------------------------------------------------------------------------
# suite-all: the eight suites, in order, at one SamplePlan seed

# SamplePlan seeds in 0-63 at which no identity of x2.verify_x2_identities
# falls back to the exact certificate.  At the other 16 seeds, 2-4 identities
# do, each costing seconds, and a pass takes up to 55% longer; drawing from
# this list keeps the work of a pass independent of the workload seed.
SUITE_PLAN_SEEDS = (
    0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 17, 18, 19, 20, 21, 22, 24, 25, 27,
    28, 29, 30, 31, 32, 34, 35, 36, 37, 38, 39, 40, 42, 44, 45, 48, 50, 51,
    52, 53, 54, 57, 58, 59, 60, 61, 63,
)


def suite_plan_seed(seed: int) -> int:
    """The workload seed itself when it is in the list, else an entry of it."""
    if seed in SUITE_PLAN_SEEDS:
        return seed
    return SUITE_PLAN_SEEDS[seed % len(SUITE_PLAN_SEEDS)]


def suite_all(seed: int) -> Pass:
    from qsusy import cli, suites

    reference = json.loads((REFERENCE_DIR / "suite-all.json").read_text())
    plan_seed = suite_plan_seed(seed)
    config = cli.SuiteConfig(seed=plan_seed)
    plan = config.plan()
    checks, windows, raised = [], {}, []
    for name, run in suites.SUITES.items():
        t = time.perf_counter()
        try:
            checks.extend(run(plan))
        except Exception as exc:  # noqa: BLE001 - a raising suite fails its checks
            raised.append(f"{name}: {type(exc).__name__}: {exc}")
        windows[name] = (t, time.perf_counter())

    bounds = list(windows.values())
    out = Pass(start=bounds[0][0], end=bounds[-1][1])
    got = {c["id"]: c["verdict"] for c in checks}
    expected = dict(reference["verdicts"])
    # a check whose verdict already depended on the seed when the reference
    # was recorded is held to its recorded verdict for this seed
    for check_id, table in reference["seed_dependent"].items():
        expected[check_id] = "fail" if plan_seed in table["fail_seeds"] else "pass"
    for check_id, want in expected.items():
        out.verdict(check_id, got.get(check_id) == want)
    for check_id in sorted(set(got) - set(expected)):
        out.verdict(check_id, False)
    report = cli.Report(config, checks).to_json(include_timing=False)
    out.extra = {"plan_seed": plan_seed, "windows": windows, "raised": raised,
                 "seed_dependent": {k: got.get(k) for k in reference["seed_dependent"]},
                 "fingerprint": hashlib.sha256(report.encode()).hexdigest()}
    return out


# ---------------------------------------------------------------------------
# x2-exact: combination identities certified in exact rational arithmetic

# Parameters at which all eight (side, i) identities are admissible and hold
# at this commit.  Every pass certifies the whole pool, in an order the seed
# draws: drawing a subset made the amount of work depend on the seed.
X2_ALPHA_POOL = (Fraction(7, 2), Fraction(11, 2), Fraction(-7, 2), Fraction(6),
                 Fraction(13, 2))
# Fixed rational evaluation points, none of them a pole of the pool's frames.
X2_POINTS = tuple(Fraction(7 * k + 3, 16) for k in range(1, 9))


def _certify_zero(op, points) -> bool:
    """True when every coefficient of `op` is exactly 0 at every point.

    Points run in the outer loop, so a nonzero operator is usually rejected at
    the first point.
    """
    from qsusy import expr

    for x in points:
        for c in op.coeffs.values():
            if expr.evaluate_exact(c, x) != 0:
                return False
    return True


def x2_exact(seed: int) -> Pass:
    from qsusy import x2
    from qsusy.diffop import DiffOp

    rng = random.Random(seed)
    alphas = rng.sample(X2_ALPHA_POOL, len(X2_ALPHA_POOL))
    out = Pass(start=time.perf_counter())
    for a in alphas:
        for side in ("minus", "plus"):
            shift = a if side == "minus" else a - 3
            for i in range(1, 5):
                check_id = f"x2:{side}:{i}:alpha={a}"
                if not x2.combination_admissible(i, side, a):
                    out.verdict(check_id + ":admissible", False)
                    continue
                coeffs = x2.cij_coefficients(shift)
                if side == "minus":
                    gallery = x2.x2_J_gallery(a)
                    const = coeffs.C(i, 0)
                else:
                    gallery = {j: x2.x2b_conjugated_K(j, a) for j in range(1, 9)}
                    const = x2.kside_constant(i, shift)
                rest = x2.literature_x2(i, side, a)
                for j in range(1, 9):
                    cij = coeffs.C(i, j)
                    if cij:
                        rest = rest - gallery[j].scaled(cij)
                identity = rest - DiffOp.mult(x2.U, const)
                out.verdict(check_id, _certify_zero(identity, X2_POINTS))
                delta = Fraction(rng.randint(1, 9), 10**6)
                control = rest - DiffOp.mult(x2.U, const + delta)
                out.verdict(check_id + ":control", not _certify_zero(control, X2_POINTS))
    out.end = time.perf_counter()
    out.extra = {"alphas": [str(a) for a in alphas]}
    return out


# ---------------------------------------------------------------------------
# fd-grid: the finite-difference eigensolver on large grids

HARMONIC_NODES = 100_000
HARMONIC_TOL = 1e-4
MODEL_NODES = 40_000
MODEL_TOL = 1e-3


def _model_params(rng: random.Random) -> dict:
    """Example-1 parameters with b0 >= 3 alpha.

    The ground state then goes like q^s with s = (b0 - alpha) / (2 alpha) >= 1
    at the origin and the 1/q^2 term of the potential is not attractive, so
    the Dirichlet wall the grid puts near q = 0 moves the levels by far less
    than MODEL_TOL.
    """
    alpha = rng.uniform(0.8, 1.25)
    return {"alpha": alpha, "nu": rng.uniform(0.8, 1.25),
            "b0": alpha * rng.uniform(3.0, 3.6)}


def _polynomial_levels(model, plan) -> list[float]:
    """Algebraic levels of the minus sector with no exp(alpha nu q^2) part.

    The sector is prefactor * span{1, q^2, exp(alpha nu q^2)}; an eigenvector
    without the last element is a polynomial times a Gaussian, so it is
    normalizable and must appear in the grid spectrum.
    """
    from qsusy import models

    sp = models.algebraic_spectrum(model, "minus", plan)
    levels = []
    for idx, ev in enumerate(sp.eigenvalues):
        coords = sp.coordinates[:, idx]
        if abs(ev.imag) < 1e-10 and abs(coords[2]) <= 1e-8 * abs(coords).max():
            levels.append(float(ev.real))
    return levels


def fd_grid(seed: int) -> Pass:
    import numpy as np
    from qsusy import models, numerics, parser
    from qsusy.expr import Binding
    from qsusy.invariance import SamplePlan

    params = _model_params(random.Random(seed))
    out = Pass(start=time.perf_counter())
    V = parser.parse("q^2/2", "q")
    ev = numerics.fd_spectrum(V, numerics.Grid(-12.0, 12.0, HARMONIC_NODES), 3)
    for n, level in enumerate((0.5, 1.5, 2.5)):
        out.verdict(f"harmonic:level{n}", abs(ev[n] - level) < HARMONIC_TOL)
    model = models.build_example(1, Binding(params=params))
    levels = _polynomial_levels(model, SamplePlan(seed=seed))
    lo, hi = model.fd_domain
    fd = numerics.fd_spectrum(model.V_minus, numerics.Grid(lo, hi, MODEL_NODES), 8,
                              model.binding)
    out.verdict("model:two-levels", len(levels) == 2)
    for n, level in enumerate(levels):
        out.verdict(f"model:level{n}", float(np.min(np.abs(fd - level))) < MODEL_TOL)
        shifted = level + 10 * MODEL_TOL
        out.verdict(f"model:level{n}:control",
                    float(np.min(np.abs(fd - shifted))) > MODEL_TOL)
    out.end = time.perf_counter()
    out.extra = {"params": params}
    return out


WORKLOADS = {"suite-all": suite_all, "x2-exact": x2_exact, "fd-grid": fd_grid}
