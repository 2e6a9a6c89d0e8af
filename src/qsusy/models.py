"""Concrete triple-supercharge models in physical coordinates.

Each model packages the defining function triple (W, E, F), the change of
variable, gauge exponents, partner potentials, and solvable sectors, together
with the coefficient set that realizes it inside the general operator family.
A build only constructs; `verify_susy_conditions` checks the printed closed
forms against their defining relations, with the compatibility conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .expr import (
    Expr, Binding, Rat, Var, ONE, MINUS_ONE, ExprError,
    add, mul, pow_, fn, var, sym, as_expr, diff, substitute_var,
)
from .diffop import DiffOp, compose, gauge_conjugate, expand_factored, pullback
from .families import (
    GeneralCoefficients, abc_profile, build_H_minus, build_H_plus, minus_side,
)
from .invariance import (
    Subspace, SamplePlan, Verdict, check_invariant, safe_points, ops_equal_numeric,
    ops_equal_pairs, relative_residual, _or_raise,
)


class ModelError(ExprError):
    pass


class ModelParameterError(ModelError):
    pass


Q = "q"
_q = Var(Q)
_half = Rat(Fraction(1, 2))
_third = Rat(Fraction(1, 3))
_sixth = Rat(Fraction(1, 6))


def potential_pair(W: Expr, E: Expr, F: Expr) -> tuple[Expr, Expr]:
    """Partner potentials generated by the function triple."""
    Wp, Ep, Fp = diff(W, Q), diff(E, Q), diff(F, Q)
    base = add(
        mul(_half, pow_(W, 2)),
        mul(Rat(Fraction(-1, 3)), add(mul(Rat(2), Ep), mul(MINUS_ONE, pow_(E, 2)))),
        mul(Rat(Fraction(-1, 6)), add(mul(Rat(2), Fp), mul(Rat(2), W, F),
                                      mul(Rat(-2), E, F), mul(MINUS_ONE, pow_(F, 2)))),
    )
    split = mul(_half, add(mul(Rat(3), Wp), mul(MINUS_ONE, Fp)))
    return add(base, mul(MINUS_ONE, split)), add(base, split)


def first_integrals(W: Expr, E: Expr, F: Expr) -> tuple[Expr, Expr]:
    """The two combinations of (W, E, F) whose derivatives close the system."""
    Wp, Ep, Fp = diff(W, Q), diff(E, Q), diff(F, Q)
    block = add(Fp, mul(Rat(-2), W, F), mul(Rat(2), E, F), pow_(F, 2))
    F1 = add(Wp, mul(E, W), mul(Rat(Fraction(-1, 4)), block))
    F2 = add(Ep, pow_(E, 2), mul(_half, block))
    return F1, F2


def constraint_residual_exprs(W: Expr, E: Expr, F: Expr) -> tuple[Expr, Expr]:
    """Left-hand sides of the two compatibility conditions on (W, E, F)."""
    F1, F2 = first_integrals(W, E, F)
    F1p, F2p = diff(F1, Q), diff(F2, Q)
    mix = add(F1p, mul(Rat(Fraction(-1, 6)), F2p))
    cond2 = add(diff(F1p, Q), mul(MINUS_ONE, E, F1p), mul(MINUS_ONE, _half, F, mix))
    inner = add(diff(F2p, Q), mul(MINUS_ONE, E, F2p))
    cond3 = add(
        diff(inner, Q),
        mul(MINUS_ONE, add(mul(Rat(2), E), mul(Rat(Fraction(3, 2)), F)), inner),
        mul(Rat(Fraction(3, 2)),
            add(mul(Rat(2), diff(F, Q)), mul(Rat(-2), E, F), mul(MINUS_ONE, pow_(F, 2))),
            mix),
    )
    return cond2, cond3


def f1f2_from_constants(C, f: Expr) -> tuple[Expr, Expr]:
    """Closed-form first integrals in the gauged variable z from constants C1..C5."""
    C1, C2, C3, C4, C5 = (as_expr(c) for c in C)
    x = Var("z")
    fp = diff(as_expr(f), "z")
    F1 = add(mul(C1, add(mul(x, fp), mul(Rat(-2), as_expr(f)))),
             mul(C2, fp), mul(C3, x), C4)
    F2 = mul(Rat(-6), add(mul(C1, x, fp), mul(C2, fp),
                          mul(MINUS_ONE, C3, x), mul(MINUS_ONE, C5)))
    return F1, F2


# ---------------------------------------------------------------------------
# model container

@dataclass
class ModelSpec:
    binding: Binding
    z_of_q: Expr
    E: Expr
    F: Expr
    W: Expr
    gauge_minus: Expr
    gauge_plus: Expr
    V_minus: Expr
    V_plus: Expr
    sector_minus: Subspace
    sector_plus: Subspace
    coeffs: GeneralCoefficients
    f_of_z: Expr
    nu: Expr
    sample_intervals: tuple
    norm_domain: tuple  # the (lo, hi) on which a sector function's normalizability is probed
    fd_domain: tuple | None = None

    def hamiltonian(self, side: str) -> DiffOp:
        V = self.V_minus if minus_side(side) else self.V_plus
        return DiffOp(Q, {2: Rat(Fraction(-1, 2)), 0: V})

    def supercharge_minus(self) -> DiffOp:
        return expand_factored(Q, [add(self.W, mul(MINUS_ONE, self.E), mul(MINUS_ONE, self.F)),
                                   self.W, add(self.W, self.E)])

    def plan(self, base: SamplePlan = SamplePlan()) -> SamplePlan:
        return replace(base, intervals=self.sample_intervals)


@dataclass
class IntertwiningResidual:
    printed: float
    cond2: float
    cond3: float
    f1_match: float
    f2_match: float
    intertwining: float

    @property
    def max_residual(self) -> float:
        return max(self.printed, self.cond2, self.cond3, self.f1_match, self.f2_match,
                   self.intertwining)


def conditions_hold(res: IntertwiningResidual, plan: SamplePlan) -> bool:
    """The verdict on a model's conditions: every residual at most 10 * plan.tol."""
    return res.max_residual <= 10 * plan.tol


@dataclass
class AlgebraicSpectrum:
    sector: Verdict     # the one fit of H on its sector, which decides that H preserves it
    eigenvalues: list   # of sector.matrix; none where the fit failed
    coordinates: np.ndarray
    residuals: list

    @property
    def reason(self) -> str | None:
        """Why there are no eigenpairs; None where the fit passed."""
        return None if self.sector.passed else (
            "InvarianceError: operator does not preserve the space (residuals "
            f"{self.sector.residuals})")


# ---------------------------------------------------------------------------
# the three closed-form families

def _sym_coeffs_example1(alpha, nu, b0) -> GeneralCoefficients:
    # the model parameter b0 is itself the fourth-operator coefficient
    c0 = mul(_third, add(mul(Rat(2), alpha), mul(MINUS_ONE, b0)), nu)
    return GeneralCoefficients(
        c0=c0,
        b0=b0,
        b1=add(c0, mul(Rat(-2), alpha, nu)),
        a2=add(c0, mul(b0, nu)),
    )


def _sym_coeffs_example2(alpha, nu, b0) -> GeneralCoefficients:
    c0 = mul(_sixth, add(alpha, mul(Rat(-2), b0, nu)))
    return GeneralCoefficients(
        c0=c0,
        c1=mul(_half, alpha, nu),
        b0=b0,
        b1=add(c0, mul(MINUS_ONE, _half, alpha)),
        a2=add(c0, mul(b0, nu)),
    )


def _sym_coeffs_example3(alpha, beta, nu, b0) -> GeneralCoefficients:
    c0 = mul(Rat(Fraction(-1, 3)), nu, add(mul(alpha, beta, nu), b0))
    return GeneralCoefficients(
        c0=c0,
        b0=b0,
        b1=c0,
        a2=mul(Rat(-2), c0),
        b2=mul(MINUS_ONE, _half, pow_(alpha, 2), nu),
        a0=mul(_half, pow_(beta, 2), pow_(nu, 2)),
    )


def build_example(example_id: int, bind: Binding) -> ModelSpec:
    """Construct one of the closed-form model families at bound parameter values."""
    p = bind.params
    need = {1: ("alpha", "nu", "b0"), 2: ("alpha", "nu", "b0"),
            3: ("alpha", "beta", "nu", "b0")}
    if example_id not in need:
        raise ModelParameterError("example id must be 1, 2, or 3")
    missing = [k for k in need[example_id] if k not in p]
    if missing:
        raise ModelParameterError(f"missing parameters: {missing}")
    unknown = sorted(set(p) - set(need[example_id]))
    if unknown:
        raise ModelParameterError(f"unknown parameters for example {example_id}: {unknown}; "
                                  f"expected {', '.join(need[example_id])}")
    al, nu, b0 = sym("alpha"), sym("nu"), sym("b0")
    if p["nu"] == 0:
        raise ModelParameterError("nu must be nonzero")
    if example_id == 1:
        if p["alpha"] == 0:
            raise ModelParameterError("alpha must be nonzero")
        z_of_q = mul(al, pow_(_q, 2))
        E = pow_(_q, -1)
        F = mul(Rat(2), al, nu, _q)
        W = add(mul(al, nu, _q),
                mul(MINUS_ONE, add(al, b0), pow_(mul(Rat(2), al, _q), -1)))
        wm = add(mul(add(al, mul(MINUS_ONE, b0)), pow_(mul(Rat(2), al), -1), fn("log", _q)),
                 mul(_half, al, nu, pow_(_q, 2)))
        wp = add(mul(add(mul(Rat(3), al), b0), pow_(mul(Rat(2), al), -1), fn("log", _q)),
                 mul(MINUS_ONE, _half, al, nu, pow_(_q, 2)))
        quad = mul(_half, pow_(al, 2), pow_(nu, 2), pow_(_q, 2))
        inv8 = pow_(mul(Rat(8), pow_(al, 2), pow_(_q, 2)), -1)
        Vm = add(quad,
                 mul(add(b0, mul(MINUS_ONE, al)), add(b0, mul(Rat(-3), al)), inv8),
                 mul(MINUS_ONE, _sixth, add(b0, mul(Rat(4), al)), nu))
        Vp = add(quad,
                 mul(add(b0, mul(Rat(3), al)), add(b0, mul(Rat(5), al)), inv8),
                 mul(MINUS_ONE, _sixth, add(b0, mul(Rat(-2), al)), nu))
        pref_m = mul(pow_(_q, mul(add(b0, mul(MINUS_ONE, al)), pow_(mul(Rat(2), al), -1))),
                     fn("exp", mul(MINUS_ONE, _half, al, nu, pow_(_q, 2))))
        pref_p = mul(pow_(_q, mul(MINUS_ONE, add(mul(Rat(3), al), b0),
                                  pow_(mul(Rat(2), al), -1))),
                     fn("exp", mul(_half, al, nu, pow_(_q, 2))))
        sector_m = Subspace([ONE, pow_(_q, 2), fn("exp", mul(al, nu, pow_(_q, 2)))],
                            Q, pref_m)
        sector_p = Subspace([ONE, pow_(_q, 2), fn("exp", mul(MINUS_ONE, al, nu, pow_(_q, 2)))],
                            Q, pref_p)
        coeffs = _sym_coeffs_example1(al, nu, b0)
        intervals = ((0.45, 2.2), (2.6, 4.0))
        anu = p["alpha"] * p["nu"]
        half_width = math.sqrt(14.0 / abs(anu)) if anu else 12.0
        # a Dirichlet wall at q_lo shifts regular levels by ~ q_lo/2, so the
        # cut sits well below the eigenvalue tolerances used downstream
        fd_domain = (2e-4, max(8.0, half_width))
        norm_domain = (0.0, math.inf)
    elif example_id == 2:
        if p["alpha"] <= 0:
            raise ModelParameterError("alpha must be positive")
        ra = pow_(al, _half)
        ez = fn("exp", mul(ra, _q))
        emz = fn("exp", mul(MINUS_ONE, ra, _q))
        z_of_q = ez
        E = ra
        F = mul(ra, nu, ez)
        W = add(mul(_half, ra, nu, ez), mul(MINUS_ONE, b0, pow_(ra, -1), emz))
        wm = add(mul(ra, _q), mul(_half, nu, ez), mul(b0, pow_(al, -1), emz))
        wp = add(mul(ra, _q), mul(MINUS_ONE, _half, nu, ez),
                 mul(MINUS_ONE, b0, pow_(al, -1), emz))
        e2z = fn("exp", mul(Rat(2), ra, _q))
        em2z = fn("exp", mul(Rat(-2), ra, _q))
        base = add(mul(Rat(Fraction(1, 8)), al, pow_(nu, 2), e2z),
                   mul(_half, pow_(b0, 2), pow_(al, -1), em2z),
                   mul(_sixth, add(mul(Rat(2), al), mul(MINUS_ONE, b0, nu))))
        split = add(mul(Rat(Fraction(1, 4)), al, nu, ez),
                    mul(Rat(Fraction(3, 2)), b0, emz))
        Vm = add(base, mul(MINUS_ONE, split))
        Vp = add(base, split)
        sector_m = Subspace([ONE, ez, fn("exp", mul(nu, ez))], Q,
                            fn("exp", mul(MINUS_ONE, wm)))
        sector_p = Subspace([ONE, ez, fn("exp", mul(MINUS_ONE, nu, ez))], Q,
                            fn("exp", mul(MINUS_ONE, wp)))
        coeffs = _sym_coeffs_example2(al, nu, b0)
        scale = math.sqrt(p["alpha"])
        intervals = ((-1.2 / scale, 1.3 / scale),)
        fd_domain = None
        norm_domain = (-math.inf, math.inf)
    else:
        be = sym("beta")
        if p["alpha"] * p["beta"] <= 0:
            raise ModelParameterError("alpha*beta must be positive")
        if p["nu"] <= 0:
            raise ModelParameterError("nu must be positive for the periodic branch")
        rab = pow_(mul(al, be), _half)
        s = mul(rab, nu)          # full angular scale
        sq = mul(s, _q)
        sin_s, cos_s = fn("sin", sq), fn("cos", sq)
        half_arg = mul(_half, s, _q)
        tan_h = fn("tan", half_arg)
        # principal branch; the additive constant makes the change of variable exact
        z_of_q = add(mul(Rat(2), pow_(nu, -1), fn("log", tan_h)),
                     mul(pow_(nu, -1), fn("log", mul(be, pow_(al, -1)))))
        E = mul(MINUS_ONE, s, cos_s, pow_(sin_s, -1))
        F = mul(Rat(2), s, pow_(sin_s, -1))
        kap = mul(add(mul(Rat(2), b0), mul(al, be, nu)),
                  pow_(mul(Rat(4), al, be, nu), -1))
        W = add(mul(_half, s, pow_(sin_s, -1)),
                mul(MINUS_ONE, add(mul(Rat(2), b0), mul(al, be, nu)),
                    pow_(mul(Rat(4), rab), -1), sin_s))
        wm = add(mul(MINUS_ONE, fn("log", sin_s)), mul(_half, fn("log", tan_h)),
                 mul(kap, cos_s))
        wp = add(mul(MINUS_ONE, fn("log", sin_s)), mul(MINUS_ONE, _half, fn("log", tan_h)),
                 mul(MINUS_ONE, kap, cos_s))
        two_b0_abn = add(mul(Rat(2), b0), mul(al, be, nu))
        base = add(mul(pow_(two_b0_abn, 2), pow_(mul(Rat(32), al, be), -1), pow_(sin_s, 2)),
                   mul(Rat(Fraction(1, 8)), al, be, pow_(nu, 2), pow_(sin_s, -2)),
                   mul(Rat(Fraction(1, 24)), add(mul(Rat(2), b0), mul(Rat(-7), al, be, nu)), nu))
        split = add(mul(Rat(Fraction(-3, 8)), two_b0_abn, nu, cos_s),
                    mul(Rat(Fraction(1, 4)), al, be, pow_(nu, 2), cos_s, pow_(sin_s, -2)))
        Vm = add(base, mul(MINUS_ONE, split))
        Vp = add(base, split)
        pref_m = mul(pow_(fn("sin", half_arg), _half),
                     pow_(fn("cos", half_arg), Rat(Fraction(3, 2))),
                     fn("exp", mul(MINUS_ONE, kap, cos_s)))
        pref_p = mul(pow_(fn("sin", half_arg), Rat(Fraction(3, 2))),
                     pow_(fn("cos", half_arg), _half),
                     fn("exp", mul(kap, cos_s)))
        sector_m = Subspace([ONE, fn("log", tan_h), pow_(tan_h, 2)], Q, pref_m)
        sector_p = Subspace([ONE, fn("log", tan_h), pow_(tan_h, -2)], Q, pref_p)
        coeffs = _sym_coeffs_example3(al, be, nu, b0)
        sval = math.sqrt(p["alpha"] * p["beta"]) * p["nu"]
        period = math.pi / sval
        intervals = ((0.1 * period, 0.9 * period),)
        fd_domain = None
        norm_domain = intervals[0]

    model = ModelSpec(
        binding=bind, z_of_q=z_of_q, E=E, F=F, W=W,
        gauge_minus=wm, gauge_plus=wp, V_minus=Vm, V_plus=Vp,
        sector_minus=sector_m, sector_plus=sector_p, coeffs=coeffs,
        f_of_z=fn("exp", mul(nu, var("z"))), nu=nu,
        sample_intervals=intervals, norm_domain=norm_domain, fd_domain=fd_domain,
    )
    return model


def _compose_z(e_z: Expr, z_of_q: Expr) -> Expr:
    return substitute_var(e_z, "z", z_of_q)


# ---------------------------------------------------------------------------
# verification operations

def verify_susy_conditions(model: ModelSpec,
                           plan: SamplePlan = SamplePlan()) -> IntertwiningResidual:
    """The printed forms, the compatibility conditions, the first-integral
    matches and the intertwining, each a residual to be decided at 10 * tol."""
    plan = model.plan(plan)
    bind = model.binding
    W, E, F = model.W, model.E, model.F
    zp = diff(model.z_of_q, Q)
    Vm, Vp = potential_pair(W, E, F)
    A, B, _ = abc_profile(model.coeffs, model.f_of_z)
    Aq = _compose_z(A, model.z_of_q)
    Qq = _compose_z(add(B, mul(_half, diff(A, "z"))), model.z_of_q)
    printed = [  # each printed form against the relation that defines it
        add(mul(E, zp), mul(MINUS_ONE, diff(zp, Q))),                  # E = z''/z'
        add(F, mul(MINUS_ONE, model.nu, zp)),                          # F = nu z'
        add(diff(model.gauge_minus, Q), mul(MINUS_ONE, add(E, W))),    # W-' = E + W
        add(diff(model.gauge_plus, Q), mul(MINUS_ONE, add(E, mul(MINUS_ONE, W)))),  # E - W
        add(model.V_minus, mul(MINUS_ONE, Vm)),                        # V- of (W, E, F)
        add(model.V_plus, mul(MINUS_ONE, Vp)),                         # V+ of (W, E, F)
        add(mul(Rat(2), Aq), mul(MINUS_ONE, pow_(zp, 2))),             # 2A = z'^2
        add(Qq, mul(zp, W)),                                           # Q = -z'W
    ]
    cond2, cond3 = constraint_residual_exprs(W, E, F)
    F1, F2 = first_integrals(W, E, F)
    F1p, F2p = diff(F1, Q), diff(F2, Q)
    Cs = model.coeffs.to_integration_constants()
    tF1, tF2 = f1f2_from_constants(Cs[:5], model.f_of_z)
    m1 = add(_compose_z(tF1, model.z_of_q), mul(MINUS_ONE, F1))
    m2 = add(_compose_z(tF2, model.z_of_q), mul(MINUS_ONE, F2))
    # each kind of residual is scaled by the largest value of what it is built from
    groups = [printed, [W, E, F, zp, Aq, Qq],
              [cond2, cond3, m1, m2], [F1p, F2p, diff(F1p, Q), diff(F2p, Q), F1, F2]]
    _, V = safe_points([e for g in groups for e in g], plan, bind, count=10)
    P, SP, C, SC = np.split(V, np.cumsum([len(g) for g in groups[:-1]]), axis=1)
    rp = float(relative_residual(P, float(np.abs(SP).max())).max())
    r2, r3, rm1, rm2 = map(float, relative_residual(C, float(np.abs(SC).max())))

    # the intertwining P3 H- = H+ P3, decided like every other operator identity
    P3 = model.supercharge_minus()
    worst = ops_equal_numeric(compose(P3, model.hamiltonian("minus")),
                              compose(model.hamiltonian("plus"), P3), bind, plan)[1]
    return IntertwiningResidual(rp, r2, r3, rm1, rm2, worst)


def solvable_sector(model: ModelSpec, side: str) -> Subspace:
    return model.sector_minus if minus_side(side) else model.sector_plus


def algebraic_spectrum(model: ModelSpec, side: str,
                       plan: SamplePlan = SamplePlan()) -> AlgebraicSpectrum:
    """The side's one sector fit and, where it passes, the eigenpairs of its
    matrix, each checked against the H.apply(b) images at 8 further points.
    A failed fit gives no eigenpairs."""
    plan = model.plan(plan)
    bind = model.binding
    H = model.hamiltonian(side)
    V = solvable_sector(model, side)
    sector = check_invariant(H, V, plan, bind)
    if not sector.passed:
        return AlgebraicSpectrum(sector, [], np.empty((len(V.basis), 0), complex), [])
    eigvals, vecs = np.linalg.eig(sector.matrix)
    elements = V.elements
    h_applied = [H.apply(b) for b in elements]
    _, V = safe_points(elements + h_applied, plan, bind, count=8)
    Bv, Hv = V[:, :len(elements)], V[:, len(elements):]
    residuals = []
    for lam, c in zip(eigvals, vecs.T):
        lam_psi = lam * (Bv @ c)
        residuals.append(float(relative_residual(Hv @ c - lam_psi, np.abs(lam_psi).max())))
    return AlgebraicSpectrum(sector, [complex(ev) for ev in eigvals], vecs, residuals)


def consistency_residuals(model: ModelSpec, plan: SamplePlan = SamplePlan()) -> list:
    """The worst residuals of two operator identities, from one point search:
    the physical Hamiltonian conjugated by its gauge against the gauged-family
    build, and the plus-side family build with its gauge undone against
    -d²/2 + V+.  Each is to be decided at 10 * tol."""
    gauged = gauge_conjugate(fn("exp", model.gauge_minus), model.hamiltonian("minus"))
    hz = pullback(build_H_minus(model.coeffs, model.f_of_z), Q, model.z_of_q)
    hq_bar = pullback(build_H_plus(model.coeffs, model.f_of_z), Q, model.z_of_q)
    recovered = gauge_conjugate(fn("exp", mul(MINUS_ONE, model.gauge_plus)), hq_bar)
    (found,) = _or_raise(ops_equal_pairs([(gauged, hz), (recovered, model.hamiltonian("plus"))],
                                         [model.binding], model.plan(plan)))
    return [worst for _, worst in found]
