"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import warnings
from fractions import Fraction

import numpy as np

from qsusy import Binding, add, equal0, mul, opaque, parse, pow_, rat, var
from qsusy.diffop import DiffOp, equal_canonical
from qsusy.families import (
    GeneralCoefficients, build_H_minus, build_H_minus_direct, build_J, build_K,
    build_P3_minus, build_P3_plus, literature_ops, monomial_J, monomial_K,
    monomial_family,
)
from qsusy.invariance import (
    SamplePlan, check_annihilates, check_invariant, decide_lie_closure_each,
    lie_closure_identities, ops_equal_numeric, safe_points, verify_commutator_table,
)
from qsusy.models import (
    algebraic_spectrum, build_example, verify_susy_conditions,
)
from qsusy.numerics import Grid, fd_spectrum, normalizability_probe
from qsusy.suites import (
    FAMILY_F_SET, _correspondence,
    _independent_of, _monomial_partner, partner_basis, seed_basis,
)
from qsusy import x2 as x2mod

z = var("z")
PLAN = SamplePlan(seed=20130901)


def verdict(num: int, ok: bool, detail: str):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_invariance_battery():
    tol = 1e-9
    count = 0
    worst = 0.0
    for label, text in FAMILY_F_SET.items():
        f = parse(text)
        V = seed_basis(f)
        Vk = partner_basis(f)
        for i in range(1, 9):
            v = check_invariant(build_J(i, f), V, PLAN)
            worst = max(worst, max(v.residuals))
            assert v.passed, (label, f"J{i}", v.residuals)
            count += 1
            v = check_invariant(build_K(i, f), Vk, PLAN)
            worst = max(worst, max(v.residuals))
            assert v.passed, (label, f"K{i}", v.residuals)
            count += 1
    verdict(1, worst < tol,
            f"{count} gallery invariance checks, worst residual {worst:.2e}")


def test_criterion_02_kernel_battery():
    tol = 1e-10
    plan = SamplePlan(seed=PLAN.seed, tol=tol)
    worst = 0.0
    count = 0
    for label, text in FAMILY_F_SET.items():
        f = parse(text)
        va = check_annihilates(build_P3_minus(f), seed_basis(f), plan)
        vb = check_annihilates(build_P3_plus(f), partner_basis(f), plan)
        worst = max(worst, max(va.residuals), max(vb.residuals))
        assert va.passed and vb.passed, (label, va.residuals, vb.residuals)
        count += 2
    verdict(2, worst < tol,
            f"{count} kernel checks, worst residual {worst:.2e}")


def test_criterion_03_construction_equivalence():
    rng = np.random.default_rng(PLAN.seed)
    fz = parse("z^3 + z")
    worst = 0.0
    for _ in range(50):
        vals = [Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 5)))
                for _ in range(9)]
        gc = GeneralCoefficients(*vals)
        ok, res = ops_equal_numeric(build_H_minus(gc, fz),
                                    build_H_minus_direct(gc, fz), None, PLAN)
        worst = max(worst, res)
        assert ok, res
    exact = True
    for _ in range(50):
        Cs = [Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 7)))
              for _ in range(8)]
        gc = GeneralCoefficients.from_integration_constants(Cs)
        exact = exact and all(rat(c) == b for c, b in
                              zip(Cs, gc.to_integration_constants()))
    verdict(3, worst < 1e-9 and exact,
            f"50 route-equivalence draws (worst {worst:.2e}) and 50 exact round trips")


def test_criterion_04_commutator_table():
    tol = 1e-8
    total = 0
    worst = 0.0
    for text in ("z^3", "exp(z)", "z^(7/3)"):
        results = verify_commutator_table(parse(text), PLAN)  # decided at 10 * PLAN.tol
        total += len(results)
        worst = max(worst, max(r["residual"] for r in results))
        assert all(r["verdict"] == "pass" for r in results), text
    verdict(4, total == 84 and worst < tol,
            f"{total} commutator identities, worst residual {worst:.2e}")


def test_criterion_05_lie_closure():
    ok = True
    rep = decide_lie_closure_each(*lie_closure_identities(
        Fraction(2), Fraction(-1, 2), Fraction(1, 2), parse("-z^2/4")), PLAN, [None])[0]
    ok &= rep.closed and rep.first_order
    ok &= max(rep.structure_residuals.values()) < 1e-8
    grid_am = [Fraction(-2), Fraction(-1, 2), Fraction(1), Fraction(2),
               Fraction(3), Fraction(5, 2), Fraction(-3)]
    grid_a0 = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
               Fraction(1)]
    combos = [(am, a0, kind)
              for am in grid_am for a0 in grid_a0
              for kind in ("inverse", "double", "generic-f")][:100]
    closures = []
    expected = []
    for am, a0, kind in combos:
        if kind == "generic-f":
            f, ap = parse("z^3"), Fraction(1)
        else:
            f = mul(rat(Fraction(-1, 2) / am), pow_(z, 2))
            ap = 1 / am if kind == "inverse" else 2 / am
        if kind == "inverse" and a0 == Fraction(-1, 2):
            expected.append((am, a0, kind))
        r = decide_lie_closure_each(*lie_closure_identities(am, a0, ap, f), PLAN, [None])[0]
        if r.closed:
            closures.append((am, a0, kind))
    ok &= closures == expected
    verdict(5, bool(ok),
            f"{len(combos)}-point sweep, closures only on the special family "
            f"({len(closures)} points)")


def test_criterion_06_monomial_specializations():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c3 = monomial_family("C", Fraction(3))
        c2 = monomial_family("C", Fraction(2))
    b = monomial_family("B")
    a = monomial_family("A")
    ok = all(equal_canonical(c3[s][i], b[s][i]) and equal_canonical(c2[s][i], a[s][i])
             for s in "JK" for i in range(1, 9))
    ok &= _correspondence("C", Fraction(5, 2))[0]
    ok &= _correspondence("B", Fraction(3))[0]
    ok &= _correspondence("A", Fraction(2))[0]
    from qsusy.families import assemble_from_literature_basis, expand_in_literature_basis

    rng = np.random.default_rng(PLAN.seed)
    worst = 0.0
    for fam, lam in (("A", Fraction(2)), ("B", Fraction(3)), ("C", Fraction(5, 2))):
        for _ in range(5):
            vals = [Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 4)))
                    for _ in range(9)]
            gc = GeneralCoefficients(*vals)
            lb = expand_in_literature_basis(gc, fam, lam)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = assemble_from_literature_basis(lb, fam, lam)
                want = build_H_minus(gc, pow_(z, rat(lam)))
            good, res = ops_equal_numeric(got, want, None, PLAN)
            worst = max(worst, res)
            ok &= good
    verdict(6, bool(ok),
            "specializations, correspondences (exponent reading 2), "
            f"literature-basis maps (worst {worst:.2e})")


def _newly_listed_cases() -> dict:
    """label: (operator, its space, the catalogued operators of that side)."""
    lam = Fraction(5, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {
            "C:J1": (monomial_J(1, lam), seed_basis(pow_(z, rat(lam))),
                     list(literature_ops("C", "minus", rat(lam)).values())),
            "C:J2": (monomial_J(2, lam), seed_basis(pow_(z, rat(lam))),
                     list(literature_ops("C", "minus", rat(lam)).values())),
            "C:K6": (monomial_K(6, lam), _monomial_partner(rat(lam)),
                     list(literature_ops("C", "plus", rat(lam)).values())),
            "C:K8": (monomial_K(8, lam), _monomial_partner(rat(lam)),
                     list(literature_ops("C", "plus", rat(lam)).values())),
            "B:J1": (monomial_J(1, Fraction(3)), seed_basis(pow_(z, 3)),
                     list(literature_ops("B", "minus").values())),
            "B:K1": (monomial_K(1, Fraction(3)), _monomial_partner(rat(3)),
                     list(literature_ops("B", "plus").values())),
        }


def test_criterion_07_newly_listed_operators():
    cases = _newly_listed_cases()
    ok = True
    for label, (op, space, existing) in cases.items():
        v = check_invariant(op, space, PLAN)
        indep = _independent_of(op, existing, space, PLAN)
        ok &= v.passed and indep
        assert v.passed and indep, label
    verdict(7, bool(ok), f"{len(cases)} newly listed operators invariant and "
                         "independent of the catalogued sets")


def _independent_of_symbolic(op, existing, space, plan) -> bool:
    """The rank test on symbolic images o.apply(b) that _independent_of replaced."""
    elements = space.elements
    applied = [[o.apply(b) for b in elements] for o in existing + [op]]
    n = len(elements)
    _, V = safe_points(elements + [e for row in applied for e in row], plan, count=10)
    feats = [V[:, n * k:n * (k + 1)].T.ravel() for k in range(1, len(applied) + 1)]
    M_existing, M_all = np.array(feats[:-1]), np.array(feats)
    r0 = np.linalg.matrix_rank(M_existing, tol=1e-8 * np.abs(M_existing).max())
    r1 = np.linalg.matrix_rank(M_all, tol=1e-8 * np.abs(M_all).max())
    return r1 == r0 + 1


def test_independence_matches_symbolic_images():
    # the suite's plan and this file's; a sum of catalogued operators is the
    # dependent control
    for plan in (SamplePlan(), PLAN):
        for label, (op, space, existing) in _newly_listed_cases().items():
            for cand, want in ((op, True), (existing[0] + existing[1], False)):
                got = _independent_of(cand, existing, space, plan)
                assert got == _independent_of_symbolic(cand, existing, space, plan) == want, \
                    (label, want)


def test_criterion_08_models():
    rng = np.random.default_rng(PLAN.seed)
    ok = True
    worst_cond = 0.0
    worst_eig = 0.0
    worst_inter = 0.0
    for eid in (1, 2, 3):
        draws = [{1: {"alpha": 1.0, "nu": 1.0, "b0": 0.5},
                  2: {"alpha": 1.0, "nu": 1.0, "b0": 1.0},
                  3: {"alpha": 1.0, "beta": 1.0, "nu": 1.0, "b0": 0.5}}[eid]]
        while len(draws) < 5:
            p = {"alpha": float(rng.uniform(0.5, 1.6)),
                 "nu": float(rng.uniform(0.5, 1.5)),
                 "b0": float(rng.uniform(-1.0, 1.5))}
            if eid == 3:
                p["beta"] = float(rng.uniform(0.4, 1.4))
            draws.append(p)
        for p in draws:
            model = build_example(eid, Binding(params=p))
            res = verify_susy_conditions(model, PLAN)
            worst_cond = max(worst_cond, res.cond2, res.cond3,
                             res.f1_match, res.f2_match)
            worst_inter = max(worst_inter, res.intertwining)
            ok &= res.cond2 < 1e-8 and res.cond3 < 1e-8
            ok &= res.f1_match < 1e-8 and res.f2_match < 1e-8
            ok &= res.intertwining < 1e-7
            for side in ("minus", "plus"):
                sp = algebraic_spectrum(model, side, PLAN)
                ok &= sp.sector.passed
                worst_eig = max(worst_eig, max(sp.residuals))
                ok &= max(sp.residuals) < 1e-7
    verdict(8, bool(ok),
            f"15 draws: conditions {worst_cond:.1e}, eigenfunctions "
            f"{worst_eig:.1e}, intertwining {worst_inter:.1e}")


def test_criterion_09_spectral_cross_check():
    ev = fd_spectrum(parse("q^2/2", "q"), Grid(-12.0, 12.0, 4000), 3)
    fixture_err = float(np.abs(ev - np.array([0.5, 1.5, 2.5])).max())
    ok = fixture_err < 1e-4

    bind = Binding(params={"alpha": 1.0, "nu": 1.0, "b0": 3.0})
    model = build_example(1, bind)
    sp = algebraic_spectrum(model, "minus", PLAN)
    elements = model.sector_minus.elements
    certified = []
    for idx, ev_alg in enumerate(sp.eigenvalues):
        if abs(ev_alg.imag) > 1e-10:
            continue
        coeffs = np.real(sp.coordinates[:, idx])
        psi = add(*(mul(float(c), b) for c, b in zip(coeffs, elements)))
        if normalizability_probe(psi, (0.0, float("inf")), bind) == "normalizable":
            certified.append(float(ev_alg.real))
    ok &= bool(certified)
    lo, hi = model.fd_domain
    fd = fd_spectrum(model.V_minus, Grid(lo, hi, 4000), 8, bind)
    worst = 0.0
    for target in certified:
        dist = float(np.min(np.abs(fd - target)))
        worst = max(worst, dist)
        ok &= dist < 1e-3
    verdict(9, bool(ok),
            f"oscillator fixture {fixture_err:.1e}; {len(certified)} certified "
            f"levels matched within {worst:.1e}")


def test_criterion_10_x2_suite():
    alphas = [Fraction(2), Fraction(3), Fraction(5), Fraction(7, 2), Fraction(-3)]
    ok = True
    worst_inv = 0.0
    for a in alphas:
        fr = x2mod.x2_frame(a)
        span, part = fr.span(), fr.partner_span()
        for i in range(1, 9):
            vj = check_invariant(x2mod.x2_J_gallery(a)[i], span, PLAN)
            vk = check_invariant(x2mod.x2_K_gallery(a)[i], part, PLAN)
            ok &= vj.passed and vk.passed
            worst_inv = max(worst_inv, max(vj.residuals), max(vk.residuals))
    worst_id = 0.0
    n_id = 0
    for a in alphas:
        sides = ("minus", "plus") if a in (Fraction(5), Fraction(7, 2), Fraction(-3)) \
            else ("minus",)
        for rec in x2mod.verify_x2_identities(a, PLAN, sides=sides):
            if rec["verdict"] == "skipped":
                continue
            n_id += 1
            ok &= rec["verdict"] == "pass" and rec["residual"] < 1e-9
            worst_id = max(worst_id, rec["residual"])
    u = var("u")
    fu = opaque("f", 0, u)
    fr_plain = x2mod.WronskianFrame(rat(1), u, fu)
    ok &= all(equal_canonical(x2mod.wronskian_J(i, fr_plain), build_J(i, fu))
              for i in range(1, 9))
    fr_sq = x2mod.WronskianFrame(rat(1), u, pow_(u, 2))
    pm, _ = x2mod.x2_supercharges(fr_sq)
    ok &= pm == DiffOp.d("u", 3)
    verdict(10, bool(ok),
            f"80 invariance checks ({worst_inv:.1e}), {n_id} combination "
            f"identities ({worst_id:.1e}), reductions exact")


def test_criterion_11_factored_expansion_identities():
    q = var("q")
    W, E, F = (opaque(s, 0, q) for s in "WEF")
    Wp, Ep = opaque("W", 1, q), opaque("E", 1, q)
    Wpp, Epp = opaque("W", 2, q), opaque("E", 2, q)
    from qsusy.diffop import expand_factored

    op = expand_factored("q", [W - E - F, W, W + E])
    ok = op.coeff(3) == rat(1)
    ok &= equal0(op.coeff(2) - (3 * W - F))
    ok &= equal0(op.coeff(1) - (3 * Wp + 2 * Ep + 3 * W**2 - E**2
                                - 2 * W * F - E * F))
    ok &= equal0(op.coeff(0) - (Wpp + Epp + 3 * W * Wp + 2 * Ep * W - E * Ep
                                - Wp * F - Ep * F + W**3 - E**2 * W
                                - W**2 * F - E * W * F))
    verdict(11, bool(ok), "factored triple expands to the stated coefficients "
                          "canonically for symbolic W, E, F")
