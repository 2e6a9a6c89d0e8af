"""Named verification suites: each returns a list of check records.

A check record is {"id", "anchor", "verdict", "residual", "millis"}, plus a
"reason" on some skips and failures; verdict is one of "pass", "fail",
"skipped".  Each suite is a generator of check outcomes run by
invariance.checks, which builds and times the records.  Suites are
deterministic for a fixed (config, seed) pair.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction

import numpy as np
from numpy.random import default_rng

from .expr import (
    Binding, ONE, Var, add, as_expr, diff, mul, opaque, pow_, sym, var,
)
from .parser import parse
from .diffop import DiffOp, equal_canonical
from .families import (
    GeneralCoefficients, _fv, J_gallery, K_gallery, build_P3_minus, build_P3_plus,
    build_H_minus, build_H_minus_direct, build_H_plus, build_H_plus_direct,
    monomial_family, literature_ops, catalogue_weights, combination,
    expand_in_literature_basis, assemble_from_literature_basis,
)
from .invariance import (
    Subspace, SamplePlan, checks, check_invariant, check_annihilates, space_verdicts,
    verify_commutator_table, lie_closure_identities,
    decide_lie_closure_each, ops_equal_each, _or_raise, _sampled_actions,
)
from .models import (
    build_example, verify_susy_conditions, conditions_hold, algebraic_spectrum,
    consistency_residuals,
)
from .numerics import Grid, fd_spectrum, normalizability_probe
from . import x2 as x2mod


FAMILY_F_SET = {
    "z^(5/2)": "z^(5/2)",
    "z^3": "z^3",
    "z^2": "z^2",
    "exp(z)": "exp(z)",
    "exp(-2*z)": "exp(-2*z)",
    "log(z)": "log(z)",
    "sin(z)": "sin(z)",
    "z^4+z": "z^4 + z",
    "cubic": "z^3 + 3/4*z^2 - 1/2*z + 2",
}


def seed_basis(f) -> Subspace:
    """span{1, x, f} in the variable of f."""
    f, v = _fv(f)
    return Subspace([ONE, Var(v), f], v)


def partner_basis(f) -> Subspace:
    """(1/f'')·span{1, f', x f' - f} in the variable of f."""
    f, v = _fv(f)
    fp = diff(f, v)
    return Subspace([ONE, fp, add(mul(Var(v), fp), mul(-1, f))], v,
                    prefactor=pow_(diff(f, v, 2), -1))


@checks
def suite_families(plan: SamplePlan):
    """Per f, J1-J8 and P3- on the seed space and K1-K8 and P3+ on the
    partner space, each space's nine decisions in one point search."""
    for label, text in FAMILY_F_SET.items():
        f = parse(text)
        (*J, pm), (*K, pp) = (
            space_verdicts(space, [(gallery[i], True, plan.tol) for i in range(1, 9)]
                           + [(p3, False, plan.tol / 10)], plan)
            for gallery, space, p3 in ((J_gallery(f), seed_basis(f), build_P3_minus(f)),
                                       (K_gallery(f), partner_basis(f), build_P3_plus(f))))
        rows = [(f"{g}{i}", f"{g}-gallery invariance", v)
                for i in range(1, 9) for g, v in (("J", J[i - 1]), ("K", K[i - 1]))]
        rows += [("P3minus", "seed-space annihilation", pm),
                 ("P3plus", "partner-space annihilation", pp)]
        yield [(f"families:{name}:{label}", f"{what}, f={label}", v.passed, max(v.residuals))
               for name, what, v in rows]


COEFF_NAMES = tuple(f.name for f in fields(GeneralCoefficients))  # c0 ... a2


def _routes_agree(plan: SamplePlan, rng, draws: int, top: int, den: int, routes):
    """(ok, worst residual) of one ops_equal_each call on routes(gc), built
    once on nine symbols, under draws bindings of nine Fractions, each a
    numerator in [-top, top] over a denominator in [1, den), drawn in turn."""
    a, b = routes(GeneralCoefficients(*map(sym, COEFF_NAMES)))
    binds = [Binding({name: float(Fraction(int(rng.integers(-top, top + 1)),
                                           int(rng.integers(1, den))))
                      for name in COEFF_NAMES}) for _ in range(draws)]
    found = _or_raise(ops_equal_each(a, b, binds, plan))
    return all(ok for ok, _ in found), max([0.0] + [res for _, res in found])


@checks
def suite_construction(plan: SamplePlan):
    """Route equivalence for the gauged Hamiltonians and the parameter map."""
    rng = default_rng(plan.seed)
    fz = parse("z^3 + z")
    ok, worst = _routes_agree(plan, rng, 50, 12, 5, lambda gc: (
        build_H_minus(gc, fz), build_H_minus_direct(gc, fz)))
    yield ("construction:Hminus-routes", "gallery sum vs direct coefficient assembly",
           ok, worst)
    ok = True
    for _ in range(50):
        Cs = [Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 5)))
              for _ in range(8)]
        gc = GeneralCoefficients.from_integration_constants(Cs)
        back = gc.to_integration_constants()
        ok = ok and all(as_expr(a) == b for a, b in zip(Cs, back))
    yield "construction:param-roundtrip", "integration-constant map round trip", ok, 0.0
    ok, worst = _routes_agree(plan, rng, 10, 6, 4, lambda gc: (
        build_H_plus(gc, fz), build_H_plus_direct(gc, fz)))
    yield ("construction:Hplus-routes", "partner gallery sum vs conjugation assembly",
           ok, worst)


@checks
def suite_commutators(plan: SamplePlan):
    for text in ("z^3", "exp(z)", "z^(7/3)"):
        for rec in verify_commutator_table(parse(text), plan):
            yield dict(rec, id=f"commutators:{rec['id']}:f={text}",
                       anchor=f"commutator table {rec['id']}, f={text}")


@checks
def suite_lie_closure(plan: SamplePlan):
    grid_am = [Fraction(-2), Fraction(-1, 2), Fraction(1), Fraction(2), Fraction(3)]
    grid_a0 = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2)]
    # built once per shape of f, with the three α symbolic; each point binds them
    special, generic = (lie_closure_identities(sym("am"), sym("a0"), sym("ap"), parse(f))
                        for f in ("-z^2/(2*am)", "z^3"))
    reports = {}
    for built, kinds in ((special, ("inverse", "double")), (generic, ("generic-f",))):
        points = [(am, a0, {"inverse": 1 / am, "double": 2 / am, "generic-f": Fraction(1)}[kind],
                   kind) for am in grid_am for a0 in grid_a0 for kind in kinds]
        binds = [Binding(params={"am": float(am), "a0": float(a0), "ap": float(ap)})
                 for am, a0, ap, _ in points]
        reports.update(zip(points, decide_lie_closure_each(*built, plan, binds)))
    closures = [p for p, rep in reports.items() if rep.closed]
    expected = [(am, Fraction(-1, 2), 1 / am, "inverse") for am in grid_am]
    ok = sorted(map(str, closures)) == sorted(map(str, expected))
    yield ("lie-closure:sweep",
           f"{len(reports)}-point closure sweep finds exactly the special family",
           ok, float(len(closures)))
    rep = reports[Fraction(2), Fraction(-1, 2), Fraction(1, 2), "inverse"]  # f = -z^2/4
    yield ("lie-closure:structure-constants",
           "closed algebra with the stated structure constants",
           rep.closed, max(rep.structure_residuals.values()))


@checks
def suite_monomial(plan: SamplePlan):
    """Specializations, correspondence maps, and the newly-listed operators."""
    yield ("monomial:C(3)==B", "type B lists equal the rescaled plain gallery at f=z^3",
           _matches_plain_gallery("B", Fraction(3)), 0.0)
    yield ("monomial:C(2)==A", "type A lists equal the rescaled plain gallery at f=z^2",
           _matches_plain_gallery("A", Fraction(2)), 0.0)
    for kind, lam, target in (("A", Fraction(2), "(exponent reading: 2)"),
                              ("B", Fraction(3), "the rescaled gallery"),
                              ("C", Fraction(5, 2), "the rescaled gallery")):
        ok, new = _correspondence(kind, lam)
        yield (f"monomial:correspondence-{kind}",
               f"catalogued type {kind} operators match {target}", ok, 0.0)
        rng = default_rng(plan.seed + ord(kind))
        ok, worst = _routes_agree(plan, rng, 6, 8, 4, lambda gc: (
            assemble_from_literature_basis(expand_in_literature_basis(gc, kind, lam), kind, lam),
            build_H_minus(gc, pow_(var("z"), lam))))
        yield (f"monomial:literature-basis-{kind}",
               f"literature-basis expansion rebuilds the operator, type {kind}", ok, worst)
        for name, op, space, existing in new:
            v = check_invariant(op, space, plan)
            indep = _independent_of(op, existing, space, plan)
            yield (f"monomial:new-{kind}:{name}",
                   f"newly listed operator {kind}:{name}: invariant and independent",
                   v.passed and indep, max(v.residuals))


def _matches_plain_gallery(kind: str, lam: Fraction) -> bool:
    """monomial_family(kind) is the plain J and K galleries at f = z^lam times
    lam(lam-1) (members 1-3), lam-1 (4-6) or lam (7-8)."""
    fam, f = monomial_family(kind), pow_(var("z"), lam)
    plain = {"J": J_gallery(f), "K": K_gallery(f)}
    scale = {i: lam * (lam - 1) if i <= 3 else lam - 1 if i <= 6 else lam for i in range(1, 9)}
    return all(equal_canonical(plain[s][i].scaled(scale[i]), fam[s][i])
               for s in "JK" for i in scale)


def _correspondence(kind: str, lam: Fraction):
    """(ok, new): ok when every catalogued operator of the kind at exponent
    lam equals the combination its catalogue_weights entry makes of the
    rescaled gallery; new lists the gallery members no entry uses, each as
    (name, operator, its space, the catalogued operators of its side)."""
    fam = monomial_family(kind, lam if kind == "C" else None)
    spaces = {"J": seed_basis(pow_(var("z"), lam)), "K": _monomial_partner(lam)}
    ok, new = True, []
    for side, g in (("minus", "J"), ("plus", "K")):
        lit, table = literature_ops(kind, side, lam), catalogue_weights(kind, side, lam)
        ok = ok and lit.keys() == table.keys() and all(
            equal_canonical(op, combination(fam[g], table[name])) for name, op in lit.items())
        used = {k for weights in table.values() for k in weights}
        new += [(f"{g}{i}", op, spaces[g], list(lit.values()))
                for i, op in fam[g].items() if i not in used]
    return ok, new


def _monomial_partner(lam) -> Subspace:
    x = var("z")
    return Subspace([ONE, x, pow_(x, add(1, mul(-1, lam)))], "z", prefactor=x)


def _independent_of(op: DiffOp, existing: list[DiffOp], space: Subspace,
                    plan: SamplePlan) -> bool:
    """op is independent of existing on space: its images at 10 safe points
    raise the rank of the others'."""
    _, _, [(Ys, _)] = _sampled_actions([existing + [op]], space.elements, plan, None, count=10)
    # one feature vector per operator: each element's image at every point
    M_all = np.array([Y.T.ravel() for Y in Ys])
    M_existing = M_all[:-1]
    r0 = np.linalg.matrix_rank(M_existing, tol=1e-8 * np.abs(M_existing).max())
    r1 = np.linalg.matrix_rank(M_all, tol=1e-8 * np.abs(M_all).max())
    return r1 == r0 + 1


@checks
def suite_models(plan: SamplePlan):
    rng = default_rng(plan.seed)

    def param_draws(example_id):
        """The example's fixed parameters, then one random draw."""
        p = {"alpha": float(rng.uniform(0.5, 1.6)),
             "nu": float(rng.uniform(0.5, 1.5)),
             "b0": float(rng.uniform(-1.0, 1.5))}
        if example_id == 3:
            p["beta"] = float(rng.uniform(0.4, 1.4))
        return [{1: {"alpha": 1.0, "nu": 1.0, "b0": 0.5},
                 2: {"alpha": 1.0, "nu": 1.0, "b0": 1.0},
                 3: {"alpha": 1.0, "beta": 1.0, "nu": 1.0, "b0": 0.5}}[example_id], p]

    for eid in (1, 2, 3):
        for k, params in enumerate(param_draws(eid)):
            tag = f"example{eid}:draw{k}"
            try:
                model = build_example(eid, Binding(params=params))
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                yield (f"models:{tag}:build", f"closed-form model build, {tag}",
                       False, None, f"{type(exc).__name__}: {exc}")
                continue
            yield f"models:{tag}:build", f"closed-form model build, {tag}", True, 0.0
            res = verify_susy_conditions(model, plan)
            yield (f"models:{tag}:conditions",
                   f"printed forms, compatibility and intertwining residuals, {tag}",
                   conditions_hold(res, plan), res.max_residual)
            for side in ("minus", "plus"):
                sp = algebraic_spectrum(model, side, plan)
                v = sp.sector
                yield (f"models:{tag}:sector-{side}",
                       f"solvable sector preserved, {side} side, {tag}",
                       v.passed, max(v.residuals))
                worst = max(sp.residuals) if v.passed else None
                yield (f"models:{tag}:spectrum-{side}",
                       f"algebraic eigenfunctions solve the equation, {side} side, {tag}",
                       v.passed and worst <= 100 * plan.tol, worst, sp.reason)
            g, p = consistency_residuals(model, plan)
            yield [(f"models:{tag}:gauge", f"gauge conjugation matches the family build, {tag}",
                    g <= 10 * plan.tol, g),
                   (f"models:{tag}:partner",
                    f"partner potential recovered from conjugation, {tag}", p <= 10 * plan.tol, p)]


@checks
def suite_x2(plan: SamplePlan):
    # each frame parameter and the sides whose identities are checked at it
    sides_by_alpha = {Fraction(2): ("minus",), Fraction(3): ("minus",),
                      Fraction(5): ("minus", "plus"), Fraction(7, 2): ("minus", "plus"),
                      Fraction(-3): ("minus", "plus")}
    for a in sides_by_alpha:
        fr = x2mod.x2_frame(a)
        span = fr.span()
        part = fr.partner_span()
        # each gallery on its span in one point search; the supercharges in their own
        vs = [v for gallery, space in ((x2mod.x2_J_gallery(a), span),
                                       (x2mod.x2_K_gallery(a), part))
              for v in space_verdicts(space, [(gallery[i], True, plan.tol)
                                              for i in range(1, 9)], plan)]
        ok = all(v.passed for v in vs)
        worst = max(max(v.residuals) for v in vs)
        yield (f"x2:invariance:alpha={a}",
               f"frame operators preserve their spans, alpha={a}", ok, worst)
        pm, pp = x2mod.x2_supercharges(fr)
        va = check_annihilates(pm, span, plan)
        vb = check_annihilates(pp, part, plan)
        yield (f"x2:kernels:alpha={a}",
               f"factorized third-order operators annihilate, alpha={a}",
               va.passed and vb.passed, max(max(va.residuals), max(vb.residuals)))
    for a, sides in sides_by_alpha.items():
        for rec in x2mod.verify_x2_identities(a, plan, sides=sides):
            yield dict(rec, anchor=f"combination identity {rec['id']}")
    yield ("x2:reduction", "plain-frame reductions recover the gallery",
           _reduction_checks_pass(), 0.0)
    rank = x2mod.cij_coefficients(Fraction(2)).rank()
    yield ("x2:rank", "combination coefficient matrix has full rank",
           rank == 4, float(rank))


def _reduction_checks_pass() -> bool:
    """Whether the Wronskian frame at (1, u, f) gives the plain frame's J and K
    galleries and third-order operators, and its (1, u, u^2) minus side d^3."""
    u = var("u")
    fu = opaque("f", 0, u)
    fr = x2mod.WronskianFrame(ONE, u, fu)
    wronskian = [*x2mod.wronskian_J_gallery(fr).values(),
                 *x2mod.wronskian_K_gallery(fr).values(), *x2mod.x2_supercharges(fr)]
    plain = [*J_gallery(fu).values(), *K_gallery(fu).values(),
             build_P3_minus(fu), build_P3_plus(fu)]
    ok = all(map(equal_canonical, wronskian, plain))
    fr2 = x2mod.WronskianFrame(ONE, u, pow_(u, 2))
    pm, _ = x2mod.x2_supercharges(fr2)
    return ok and pm == DiffOp.d("u", 3)


@checks
def suite_spectrum(plan: SamplePlan):
    ev = fd_spectrum(parse("q^2/2", "q"), Grid(-12.0, 12.0, 4000), 3)
    err = float(np.abs(ev - np.array([0.5, 1.5, 2.5])).max())
    yield "spectrum:harmonic", "oscillator fixture eigenvalues", err < 1e-4, err
    params = {"alpha": 1.0, "nu": 1.0, "b0": 3.0}
    model = build_example(1, Binding(params=params))
    anchor = "certified algebraic level appears in the grid spectrum"
    sp = algebraic_spectrum(model, "minus", plan)  # no eigenpairs where the sector fit fails
    elements = model.sector_minus.elements
    found = []
    for idx, ev_alg in enumerate(sp.eigenvalues):
        if abs(ev_alg.imag) > 1e-10:
            continue
        coeffs = sp.coordinates[:, idx]
        if abs(coeffs.imag).max() > 1e-10:
            continue
        psi = add(*(mul(float(c.real), b) for c, b in zip(coeffs, elements)))
        verdict = normalizability_probe(psi, model.norm_domain, model.binding)
        if verdict == "normalizable":
            found.append((float(ev_alg.real), psi))
    ok = bool(found)
    worst = 0.0
    if found:
        fd = fd_spectrum(model.V_minus, Grid(*model.fd_domain, 4000), 8, model.binding)
        for ev_alg, _ in found:
            dist = float(np.min(np.abs(fd - ev_alg)))
            worst = max(worst, dist)
            ok = ok and dist < 1e-3
    yield ("spectrum:example1-crosscheck", anchor, ok,
           worst if sp.sector.passed else None, sp.reason)
    e1 = fd_spectrum(parse("q^2/2", "q"), Grid(-12.0, 12.0, 2000), 1)[0]
    e2 = ev[0]  # the ground level of the oscillator's 4 000-node solve above
    ok = abs(e2 - 0.5) <= 0.5 * abs(e1 - 0.5) + 1e-12
    yield ("spectrum:grid-refinement", "halving the spacing shrinks the eigenvalue error",
           ok, abs(e2 - 0.5))


SUITES = {
    "families": suite_families,
    "construction": suite_construction,
    "commutators": suite_commutators,
    "lie-closure": suite_lie_closure,
    "monomial": suite_monomial,
    "models": suite_models,
    "x2": suite_x2,
    "spectrum": suite_spectrum,
}
