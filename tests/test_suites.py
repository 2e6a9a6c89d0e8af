"""The bound route checks and closure sweep: each operator pair is built once
with symbolic parameters and every draw is decided under a Binding."""

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qsusy import Binding, add, parse, sym
from qsusy.cli import SuiteConfig, run_suite
from qsusy.diffop import DiffOp, equal_canonical
from qsusy.families import (
    GeneralCoefficients, build_H_minus, build_H_minus_direct, build_H_plus,
    build_H_plus_direct,
)
from qsusy.invariance import (
    SamplePlan, SamplingError, decide_lie_closure_each,
    lie_closure_identities, ops_equal_numeric, verify_commutator_table,
)
from qsusy import families, invariance, suites, x2
from qsusy.models import build_example
from qsusy.numerics import Grid
from qsusy.suites import COEFF_NAMES, _routes_agree

FZ = parse("z^3 + z")
PLAN = SamplePlan()
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "suite-all.json"


def _symbolic():
    return GeneralCoefficients(*map(sym, COEFF_NAMES))


def _draws(n, top=12, den=5, seed=7):
    rng = np.random.default_rng(seed)
    return [[Fraction(int(rng.integers(-top, top + 1)), int(rng.integers(1, den)))
             for _ in COEFF_NAMES] for _ in range(n)]


def _bind(vals):
    return Binding(params={name: float(v) for name, v in zip(COEFF_NAMES, vals)})


def test_coefficient_names_are_the_fields_in_order():
    assert COEFF_NAMES == ("c0", "c1", "c2", "b0", "b1", "b2", "a0", "a1", "a2")


# negative controls: binding must not make a route check vacuous -------------

@pytest.mark.parametrize("build, direct, top, den", [
    (build_H_minus, build_H_minus_direct, 12, 5),
    (build_H_plus, build_H_plus_direct, 6, 4),
])
def test_a_perturbed_direct_route_fails_under_every_binding(build, direct, top, den):
    def routes(gc):
        return build(gc, FZ), direct(replace(gc, a2=add(gc.a2, Fraction(1, 10**6))), FZ)

    ok, worst = _routes_agree(PLAN, np.random.default_rng(7), 3, top, den, routes)
    assert not ok and worst > 10 * PLAN.tol
    a, b = routes(_symbolic())
    for vals in _draws(3, top, den):
        assert not ops_equal_numeric(a, b, _bind(vals), PLAN)[0]


def test_a_symbol_left_unbound_never_passes():
    def routes(gc):
        return build_H_minus(gc, FZ), build_H_minus_direct(replace(gc, a2=sym("stray")), FZ)

    with pytest.raises(SamplingError):
        _routes_agree(PLAN, np.random.default_rng(7), 3, 12, 5, routes)
    a, b = build_H_minus(_symbolic(), FZ), build_H_minus_direct(_symbolic(), FZ)
    partial = Binding(params={n: 1.0 for n in COEFF_NAMES if n != "b1"})
    with pytest.raises(SamplingError):
        ops_equal_numeric(a, b, partial, PLAN)


def test_a_closure_point_with_an_unbound_alpha_is_not_closed():
    built = lie_closure_identities(sym("am"), sym("a0"), sym("ap"), parse("-z^2/(2*am)"))
    assert decide_lie_closure_each(*built, PLAN,
                                   [Binding(params={"am": 2.0, "a0": -0.5, "ap": 0.5})])[0].closed
    (rep,) = decide_lie_closure_each(*built, PLAN, [Binding(params={"am": 2.0, "ap": 0.5})])
    assert not rep.closed
    assert all(r == float("inf") for r in rep.structure_residuals.values())


# differential oracle: the concrete build against the symbolic build, bound --

@pytest.mark.parametrize("build", [build_H_minus, build_H_minus_direct, build_H_plus,
                                   build_H_plus_direct])
def test_bound_symbolic_build_is_the_concrete_build(build):
    symbolic = build(_symbolic(), FZ)
    for vals in _draws(3):
        concrete = build(GeneralCoefficients(*vals), FZ)
        ok, res = ops_equal_numeric(concrete, symbolic, _bind(vals), PLAN)
        assert ok, (vals, res)


@pytest.mark.parametrize("ap", [Fraction(1, 2), Fraction(1)])  # closes / does not
def test_bound_closure_build_is_the_concrete_build(ap):
    am, a0 = Fraction(2), Fraction(-1, 2)
    bind = Binding(params={"am": float(am), "a0": float(a0), "ap": float(ap)})
    f_sym = parse("-z^2/(2*am)")
    f = parse("-z^2/4")
    ops_c, targets_c = lie_closure_identities(am, a0, ap, f)
    ops_s, targets_s = lie_closure_identities(sym("am"), sym("a0"), sym("ap"), f_sym)
    for c, s in zip(ops_c, ops_s):
        assert ops_equal_numeric(c, s, bind, PLAN)[0]
    for key in targets_c:
        for c, s in zip(targets_c[key], targets_s[key]):
            assert ops_equal_numeric(c, s, bind, PLAN)[0], key
    (concrete,) = decide_lie_closure_each(ops_c, targets_c, PLAN, [None])
    (bound,) = decide_lie_closure_each(ops_s, targets_s, PLAN, [bind])
    assert (bound.closed, bound.first_order) == (concrete.closed, concrete.first_order)
    assert bound.closed == (ap == Fraction(1, 2))
    for key, res in concrete.structure_residuals.items():
        assert abs(bound.structure_residuals[key] - res) <= PLAN.tol * max(1.0, res)


def test_routes_are_built_once_per_call(monkeypatch):
    calls = []

    def routes(gc):
        calls.append(gc)
        return build_H_minus(gc, FZ), build_H_minus_direct(gc, FZ)

    ok, _ = _routes_agree(PLAN, np.random.default_rng(7), 4, 12, 5, routes)
    assert ok and calls == [_symbolic()]
    seen = []
    real = suites._routes_agree

    def spy(plan, rng, draws, top, den, routes):
        count = []
        out = real(plan, rng, draws, top, den, lambda gc: count.append(gc) or routes(gc))
        seen.append(len(count))
        return out

    monkeypatch.setattr(suites, "_routes_agree", spy)
    checks = suites.suite_construction(PLAN)
    assert seen == [1, 1] and all(c["verdict"] == "pass" for c in checks)


# galleries: each caller assembles an f's galleries once -------------------

def _count_galleries(monkeypatch) -> dict:
    """Counts of J and K gallery assemblies in either frame; x2 reaches the
    index rules through the names it imported."""
    counts = {"J": 0, "K": 0}
    for name, kind in (("j_gallery", "J"), ("k_gallery", "K")):
        def counted(*args, real=getattr(families, name), kind=kind):
            counts[kind] += 1
            return real(*args)
        for module in (families, x2):
            monkeypatch.setattr(module, name, counted)
    return counts


def test_the_families_suite_assembles_one_gallery_of_each_kind_per_f(monkeypatch):
    counts = _count_galleries(monkeypatch)
    checks = suites.suite_families(PLAN)
    assert all(c["verdict"] == "pass" for c in checks)
    n = len(suites.FAMILY_F_SET)
    assert len(checks) == 18 * n and counts == {"J": n, "K": n}


def test_the_commutator_table_is_built_from_one_gallery(monkeypatch):
    invariance.commutator_table.cache_clear()
    counts = _count_galleries(monkeypatch)
    records = verify_commutator_table(parse("z^3"))
    assert len(records) == 28 and all(r["verdict"] == "pass" for r in records)
    assert counts == {"J": 1, "K": 0}


def test_the_reduction_check_fails_on_a_perturbed_plain_k_gallery(monkeypatch):
    assert suites._reduction_checks_pass()
    real = families.k_gallery

    def perturbed(K0, K1, *multipliers):  # K1's order-0 coefficient plus one
        return real(K0, K1 + DiffOp.identity(K1.var), *multipliers)

    monkeypatch.setattr(families, "k_gallery", perturbed)  # x2 keeps its own name
    assert not suites._reduction_checks_pass()


# one way per check: each identity is decided once --------------------------

def test_the_type_a_reading_at_exponent_3_does_not_verify():
    # the printed type A map reads J+0 and J++ at exponent 2 or 3; only 2 holds
    lit = families.literature_ops("A", "minus")
    J2, J3 = families.monomial_J_gallery(Fraction(2)), families.monomial_J_gallery(Fraction(3))
    assert suites._correspondence("A", Fraction(2))[0] is True
    assert equal_canonical(lit["J+0"], J2[6]) and equal_canonical(lit["J++"], J2[8])
    assert not equal_canonical(lit["J+0"], J3[6]) and not equal_canonical(lit["J++"], J3[8])


def test_the_new_operators_are_the_gallery_members_no_catalogued_operator_uses():
    # the abstract's count, one in type B and two in type C, on either side
    derived = {kind: [name for name, *_ in suites._correspondence(kind, lam)[1]]
               for kind, lam in (("A", Fraction(2)), ("B", Fraction(3)), ("C", Fraction(5, 2)))}
    assert derived == {"A": [], "B": ["J1", "K1"], "C": ["J1", "J2", "K6", "K8"]}
    ids = sorted(c["id"] for c in suites.suite_monomial(PLAN) if c["id"].startswith("monomial:new-"))
    assert ids == ["monomial:new-B:J1", "monomial:new-B:K1", "monomial:new-C:J1",
                   "monomial:new-C:J2", "monomial:new-C:K6", "monomial:new-C:K8"]


@pytest.mark.parametrize("kind, side, edit", [
    ("C", "minus", lambda t: {**t, "J+0": t["J#0"], "J#0": t["J+0"]}),  # members 7 and 8 swapped
    ("B", "plus", lambda t: {**t, "K00": {5: 1}}),  # K00's identity weight 2 dropped
])
def test_a_wrong_catalogue_entry_fails_its_correspondence(monkeypatch, kind, side, edit):
    check = f"monomial:correspondence-{kind}"
    real = suites.catalogue_weights

    def edited(family, s, parameter=None):
        table = real(family, s, parameter)
        return edit(table) if (family, s) == (kind, side) else table

    monkeypatch.setattr(suites, "catalogue_weights", edited)
    got = {c["id"]: c["verdict"] for c in suites.suite_monomial(PLAN)}
    assert got[check] == "fail"
    assert all(v == "pass" for i, v in got.items() if i.startswith("monomial:corr") and i != check)


def test_the_specialization_checks_fail_on_a_perturbed_monomial_gallery(monkeypatch):
    ids = ("monomial:C(3)==B", "monomial:C(2)==A")
    got = {c["id"]: c["verdict"] for c in suites.suite_monomial(PLAN)}
    assert [got[i] for i in ids] == ["pass", "pass"]
    real = families.monomial_J_gallery

    def doubled(lam):  # J1 twice over
        J = real(lam)
        return {**J, 1: J[1].scaled(2)}

    monkeypatch.setattr(families, "monomial_J_gallery", doubled)
    got = {c["id"]: c["verdict"] for c in suites.suite_monomial(PLAN)}
    assert [got[i] for i in ids] == ["fail", "fail"]


def test_the_crosscheck_solves_the_model_grid_once(monkeypatch):
    solves = []
    real = suites.fd_spectrum

    def counted(V, grid, k=6, bind=None):
        solves.append((V, grid))
        return real(V, grid, k, bind)

    monkeypatch.setattr(suites, "fd_spectrum", counted)
    checks = {c["id"]: c for c in suites.suite_spectrum(PLAN)}
    check = checks["spectrum:example1-crosscheck"]
    assert check["verdict"] == "pass"
    assert check["anchor"] == "certified algebraic level appears in the grid spectrum"
    model = build_example(1, Binding(params={"alpha": 1.0, "nu": 1.0, "b0": 3.0}))
    assert [grid for V, grid in solves if V is model.V_minus] == [Grid(*model.fd_domain, 4000)]


def test_each_model_side_fits_its_sector_once(monkeypatch):
    from qsusy import models

    fits = []
    real = models.check_invariant

    def counted(op, V, plan, bind):
        fits.append(op)
        return real(op, V, plan, bind)

    monkeypatch.setattr(models, "check_invariant", counted)
    monkeypatch.setattr(suites, "check_invariant", counted)
    checks = suites.suite_models(PLAN)
    assert len(fits) == 3 * 2 * 2  # examples x draws x sides
    assert sum(":sector-" in c["id"] for c in checks) == len(fits)
    assert all(c["verdict"] == "pass" for c in checks)


def test_each_group_of_decisions_makes_one_search(monkeypatch):
    # a seed-7 run's point searches per suite: each space's gallery (with P3
    # in families), each commutator table, each x2 side's identities, the
    # closure identities and each model draw's gauge and partner identities
    # make one; splitting a group again raises a count
    searches, running = {}, []
    real = invariance.safe_points_each

    def counted(*args, **kwargs):
        searches[running[-1]] = searches.get(running[-1], 0) + 1
        return real(*args, **kwargs)

    def tagged(name, suite):
        def run(plan):
            running.append(name)
            return suite(plan)
        return run

    monkeypatch.setattr(invariance, "safe_points_each", counted)
    for name, suite in list(suites.SUITES.items()):
        monkeypatch.setitem(suites.SUITES, name, tagged(name, suite))
    run_suite(SuiteConfig(seed=7))
    assert searches == {"families": 18, "construction": 2, "commutators": 3, "lie-closure": 6,
                        "monomial": 15, "models": 42, "x2": 28, "spectrum": 2}


# verdict gate: the report's verdicts are the benchmark's reference ----------

@pytest.mark.parametrize("seed", [7, 12])
def test_suite_verdicts_match_the_reference(seed):
    reference = json.loads(REFERENCE.read_text())
    expected = dict(reference["verdicts"])
    for check_id, table in reference["seed_dependent"].items():
        lo, hi = table["recorded_seeds"]
        assert lo <= seed <= hi
        expected[check_id] = "fail" if seed in table["fail_seeds"] else "pass"
    got = {c["id"]: c["verdict"] for c in run_suite(SuiteConfig(seed=seed)).checks}
    assert got == expected
