
from dataclasses import replace

import numpy as np
import pytest

from qsusy import Binding, add, diff, equal0, fn, mul, parse, pow_, rat, sym, var
from qsusy.diffop import DiffOp
from qsusy import families
from qsusy.invariance import SamplePlan, Subspace
from qsusy import models as models_mod
from qsusy.models import (
    ModelParameterError, algebraic_spectrum,
    build_example, conditions_hold, consistency_residuals, constraint_residual_exprs,
    f1f2_from_constants,
    potential_pair, solvable_sector, verify_susy_conditions,
)

q = var("q")


def _gauged_conditions(F1, F2):
    """The two compatibility conditions, transported to the gauged variable z
    with f opaque."""
    v = "z"
    fpp, fppp, fpppp = (diff(families.F, v, k) for k in (2, 3, 4))
    F1p, F2p = diff(F1, v), diff(F2, v)
    mix = F1p + rat(-1, 6) * F2p
    cond2 = diff(F1p, v) - rat(1, 2) * fppp * pow_(fpp, -1) * mix
    cond3 = (diff(F2p, v, 2) + rat(-3, 2) * fppp * pow_(fpp, -1) * diff(F2p, v)
             + rat(3, 2) * (2 * fpppp * pow_(fpp, -1) - 3 * pow_(fppp, 2) * pow_(fpp, -2))
             * mix)
    return cond2, cond3


BINDINGS = {
    1: Binding(params={"alpha": 1.0, "nu": 1.0, "b0": 0.5}),
    2: Binding(params={"alpha": 1.3, "nu": 0.8, "b0": -0.4}),
    3: Binding(params={"alpha": 1.1, "beta": 0.7, "nu": 1.2, "b0": 0.3}),
}


@pytest.fixture(scope="module")
def models():
    return {eid: build_example(eid, b) for eid, b in BINDINGS.items()}


class TestPotentialPair:
    def test_zero_triple(self):
        vm, vp = potential_pair(rat(0), rat(0), rat(0))
        assert vm == rat(0) and vp == rat(0)

    def test_linear_w(self):
        vm, vp = potential_pair(q, rat(0), rat(0))
        assert equal0(vm - parse("q^2/2 - 3/2", "q"))
        assert equal0(vp - parse("q^2/2 + 3/2", "q"))

    def test_difference_is_total_derivative_part(self):
        W, E, F = parse("sin(q)", "q"), parse("q", "q"), parse("q^2", "q")
        vm, vp = potential_pair(W, E, F)
        from qsusy import diff
        want = add(mul(3, diff(W, "q")), mul(-1, diff(F, "q")))
        assert equal0((vp - vm) - want)


class TestFirstIntegralForms:
    def test_constants_only(self):
        F1, F2 = f1f2_from_constants([0, 0, 0, 1, 0], parse("z^3"))
        assert F1 == rat(1) and F2 == rat(0)

    def test_cubic_generator(self):
        F1, F2 = f1f2_from_constants([1, 0, 0, 0, 0], parse("z^3"))
        assert equal0(F1 - parse("z^3"))
        assert equal0(F2 - parse("-18*z^3"))

    def test_gauged_conditions_vanish_identically(self):
        # the closed forms satisfy the transported conditions for opaque f
        C = [sym("C1"), sym("C2"), sym("C3"), sym("C4"), sym("C5")]
        F1, F2 = f1f2_from_constants(C, families.F)
        c2, c3 = _gauged_conditions(F1, F2)
        assert equal0(c2)
        assert equal0(c3)

    def test_zero_triple_conditions_vanish(self):
        c2, c3 = constraint_residual_exprs(rat(0), rat(0), rat(0))
        assert c2 == rat(0) and c3 == rat(0)


class TestBuildExample:
    def test_parameter_guards(self):
        with pytest.raises(ModelParameterError):
            build_example(1, Binding(params={"alpha": 1.0, "nu": 0.0, "b0": 1.0}))
        with pytest.raises(ModelParameterError):
            build_example(2, Binding(params={"alpha": -1.0, "nu": 1.0, "b0": 1.0}))
        with pytest.raises(ModelParameterError):
            build_example(3, Binding(params={"alpha": 1.0, "beta": -1.0,
                                             "nu": 1.0, "b0": 0.0}))
        with pytest.raises(ModelParameterError):
            build_example(4, Binding(params={}))

    def test_missing_parameter(self):
        with pytest.raises(ModelParameterError, match="missing"):
            build_example(1, Binding(params={"alpha": 1.0}))

    def test_unknown_parameter(self):
        # beta is example 3's; in example 1 it would be bound and never read
        with pytest.raises(ModelParameterError, match=r"unknown parameters .*\['beta'\]"):
            build_example(1, Binding(params={"alpha": 1.0, "beta": 1.0, "nu": 1.0, "b0": 0.5}))

    def test_radial_functions(self, models):
        m = models[1]
        assert equal0(m.E - pow_(q, -1))
        al, nu, b0 = sym("alpha"), sym("nu"), sym("b0")
        assert equal0(m.F - mul(2, al, nu, q))
        want_W = add(mul(al, nu, q),
                     mul(-1, add(al, b0), pow_(mul(2, al, q), -1)))
        assert equal0(m.W - want_W)

    def test_morse_like_sector_element(self, models):
        m = models[2]
        ra = pow_(sym("alpha"), rat(1, 2))
        assert m.sector_minus.basis[2] == fn("exp", mul(sym("nu"),
                                                        fn("exp", mul(ra, q))))

    def test_trigonometric_sector_has_log_tangent(self, models):
        m = models[3]
        elem = m.sector_minus.basis[1]
        from qsusy.parser import to_string
        assert "log(tan(" in to_string(elem)

class TestSusyConditions:
    @pytest.mark.parametrize("eid", [1, 2, 3])
    def test_residuals_small(self, models, eid):
        res = verify_susy_conditions(models[eid])
        assert res.max_residual < 1e-8, res

    @pytest.mark.parametrize("eid", [1, 2, 3])
    def test_a_shifted_partner_potential_breaks_the_intertwining(self, models, eid):
        # V+ off by a constant 1e-6*nu: P3 H- = H+ P3 fails, and the
        # intertwining residual is what shows it
        m = models[eid]
        shifted = replace(m, V_plus=add(m.V_plus, mul(rat(1, 10**6), m.nu)))
        res = verify_susy_conditions(shifted)
        assert res.intertwining > 10 * SamplePlan().tol, res
        assert not conditions_hold(res, SamplePlan())

    @pytest.mark.parametrize("eid", [1, 2, 3])
    @pytest.mark.parametrize("misprint", ["potential", "gauge"])
    def test_a_misprinted_form_fails_the_conditions(self, monkeypatch, models, eid, misprint):
        # the conditions check the printed forms against the relations that
        # define them: V- against the one the function triple generates, the
        # gauge exponent's derivative against E + W; misprint one and the
        # printed-forms residual fails the conditions
        m = models[eid]
        if misprint == "potential":
            def shifted(W, E, F):
                Vm, Vp = potential_pair(W, E, F)
                return add(Vm, rat(1, 1000)), Vp

            monkeypatch.setattr(models_mod, "potential_pair", shifted)
        else:
            m = replace(m, gauge_minus=add(m.gauge_minus, mul(rat(1, 10**6), q)))
        res = verify_susy_conditions(m)
        assert res.printed > 10 * SamplePlan().tol, res
        assert not conditions_hold(res, SamplePlan())

    def test_zero_triple_exact(self):
        c2, c3 = constraint_residual_exprs(rat(0), rat(0), rat(0))
        assert c2 == rat(0) and c3 == rat(0)

    def test_unrelated_functions_fail(self):
        # negative control: a generic triple violates the conditions
        W, E, F = parse("q^2", "q"), parse("sin(q)", "q"), parse("q", "q")
        c2, c3 = constraint_residual_exprs(W, E, F)
        from qsusy import evaluate
        vals = [abs(evaluate(c2, x)) + abs(evaluate(c3, x)) for x in (0.7, 1.3)]
        assert min(vals) > 1e-2


class TestSectors:
    @pytest.mark.parametrize("eid", [1, 2, 3])
    @pytest.mark.parametrize("side", ["minus", "plus"])
    def test_hamiltonian_preserves_sector(self, models, eid, side):
        v = algebraic_spectrum(models[eid], side).sector
        assert v.passed, (eid, side, v.residuals)

    def test_side_guard(self, models):
        with pytest.raises(Exception):
            solvable_sector(models[1], "up")


class TestSpectra:
    def test_radial_eigenvalues_match_closed_form(self):
        b = Binding(params={"alpha": 1.0, "nu": 1.0, "b0": 3.0})
        m = build_example(1, b)
        sp = algebraic_spectrum(m, "minus")
        got = sorted(ev.real for ev in sp.eigenvalues)
        c0 = (2 * 1.0 - 3.0) * 1.0 / 3.0
        want = sorted([-c0, 2.0 - c0, -3.0 - c0])
        assert np.allclose(got, want, atol=1e-9)
        assert max(sp.residuals) < 1e-7

    def test_gauged_restriction_is_triangular(self):
        # with only order-preserving coefficients the matrix is triangular and
        # its diagonal carries the spectrum
        from qsusy.families import build_H_minus
        from qsusy.invariance import check_invariant

        b = {"alpha": 1.0, "nu": 1.0, "b0": 0.5}
        m = build_example(1, Binding(params=b))
        f = fn("exp", mul(sym("nu"), var("z")))
        h = build_H_minus(m.coeffs, f)
        V = Subspace([rat(1), var("z"), fn("exp", mul(sym("nu"), var("z")))], "z")
        M = check_invariant(h, V, bind=m.binding).matrix
        assert abs(M[1, 0]) < 1e-9 and abs(M[2, 0]) < 1e-9 and abs(M[2, 1]) < 1e-9
        c0 = (2 * b["alpha"] - b["b0"]) * b["nu"] / 3.0
        diag = sorted(np.diag(M))
        want = sorted([-c0, 2 * b["alpha"] * b["nu"] - c0, -b["b0"] * b["nu"] - c0])
        assert np.allclose(diag, want, atol=1e-9)

    @pytest.mark.parametrize("eid", [2, 3])
    def test_eigenfunction_residuals(self, models, eid):
        for side in ("minus", "plus"):
            sp = algebraic_spectrum(models[eid], side)
            assert max(sp.residuals) < 1e-7

    def test_zero_hamiltonian(self):
        # restriction of the zero operator is the zero matrix
        from qsusy.invariance import check_invariant

        V = Subspace([rat(1), q, pow_(q, 2)], "q")
        M = check_invariant(DiffOp.zero("q"), V).matrix
        assert np.allclose(M, 0.0)


class TestGaugeConsistency:
    @pytest.mark.parametrize("eid", [1, 2, 3])
    def test_minus_side(self, models, eid):
        assert consistency_residuals(models[eid])[0] < 1e-8

    @pytest.mark.parametrize("eid", [1, 2, 3])
    def test_partner_side(self, models, eid):
        assert consistency_residuals(models[eid])[1] < 1e-8


def test_random_admissible_draws():
    rng = np.random.default_rng(17)
    for _ in range(3):
        p1 = {"alpha": float(rng.uniform(0.5, 1.5)), "nu": float(rng.uniform(0.4, 1.4)),
              "b0": float(rng.uniform(-1.0, 1.5))}
        m = build_example(1, Binding(params=p1))
        assert verify_susy_conditions(m).max_residual < 1e-8
    p3 = {"alpha": 0.9, "beta": 1.2, "nu": 0.7, "b0": -0.2}
    m3 = build_example(3, Binding(params=p3))
    assert verify_susy_conditions(m3).max_residual < 1e-8
