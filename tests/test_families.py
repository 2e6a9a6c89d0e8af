import warnings
from fractions import Fraction

import numpy as np
import pytest

from qsusy import Binding, ExprError, add, equal0, fn, mul, opaque, parse, pow_, rat, sym, var
from qsusy.diffop import DiffOp, equal_canonical
from qsusy.families import (
    DegenerateFunctionError, F, GeneralCoefficients, J_gallery, K_gallery, ParameterError,
    abc_profile, assemble_from_literature_basis, build_H_minus,
    build_H_minus_direct, build_H_plus, build_H_plus_direct, build_J, build_K,
    build_P3_minus, build_P3_plus, combination, duality_K_from_J,
    expand_in_literature_basis, literature_ops, monomial_J, monomial_K, monomial_family,
)
from qsusy.invariance import SamplePlan, ops_equal_numeric
from qsusy.x2 import wronskian_J, wronskian_K, x2_frame

z = var("z")


class TestBuildJ:
    def test_power_exponent_profile(self):
        lam = Fraction(5, 2)
        J1 = build_J(1, pow_(z, rat(lam)))
        # 1/f'' = z^(2-lam)/(lam(lam-1))
        want = DiffOp("z", {2: mul(rat(Fraction(4, 15)), pow_(z, rat(Fraction(-1, 2))))})
        assert equal_canonical(J1, want)

    def test_generic_first_order_tail(self):
        J4 = build_J(4)
        assert equal0(J4.coeff(2) - mul(opaque("f", 1, z), pow_(opaque("f", 2, z), -1)))
        assert J4.coeff(1) == rat(-1)

    def test_j9_with_square(self):
        J9 = build_J(9, pow_(z, 2))
        want = DiffOp("z", {2: mul(rat(Fraction(1, 2)), pow_(z, 2)), 1: mul(-1, z),
                            0: rat(1)})
        assert equal_canonical(J9, want)

    def test_degenerate_generator_rejected(self):
        with pytest.raises(DegenerateFunctionError):
            build_J(1, z)

    def test_index_guard(self):
        with pytest.raises(ParameterError):
            build_J(10)

    def test_the_variable_is_read_off_f(self):
        u = var("u")
        with pytest.raises(ExprError):
            build_J(1, z**3 + u)
        for i in range(1, 10):
            assert build_J(i, opaque("f", 0, u)).var == "u"
            assert build_J(i) == build_J(i, F)


_BUILDERS = {
    "build_J": build_J,
    "build_K": build_K,
    "wronskian_J": lambda i: wronskian_J(i, x2_frame(Fraction(2))),
    "wronskian_K": lambda i: wronskian_K(i, x2_frame(Fraction(2))),
    "monomial_J": lambda i: monomial_J(i, Fraction(5, 2)),
    "monomial_K": lambda i: monomial_K(i, Fraction(5, 2)),
}


# each builder at its first invalid index on either side: the message names
# the range the builder accepts
@pytest.mark.parametrize("name, i, message", [
    ("build_J", 0, "J index must be in 1..9"), ("build_J", 10, "J index must be in 1..9"),
    ("build_K", -1, "K index must be in 0..8"), ("build_K", 9, "K index must be in 0..8"),
    ("wronskian_J", 0, "J index must be in 1..9"), ("wronskian_J", 10, "J index must be in 1..9"),
    ("wronskian_K", -1, "K index must be in 0..8"), ("wronskian_K", 9, "K index must be in 0..8"),
    ("monomial_J", 0, "J index must be in 1..8"), ("monomial_J", 9, "J index must be in 1..8"),
    ("monomial_K", 0, "K index must be in 1..8"), ("monomial_K", 9, "K index must be in 1..8"),
])
def test_index_errors_name_the_range_they_accept(name, i, message):
    with pytest.raises(ParameterError) as info:
        _BUILDERS[name](i)
    assert str(info.value) == message


class TestBuildK:
    def test_k1_cubic(self):
        got = build_K(1, pow_(z, 3))
        want = DiffOp("z", {2: mul(rat(Fraction(1, 6)), pow_(z, -1)),
                            1: mul(rat(Fraction(1, 6)), pow_(z, -2)),
                            0: mul(rat(Fraction(-1, 6)), pow_(z, -3))})
        assert equal_canonical(got, want)

    def test_k0_square_loses_third_derivative(self):
        got = build_K(0, pow_(z, 2))
        assert equal_canonical(got, DiffOp("z", {1: rat(Fraction(1, 2))}))

    def test_k3_square_matches_rescaled(self):
        # K3 at f=z^2 equals the rescaled entry divided by lam(lam-1)=2
        got = build_K(3, pow_(z, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = monomial_K(3, Fraction(2)).scaled(rat(Fraction(1, 2)))
        assert equal_canonical(got, want)


class TestSupercharges:
    def test_square_gives_pure_cube(self):
        assert build_P3_minus(pow_(z, 2)) == DiffOp.d("z", 3)

    def test_power_tail(self):
        lam = sym("lambda")
        got = build_P3_minus(pow_(z, lam))
        tail = mul(-1, add(lam, -2), pow_(z, -1))
        want = DiffOp("z", {3: rat(1), 2: tail})
        assert equal_canonical(got, want)

    def test_exponential_annihilates_generator(self):
        nu = sym("nu")
        op = build_P3_minus(fn("exp", mul(nu, z)))
        assert equal0(op.apply(fn("exp", mul(nu, z))))

    def test_plus_side_sign(self):
        got = build_P3_plus(pow_(z, 2))
        assert got == DiffOp.d("z", 3).scaled(-1)


class TestHMinus:
    def test_all_zero(self):
        assert build_H_minus(GeneralCoefficients(), parse("z^3")).is_zero()

    def test_c0_only_is_minus_j9(self):
        gc = GeneralCoefficients(c0=1)
        h = build_H_minus(gc, parse("z^3"))
        assert equal_canonical(h, build_J(9, parse("z^3")).scaled(-1))
        assert h.apply(rat(1)) == rat(-1)

    def test_routes_agree_opaque(self):
        gc = GeneralCoefficients(c0=1, c1=Fraction(1, 2), c2=2, b0=-1, b1=3,
                                 b2=1, a0=2, a1=-2, a2=Fraction(3, 4))
        h1 = build_H_minus(gc)
        h2 = build_H_minus_direct(gc)
        ok, res = ops_equal_numeric(h1, h2, Binding(funcs={"f": parse("z^3 + z")}))
        assert ok, res

    def test_action_on_basis(self):
        gc = GeneralCoefficients(c0=1, c1=2, c2=3, b0=4, b1=5, b2=6,
                                 a0=7, a1=8, a2=9)
        f = parse("exp(z)")
        h = build_H_minus(gc, f)
        assert equal0(h.apply(rat(1)) - parse("-3*exp(z) - 2*z - 1"))
        assert equal0(h.apply(z) - parse("-6*exp(z) - 5*z - 4"))
        assert equal0(h.apply(f) - parse("-9*exp(z) - 8*z - 7"))

    def test_example_profile_linear_in_z(self):
        # the first worked radial family has a linear second-order profile
        al, nu, b0 = sym("alpha"), sym("nu"), sym("b0")
        c0 = mul(rat(Fraction(1, 3)), add(mul(2, al), mul(-1, b0)), nu)
        gc = GeneralCoefficients(c0=c0, b0=b0,
                                 b1=add(c0, mul(-2, al, nu)),
                                 a2=add(c0, mul(b0, nu)))
        A, B, C = abc_profile(gc, fn("exp", mul(nu, z)))
        assert equal0(A - mul(2, al, z))


class TestHPlus:
    def test_all_zero(self):
        assert build_H_plus(GeneralCoefficients(), parse("z^3")).is_zero()

    def test_routes_agree(self):
        gc = GeneralCoefficients(c0=Fraction(1, 3), c1=1, c2=-1, b0=2, b1=-2,
                                 b2=Fraction(1, 2), a0=1, a1=3, a2=-1)
        h1 = build_H_plus(gc, parse("z^3 + z"))
        h2 = build_H_plus_direct(gc, parse("z^3 + z"))
        ok, res = ops_equal_numeric(h1, h2)
        assert ok, res

    def test_square_profile_self_dual(self):
        # for the quadratic generator both components use the same space
        from qsusy.invariance import Subspace, check_invariant

        gc = GeneralCoefficients(c0=1, c1=-2, b0=1, b2=3, a0=2, a1=1, a2=-1)
        h = build_H_plus(gc, parse("z^2"))
        V = Subspace([rat(1), z, pow_(z, 2)], "z")
        assert check_invariant(h, V).passed


class TestParamMap:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            Cs = [Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 7)))
                  for _ in range(8)]
            gc = GeneralCoefficients.from_integration_constants(Cs)
            back = gc.to_integration_constants()
            assert [rat(c) for c in Cs] == list(back)

    def test_constraint_enforced(self):
        gc = GeneralCoefficients(c0=1, b1=1, a2=1)
        with pytest.raises(ParameterError):
            gc.to_integration_constants()

    def test_forward_map_values(self):
        gc = GeneralCoefficients.from_integration_constants(
            [1, 2, 3, 4, 5, 6, 7, 8])
        assert gc.c2 == rat(-2)
        assert gc.c1 == rat(6)
        assert gc.c0 == rat(9)
        assert gc.b2 == rat(4)
        assert gc.b1 == rat(-10)
        assert gc.b0 == rat(-6)
        assert gc.a2 == rat(1)
        assert gc.a1 == rat(7)
        assert gc.a0 == rat(8)


JSB_FIXTURE = {
    1: "z^(-1)", 2: "1", 3: "z^2",
}


class TestMonomialFamilies:
    def test_type_b_list_verbatim(self):
        fam = monomial_family("B")
        J = fam["J"]
        assert equal_canonical(J[1], DiffOp("z", {2: pow_(z, -1)}))
        assert equal_canonical(J[2], DiffOp("z", {2: rat(1)}))
        assert equal_canonical(J[3], DiffOp("z", {2: pow_(z, 2)}))
        assert equal_canonical(J[4], DiffOp("z", {2: z, 1: rat(-2)}))
        assert equal_canonical(J[5], DiffOp("z", {2: pow_(z, 2), 1: mul(-2, z)}))
        assert equal_canonical(J[6], DiffOp("z", {2: pow_(z, 4), 1: mul(-2, pow_(z, 3))}))
        assert equal_canonical(J[7], DiffOp("z", {2: pow_(z, 3), 1: mul(-3, pow_(z, 2)),
                                                  0: mul(3, z)}))
        assert equal_canonical(J[8], DiffOp("z", {2: pow_(z, 5), 1: mul(-3, pow_(z, 4)),
                                                  0: mul(3, pow_(z, 3))}))

    def test_type_b_partner_list_verbatim(self):
        K = monomial_family("B")["K"]
        assert equal_canonical(K[1], DiffOp("z", {2: pow_(z, -1), 1: pow_(z, -2),
                                                  0: mul(-1, pow_(z, -3))}))
        assert equal_canonical(K[2], DiffOp("z", {2: rat(1), 0: mul(-2, pow_(z, -2))}))
        assert equal_canonical(K[3], DiffOp("z", {2: pow_(z, 2), 1: mul(-2, z), 0: rat(2)}))
        assert equal_canonical(K[4], DiffOp("z", {2: z, 1: rat(1), 0: mul(-1, pow_(z, -1))}))
        # fifth entry: the general-exponent formula gives z^2 d^2 - 2
        assert equal_canonical(K[5], DiffOp("z", {2: pow_(z, 2), 0: rat(-2)}))
        assert equal_canonical(K[6], DiffOp("z", {2: pow_(z, 4), 1: mul(-2, pow_(z, 3)),
                                                  0: mul(2, pow_(z, 2))}))
        assert equal_canonical(K[7], DiffOp("z", {2: pow_(z, 3), 0: mul(-2, z)}))
        assert equal_canonical(K[8], DiffOp("z", {2: pow_(z, 5), 1: mul(-2, pow_(z, 4)),
                                                  0: mul(2, pow_(z, 3))}))

    def test_type_a_lists_verbatim(self):
        fam = monomial_family("A")
        J, K = fam["J"], fam["K"]
        assert equal_canonical(J[1], DiffOp("z", {2: rat(1)}))
        assert equal_canonical(J[7], DiffOp("z", {2: pow_(z, 3), 1: mul(-2, pow_(z, 2)),
                                                  0: mul(2, z)}))
        assert equal_canonical(J[8], DiffOp("z", {2: pow_(z, 4), 1: mul(-2, pow_(z, 3)),
                                                  0: mul(2, pow_(z, 2))}))
        assert equal_canonical(K[2], DiffOp("z", {2: z, 1: rat(-1)}))
        assert equal_canonical(K[3], DiffOp("z", {2: pow_(z, 2), 1: mul(-2, z), 0: rat(2)}))

    def test_type_c_entries(self):
        lam = sym("lambda")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            J7 = monomial_J(7, lam)
        want = DiffOp("z", {2: pow_(z, 3), 1: mul(-1, lam, pow_(z, 2)), 0: mul(lam, z)})
        assert equal_canonical(J7, want)

    def test_specialization_matches_lists(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c3 = monomial_family("C", Fraction(3))
            c2 = monomial_family("C", Fraction(2))
        for c, fixed in ((c3, monomial_family("B")), (c2, monomial_family("A"))):
            for side in "JK":
                assert list(c[side]) == list(fixed[side]) == list(range(1, 9))
                for i in range(1, 9):
                    assert equal_canonical(c[side][i], fixed[side][i])

    def test_exponent_guards(self):
        with pytest.raises(ParameterError):
            monomial_J(1, 0)
        with pytest.raises(ParameterError):
            monomial_J(1, 1)
        for kind in ("A", "B"):  # their exponents are fixed; the CLI warns on C's
            with pytest.raises(ParameterError, match="takes none"):
                monomial_family(kind, Fraction(5, 2))

    def test_monomial_suite_raises_no_warning(self):
        # the exclusion-range warning is the CLI's; the library raises none
        from qsusy.invariance import SamplePlan
        from qsusy.suites import suite_monomial

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checks = suite_monomial(SamplePlan())
        assert len(checks) == 14 and all(c["verdict"] == "pass" for c in checks)

    def test_normalization_against_raw_gallery(self):
        # every member of both monomial galleries is the plain gallery at
        # f = z^lam, an independent route, times lam(lam-1), lam-1 or lam
        for lam in (Fraction(5, 2), Fraction(7, 3), Fraction(-1, 2), Fraction(2), Fraction(3)):
            f = pow_(z, rat(lam))
            J, K = J_gallery(f), K_gallery(f)
            fam = monomial_family("C", lam)
            for i in range(1, 9):
                s = rat(lam * (lam - 1) if i <= 3 else lam - 1 if i <= 6 else lam)
                assert equal_canonical(J[i].scaled(s), fam["J"][i]), (lam, "J", i)
                assert equal_canonical(K[i].scaled(s), fam["K"][i]), (lam, "K", i)


class TestLiteratureOps:
    def test_type_c_sharp_minus(self):
        lam = sym("lambda")
        got = literature_ops("C", "minus", lam)["J#-"]
        # z^lam d (z d - lam)
        want = DiffOp("z", {2: pow_(z, add(lam, 1)),
                            1: mul(add(1, mul(-1, lam)), pow_(z, lam))})
        assert equal_canonical(got, want)

    def test_type_b_cubic_extra(self):
        got = literature_ops("B", "minus")["J3+"]
        want = DiffOp("z", {2: pow_(z, 5), 1: mul(-3, pow_(z, 4)), 0: mul(3, pow_(z, 3))})
        assert equal_canonical(got, want)

    def test_type_a_raising(self):
        got = literature_ops("A", "minus")["J+"]
        want = DiffOp("z", {1: pow_(z, 2), 0: mul(-2, z)})
        assert equal_canonical(got, want)


class TestLiteratureBasis:
    @pytest.mark.parametrize("family,lam", [("A", Fraction(2)), ("B", Fraction(3)),
                                            ("C", Fraction(5, 2))])
    def test_reconstruction(self, family, lam):
        rng = np.random.default_rng(2)
        for _ in range(4):
            vals = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4)))
                    for _ in range(9)]
            gc = GeneralCoefficients(*vals)
            lb = expand_in_literature_basis(gc, family, lam)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assembled = assemble_from_literature_basis(lb, family, lam)
                direct = build_H_minus(gc, pow_(z, rat(lam)))
            ok, res = ops_equal_numeric(assembled, direct, plan=SamplePlan(tol=1e-9))
            assert ok, (family, res)

    def test_spec_values_type_a(self):
        gc = GeneralCoefficients(c2=2)
        lb = expand_in_literature_basis(gc, "A")
        assert lb["a++"] == rat(1)
        assert all(v == rat(0) for k, v in lb.items() if k != "a++")

    def test_spec_values_type_b(self):
        gc = GeneralCoefficients(a1=6)
        lb = expand_in_literature_basis(gc, "B")
        assert lb["a--"] == rat(1)

    def test_spec_values_type_c(self):
        lam = Fraction(7, 2)
        gc = GeneralCoefficients(b0=-(lam - 1))
        lb = expand_in_literature_basis(gc, "C", lam)
        assert lb["a1"] == rat(1)


class TestCombination:
    G = {1: DiffOp.d("z", 2), 2: DiffOp("z", {1: z, 0: rat(3)})}

    def test_coeffs_keep_the_insertion_order_of_the_weights(self):
        # that order is the float summation order of the sampled action
        assert list(combination(self.G, {0: 5, 1: 1, 2: 1}).coeffs) == [0, 2, 1]
        assert list(combination(self.G, {1: 1, 2: 1, 0: 5}).coeffs) == [2, 1, 0]
        assert list(combination(self.G, {2: 1, 0: 5, 1: 1}).coeffs) == [1, 0, 2]

    def test_zero_weights_are_skipped_and_zero_is_the_identity(self):
        got = combination(self.G, {1: 0, 2: sym("w"), 0: Fraction(1, 2)})
        assert list(got.coeffs) == [1, 0]
        assert equal_canonical(got, self.G[2].scaled(sym("w")) + DiffOp.mult("z", rat(1, 2)))
        assert combination(K_gallery(parse("z^3")), {0: 1}) == DiffOp.identity("z")  # not K0
        assert combination(self.G, {}).is_zero()


class TestDuality:
    @pytest.mark.parametrize("i", range(1, 9))
    def test_matches_direct_construction_cubic(self, i):
        got = duality_K_from_J(i, parse("z^3"))
        assert equal_canonical(got, build_K(i, parse("z^3")))

    def test_square_halves(self):
        got = duality_K_from_J(1, parse("z^2"))
        assert equal_canonical(got, DiffOp("z", {2: rat(Fraction(1, 2))}))

    def test_numeric_agreement_transcendental(self):
        f = parse("exp(z)")
        for i in (3, 7):
            got = duality_K_from_J(i, f)
            ok, res = ops_equal_numeric(got, build_K(i, f), plan=SamplePlan(tol=1e-9))
            assert ok, (i, res)


class TestRandomGeneratorBattery:
    """Gallery invariance for a seeded spread of generating functions."""

    def _random_fs(self):
        import numpy as np

        rng = np.random.default_rng(23)
        out = []
        for _ in range(6):
            deg = int(rng.integers(3, 7))
            coeffs = [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                      for _ in range(deg - 2)]
            f = pow_(z, deg)
            for k, c in enumerate(coeffs):
                f = add(f, mul(rat(c), pow_(z, k)))
            out.append(f)
        for _ in range(3):
            lam = Fraction(int(rng.integers(4, 12)), int(rng.integers(2, 5)))
            if lam.denominator == 1 and lam in (0, 1):
                lam += Fraction(1, 2)
            out.append(pow_(z, rat(lam)))
        out += [fn("exp", mul(rat(Fraction(3, 2)), z)), fn("log", z), fn("sin", z)]
        return out

    def test_j_and_k_preserve_their_spaces(self):
        from qsusy.invariance import Subspace, check_invariant
        from qsusy import diff

        for f in self._random_fs():
            V = Subspace([rat(1), z, f], "z")
            fp = diff(f, "z")
            fpp = diff(f, "z", 2)
            Vk = Subspace([rat(1), fp, add(mul(z, fp), mul(-1, f))], "z",
                          prefactor=pow_(fpp, -1))
            for i in (1, 4, 6, 8):
                assert check_invariant(build_J(i, f), V).passed, (i, f)
                assert check_invariant(build_K(i, f), Vk).passed, (i, f)


def test_supercharge_annihilates_polynomials_exactly():
    # for polynomial generators the kernel membership is canonical, not numeric
    for text in ("z^3", "z^4 + z", "z^3 + 3/4*z^2 - 1/2*z + 2"):
        f = parse(text)
        op = build_P3_minus(f)
        for b in (rat(1), z, f):
            assert op.apply(b) == rat(0), text
