from fractions import Fraction
from unittest import mock

import pytest

from qsusy import equal0, mul, opaque, parse, pow_, rat, var
from qsusy import x2
from qsusy.diffop import DiffOp, equal_canonical
from qsusy.expr import Add, Mul, Pow, Rat
from qsusy.families import ParameterError, build_J, build_K, build_P3_minus, literature_ops
from qsusy.invariance import SamplePlan, check_annihilates, check_invariant, ops_equal_numeric
from qsusy.x2 import (
    FrameError, WronskianFrame, X2Coefficients, _exact_zero_operator, cij_coefficients,
    combination_admissible,
    f_alpha, kside_constant, literature_x2, supercharges_via_conjugation,
    verify_x2_identities, wronskian_J, wronskian_J_via_conjugation,
    wronskian_K, wronskian_K_via_conjugation, x2_frame,
    x2_J_gallery, x2_K_gallery, x2_seed_polynomial, x2_partner_polynomial,
    x2_supercharges, x2b_basis, x2b_conjugated_K,
)
import diffop_oracle

u = var("u")


class TestFrame:
    def test_degenerate_rejected(self):
        with pytest.raises(FrameError):
            WronskianFrame(parse("u", "u"), parse("2*u", "u"), parse("u^3", "u"))

    @pytest.mark.parametrize("triple", [
        ("u^2 + 1", "2*u^2 + 2", "u^3"),  # phi2 = 2 phi1: W21 vanishes
        ("1", "u", "u + 2"),              # phi3 in span(phi1, phi2): W3121 vanishes
    ])
    def test_vanishing_wronskians_rejected(self, triple):
        with pytest.raises(FrameError):
            WronskianFrame(*(parse(t, "u") for t in triple))

    def test_only_an_undecided_wronskian_is_expanded(self):
        # W21 = 1 is nonzero at u = 1/3; W3121 holds f'' and must be expanded
        with mock.patch.object(x2, "expand", wraps=x2.expand) as spy:
            WronskianFrame(rat(1), u, opaque("f", 0, u))
        assert spy.call_count == 1

    def test_pool_frames_are_proved_nondegenerate_without_expansion(self):
        # the nine frames of the x2-exact pool: each alpha and each alpha - 3
        pool = [Fraction(7, 2), Fraction(11, 2), Fraction(-7, 2), Fraction(6), Fraction(13, 2)]
        alphas = set(pool) | {a - 3 for a in pool}
        assert len(alphas) == 9
        with mock.patch.object(x2, "expand", wraps=x2.expand) as spy:
            for a in alphas:
                WronskianFrame(*(x2_seed_polynomial(n, a) for n in (1, 2, 3)))
        assert spy.call_count == 0

    def test_seed_polynomials(self):
        # n=1 entry for a generic parameter
        a = Fraction(7, 2)
        got = x2_seed_polynomial(1, a)
        want = (rat(a - 1) * u**2 + rat(2 * a * (a - 1)) * u
                + rat((a + 1) * (a - 1) * a))
        assert equal0(got - want)

    def test_equal_parameters_share_one_memo_entry(self):
        # equal numbers hash equal; lru_cache keys a lone int argument by
        # itself, so an int gets an entry of its own, built from the same nodes
        assert x2_frame(Fraction(2)) is x2_frame(2.0)
        assert x2_J_gallery(Fraction(2)) is x2_J_gallery(2.0)
        assert x2_K_gallery(Fraction(7, 2)) is x2_K_gallery(3.5)
        assert x2_J_gallery(2) == x2_J_gallery(Fraction(2))

    def test_alpha_one_degenerates(self):
        assert x2_seed_polynomial(1, 1) == rat(0)
        with pytest.raises(ParameterError):
            x2_frame(1)

    def test_partner_polynomial_leading_coefficient(self):
        a = Fraction(9, 2)
        got = x2_partner_polynomial(1, a)
        lead = (a - 1) * a
        from qsusy import evaluate
        h = 1e4
        assert evaluate(got, h) / h**2 == pytest.approx(float(lead), rel=1e-3)


class TestReductions:
    def test_plain_frame_recovers_gallery(self):
        fr = WronskianFrame(rat(1), u, opaque("f", 0, u))
        for i in range(1, 10):
            assert equal_canonical(wronskian_J(i, fr), build_J(i, opaque("f", 0, u)))

    def test_plain_frame_recovers_partner_gallery(self):
        fr = WronskianFrame(rat(1), u, opaque("f", 0, u))
        for i in range(0, 9):
            assert equal_canonical(wronskian_K(i, fr), build_K(i, opaque("f", 0, u)))

    def test_plain_frame_supercharges(self):
        fr = WronskianFrame(rat(1), u, opaque("f", 0, u))
        pm, pp = x2_supercharges(fr)
        assert equal_canonical(pm, build_P3_minus(opaque("f", 0, u)))

    def test_square_frame_gives_cube(self):
        fr = WronskianFrame(rat(1), u, pow_(u, 2))
        pm, _ = x2_supercharges(fr)
        assert pm == DiffOp.d("u", 3)


class TestTwoRoutes:
    @pytest.mark.parametrize("i", [1, 4, 9, 6])
    def test_j_routes_agree(self, i):
        fr = x2_frame(Fraction(2))
        ok, res = ops_equal_numeric(wronskian_J(i, fr),
                                    wronskian_J_via_conjugation(i, fr),
                                    plan=SamplePlan(tol=1e-9))
        assert ok, (i, res)

    @pytest.mark.parametrize("i", [0, 1, 3, 8])
    def test_k_routes_agree(self, i):
        fr = x2_frame(Fraction(2))
        ok, res = ops_equal_numeric(wronskian_K(i, fr),
                                    wronskian_K_via_conjugation(i, fr),
                                    plan=SamplePlan(tol=1e-9))
        assert ok, (i, res)

    def test_supercharge_routes_agree(self):
        fr = x2_frame(Fraction(3))
        pm, pp = x2_supercharges(fr)
        cm, cp = supercharges_via_conjugation(fr)
        ok, res = ops_equal_numeric(pm, cm, plan=SamplePlan(tol=1e-9))
        assert ok, res
        ok, res = ops_equal_numeric(pp, cp, plan=SamplePlan(tol=1e-9))
        assert ok, res

    def test_smooth_frame_invariance(self):
        fr = WronskianFrame(parse("exp(u/2)", "u"), parse("u^2 + 1", "u"),
                            parse("sin(u) + 3", "u"))
        span = fr.span()
        part = fr.partner_span()
        for i in (1, 4, 8):
            assert check_invariant(wronskian_J(i, fr), span).passed
            assert check_invariant(wronskian_K(i, fr), part).passed
        pm, pp = x2_supercharges(fr)
        assert check_annihilates(pm, span).passed
        assert check_annihilates(pp, part).passed


ALPHAS = [Fraction(2), Fraction(3), Fraction(5), Fraction(7, 2), Fraction(-3)]


class TestExceptionalSpans:
    @pytest.mark.parametrize("a", ALPHAS)
    def test_gallery_invariance(self, a):
        fr = x2_frame(a)
        span, part = fr.span(), fr.partner_span()
        for i in range(1, 9):
            vj = check_invariant(x2_J_gallery(a)[i], span)
            assert vj.passed, ("J", i, a, vj.residuals)
            vk = check_invariant(x2_K_gallery(a)[i], part)
            assert vk.passed, ("K", i, a, vk.residuals)

    @pytest.mark.parametrize("a", ALPHAS)
    def test_kernels(self, a):
        fr = x2_frame(a)
        pm, pp = x2_supercharges(fr)
        assert check_annihilates(pm, fr.span()).passed
        assert check_annihilates(pp, fr.partner_span()).passed

    def test_conjugated_partner_gallery_preserves_polynomials(self):
        a = Fraction(5)
        Vb = x2b_basis(a)
        for j in (1, 2, 5, 8):
            assert check_invariant(x2b_conjugated_K(j, a), Vb).passed


class TestCatalogued:
    def test_first_operator_leading_terms(self):
        a = Fraction(2)
        op = literature_x2(1, "minus", a)
        assert equal0(op.coeff(2) - u)

    def test_second_operator_leading_coefficient(self):
        a = Fraction(7, 2)
        op = literature_x2(2, "minus", a)
        want = pow_(u, 2) + rat((a + 2) * (a - 1))
        assert equal0(op.coeff(2) - want)

    def test_partner_first_operator_zero_tail(self):
        a = Fraction(5)
        op = literature_x2(1, "plus", a)
        # order-0 coefficient carries the 4*alpha*(u+alpha-1)/f term
        want = mul(rat(4 * a), u + rat(a - 1), pow_(f_alpha(a), -1))
        assert equal0(op.coeff(0) - want)

    @pytest.mark.parametrize("a", ALPHAS)
    def test_minus_side_preserve_span(self, a):
        span = x2_frame(a).span()
        for i in range(1, 5):
            if not combination_admissible(i, "minus", a):
                continue
            v = check_invariant(literature_x2(i, "minus", a), span)
            assert v.passed, (i, a, v.residuals)

    @pytest.mark.parametrize("a", [Fraction(5), Fraction(7, 2), Fraction(-3)])
    def test_plus_side_preserve_partner_polynomials(self, a):
        Vb = x2b_basis(a)
        for i in range(1, 5):
            if not combination_admissible(i, "plus", a):
                continue
            v = check_invariant(literature_x2(i, "plus", a), Vb)
            assert v.passed, (i, a, v.residuals)

    def test_admissibility_matches_the_printed_denominators(self):
        # the singular set written out by hand, as the oracle: the frame at
        # alpha (minus) or alpha - 3 (plus) degenerates at 0 and 1, rows 2 and
        # 4 divide by alpha + 1 of the frame's parameter, and the plus side's
        # fourth operator and constant divide by alpha - 2
        def oracle(i, side, a):
            frame_at = a if side == "minus" else a - 3
            if frame_at in (0, 1):
                return False
            try:
                x2_frame(frame_at)
            except FrameError:
                return False
            if side == "minus":
                return not (i in (2, 4) and a == -1)
            if a in (0, 1) or (i in (2, 4) and a - 3 == -1):
                return False
            return not (i == 4 and a == 2)

        cases = [(i, side, Fraction(p, q)) for p in range(-24, 25) for q in (1, 2, 3, 4, 6)
                 for i in range(1, 5) for side in ("minus", "plus")]
        assert len(cases) == 1960
        wrong = [c for c in cases if combination_admissible(*c) != oracle(*c)]
        assert wrong == []
        assert sum(not oracle(*c) for c in cases) > 0

    @pytest.mark.parametrize("i", [0, 5, -1])
    @pytest.mark.parametrize("side", ["minus", "plus"])
    def test_admissibility_checks_the_index(self, i, side):
        # the same refusal as literature_x2, not an admissible row of zeros
        for ask in (combination_admissible, literature_x2):
            with pytest.raises(ParameterError, match="index must be in 1..4"):
                ask(i, side, Fraction(5))

    @pytest.mark.parametrize("ask", [
        lambda side: literature_x2(1, side, Fraction(5)),
        lambda side: literature_ops("A", side),
        lambda side: combination_admissible(2, side, Fraction(3)),
        lambda side: verify_x2_identities(Fraction(5), sides=("minus", side)),
    ], ids=["literature_x2", "literature_ops", "combination_admissible",
            "verify_x2_identities"])
    @pytest.mark.parametrize("side", ["Minus", "up", ""])
    def test_an_unknown_side_is_refused(self, ask, side):
        # not read as the plus side
        with pytest.raises(ParameterError, match="side must be 'minus' or 'plus'"):
            ask(side)

    def test_excluded_parameters(self):
        with pytest.raises(ParameterError):
            literature_x2(4, "minus", Fraction(-1))
        with pytest.raises(ParameterError):
            literature_x2(4, "plus", Fraction(2))
        with pytest.raises(ParameterError):
            literature_x2(1, "minus", Fraction(0))


class TestCoefficientTable:
    def test_printed_entries(self):
        co = cij_coefficients(Fraction(7, 2))
        a = Fraction(7, 2)
        assert co.C(1, 2) == 2 * (a + 3)
        assert co.C(1, 3) == -2
        assert co.C(1, 0) == -2
        assert co.C(3, 6) == a
        assert co.C(2, 6) == -a / (a + 1)

    def test_unlisted_vanish(self):
        co = cij_coefficients(Fraction(2))
        assert co.C(1, 1) == 0
        assert co.C(3, 1) == 0
        assert co.C(4, 1) == 0

    def test_denominator_guards(self):
        co = cij_coefficients(Fraction(-1))
        with pytest.raises(ParameterError):
            co.C(2, 1)
        with pytest.raises(ParameterError):
            co.C(4, 0)
        # the polynomial rows stay usable
        assert co.C(1, 2) == 4
        assert cij_coefficients(0).C(3, 6) == 0

    def test_full_rank(self):
        co = cij_coefficients(Fraction(5, 2))
        assert co.rank() == 4

    def test_exact_rank(self):
        assert cij_coefficients(Fraction(2)).rank() == 4
        assert cij_coefficients(Fraction(5, 2)).rank() == 4
        # rows 2 and 4 are multiples of rows 1 and 3, the last by 1/3
        dependent = {(1, 1): Fraction(1), (1, 5): Fraction(1, 7), (3, 2): Fraction(3),
                     (3, 0): Fraction(-1), (2, 1): Fraction(2), (2, 5): Fraction(2, 7),
                     (4, 2): Fraction(1), (4, 0): Fraction(-1, 3)}
        assert X2Coefficients(Fraction(2), dependent, frozenset()).rank() == 2
        dependent[(4, 8)] = Fraction(1, 10**30)  # float rank would miss it
        assert X2Coefficients(Fraction(2), dependent, frozenset()).rank() == 3


class TestCombinationIdentities:
    @pytest.mark.parametrize("a", ALPHAS)
    def test_minus_side(self, a):
        recs = verify_x2_identities(a, sides=("minus",))
        for r in recs:
            assert r["verdict"] == "pass", r
            assert r["residual"] < 1e-9

    @pytest.mark.parametrize("a", [Fraction(5), Fraction(7, 2), Fraction(-3)])
    def test_plus_side(self, a):
        recs = verify_x2_identities(a, sides=("plus",))
        for r in recs:
            assert r["verdict"] == "pass", r
            assert r["residual"] < 1e-9

    def test_excluded_alpha_skips(self):
        # alpha=-1 degenerates the frame outright (the two Wronskian columns
        # become proportional), so every combination check is skipped there
        recs = verify_x2_identities(Fraction(-1), sides=("minus",))
        assert all(r["verdict"] == "skipped" for r in recs)

    @pytest.mark.parametrize("a", [Fraction(0), Fraction(1)])
    def test_degenerate_alpha_is_a_parameter_error(self, a):
        # no identity is defined here, so nothing is reported as skipped
        with pytest.raises(ParameterError):
            verify_x2_identities(a)

    def test_alpha_minus_one_frame_degenerates(self):
        with pytest.raises(FrameError):
            x2_frame(Fraction(-1))

    def test_plus_side_shift_excludes_small_alphas(self):
        recs = verify_x2_identities(Fraction(3), sides=("plus",))
        assert all(r["verdict"] == "skipped" for r in recs)

    def test_printed_constant_column_fails_on_plus_side(self):
        # regression: the partner-side additive constants differ from the
        # printed table; the replacement column is what actually verifies
        a = Fraction(5)
        co = cij_coefficients(a - 3)
        gallery = {j: x2b_conjugated_K(j, a) for j in range(1, 9)}
        target = literature_x2(1, "plus", a)
        combo_printed = DiffOp.mult("u", rat(co.C(1, 0)))
        combo_fixed = DiffOp.mult("u", rat(kside_constant(1, a - 3)))
        for j in range(1, 9):
            c = co.C(1, j)
            if c:
                combo_printed = combo_printed + gallery[j].scaled(rat(c))
                combo_fixed = combo_fixed + gallery[j].scaled(rat(c))
        ok_printed, _ = ops_equal_numeric(target, combo_printed)
        ok_fixed, _ = ops_equal_numeric(target, combo_fixed)
        assert not ok_printed
        assert ok_fixed

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_exact_certificate_and_its_negative_control(self, i):
        # literature_x2(i) - sum_j C(i,j) J_j - C(i,0) U vanishes exactly at
        # alpha = 7/2; moving the constant by 1e-6 must be rejected
        a = Fraction(7, 2)
        co = cij_coefficients(a)
        gallery = x2_J_gallery(a)
        rest = literature_x2(i, "minus", a)
        for j in range(1, 9):
            if co.C(i, j):
                rest = rest - gallery[j].scaled(rat(co.C(i, j)))
        const = co.C(i, 0)
        assert _exact_zero_operator(rest - DiffOp.mult("u", rat(const)))
        assert not _exact_zero_operator(rest - DiffOp.mult("u", rat(const + Fraction(1, 10**6))))


def _coefficient_outer(op: DiffOp) -> bool:
    """The exact certificate with the coefficients in the outer loop, as it was
    first written: each coefficient runs its own prefix of the points."""
    pts = [Fraction(7 * k + 3, 16) for k in range(1, 3 * x2._EXACT_ZEROS)]
    for c in op.coeffs.values():
        clean = idx = 0
        while clean < x2._EXACT_ZEROS and idx < len(pts):
            idx += 1
            try:
                val = x2.evaluate_exact(c, pts[idx - 1])
            except ZeroDivisionError:
                continue
            if val != 0:
                return False
            clean += 1
        if clean < x2._EXACT_ZEROS:
            return False
    return True


def _identity_rest(i, side, a):
    """literature_x2(i) - sum_j C(i,j) J_j - C(i,0) U, built as verify_x2_identities builds it."""
    shift = a if side == "minus" else a - 3
    co = cij_coefficients(shift)
    gallery = x2_J_gallery(a) if side == "minus" else x2._kb_gallery(a)
    const = co.C(i, 0) if side == "minus" else kside_constant(i, shift)
    rest = literature_x2(i, side, a) - DiffOp.mult("u", rat(const))
    for j in range(1, 9):
        if co.C(i, j):
            rest = rest - gallery[j].scaled(rat(co.C(i, j)))
    return rest


class TestExactCertificateOrder:
    """Points outer or coefficients outer, the certificate's verdict is one."""

    @pytest.mark.parametrize("a", [Fraction(7, 2), Fraction(5), Fraction(-3)])
    def test_the_admissible_identities_and_their_controls(self, a):
        cases = [(i, side) for side in ("minus", "plus") for i in range(1, 5)
                 if combination_admissible(i, side, a)]
        for i, side in cases:
            rest = _identity_rest(i, side, a)
            control = rest - DiffOp.mult("u", rat(Fraction(1, 10**6)))
            assert _exact_zero_operator(rest) is _coefficient_outer(rest) is True
            assert _exact_zero_operator(control) is _coefficient_outer(control) is False

    def test_coefficients_with_poles_at_different_points(self):
        # raw coefficients that vanish except at a pole, one of the first
        # points each, beside products that vanish at the first 72 or 73 points
        pts = [Fraction(7 * k + 3, 16) for k in range(1, 3 * x2._EXACT_ZEROS)]

        def vanishing(p):  # (u - p)/(u - p) - 1
            shifted = Add((u, Rat(-p)))
            return Add((Mul((shifted, Pow(shifted, Rat(-1)))), Rat(-1)))

        def zeros_at(ps):
            return Mul(tuple(Add((u, Rat(-p))) for p in ps))

        poles = {k: vanishing(pts[k]) for k in range(4)}
        for extra, want in (({}, True),
                            # the pole at pts[1] leaves 71 zeros before pts[72]
                            ({5: Add((zeros_at(pts[:72]), vanishing(pts[1])))}, False),
                            ({5: Add((zeros_at(pts[:73]), vanishing(pts[1])))}, True),
                            ({5: Add((zeros_at(pts[:72]), vanishing(pts[80])))}, True),
                            ({5: zeros_at(pts[:71])}, False)):
            op = DiffOp("u", {**poles, **extra})
            assert _exact_zero_operator(op) is _coefficient_outer(op) is want


def _identity_loop(a):
    """The identities and their controls as the x2-exact benchmark workload
    builds them: rest - C(i,j) J_j over j, minus C(i,0) U or that plus 3e-6."""
    out = []
    for side in ("minus", "plus"):
        shift = a if side == "minus" else a - 3
        for i in range(1, 5):
            if not combination_admissible(i, side, a):
                continue
            co = cij_coefficients(shift)
            if side == "minus":
                gallery, const = x2_J_gallery(a), co.C(i, 0)
            else:
                gallery = {j: x2b_conjugated_K(j, a) for j in range(1, 9)}
                const = kside_constant(i, shift)
            rest = literature_x2(i, side, a)
            for j in range(1, 9):
                if co.C(i, j):
                    rest = rest - gallery[j].scaled(co.C(i, j))
            out += [rest - DiffOp.mult(x2.U, const),
                    rest - DiffOp.mult(x2.U, const + Fraction(3, 10**6))]
    return out


def _clear_galleries():
    for cached in (x2_J_gallery, x2_K_gallery, x2._kb_gallery):
        cached.cache_clear()


def test_the_identity_loop_is_the_stepwise_build():
    a = Fraction(7, 2)
    _clear_galleries()
    with pytest.MonkeyPatch.context() as mp:
        diffop_oracle.patch(mp)
        want = _identity_loop(a)
    _clear_galleries()
    got = _identity_loop(a)
    assert len(got) == 16
    for k, (g, w) in enumerate(zip(got, want)):
        assert list(g.coeffs) == list(w.coeffs)
        assert all(c is w.coeffs[order] for order, c in g.coeffs.items())
        assert _exact_zero_operator(g) is _exact_zero_operator(w) is (k % 2 == 0)


class TestWiderSweeps:
    """Ten admissible parameter values and a spread of smooth frames."""

    @pytest.mark.parametrize("a", [Fraction(4), Fraction(6), Fraction(-2),
                                   Fraction(9, 2), Fraction(13, 3)])
    def test_more_admissible_parameters(self, a):
        fr = x2_frame(a)
        span, part = fr.span(), fr.partner_span()
        for i in (1, 4, 7):
            assert check_invariant(wronskian_J(i, fr), span).passed, (i, a)
            assert check_invariant(wronskian_K(i, fr), part).passed, (i, a)

    @pytest.mark.parametrize("triple", [
        ("1 + u^2", "exp(u)", "u^3 + u"),
        ("cos(u) + 2", "u", "exp(2*u/3)"),
        ("exp(-u)", "u^2 + u + 1", "sin(u) + 2"),
        ("u + 3", "u^3 + 1", "exp(u/2)"),
    ])
    def test_random_smooth_frames(self, triple):
        fr = WronskianFrame(*(parse(t, "u") for t in triple))
        span, part = fr.span(), fr.partner_span()
        for i in (2, 5):
            assert check_invariant(wronskian_J(i, fr), span).passed, triple
            assert check_invariant(wronskian_K(i, fr), part).passed, triple
        pm, pp = x2_supercharges(fr)
        assert check_annihilates(pm, span).passed
        assert check_annihilates(pp, part).passed
