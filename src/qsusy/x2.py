"""Wronskian-frame operators on an arbitrary three-function basis and the
exceptional (codimension-two) polynomial subspaces.

Every operator here has two construction routes.  The explicit route takes
the printed Wronskian-coefficient base operators J1, J4, J9, K0 and K1 and the
index rules shared with the plain frame (families.j_gallery, k_gallery).  The
cross-check conjugates the plain-frame operators through the substitution
z = phi2/phi1, f = phi3/phi1; the suites use the explicit route and the tests
compare the two, because these formulas carry the highest transcription risk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .expr import (
    Expr, Rat, Var, ZERO, ONE, MINUS_ONE, ExprError, NotRationalError,
    add, evaluate_exact, expand, mul, pow_, as_expr, diff,
)
from .diffop import DiffOp, compose, gauge_conjugate, pullback
from .families import (
    build_J, build_K, build_P3_minus, build_P3_plus, combination, gallery_member, j_gallery,
    k_gallery, minus_side, ParameterError,
)
from .invariance import Subspace, SamplePlan, checks, ops_equal_pairs, _or_raise


class FrameError(ExprError):
    pass


U = "u"


@dataclass
class WronskianFrame:
    phi1: Expr
    phi2: Expr
    phi3: Expr

    def __post_init__(self):
        p = [as_expr(self.phi1), as_expr(self.phi2), as_expr(self.phi3)]
        self.phi1, self.phi2, self.phi3 = p
        dp = [diff(e, U) for e in p]
        self.W21 = add(mul(dp[1], p[0]), mul(MINUS_ONE, p[1], dp[0]))
        self.W31 = add(mul(dp[2], p[0]), mul(MINUS_ONE, p[2], dp[0]))
        self.W32 = add(mul(dp[2], p[1]), mul(MINUS_ONE, p[2], dp[1]))
        self.W3121 = add(mul(diff(self.W31, U), self.W21),
                         mul(MINUS_ONE, self.W31, diff(self.W21, U)))
        # a nonzero value at u = 1/3 proves a Wronskian does not vanish; only
        # 0, a pole or no rational value there needs expansion to decide it
        for w in (self.W21, self.W3121):
            try:
                at = evaluate_exact(w, Fraction(1, 3))
            except (ZeroDivisionError, NotRationalError):
                at = 0
            if at == 0 and expand(w) == ZERO:
                raise FrameError("degenerate frame: a defining Wronskian vanishes identically")

    def span(self) -> Subspace:
        return Subspace([self.phi1, self.phi2, self.phi3], U)

    def partner_span(self) -> Subspace:
        pref = mul(self.phi1, pow_(self.W3121, -1))
        return Subspace([self.W21, self.W31, self.W32], U, pref)


def _logd(e: Expr) -> Expr:
    return mul(diff(e, U), pow_(e, -1))


def _second_order_core(fr: WronskianFrame) -> DiffOp:
    lw21 = _logd(fr.W21)
    zero_term = mul(add(mul(diff(fr.W21, U), diff(fr.phi1, U)),
                        mul(MINUS_ONE, fr.W21, diff(fr.phi1, U, 2))),
                    pow_(mul(fr.W21, fr.phi1), -1))
    return DiffOp(U, {2: ONE, 1: mul(MINUS_ONE, lw21), 0: zero_term})


def _multipliers(fr: WronskianFrame) -> tuple[Expr, Expr, Expr, Expr]:
    """The gallery multipliers (a, b, c, d) = (phi2/phi1, phi3/phi1, W31/W21, W32/W21)."""
    inv1, inv21 = pow_(fr.phi1, -1), pow_(fr.W21, -1)
    return mul(fr.phi2, inv1), mul(fr.phi3, inv1), mul(fr.W31, inv21), mul(fr.W32, inv21)


def wronskian_J_gallery(fr: WronskianFrame) -> dict[int, DiffOp]:
    """J1..J9, preserving span(phi1, phi2, phi3), from the printed coefficients."""
    core = _second_order_core(fr)
    p1sq = pow_(fr.phi1, 2)
    inv3121 = pow_(fr.W3121, -1)
    first_tail = DiffOp(U, {1: ONE, 0: mul(MINUS_ONE, _logd(fr.phi1))})
    J4 = (core.scaled(mul(fr.W31, p1sq, inv3121))
          - first_tail.scaled(mul(p1sq, pow_(fr.W21, -1))))
    J9 = (core.scaled(mul(fr.W32, p1sq, inv3121))
          - first_tail.scaled(mul(fr.phi2, fr.phi1, pow_(fr.W21, -1)))
          + DiffOp.identity(U))
    return j_gallery(core.scaled(mul(fr.W21, p1sq, inv3121)), J4, J9, *_multipliers(fr)[:2])


def wronskian_K_gallery(fr: WronskianFrame) -> dict[int, DiffOp]:
    """K0..K8 from the printed coefficients.  K1..K8 preserve the partner
    span; K0, the first-order building block of K2 and K3, does not."""
    l1 = _logd(fr.phi1)
    l21 = _logd(fr.W21)
    l3121 = _logd(fr.W3121)
    K0 = DiffOp(U, {1: ONE, 0: mul(MINUS_ONE, add(l1, l21, mul(MINUS_ONE, l3121)))})
    K0 = K0.scaled(mul(pow_(fr.W21, 2), pow_(fr.W3121, -1)))
    zero_term = add(
        mul(MINUS_ONE, diff(fr.phi1, U, 2), pow_(fr.phi1, -1)),
        mul(MINUS_ONE, diff(fr.W21, U, 2), pow_(fr.W21, -1)),
        mul(diff(fr.W3121, U, 2), pow_(fr.W3121, -1)),
        mul(Rat(2), pow_(l1, 2)),
        mul(MINUS_ONE, add(l1, mul(MINUS_ONE, l21), l3121), l3121),
    )
    K1 = DiffOp(U, {
        2: ONE,
        1: mul(MINUS_ONE, add(mul(Rat(2), l1), mul(MINUS_ONE, l3121))),
        0: zero_term,
    }).scaled(mul(fr.W21, pow_(fr.phi1, 2), pow_(fr.W3121, -1)))
    return k_gallery(K0, K1, *_multipliers(fr))


def wronskian_J(i: int, fr: WronskianFrame) -> DiffOp:
    return gallery_member(wronskian_J_gallery(fr), "J", i)


def wronskian_K(i: int, fr: WronskianFrame) -> DiffOp:
    return gallery_member(wronskian_K_gallery(fr), "K", i)


def x2_supercharges(fr: WronskianFrame) -> tuple[DiffOp, DiffOp]:
    """Third-order annihilators of the span and of the partner span."""
    l1 = _logd(fr.phi1)
    l21 = _logd(fr.W21)
    l3121 = _logd(fr.W3121)
    minus = compose(compose(
        DiffOp(U, {1: ONE, 0: add(l1, l21, mul(MINUS_ONE, l3121))}),
        DiffOp(U, {1: ONE, 0: add(l1, mul(MINUS_ONE, l21))})),
        DiffOp(U, {1: ONE, 0: mul(MINUS_ONE, l1)}))
    plus = compose(compose(
        DiffOp(U, {1: ONE, 0: l1}),
        DiffOp(U, {1: ONE, 0: add(mul(MINUS_ONE, l1), l21)})),
        DiffOp(U, {1: ONE, 0: add(mul(MINUS_ONE, l1), mul(MINUS_ONE, l21), l3121)}))
    return minus, plus.scaled(MINUS_ONE)


# ---------------------------------------------------------------------------
# conjugation route (cross-check)

def _conjugated(base: DiffOp, fr: WronskianFrame, partner: bool) -> DiffOp:
    """A plain-frame operator in z, with f opaque, pulled back through
    z = phi2/phi1, f = phi3/phi1 and conjugated by phi1, or on the partner
    side by phi1^3/W21^2."""
    a, b, _, _ = _multipliers(fr)
    pulled = pullback(base, U, a, {"f": b})
    g = mul(pow_(fr.phi1, 3), pow_(fr.W21, -2)) if partner else fr.phi1
    return gauge_conjugate(g, pulled)


def wronskian_J_via_conjugation(i: int, fr: WronskianFrame) -> DiffOp:
    return _conjugated(build_J(i), fr, partner=False)


def wronskian_K_via_conjugation(i: int, fr: WronskianFrame) -> DiffOp:
    return _conjugated(build_K(i), fr, partner=True)


def supercharges_via_conjugation(fr: WronskianFrame) -> tuple[DiffOp, DiffOp]:
    """Cross-check route; rescaled to monic like the explicit factorizations.

    Dropping the overall change-of-variable multiplier in each picture leaves
    the two routes differing by (dz/du)^3 = (W21/phi1^2)^3; the leading factor
    commutes with the gauge, so it is reinstated at the end.
    """
    lead = pow_(mul(fr.W21, pow_(fr.phi1, -2)), 3)
    minus = _conjugated(build_P3_minus(), fr, partner=False)
    plus = _conjugated(build_P3_plus(), fr, partner=True)
    return minus.scaled(lead), plus.scaled(lead)


# ---------------------------------------------------------------------------
# the exceptional polynomial content

def _fr(x) -> Fraction:
    if not isinstance(x, (int, float, Fraction, Rat)):
        raise ParameterError(f"expected a rational parameter, got {x!r}")
    return as_expr(x).value


def x2_seed_polynomial(n: int, alpha) -> Expr:
    """Degree-(n+1) basis polynomial of the exceptional span."""
    a = _fr(alpha)
    u = Var(U)
    return add(
        mul(Rat(a + n - 2), pow_(u, n + 1)),
        mul(Rat(2 * (a + n - 1) * (a - 1)), pow_(u, n)),
        mul(Rat((a + n) * (a - 1) * a), pow_(u, n - 1)),
    )


def x2_partner_polynomial(n: int, alpha) -> Expr:
    """Degree-(n+1) basis polynomial of the partner exceptional span."""
    a = _fr(alpha)
    u = Var(U)
    return add(
        mul(Rat((a - n) * (a - n + 1)), pow_(u, n + 1)),
        mul(Rat(2 * (a - n - 1) * (a - n + 1) * (a - 1)), pow_(u, n)),
        mul(Rat((a - n - 1) * (a - n) * (a - 1) * a), pow_(u, n - 1)),
    )


def f_alpha(alpha) -> Expr:
    a = _fr(alpha)
    u = Var(U)
    return add(pow_(u, 2), mul(Rat(2 * (a - 1)), u), Rat((a - 1) * a))


def _frame_alpha(alpha) -> Fraction:
    """The parameter as a Fraction; ParameterError at 0 and 1 (degenerate frame)."""
    a = _fr(alpha)
    if a in (0, 1):
        raise ParameterError(f"alpha={a} degenerates the exceptional frame")
    return a


# the frame and its galleries are memoized on the parameter: 2.0 and
# Fraction(2) share an entry, a lone int gets its own with equal content; a
# suite pass uses at most ten values
@lru_cache(maxsize=32)
def x2_frame(alpha) -> WronskianFrame:
    a = _frame_alpha(alpha)
    return WronskianFrame(x2_seed_polynomial(1, a), x2_seed_polynomial(2, a),
                          x2_seed_polynomial(3, a))


def x2b_basis(alpha) -> Subspace:
    a = _fr(alpha)
    return Subspace([x2_partner_polynomial(n, a) for n in (1, 2, 3)], U)


@lru_cache(maxsize=32)
def x2_J_gallery(alpha) -> dict[int, DiffOp]:
    return {j: op for j, op in wronskian_J_gallery(x2_frame(alpha)).items() if 1 <= j <= 8}


@lru_cache(maxsize=32)
def x2_K_gallery(alpha) -> dict[int, DiffOp]:
    return {j: op for j, op in wronskian_K_gallery(x2_frame(alpha)).items() if 1 <= j <= 8}


@lru_cache(maxsize=32)
def _kb_gallery(a: Fraction) -> dict[int, DiffOp]:
    g = mul(f_alpha(a - 3), f_alpha(a))
    return {j: gauge_conjugate(g, op) for j, op in x2_K_gallery(a - 3).items()}


def x2b_conjugated_K(i: int, alpha) -> DiffOp:
    """K-operators conjugated onto the plain partner polynomial span.

    `alpha` labels the partner span; the underlying frame sits at alpha - 3.
    The conjugation multiplies by f_(alpha-3)*f_alpha: the partner span carries
    the inverse of that product as its prefactor, so this lands on the bare
    polynomial span (the printed form shows the factors in the opposite order,
    which fails numerically).
    """
    return _kb_gallery(_fr(alpha))[i]


# ---------------------------------------------------------------------------
# operators catalogued for the exceptional spans

def literature_x2(i: int, side: str = "minus", alpha=None) -> DiffOp:
    a = _frame_alpha(alpha)
    u = Var(U)
    D1, D2 = DiffOp.d(U), DiffOp.d(U, 2)
    dm1 = DiffOp(U, {1: ONE, 0: MINUS_ONE})
    fa = f_alpha(a)
    inv_fa = pow_(fa, -1)
    if minus_side(side):
        if i == 1:
            base = D2.scaled(u) - D1.scaled(add(u, Rat(-a + 3)))
            tail = dm1.scaled(mul(Rat(4 * (a - 1)), add(u, Rat(a)), inv_fa))
            return base + tail
        if i == 2:
            base = (D2.scaled(add(pow_(u, 2), Rat((a + 2) * (a - 1))))
                    - D1.scaled(add(pow_(u, 2), mul(Rat(4), u), Rat((a - 1) * (3 * a + 2))))
                    + DiffOp.mult(U, mul(Rat(4), u)))
            tail = dm1.scaled(mul(Rat(-8 * (a - 1)),
                                  add(mul(Rat(a), u), Rat(a * a - 1)), inv_fa))
            return base + tail
        if i == 3:
            base = (D2.scaled(mul(add(u, Rat(2 * a + 2)), pow_(u, 2)))
                    + D1.scaled(add(mul(Rat(a - 5), pow_(u, 2)),
                                    mul(Rat(3 * a * a + a - 8), u),
                                    Rat(4 * (a + 4) * (a - 1))))
                    - DiffOp.mult(U, mul(Rat(4 * (a - 2)), u)))
            tail = dm1.scaled(mul(Rat(-4 * (a - 1)),
                                  add(mul(Rat(a * a + 3 * a - 8), u),
                                      Rat((a + 4) * (a - 1) * a)), inv_fa))
            return base + tail
        if i == 4:
            if a == -1:
                raise ParameterError("alpha=-1 divides the fourth operator by zero")
            den = Fraction(1, 2 * (a + 1))
            base = (D2.scaled(mul(add(mul(Rat(2 * (a + 1)), u),
                                      Rat(3 * a * a + 7 * a + 6)), pow_(u, 3)))
                    - D1.scaled(add(
                        mul(Rat(12 * (a + 1)), pow_(u, 3)),
                        mul(Rat(3 * a**3 + 8 * a**2 + 15 * a + 22), pow_(u, 2)),
                        mul(Rat((a - 1) * (7 * a**3 + 27 * a**2 + 10 * a - 16)), u),
                        Rat(2 * (a - 1) * (a**4 + 8 * a**3 + 29 * a**2 - 6 * a - 40))))
                    + DiffOp.mult(U, add(mul(Rat(24 * (a + 1)), pow_(u, 2)),
                                         mul(Rat(4 * (a - 1) * (3 * a * a + 2 * a - 4)), u))))
            tail = dm1.scaled(mul(Rat(4 * (a - 1)**2),
                                  add(mul(Rat(a**3 + 9 * a**2 - 22 * a - 40), u),
                                      Rat((a**3 + 9 * a**2 - 6 * a - 20) * a)), inv_fa))
            return (base + tail).scaled(Rat(den))
        raise ParameterError("index must be in 1..4")
    if i == 1:
        base = D2.scaled(u) + D1.scaled(add(u, Rat(-a - 3)))
        tail = (D1.scaled(mul(Rat(4 * (a - 1)), add(u, Rat(a)), inv_fa))
                + DiffOp.mult(U, mul(Rat(4 * a), add(u, Rat(a - 1)), inv_fa)))
        return base + tail
    if i == 2:
        base = (D2.scaled(add(pow_(u, 2), Rat((a - 1) * (a - 4))))
                + D1.scaled(add(pow_(u, 2), mul(Rat(-6), u), Rat((a - 1) * (3 * a - 8))))
                - DiffOp.mult(U, mul(Rat(4), u)))
        tail = (D1.scaled(add(mul(Rat(a - 3), u), Rat((a - 1) * (a - 2))))
                + DiffOp.mult(U, add(mul(Rat(a - 2), u), Rat(a * a - 3 * a + 4))))
        return base + tail.scaled(mul(Rat(-8 * (a - 1)), inv_fa))
    if i == 3:
        base = (D2.scaled(mul(add(u, Rat(2 * a - 4)), pow_(u, 2)))
                - D1.scaled(add(mul(Rat(a + 3), pow_(u, 2)),
                                mul(Rat(3 * a * a - 5 * a - 4), u),
                                Rat(-4 * (a - 1) * (a - 2))))
                + DiffOp.mult(U, mul(Rat(4 * a), u)))
        tail = (D1.scaled(add(mul(Rat(a * a - 3 * a + 4), u),
                              Rat(a * (a - 1) * (a - 2))))
                + DiffOp.mult(U, mul(Rat(a), add(mul(Rat(a - 2), u), Rat(a * (a - 3))))))
        return base + tail.scaled(mul(Rat(-4 * (a - 1)), inv_fa))
    if i == 4:
        if a == 2:
            raise ParameterError("alpha=2 divides the fourth partner operator by zero")
        den = Fraction(1, 2 * (a - 2))
        poly4 = a**4 - 11 * a**3 + 32 * a**2 - 36 * a + 16
        cubic = a**3 - 3 * a**2 + 8 * a - 16
        # two of the three printed occurrences of the cubic must read
        # (a-2)(a^2-a+4); as printed the operator fails to preserve the span
        # (established by exact fitting against the conjugated gallery)
        cubic2 = (a - 2) * (a**2 - a + 4)
        base = (D2.scaled(mul(add(mul(Rat(2 * (a - 2)), u),
                                  Rat(3 * a * a - 11 * a + 12)), pow_(u, 3)))
                - D1.scaled(add(
                    mul(Rat(12 * (a - 2)), pow_(u, 3)),
                    mul(Rat(-(3 * a**3 - 36 * a**2 + 97 * a - 84)), pow_(u, 2)),
                    mul(Rat(-(a - 1) * (7 * a**3 - 49 * a**2 + 112 * a - 80)), u),
                    Rat(-2 * (a - 1) * poly4)))
                + DiffOp.mult(U, add(mul(Rat(24 * (a - 2)), pow_(u, 2)),
                                     mul(Rat(-4 * (3 * a**3 - 27 * a**2 + 64 * a - 48)), u))))
        tail = (D1.scaled(mul(Rat(a - 1), add(mul(Rat(cubic), u), Rat(a * cubic2))))
                + DiffOp.mult(U, mul(Rat(a), add(mul(Rat(cubic2), u),
                                                 Rat(a * (a - 1) * (a * a - 3 * a + 4))))))
        return (base + tail.scaled(mul(Rat(4 * (a - 1)), inv_fa))).scaled(Rat(den))
    raise ParameterError("index must be in 1..4")


# ---------------------------------------------------------------------------
# the combination-coefficient table

@dataclass(frozen=True)
class X2Coefficients:
    alpha: Fraction
    table: dict
    bad_rows: frozenset

    def C(self, i: int, j: int) -> Fraction:
        if i in self.bad_rows:
            raise ParameterError(
                f"row {i} has a vanishing denominator at alpha={self.alpha}")
        return self.table.get((i, j), Fraction(0))

    def rank(self) -> int:
        """Rank of the table over Q, by exact Gaussian elimination."""
        rows = [[self.C(i, j) for j in range(0, 9)] for i in range(1, 5)]
        rank = 0
        for col in range(9):
            pivot = next((r for r in rows if r[col]), None)
            if pivot is not None:
                rows = [[x - r[col] / pivot[col] * y for x, y in zip(r, pivot)]
                        for r in rows if r is not pivot]
                rank += 1
        return rank


# memoized like the galleries: equal parameters share an entry, whatever their type
@lru_cache(maxsize=32)
def cij_coefficients(alpha) -> X2Coefficients:
    """Combination coefficients; rows with a vanishing denominator at this
    parameter are marked unusable instead of poisoning the polynomial rows."""
    a = _fr(alpha)
    t: dict[tuple[int, int], Fraction] = {}
    bad = set()
    t[(1, 2)] = Fraction(2 * (a + 3))
    t[(1, 3)] = Fraction(-2)
    t[(1, 4)] = Fraction(-(a + 2))
    t[(1, 5)] = Fraction(1)
    t[(1, 0)] = Fraction(-2)
    if a in (0, -1):
        bad.add(2)
    else:
        t[(2, 1)] = 2 * (a + 3) * (a + 2) * (a - 1) / (a + 1)
        t[(2, 2)] = -2 * (a - 1) * (3 * a * a + 12 * a + 13) / (a + 1)
        t[(2, 3)] = 2 * (a * a - 3 * a - 2) / (a * (a + 1))
        t[(2, 4)] = (a + 2) * (a - 1) * (3 * a * a + 6 * a + 4) / (a * (a + 1))
        t[(2, 5)] = 4 * (a + 2) / (a * (a + 1))
        t[(2, 6)] = -a / (a + 1)
        t[(2, 7)] = 2 * (a - 1) / a
        t[(2, 0)] = 2 * (a - 2) * (a - 1) / a
    t[(3, 3)] = Fraction(2 * (3 * a * a + 7 * a + 6))
    t[(3, 5)] = Fraction(-(3 * a * a + 5 * a + 4))
    t[(3, 6)] = Fraction(a)
    t[(3, 7)] = Fraction(-2 * (a - 1))
    t[(3, 0)] = Fraction(4 * (a + 4) * (a - 1))
    if a == -1:
        bad.add(4)
    else:
        t[(4, 2)] = Fraction(-2 * a * (a + 3) ** 2 * (a - 1))
        t[(4, 3)] = -(a - 1) * (7 * a**3 + 31 * a**2 + 54 * a + 36) / (a + 1)
        t[(4, 4)] = a * (a + 3) * (a + 2) ** 2 * (a - 1) / (a + 1)
        t[(4, 5)] = (a - 1) * (7 * a**3 + 31 * a**2 + 54 * a + 48) / (2 * (a + 1))
        t[(4, 6)] = -(3 * a**3 - 5 * a**2 - 14 * a - 8) / (2 * (a + 1))
        t[(4, 7)] = (a - 1) * (3 * a * a + a - 12) / (a + 1)
        t[(4, 8)] = 2 * (a - 1) / (a + 1)
        t[(4, 0)] = -4 * (a - 1) * (a**3 + 7 * a**2 - 10) / (a + 1)
    t = {k: Fraction(v) for k, v in t.items()}
    return X2Coefficients(a, t, frozenset(bad))


def kside_constant(i: int, x: Fraction) -> Fraction:
    """Additive constants of the partner-side combination identities.

    Determined by exact rational fitting of the catalogued operators over the
    conjugated gallery at six parameter values each; the printed constant
    column only holds on the minus side.
    """
    x = Fraction(x)
    if i == 1:
        return Fraction(4)
    if i == 2:
        return Fraction(-2) * (x * x + 7 * x - 2) / x
    if i == 3:
        return Fraction(-2) * (5 * x + 3) * (x + 2)
    if i == 4:
        return (x + 2) * (11 * x**3 + 24 * x**2 + 23 * x + 6) / (x + 1)
    raise ParameterError("index must be in 1..4")


def combination_admissible(i: int, side: str, alpha) -> bool:
    """Whether the i-th combination identity is free of parameter singularities:
    its frame, its coefficient row and, on the plus side, the parameter and
    the fitted constant are all defined."""
    if i not in (1, 2, 3, 4):
        raise ParameterError("index must be in 1..4")
    a = _fr(alpha)
    minus = minus_side(side)
    shift = a if minus else a - 3
    try:
        x2_frame(shift)
        cij_coefficients(shift).C(i, 0)
        if not minus:
            _frame_alpha(a)
            kside_constant(i, shift)
    except (ParameterError, FrameError, ZeroDivisionError):
        return False
    return True


_EXACT_ZEROS = 72  # zeros that certify a coefficient


def _exact_zero_operator(op: DiffOp) -> bool:
    """Certify that an operator with rational-function coefficients vanishes.

    Each coefficient is evaluated exactly at rational points, poles skipped,
    and must be 0 at _EXACT_ZEROS of them.  That is a proof only under an
    assumption nothing checks yet: each coefficient's numerator, written over
    a common denominator, has degree below _EXACT_ZEROS (72), so that many
    zeros force it to vanish identically.  Propagating a degree bound through
    the expression would make it one; that is still open (ROADMAP.md, item 1).
    Points run in the outer loop, so the frame nodes that the coefficients
    share are evaluated once per point (each node keeps its values); each
    coefficient still meets the same prefix of points as on its own.
    """
    need = dict.fromkeys(op.coeffs.values(), _EXACT_ZEROS)  # coefficient -> zeros it lacks
    for k in range(1, 3 * _EXACT_ZEROS):
        x = Fraction(7 * k + 3, 16)
        for c, n in need.items():
            if n:
                try:
                    val = evaluate_exact(c, x)
                except ZeroDivisionError:
                    continue
                if val != 0:
                    return False
                need[c] = n - 1
    return not any(need.values())


@checks
def verify_x2_identities(alpha, plan: SamplePlan = SamplePlan(),
                         sides: tuple = ("minus", "plus")):
    """Check the catalogued operators against combinations of the frame operators.

    A side's admissible identities are sampled in floating point in one
    point search, and their records share its time evenly; one that fails
    there gets an exact rational certificate as a fallback.  Each record's
    id and anchor name the identity; a skip records its reason.  Raises
    ParameterError at alpha 0 or 1, where the frame degenerates and no
    identity is defined.
    """
    a = _frame_alpha(alpha)
    for side in sides:
        minus = minus_side(side)
        shift = a if minus else a - 3
        admissible = []
        for i in range(1, 5):
            rid = f"x2:{side}:{i}:alpha={a}"
            if combination_admissible(i, side, a):
                admissible.append((i, rid))
            else:
                yield rid, rid, None, None, "parameter excluded by a printed denominator"
        if not admissible:
            continue
        coeffs = cij_coefficients(shift)
        gallery = x2_J_gallery(a) if minus else _kb_gallery(a)
        pairs = [(literature_x2(i, side, a), combination(gallery, {
            0: coeffs.C(i, 0) if minus else kside_constant(i, shift),
            **{j: coeffs.C(i, j) for j in range(1, 9)}})) for i, _ in admissible]
        (found,) = _or_raise(ops_equal_pairs(pairs, [None], plan))
        outcomes = []
        for (_, rid), (target, combo), (ok, res) in zip(admissible, pairs, found):
            if not ok:
                # floating agreement can drown in coefficient cancellation;
                # the rational fragment admits an exact certificate instead
                try:
                    if _exact_zero_operator(target - combo):
                        ok, res = True, 0.0
                except NotRationalError:
                    pass
            outcomes.append((rid, rid, ok, res))
        yield outcomes
