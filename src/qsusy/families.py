"""Constructors for the named quasi-solvable operator families.

Two independent construction routes are provided wherever the source material
gives one: the J/K-basis sums versus the direct coefficient assembly for the
gauged Hamiltonians, the monomial-family rescalings versus the raw operators,
and the K-gallery versus its conjugated-substituted derivation from the
J-gallery.  Cross-checks between routes live in the verification suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .expr import (
    Expr, Rat, Var, ZERO, ONE, MINUS_ONE,
    add, mul, pow_, opaque, as_expr, diff, expand, equal0, _sole_var,
)
from .diffop import (
    DiffOp, OperatorError, compose, gauge_conjugate, pullback,
)


class DegenerateFunctionError(OperatorError):
    """The generating function has identically vanishing second derivative."""


class ParameterError(OperatorError):
    pass


# ---------------------------------------------------------------------------
# the generating function: an expression, whose one variable is the coordinate

F = opaque("f", 0, Var("z"))  # f unspecified; diff gives f', f'', ...


def _fv(f) -> tuple[Expr, str]:
    """(f, its variable), F when f is None; ExprError if f has several
    variables, DegenerateFunctionError if f'' vanishes identically."""
    f = F if f is None else as_expr(f)
    v = _sole_var(f, "generating function has several variables")
    if diff(f, v, 2) is ZERO:
        raise DegenerateFunctionError(
            "generating function must have nonzero second derivative")
    return f, v


# ---------------------------------------------------------------------------
# the J and K galleries: a frame's base operators and multipliers, and the
# index rules both frames share.  The multipliers (a, b, c, d) are
# (z, f, f', z f' - f) in the plain frame and (phi2/phi1, phi3/phi1,
# W31/W21, W32/W21) in the Wronskian frame.

def j_gallery(J1: DiffOp, J4: DiffOp, J9: DiffOp, a: Expr, b: Expr) -> dict[int, DiffOp]:
    """J1..J9 from the base operators J1, J4, J9 and the multipliers a, b."""
    return {1: J1, 2: J1.scaled(a), 3: J1.scaled(b), 4: J4, 5: J4.scaled(a),
            6: J4.scaled(b), 7: J9.scaled(a), 8: J9.scaled(b), 9: J9}


def k_gallery(K0: DiffOp, K1: DiffOp, a: Expr, b: Expr, c: Expr, d: Expr) -> dict[int, DiffOp]:
    """K0..K8 from the base operators K0, K1 and the multipliers a, b, c, d."""
    K2 = K1.scaled(a) - K0
    K3 = K1.scaled(b) - K0.scaled(c) + DiffOp.identity(K0.var)
    return {0: K0, **k_members(K1, K2, K3, c, d)}


def k_members(K1: DiffOp, K2: DiffOp, K3: DiffOp, c: Expr, d: Expr) -> dict[int, DiffOp]:
    """K1..K8 from K1, K2, K3 and the multipliers c, d; every frame's K rule."""
    return {1: K1, 2: K2, 3: K3, 4: K1.scaled(c), 5: K2.scaled(c), 6: K3.scaled(c),
            7: K2.scaled(d), 8: K3.scaled(d)}


def gallery_member(gallery: dict[int, DiffOp], name: str, i: int) -> DiffOp:
    """Member i of the J or K gallery (name "J" or "K"), in either frame;
    ParameterError naming the indices the gallery holds otherwise."""
    if i not in gallery:
        raise ParameterError(f"{name} index must be in {min(gallery)}..{max(gallery)}")
    return gallery[i]


def combination(gallery: dict, weights: dict) -> DiffOp:
    """Σ w_k·gallery[k] over weights, where k = 0 is the identity (never K0);
    summed in the insertion order of weights, zero weights skipped.  That
    order fixes the key order of the result's coeffs, and with it the float
    summation order of its sampled action."""
    v = next(iter(gallery.values())).var
    out = DiffOp.zero(v)
    for k, w in weights.items():
        w = as_expr(w)
        if w is not ZERO:
            out = out + (DiffOp.identity(v) if k == 0 else gallery[k]).scaled(w)
    return out


def minus_side(side: str) -> bool:
    """Whether side is "minus"; ParameterError unless it is "minus" or "plus"."""
    if side not in ("minus", "plus"):
        raise ParameterError("side must be 'minus' or 'plus'")
    return side == "minus"


def J_gallery(f: Expr | None = None) -> dict[int, DiffOp]:
    """J1..J9: second-order operators preserving span{1, x, f(x)}."""
    f, v = _fv(f)
    x = Var(v)
    fp = diff(f, v)
    inv_fpp = pow_(diff(f, v, 2), -1)
    D1 = DiffOp.d(v)
    D2 = DiffOp.d(v, 2)
    J9 = (D2.scaled(mul(add(mul(x, fp), mul(MINUS_ONE, f)), inv_fpp))
          - D1.scaled(x) + DiffOp.identity(v))
    return j_gallery(D2.scaled(inv_fpp), D2.scaled(mul(fp, inv_fpp)) - D1, J9, x, f)


def K_gallery(f: Expr | None = None) -> dict[int, DiffOp]:
    """K0..K8 of f.

    K1..K8 are second order and preserve (1/f'')·span{1, f', x f' - f}.  K0 is
    the first-order building block of K2 and K3 and does not preserve it.
    """
    f, v = _fv(f)
    x = Var(v)
    fp, fpp, fppp, fpppp = (diff(f, v, k) for k in range(1, 5))
    inv = pow_(fpp, -1)
    K0 = DiffOp(v, {1: inv, 0: mul(fppp, pow_(fpp, -2))})
    K1 = DiffOp(v, {
        2: inv,
        1: mul(fppp, pow_(fpp, -2)),
        0: mul(add(mul(fpp, fpppp), mul(MINUS_ONE, pow_(fppp, 2))), pow_(fpp, -3)),
    })
    return k_gallery(K0, K1, x, f, fp, add(mul(x, fp), mul(MINUS_ONE, f)))


def build_J(i: int, f: Expr | None = None) -> DiffOp:
    """J_i of f, i in 1..9; a caller that wants several members takes J_gallery(f)."""
    return gallery_member(J_gallery(f), "J", i)


def build_K(i: int, f: Expr | None = None) -> DiffOp:
    """K_i of f, i in 0..8; a caller that wants several members takes K_gallery(f)."""
    return gallery_member(K_gallery(f), "K", i)


def build_P3_minus(f: Expr | None = None) -> DiffOp:
    """(d - f'''/f'') d²; annihilates span{1, x, f}. Leading multiplier dropped."""
    f, v = _fv(f)
    w2 = mul(MINUS_ONE, diff(f, v, 3), pow_(diff(f, v, 2), -1))
    return compose(DiffOp(v, {1: ONE, 0: w2}), DiffOp.d(v, 2))


def build_P3_plus(f: Expr | None = None) -> DiffOp:
    """-d² (d + f'''/f''); annihilates the partner space of K_gallery."""
    f, v = _fv(f)
    w2 = mul(diff(f, v, 3), pow_(diff(f, v, 2), -1))
    return compose(DiffOp.d(v, 2), DiffOp(v, {1: ONE, 0: w2})).scaled(MINUS_ONE)


# ---------------------------------------------------------------------------
# general coefficients and their alternative parameterization

@dataclass(frozen=True)
class GeneralCoefficients:
    """The nine constants defining the general space-preserving operator."""

    c0: Expr = ZERO
    c1: Expr = ZERO
    c2: Expr = ZERO
    b0: Expr = ZERO
    b1: Expr = ZERO
    b2: Expr = ZERO
    a0: Expr = ZERO
    a1: Expr = ZERO
    a2: Expr = ZERO

    def __post_init__(self):
        for name in ("c0", "c1", "c2", "b0", "b1", "b2", "a0", "a1", "a2"):
            object.__setattr__(self, name, as_expr(getattr(self, name)))

    @classmethod
    def from_integration_constants(cls, C: Iterable) -> "GeneralCoefficients":
        """Build the (c, b, a) set from the eight constants C1..C8."""
        C1, C2, C3, C4, C5, C6, C7, C8 = (as_expr(x) for x in C)
        return cls(
            c2=mul(Rat(-2), C1), c1=mul(Rat(2), C3), c0=add(C4, C5),
            b2=mul(Rat(2), C2), b1=mul(Rat(-2), C5), b0=mul(MINUS_ONE, C6),
            a2=add(C5, mul(MINUS_ONE, C4)), a1=C7, a0=C8,
        )

    def to_integration_constants(self) -> tuple:
        """Invert back to C1..C8; requires the consistency relation c0+b1+a2 = 0."""
        if not equal0(add(self.c0, self.b1, self.a2)):
            raise ParameterError(
                "coefficients do not satisfy c0 + b1 + a2 = 0; "
                "no integration-constant parameterization exists")
        half = Fraction(1, 2)
        return (
            mul(Rat(-half), self.c2), mul(Rat(half), self.b2), mul(Rat(half), self.c1),
            mul(Rat(half), add(self.c0, mul(MINUS_ONE, self.a2))),
            mul(Rat(half), add(self.c0, self.a2)),
            mul(MINUS_ONE, self.b0), self.a1, self.a0,
        )


def _gallery_sum(gallery: dict[int, DiffOp], coeffs: GeneralCoefficients) -> DiffOp:
    """The gauged Hamiltonian as a sum over a gallery: the J gallery for the
    minus side, the K gallery for the plus side."""
    g = coeffs
    return combination(gallery, {
        8: mul(MINUS_ONE, g.c2), 7: mul(MINUS_ONE, g.c1), 6: g.b2,
        5: add(g.b1, mul(MINUS_ONE, g.c0)), 4: g.b0,
        3: mul(MINUS_ONE, add(g.a2, mul(MINUS_ONE, g.c0))),
        2: mul(MINUS_ONE, g.a1), 1: mul(MINUS_ONE, g.a0), 0: mul(MINUS_ONE, g.c0)})


def build_H_minus(coeffs: GeneralCoefficients, f=None) -> DiffOp:
    """Gauged minus Hamiltonian as a J-gallery sum."""
    return _gallery_sum(J_gallery(f), coeffs)


def abc_profile(coeffs: GeneralCoefficients, f=None):
    """The (A, B, C) coefficient functions of the gauged minus Hamiltonian."""
    f0, v = _fv(f)
    x = Var(v)
    g = coeffs
    f1, f2 = diff(f0, v), diff(f0, v, 2)
    bracket = add(mul(add(mul(g.c2, x), mul(MINUS_ONE, g.b2)), f0),
                  mul(g.c1, pow_(x, 2)),
                  mul(add(g.c0, mul(MINUS_ONE, g.b1)), x),
                  mul(MINUS_ONE, g.b0))
    C = add(mul(g.c2, f0), mul(g.c1, x), g.c0)
    A_fpp = add(mul(bracket, f1),
                mul(MINUS_ONE, add(C, mul(MINUS_ONE, g.a2)), f0),
                mul(g.a1, x), g.a0)
    A = mul(expand(A_fpp), pow_(f2, -1))
    B = mul(MINUS_ONE, bracket)
    return A, B, C


def build_H_minus_direct(coeffs: GeneralCoefficients, f=None) -> DiffOp:
    """Gauged minus Hamiltonian assembled straight from its (A, B, C) profile."""
    f, v = _fv(f)
    A, B, C = abc_profile(coeffs, f)
    return DiffOp(v, {2: mul(MINUS_ONE, A), 1: mul(MINUS_ONE, B), 0: mul(MINUS_ONE, C)})


def build_H_plus(coeffs: GeneralCoefficients, f=None) -> DiffOp:
    """Gauged plus Hamiltonian as a K-gallery sum."""
    return _gallery_sum(K_gallery(f), coeffs)


def build_H_plus_direct(coeffs: GeneralCoefficients, f=None) -> DiffOp:
    """Gauged plus Hamiltonian from the (A, Q, C) route with the supercharge tail."""
    f, v = _fv(f)
    A, B, C = abc_profile(coeffs, f)
    Ap = diff(A, v)
    Q = add(B, mul(Rat(Fraction(1, 2)), Ap))
    w2 = mul(MINUS_ONE, diff(f, v, 3), pow_(diff(f, v, 2), -1))
    zero_term = add(mul(MINUS_ONE, C), mul(Rat(-2), diff(Q, v)),
                    mul(Ap, w2), mul(Rat(2), A, diff(w2, v)))
    return DiffOp(v, {
        2: mul(MINUS_ONE, A),
        1: add(mul(Rat(Fraction(1, 2)), Ap), Q),
        0: zero_term,
    })


# ---------------------------------------------------------------------------
# monomial families (power-function generating functions)

def _lam(x) -> Expr:
    e = as_expr(x)
    if isinstance(e, Rat) and e.value in (0, 1):
        raise ParameterError("family exponent 0 or 1 degenerates the normalization")
    return e


def monomial_J_gallery(lam) -> dict[int, DiffOp]:
    """J1..J8 for f = z^lam, rescaled to be polynomial in the exponent."""
    lam = _lam(lam)
    v = "z"
    x = Var(v)
    D1, D2 = DiffOp.d(v), DiffOp.d(v, 2)
    J9 = D2.scaled(pow_(x, 2)) - D1.scaled(mul(lam, x)) + DiffOp.mult(v, lam)
    gallery = j_gallery(D2.scaled(pow_(x, add(Rat(2), mul(MINUS_ONE, lam)))),
                        D2.scaled(x) - D1.scaled(add(lam, MINUS_ONE)), J9, x, pow_(x, lam))
    del gallery[9]
    return gallery


def monomial_K_gallery(lam) -> dict[int, DiffOp]:
    """K1..K8 for f = z^lam, rescaled like monomial_J_gallery.  K3 is printed:
    with c = z^(lam-1) the plain rule b K1 - c K0 + 1 would give
    z^2 d^2 + (lam-3) z d - 2 lam + 5, not the z^2 d^2 - 2 z d + 2 of the family."""
    lam = _lam(lam)
    v = "z"
    x = Var(v)
    D1, D2 = DiffOp.d(v), DiffOp.d(v, 2)
    lm2 = add(lam, Rat(-2))
    K1 = (D2.scaled(pow_(x, add(Rat(2), mul(MINUS_ONE, lam))))
          + D1.scaled(mul(lm2, pow_(x, add(ONE, mul(MINUS_ONE, lam)))))
          - DiffOp.mult(v, mul(lm2, pow_(x, mul(MINUS_ONE, lam)))))
    K2 = (D2.scaled(pow_(x, add(Rat(3), mul(MINUS_ONE, lam))))
          + D1.scaled(mul(add(lam, Rat(-3)), pow_(x, add(Rat(2), mul(MINUS_ONE, lam)))))
          - DiffOp.mult(v, mul(Rat(2), lm2, pow_(x, add(ONE, mul(MINUS_ONE, lam))))))
    K3 = D2.scaled(pow_(x, 2)) - D1.scaled(mul(Rat(2), x)) + DiffOp.mult(v, Rat(2))
    return k_members(K1, K2, K3, pow_(x, add(lam, MINUS_ONE)), pow_(x, lam))


def monomial_J(i: int, lam) -> DiffOp:
    """J_i of monomial_J_gallery(lam), i in 1..8."""
    return gallery_member(monomial_J_gallery(lam), "J", i)


def monomial_K(i: int, lam) -> DiffOp:
    """K_i of monomial_K_gallery(lam), i in 1..8."""
    return gallery_member(monomial_K_gallery(lam), "K", i)


_FAMILY_EXPONENT = {"A": Fraction(2), "B": Fraction(3)}


def monomial_family(kind: str, lam=None) -> dict[str, dict[int, DiffOp]]:
    """The rescaled J and K galleries (J1..J8, K1..K8) for a monomial invariant space.

    kind "C" takes a free exponent; kinds "B" and "A" force exponents 3 and 2
    and take none.
    """
    kind = kind.upper()
    if kind in _FAMILY_EXPONENT:
        if lam is not None:
            raise ParameterError(f"kind {kind} fixes its exponent at {_FAMILY_EXPONENT[kind]}; "
                                 "it takes none")
        lam = Rat(_FAMILY_EXPONENT[kind])
    elif kind != "C":
        raise ParameterError(f"unknown family kind {kind!r}")
    elif lam is None:
        raise ParameterError("kind C requires an exponent")
    return {"J": monomial_J_gallery(lam), "K": monomial_K_gallery(lam)}


# ---------------------------------------------------------------------------
# operators already catalogued elsewhere, by family

def _euler_chain(pre: Expr, shifts: list[Expr], left_d: bool = False) -> DiffOp:
    """pre * (z d - s1)(z d - s2)...; with left_d the first factor is a bare d."""
    v = "z"
    x = Var(v)
    out = DiffOp.identity(v)
    for s in shifts:
        out = compose(out, DiffOp(v, {1: x, 0: mul(MINUS_ONE, as_expr(s))}))
    if left_d:
        out = compose(DiffOp.d(v), out)
    return out.scaled(pre)


def literature_ops(family: str, side: str = "minus", parameter=None) -> dict[str, DiffOp]:
    """Previously catalogued second-order operators for each family."""
    family = family.upper()
    minus = minus_side(side)
    v = "z"
    x = Var(v)
    D1, D2 = DiffOp.d(v), DiffOp.d(v, 2)
    xd = DiffOp(v, {1: x})
    if family == "C":
        lam = as_expr(parameter)
        if minus:
            return {
                "J0": xd,
                "J0-": _euler_chain(ONE, [lam], left_d=True),
                "J00": D2.scaled(pow_(x, 2)),
                "J+0": _euler_chain(x, [lam, ONE]),
                "J#-": _euler_chain(pow_(x, lam), [lam], left_d=True),
                "J#0": _euler_chain(pow_(x, lam), [lam, ONE]),
            }
        lm2 = add(lam, Rat(-2))
        return {
            "K0": xd - DiffOp.identity(v),
            "K0-": _euler_chain(pow_(x, -1), [mul(MINUS_ONE, lm2), ONE]),
            "K00": _euler_chain(ONE, [ONE, Rat(2)]),
            "K+0": _euler_chain(x, [mul(MINUS_ONE, lm2), Rat(2)]),
            "K#-": _euler_chain(pow_(x, mul(MINUS_ONE, lam)), [mul(MINUS_ONE, lm2), ONE]),
            "K#0": _euler_chain(pow_(x, add(ONE, mul(MINUS_ONE, lam))),
                                 [mul(MINUS_ONE, lm2), Rat(2)]),
        }
    if family == "B":
        if minus:
            return {
                "J0": xd,
                "J--": D2,
                "J0-": _euler_chain(ONE, [Rat(3)], left_d=True),
                "J00": D2.scaled(pow_(x, 2)),
                "J+0": _euler_chain(x, [Rat(3), ONE]),
                "J++": _euler_chain(pow_(x, 3), [Rat(3)], left_d=True),
                "J3+": _euler_chain(pow_(x, 3), [Rat(3), ONE]),
            }
        return {
            "K0": xd,
            "K--": _euler_chain(pow_(x, -2), [MINUS_ONE, Rat(2)]),
            "K0-": _euler_chain(pow_(x, -1), [MINUS_ONE, ONE]),
            "K00": D2.scaled(pow_(x, 2)),
            "K+0": _euler_chain(x, [Rat(2), MINUS_ONE]),
            "K++": _euler_chain(pow_(x, 2), [Rat(2), ONE]),
            "K3+": _euler_chain(pow_(x, 3), [Rat(2), ONE]),
        }
    if family == "A":
        ops = {
            "J-": D1,
            "J0": xd,
            "J+": _euler_chain(x, [Rat(2)]),
            "J--": D2,
            "J0-": D2.scaled(x),
            "J00": D2.scaled(pow_(x, 2)),
            "J+0": _euler_chain(pow_(x, 2), [Rat(2)], left_d=True),
            "J++": _euler_chain(pow_(x, 2), [Rat(2), ONE]),
        }
        if minus:
            return ops
        return {"K" + k[1:]: op for k, op in ops.items()}
    raise ParameterError(f"unknown family {family!r}")


def catalogue_weights(family: str, side: str = "minus", parameter=None) -> dict[str, dict]:
    """Each operator of literature_ops(family, side, parameter) as combination
    weights over the family's monomial gallery: J on the minus side, K on the
    plus side, 0 the identity.  The members no entry uses are the operators
    the catalogues lack.  Type A is read at exponent 2; its printed J+0 and
    J++ also read as J6 and J8 at exponent 3, where they do not verify."""
    family = family.upper()
    minus = minus_side(side)
    if family == "C":
        r = pow_(add(as_expr(parameter), MINUS_ONE), -1)  # 1/(lam - 1)
        if minus:
            return {"J0": {3: r, 5: mul(MINUS_ONE, r)}, "J0-": {4: 1}, "J00": {3: 1},
                    "J+0": {7: 1}, "J#-": {6: 1}, "J#0": {8: 1}}
        return {"K0": {5: r, 3: mul(MINUS_ONE, r), 0: 1}, "K0-": {4: 1}, "K00": {3: 1},
                "K+0": {7: 1}, "K#-": {1: 1}, "K#0": {2: 1}}
    h = Fraction(1, 2)
    if family == "B":
        # the fifth partner entry is z^2 d^2 - 2 (the type C formula at 3),
        # so K0 and K00 carry an identity shift of 2
        if minus:
            return {"J0": {3: h, 5: -h}, "J--": {2: 1}, "J0-": {4: 1}, "J00": {3: 1},
                    "J+0": {7: 1}, "J++": {6: 1}, "J3+": {8: 1}}
        return {"K0": {5: h, 3: -h, 0: 2}, "K--": {2: 1}, "K0-": {4: 1}, "K00": {5: 1, 0: 2},
                "K+0": {7: 1}, "K++": {6: 1}, "K3+": {8: 1}}
    if family == "A":
        if minus:
            return {"J-": {2: 1, 4: -1}, "J0": {3: 1, 5: -1}, "J+": {6: 1, 7: -1},
                    "J--": {1: 1}, "J0-": {2: 1}, "J00": {3: 1}, "J+0": {6: 1}, "J++": {8: 1}}
        return {"K-": {4: 1, 2: -1}, "K0": {5: 1, 3: -1, 0: 2}, "K+": {7: 1, 6: -1},
                "K--": {1: 1}, "K0-": {4: 1}, "K00": {5: 2, 3: -1, 0: 2}, "K+0": {7: 1},
                "K++": {8: 1}}
    raise ParameterError(f"unknown family {family!r}")


def expand_in_literature_basis(coeffs: GeneralCoefficients, family: str, lam=None) -> dict:
    """The gauged minus Hamiltonian's coefficients over the family's catalogued basis, by name."""
    family = family.upper()
    g = coeffs
    if family == "C":
        lam = as_expr(lam)
        lm1 = add(lam, MINUS_ONE)
        inv_l = pow_(lam, -1)
        inv_lm1 = pow_(lm1, -1)
        inv_ll = mul(inv_l, inv_lm1)
        return {
            "a3": mul(g.c1, inv_l),
            "a2": add(mul(MINUS_ONE, add(g.b1, mul(MINUS_ONE, g.c0)), inv_lm1),
                      mul(add(g.a2, mul(MINUS_ONE, g.c0)), inv_ll)),
            "a1": mul(MINUS_ONE, g.b0, inv_lm1),
            "b0": add(g.b1, mul(MINUS_ONE, g.c0)),
            "t8": mul(MINUS_ONE, g.c2, inv_l),
            "t6": mul(g.b2, inv_lm1),
            "t2": mul(MINUS_ONE, g.a1, inv_ll),
            "t1": mul(MINUS_ONE, g.a0, inv_ll),
            "const": mul(MINUS_ONE, g.c0),
        }
    if family == "B":
        sixth, half, third = Rat(Fraction(1, 6)), Rat(Fraction(1, 2)), Rat(Fraction(1, 3))
        return {
            "a++": mul(MINUS_ONE, half, g.b2),
            "a+0": mul(third, g.c1),
            # the c0 term enters with a plus sign (derived by collecting the
            # pure-Euler pieces; the printed map fails the reconstruction check)
            "a00": mul(sixth, add(g.a2, mul(Rat(-3), g.b1), mul(Rat(2), g.c0))),
            "a0-": mul(MINUS_ONE, half, g.b0),
            "a--": mul(sixth, g.a1),
            "b0": add(g.b1, mul(MINUS_ONE, g.c0)),
            "t8": mul(MINUS_ONE, third, g.c2),
            "t1": mul(MINUS_ONE, sixth, g.a0),
            "const": mul(MINUS_ONE, g.c0),
        }
    if family == "A":
        half = Rat(Fraction(1, 2))
        return {
            "a++": mul(half, g.c2),
            "a+0": mul(half, add(mul(Rat(-2), g.b2), g.c1)),
            "a00": mul(half, add(g.a2, mul(Rat(-2), g.b1), g.c0)),
            "a0-": mul(half, add(g.a1, mul(Rat(-2), g.b0))),
            "a--": mul(half, g.a0),
            "b+": mul(half, g.c1),
            "b0": add(mul(MINUS_ONE, g.b1), g.c0),
            "b-": mul(MINUS_ONE, g.b0),
            "const": mul(MINUS_ONE, g.c0),
        }
    raise ParameterError(f"unknown family {family!r}")


def assemble_from_literature_basis(vals: dict, family: str, lam=None) -> DiffOp:
    """Rebuild the gauged minus Hamiltonian from the family's literature-basis coefficients."""
    family = family.upper()
    basis = literature_ops(family, "minus", lam)
    weights = {0: vals["const"]}
    if family in ("B", "C"):  # the gallery members the catalogue lacks
        basis.update(monomial_J_gallery(_FAMILY_EXPONENT.get(family, lam)))
        weights.update((i, vals[f"t{i}"]) for i in (8, 6, 2, 1) if f"t{i}" in vals)
    terms = {"C": (("J+0", "a3"), ("J00", "a2"), ("J0-", "a1"), ("J0", "b0")),
             "B": (("J++", "a++"), ("J+0", "a+0"), ("J00", "a00"), ("J0-", "a0-"),
                   ("J--", "a--"), ("J0", "b0")),
             "A": (("J++", "a++"), ("J+0", "a+0"), ("J00", "a00"), ("J0-", "a0-"),
                   ("J--", "a--"))}
    weights.update((name, mul(MINUS_ONE, vals[key])) for name, key in terms[family])
    if family == "A":
        weights.update((n, vals[k]) for n, k in (("J+", "b+"), ("J0", "b0"), ("J-", "b-")))
    return combination(basis, weights)


# ---------------------------------------------------------------------------
# K-gallery from the J-gallery by substitution and conjugation

_K_FROM_J = {1: {1: 1}, 2: {4: 1}, 3: {5: 1, 3: -1, 0: 1}, 4: {2: 1}, 5: {5: 1},
             6: {7: 1}, 7: {6: 1}, 8: {8: 1}}  # K_i as combination weights over J


def duality_K_from_J(i: int, f: Expr | None = None) -> DiffOp:
    """Construct the i-th K operator from J operators in the derivative variable.

    The recipe: build the J combination in an auxiliary variable w, pull it
    back through w = f'(x) with the image of the opaque symbol being
    x f'(x) - f(x), then conjugate by 1/f''.
    """
    if i not in _K_FROM_J:
        raise ParameterError("K index must be in 1..8")
    f, v = _fv(f)
    aux = v + "_w"
    combo = combination(J_gallery(opaque("f", 0, Var(aux))), _K_FROM_J[i])
    fp = diff(f, v)
    image0 = add(mul(Var(v), fp), mul(MINUS_ONE, f))
    pulled = pullback(combo, v, fp, {"f": image0})
    return gauge_conjugate(pow_(diff(f, v, 2), -1), pulled)
