"""Finite-order linear ordinary differential operators with symbolic coefficients.

A DiffOp maps a derivative order to an Expr coefficient; the zero operator has
an empty map.  +, - and a Rat multiple combine operands' maps with rational
scales, summed per order on first read; an expression multiplier applies at
once.  Composition uses the Leibniz rule and therefore differentiates
coefficients symbolically, so identities stated for an unspecified opaque
function hold at the operator level.
"""

from __future__ import annotations

from functools import partialmethod
from math import comb, gcd
from typing import Mapping

from .expr import (
    Expr, Rat, Var, Opaque, ZERO, ONE, MINUS_ONE, ExprError,
    _rat, _sum, add, mul, pow_, as_expr, diff, equal0, rebuild,
)
from .parser import to_string


class OperatorError(ExprError):
    pass


class VariableMismatchError(OperatorError):
    pass


class DiffOp:
    # _terms: id(map) -> (num, den, map)
    __slots__ = ("var", "_terms", "_coeffs")

    def __init__(self, var: str, coeffs: Mapping[int, Expr] | None = None):
        clean: dict[int, Expr] = {}
        for k, c in (coeffs or {}).items():
            if isinstance(k, bool) or not hasattr(k, "__index__") or k < 0:
                raise OperatorError("derivative orders must be nonnegative integers")
            c = as_expr(c)
            if c != ZERO:
                clean[int(k)] = c
        self.var, self._coeffs = var, clean
        self._terms = {id(clean): (1, 1, clean)}

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, var: str) -> "DiffOp":
        return cls(var, {})

    @classmethod
    def identity(cls, var: str) -> "DiffOp":
        return cls(var, {0: ONE})

    @classmethod
    def d(cls, var: str, order: int = 1) -> "DiffOp":
        return cls(var, {order: ONE})

    @classmethod
    def mult(cls, var: str, e) -> "DiffOp":
        return cls(var, {0: as_expr(e)})

    # -- basics --------------------------------------------------------------
    @property
    def coeffs(self) -> dict[int, Expr]:
        if self._coeffs is None:
            orders: dict[int, list] = {}
            for n, d, m in self._terms.values():
                for k, c in m.items():
                    orders.setdefault(k, []).append((_rat(n, d), c))
            self._coeffs = {k: s for k, es in orders.items() if (s := _sum(es)) is not ZERO}
        return self._coeffs

    @property
    def order(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def coeff(self, k: int) -> Expr:
        return self.coeffs.get(k, ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "DiffOp"):
        if self.var != other.var:
            raise VariableMismatchError(f"{self.var!r} vs {other.var!r}")

    def __eq__(self, other):
        return (isinstance(other, DiffOp) and self.var == other.var
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.var, tuple(sorted((k, c) for k, c in self.coeffs.items()))))

    def __repr__(self):
        return f"DiffOp({self.var!r}, {pretty(self)!r})"

    # -- linear structure ----------------------------------------------------
    def __add__(self, other: "DiffOp", scale: tuple = (1, 1)) -> "DiffOp":  # self + scale·other
        self._check(other)
        out = dict(self._terms)
        for i, (n, d, m) in other._terms.items():
            n0, d0, _ = out.get(i, (0, 1, m))
            n, d = n0 * d * scale[1] + scale[0] * n * d0, d0 * d * scale[1]
            out[i] = (n // (g := gcd(n, d)), d // g, m)
        op = object.__new__(DiffOp)
        op.var, op._terms, op._coeffs = self.var, out, None
        return op

    __sub__ = partialmethod(__add__, scale=(-1, 1))

    def scaled(self, c) -> "DiffOp":
        c = as_expr(c)
        if isinstance(c, Rat):  # self + (c - 1)·self
            return self.__add__(self, (c.num - c.den, c.den))
        return DiffOp(self.var, {k: mul(c, v) for k, v in self.coeffs.items()})

    __neg__ = partialmethod(scaled, MINUS_ONE)

    # -- action and composition ----------------------------------------------
    def apply(self, e: Expr) -> Expr:
        """Apply to an operand expression in the same variable."""
        return add(*(mul(c, diff(e, self.var, k)) for k, c in self.coeffs.items()))


def compose(a: DiffOp, b: DiffOp) -> DiffOp:
    """Operator product a∘b (apply b first)."""
    a._check(b)
    v = a.var
    out: dict[int, list[Expr]] = {}
    for i, ca in a.coeffs.items():
        for j, cb in b.coeffs.items():
            for k in range(i + 1):
                coeff = mul(ca, Rat(comb(i, k)), diff(cb, v, k))
                if coeff == ZERO:
                    continue
                out.setdefault(i - k + j, []).append(coeff)
    return DiffOp(v, {k: add(*parts) for k, parts in out.items()})


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    return compose(a, b) - compose(b, a)


def gauge_conjugate(g: Expr, op: DiffOp) -> DiffOp:
    """Similarity transform g·op·g⁻¹, computed by d/dx -> d/dx - g'/g."""
    g = as_expr(g)
    if g == ZERO:
        raise OperatorError("gauge factor is canonically zero")
    v = op.var
    w = mul(diff(g, v), pow_(g, -1))
    return _power_sum(op, DiffOp(v, {1: ONE, 0: mul(MINUS_ONE, w)}))


def _power_sum(op: DiffOp, X: DiffOp, coeff=lambda c: c) -> DiffOp:
    """Σ_k coeff(c_k)·X^k over the coefficients c_k of op, for a first-order X."""
    v = X.var
    out = DiffOp.zero(v)
    power = DiffOp.identity(v)
    done = 0
    for k in sorted(op.coeffs):
        while done < k:
            power = compose(X, power)
            done += 1
        out = out + power.scaled(coeff(op.coeffs[k]))
    return out


def expand_factored(var: str, shifts: list[Expr]) -> DiffOp:
    """Compose monic first-order factors (d/dx + s_i), left to right."""
    out = DiffOp.identity(var)
    for s in shifts:
        out = compose(out, DiffOp(var, {1: ONE, 0: as_expr(s)}))
    return out


def pullback(op: DiffOp, new_var: str, phi: Expr, opaque_images: dict[str, Expr] | None = None) -> DiffOp:
    """Rewrite an operator in a new variable u related to the old one by old = phi(u).

    d/d(old) becomes (1/phi') d/du; coefficient occurrences of the old variable
    become phi, and an opaque symbol of order k becomes the k-fold quotient
    derivative of its supplied order-0 image.
    """
    old = op.var
    dphi = diff(phi, new_var)
    if dphi == ZERO:
        raise OperatorError("change of variable has vanishing derivative")
    inv_dphi = pow_(dphi, -1)
    images: dict[str, list[Expr]] = {}
    for name, img0 in (opaque_images or {}).items():
        images[name] = [img0]

    def image(name: str, k: int) -> Expr:
        if name not in images:
            raise OperatorError(f"no image supplied for opaque symbol {name!r}")
        seq = images[name]
        while len(seq) <= k:
            seq.append(mul(diff(seq[-1], new_var), inv_dphi))
        return seq[k]

    def transform(x: Expr, kids: tuple):
        if isinstance(x, Var):
            return phi if x.name == old else None
        if isinstance(x, Opaque):
            img = image(x.name, x.order)
            if kids[0] == phi:
                return img
            # image computed as a function of the new variable; re-substitute
            raise OperatorError("pullback supports opaque symbols applied to the bare variable only")
        return None

    return _power_sum(op, DiffOp(new_var, {1: inv_dphi}), lambda c: rebuild(c, transform))


def equal_canonical(a: DiffOp, b: DiffOp) -> bool:
    """Per-order exact equality after expansion."""
    a._check(b)
    for k in set(a.coeffs) | set(b.coeffs):
        if not equal0(a.coeff(k) - b.coeff(k)):
            return False
    return True


def pretty(op: DiffOp, fmt: str = "text") -> str:
    """Render highest order first, one term per derivative order."""
    if op.is_zero():
        return "0"
    parts = []
    v = op.var
    for k in sorted(op.coeffs, reverse=True):
        c = to_string(op.coeffs[k])
        if fmt == "tex":
            dk = "" if k == 0 else (rf"\frac{{d}}{{d{v}}}" if k == 1
                                    else rf"\frac{{d^{k}}}{{d{v}^{k}}}")
        else:
            dk = "" if k == 0 else (f"d/d{v}" if k == 1 else f"d^{k}/d{v}^{k}")
        if not dk:
            parts.append(c)
        elif c == "1":
            parts.append(dk)
        else:
            wrapped = f"({c})" if (" " in c or c.startswith("-")) else c
            parts.append(f"{wrapped}*{dk}" if fmt == "text" else f"{wrapped} {dk}")
    joiner = " + "
    return joiner.join(parts)

