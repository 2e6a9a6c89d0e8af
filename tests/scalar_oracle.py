"""The scalar float interpreter that expr.values_and_faults replaced: a tree walk
of one point at a time.  The tests hold the batch kernel to it, value for value
and exception for exception (type and message).
"""

import math

from qsusy.expr import (
    EMPTY_BINDING, EPS_POLE, Add, Binding, EvalDomainError, Expr, ExprError, Fn, Mul,
    Opaque, PoleError, Pow, Rat, Sym, UnboundSymbolError, Var,
)


def evaluate(e: Expr, at: float, bind: Binding | None = None,
             eps_pole: float = EPS_POLE) -> float:
    """Evaluate at a point; every Var is the evaluation point (one variable per context)."""
    b = bind or EMPTY_BINDING
    memo: dict[int, float] = {}

    def ev(x: Expr) -> float:
        key = id(x)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = _ev(x)
        memo[key] = out
        return out

    def _ev(x: Expr) -> float:
        if isinstance(x, Rat):
            return float(x.value)
        if isinstance(x, Var):
            return float(at)
        if isinstance(x, Sym):
            try:
                return float(b.params[x.name])
            except KeyError:
                raise UnboundSymbolError(f"parameter {x.name!r} is not bound") from None
        if isinstance(x, Add):
            return math.fsum(ev(t) for t in x.terms)
        if isinstance(x, Mul):
            out = 1.0
            for f in x.factors:
                out *= ev(f)
            return out
        if isinstance(x, Pow):
            base = ev(x.base)
            expo = ev(x.exponent)
            if expo < 0 and abs(base) < eps_pole:
                raise PoleError(f"divisor magnitude {abs(base):.3e} below pole guard")
            if base < 0:
                if isinstance(x.exponent, Rat) and x.exponent.value.denominator == 1:
                    return base ** x.exponent.value.numerator
                if expo == round(expo):
                    return base ** int(round(expo))
                raise EvalDomainError("negative base with non-integer exponent")
            if base == 0 and expo == 0:
                return 1.0
            try:
                return base**expo
            except OverflowError:
                return math.inf
        if isinstance(x, Fn):
            a = ev(x.arg)
            if x.name == "exp":
                try:
                    return math.exp(a)
                except OverflowError:
                    return math.inf
            if x.name == "log":
                if a <= 0:
                    raise EvalDomainError("log of non-positive value")
                if a < eps_pole:
                    raise PoleError("log argument inside pole guard")
                return math.log(a)
            if x.name == "sin":
                return math.sin(a)
            if x.name == "cos":
                return math.cos(a)
            if abs(math.cos(a)) < eps_pole:
                raise PoleError("tan at a pole")
            return math.tan(a)
        if isinstance(x, Opaque):
            a = ev(x.arg)
            _, d = b.func_derivative(x.name, x.order)
            return evaluate(d, a, b, eps_pole)
        raise ExprError(f"unexpected node {type(x)}")

    return ev(e)
