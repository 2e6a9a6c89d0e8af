"""Operator arithmetic as it was first written, for differential tests.

Each operation builds its result at once, order by order, from the
coefficients of its operands: a sum or difference regroups the two
coefficients of each order, and a multiple rebuilds every coefficient with
`mul`.  `qsusy.diffop.DiffOp` must give the same nodes.
"""

from qsusy.diffop import DiffOp
from qsusy.expr import MINUS_ONE, ONE, ZERO, _sum, add, as_expr, mul


def plus(a: DiffOp, b: DiffOp) -> DiffOp:
    out = dict(a.coeffs)
    for k, c in b.coeffs.items():
        out[k] = add(out.get(k, ZERO), c)
    return DiffOp(a.var, out)


def minus(a: DiffOp, b: DiffOp) -> DiffOp:
    out = dict(a.coeffs)
    for k, c in b.coeffs.items():
        out[k] = _sum(((ONE, out.get(k, ZERO)), (MINUS_ONE, c)))
    return DiffOp(a.var, out)


def scaled(a: DiffOp, c) -> DiffOp:
    c = as_expr(c)
    return DiffOp(a.var, {k: mul(c, v) for k, v in a.coeffs.items()})


def negated(a: DiffOp) -> DiffOp:
    return scaled(a, MINUS_ONE)


def patch(monkeypatch):
    """Make DiffOp's +, -, unary - and scaled the oracle's, until undone."""
    for name, fn in (("__add__", plus), ("__sub__", minus), ("scaled", scaled),
                     ("__neg__", negated)):
        monkeypatch.setattr(DiffOp, name, fn)
