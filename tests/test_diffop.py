from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qsusy import Binding, add, equal0, fn, mul, opaque, parse, pow_, rat, sym, var
from qsusy import diffop as diffop_mod, expr as expr_mod, families
from qsusy.diffop import (
    DiffOp, OperatorError, VariableMismatchError, commutator, compose,
    equal_canonical, expand_factored, gauge_conjugate, pretty, pullback,
)
from qsusy.invariance import SamplePlan, ops_equal_numeric
import diffop_oracle
from test_expr import _expr, _leaks, _leaky_expr, _rational

z = var("z")
D = DiffOp.d("z")
D2 = DiffOp.d("z", 2)


class TestApply:
    def test_multiplied_second_derivative(self):
        op = DiffOp("z", {2: pow_(z, 2)})
        assert op.apply(pow_(z, 2)) == mul(2, pow_(z, 2))

    def test_rescaled_gallery_annihilation(self):
        op = DiffOp("z", {2: z, 1: rat(-2)})  # preserves span{1, z, z^3}
        assert op.apply(pow_(z, 3)) == rat(0)

    def test_derivative_of_constant(self):
        assert D.apply(rat(1)) == rat(0)

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatchError):
            compose(D, DiffOp.d("q"))


class TestCompose:
    def test_d_after_multiplication(self):
        got = compose(D, DiffOp.mult("z", z))
        assert got == DiffOp("z", {1: z, 0: rat(1)})

    def test_difference_of_squares(self):
        nu = sym("nu")
        got = compose(DiffOp("z", {1: rat(1), 0: nu}),
                      DiffOp("z", {1: rat(1), 0: mul(-1, nu)}))
        assert equal_canonical(got, DiffOp("z", {2: rat(1), 0: mul(-1, pow_(nu, 2))}))

    def test_euler_squared(self):
        e = DiffOp("z", {1: z})
        assert compose(e, e) == DiffOp("z", {2: pow_(z, 2), 1: z})

    def test_order_adds(self):
        a = DiffOp("z", {2: z})
        b = DiffOp("z", {3: rat(1), 0: z})
        assert compose(a, b).order == 5

    def test_apply_composition_consistency(self):
        a = DiffOp("z", {2: z, 0: fn("sin", z)})
        b = DiffOp("z", {1: pow_(z, 2)})
        psi = parse("exp(z/3) + z^2")
        lhs = compose(a, b).apply(psi)
        rhs = a.apply(b.apply(psi))
        assert equal0(lhs - rhs)

    def test_associativity_random(self):
        rng = np.random.default_rng(5)
        pool = [z, pow_(z, 2), fn("sin", z), fn("exp", z), rat(3), pow_(z, -1)]
        for _ in range(6):
            ops = [DiffOp("z", {int(rng.integers(0, 3)): pool[rng.integers(len(pool))],
                                int(rng.integers(0, 3)): pool[rng.integers(len(pool))]})
                   for _ in range(3)]
            a, b, c = ops
            left = compose(a, compose(b, c))
            right = compose(compose(a, b), c)
            assert equal_canonical(left, right)


class TestCommutator:
    def test_d_z(self):
        assert commutator(D, DiffOp.mult("z", z)) == DiffOp.identity("z")

    def test_self_commutator_vanishes(self):
        a = DiffOp("z", {2: fn("exp", z), 1: z})
        assert commutator(a, a).is_zero()

    def test_jacobi_identity_numeric(self):
        ops = [DiffOp("z", {1: z}), DiffOp("z", {2: rat(1)}),
               DiffOp("z", {0: fn("sin", z), 1: rat(1)})]
        a, b, c = ops
        lhs = (commutator(a, commutator(b, c))
               + commutator(b, commutator(c, a))
               + commutator(c, commutator(a, b)))
        ok, res = ops_equal_numeric(lhs, DiffOp.zero("z"), plan=SamplePlan(tol=1e-8))
        assert ok, res


class TestGaugeConjugate:
    def test_exponential_shifts_d(self):
        nu = sym("nu")
        g = fn("exp", mul(nu, z))
        assert gauge_conjugate(g, D) == DiffOp("z", {1: rat(1), 0: mul(-1, nu)})

    def test_monomial_on_second_derivative(self):
        got = gauge_conjugate(z, D2)
        want = DiffOp("z", {2: rat(1), 1: mul(-2, pow_(z, -1)), 0: mul(2, pow_(z, -2))})
        assert equal_canonical(got, want)

    def test_trivial_gauge(self):
        op = DiffOp("z", {2: z, 0: fn("cos", z)})
        assert gauge_conjugate(rat(1), op) == op

    def test_zero_gauge_rejected(self):
        with pytest.raises(OperatorError):
            gauge_conjugate(rat(0), D)

    def test_defining_property(self):
        g = mul(pow_(z, 2), fn("exp", z))
        op = DiffOp("z", {2: rat(1), 1: z})
        psi = parse("sin(z) + z")
        lhs = gauge_conjugate(g, op).apply(mul(g, psi))
        rhs = mul(g, op.apply(psi))
        for x in (0.4, 1.1, 2.3):
            b = Binding()
            from qsusy import evaluate
            assert evaluate(lhs, x) == pytest.approx(evaluate(rhs, x), rel=1e-9)

    def test_reciprocal_gauge_round_trip(self):
        g = fn("exp", pow_(z, 2))
        op = DiffOp("z", {2: z, 1: rat(1)})
        back = gauge_conjugate(pow_(g, -1), gauge_conjugate(g, op))
        ok, res = ops_equal_numeric(back, op, plan=SamplePlan(tol=1e-9))
        assert ok, res


class TestExpandFactored:
    def test_pure_derivative_cube(self):
        got = expand_factored("q", [rat(0), rat(0), rat(0)])
        assert got == DiffOp.d("q", 3)

    def test_leading_coefficient_identity(self):
        q = var("q")
        W = opaque("W", 0, q)
        E = opaque("E", 0, q)
        F = opaque("F", 0, q)
        op = expand_factored("q", [W - E - F, W, W + E])
        assert equal0(op.coeff(2) - (3 * W - F))

    def test_middle_coefficient_identity(self):
        q = var("q")
        W, E, F = (opaque(s, 0, q) for s in "WEF")
        Wp, Ep = opaque("W", 1, q), opaque("E", 1, q)
        op = expand_factored("q", [W - E - F, W, W + E])
        want = 3 * Wp + 2 * Ep + 3 * W**2 - E**2 - 2 * W * F - E * F
        assert equal0(op.coeff(1) - want)

    def test_zeroth_coefficient_identity(self):
        q = var("q")
        W, E, F = (opaque(s, 0, q) for s in "WEF")
        Wp, Ep = opaque("W", 1, q), opaque("E", 1, q)
        Wpp, Epp = opaque("W", 2, q), opaque("E", 2, q)
        op = expand_factored("q", [W - E - F, W, W + E])
        want = (Wpp + Epp + 3 * W * Wp + 2 * Ep * W - E * Ep - Wp * F - Ep * F
                + W**3 - E**2 * W - W**2 * F - E * W * F)
        assert equal0(op.coeff(0) - want)

    def test_constant_shift_specialization(self):
        # only the middle factor shifted by a constant: first-order
        # coefficient picks up -nu^2
        q = var("q")
        nu = sym("nu")
        op = expand_factored("q", [mul(-1, nu), rat(0), nu])
        assert equal0(op.coeff(1) - mul(-1, pow_(nu, 2)))


class TestPullback:
    def test_change_of_variable_on_derivative(self):
        u = var("u")
        op = DiffOp("z", {1: rat(1)})
        got = pullback(op, "u", pow_(u, 2))
        assert equal_canonical(got, DiffOp("u", {1: mul(rat(1, 2), pow_(u, -1))}))

    def test_opaque_image_chain(self):
        u = var("u")
        op = DiffOp("z", {0: opaque("f", 1, z)})
        got = pullback(op, "u", pow_(u, 2), {"f": pow_(u, 6)})  # f(z)=z^3 composed
        assert equal0(got.coeff(0) - mul(3, pow_(u, 4)))


def test_pretty_highest_order_first():
    op = DiffOp("z", {0: z, 2: pow_(z, 2), 1: rat(-2)})
    s = pretty(op)
    assert s.index("d^2/dz^2") < s.index("d/dz")
    assert s.startswith("z^2")


@pytest.mark.parametrize("order", [1.5, "2", True, False, -1, Fraction(2)])
def test_a_derivative_order_must_be_a_nonnegative_integer(order):
    with pytest.raises(OperatorError, match="^derivative orders must be nonnegative integers$"):
        DiffOp("z", {order: z})


def test_an_integral_derivative_order_of_another_type_is_an_int():
    op = DiffOp("z", {np.int64(2): z})
    assert op.coeffs == {2: z} and [type(k) for k in op.coeffs] == [int]


# rational combinations against the stepwise build (tests/diffop_oracle.py) ----

_LEAK = _leaks()[0]  # mul(a, h, h) with h = (a*b)^(1/2): once a*a*b, now b*a^2
_orders = st.integers(0, 3)
# products whose merged powers split, alone or in a sum, are drawn often
_coefficient = st.one_of(_expr, _leaky_expr, st.sampled_from(_leaks()),
                         st.tuples(_expr, st.sampled_from(_leaks())).map(lambda p: add(*p)))
_leaf = st.dictionaries(_orders, _coefficient, min_size=1, max_size=3)
_multiplier = st.one_of(st.sampled_from([rat(0), rat(1), rat(-1)]),
                        _rational.map(rat), _expr)
_step = st.one_of(st.tuples(st.sampled_from(["+", "-"]), st.integers(0, 99), st.integers(0, 99)),
                  st.tuples(st.just("neg"), st.integers(0, 99)),
                  st.tuples(st.just("scaled"), st.integers(0, 99), _multiplier))


def _run(leaves, program):
    """Each value of the program, built by DiffOp and by the oracle, with a
    flag for an order that cancelled at some step before the value's own."""
    pool = [(DiffOp("z", c), DiffOp("z", c), False) for c in leaves]
    values = []
    for op, i, *rest in program:
        a, oa, ca = pool[i % len(pool)]
        if op == "neg":
            got, want, before, dropped = -a, diffop_oracle.negated(oa), ca, oa.coeffs
        elif op == "scaled":
            got, want, before, dropped = a.scaled(rest[0]), diffop_oracle.scaled(oa, rest[0]), ca, oa.coeffs
        else:
            b, ob, cb = pool[rest[0] % len(pool)]
            step = diffop_oracle.plus if op == "+" else diffop_oracle.minus
            got, want, before = (a + b if op == "+" else a - b), step(oa, ob), ca or cb
            dropped = {**oa.coeffs, **ob.coeffs}
        pool.append((got, want, before or dropped.keys() - want.coeffs.keys() != set()))
        values.append((got, want, before))
    return values


@settings(max_examples=200, deadline=None)
@given(st.lists(_leaf, min_size=1, max_size=3), st.lists(_step, min_size=1, max_size=8))
@example([{0: _LEAK, 1: z}], [("scaled", 0, rat(1))])
@example([{0: _LEAK, 1: z}], [("neg", 0), ("neg", 1)])
@example([{0: _LEAK}], [("+", 0, 0)])
@example([{0: z, 1: sym("a"), 2: pow_(z, 2)}, {2: rat(1), 1: z, 0: sym("a")}],
         [("-", 0, 0), ("+", 2, 1)])
def test_a_combination_is_the_stepwise_build(leaves, program):
    for got, want, cancelled in _run(leaves, program):
        assert got.coeffs.keys() == want.coeffs.keys()
        assert all(c is want.coeffs[k] for k, c in got.coeffs.items())
        if not cancelled:
            assert list(got.coeffs) == list(want.coeffs)


# the mechanism: entries are combined, and each order is summed once ---------

def test_a_scaled_difference_makes_no_node_until_read(monkeypatch):
    J = families.J_gallery(families.F)
    rest, r = J[1] - J[4], rat(3, 7)
    made = []
    real = expr_mod._make
    monkeypatch.setattr(expr_mod, "_make", lambda *a: made.append(a[0]) or real(*a))
    op = rest - J[9].scaled(r)
    assert made == []
    want = diffop_oracle.minus(diffop_oracle.minus(J[1], J[4]), diffop_oracle.scaled(J[9], r))
    assert op.coeffs.keys() == want.coeffs.keys() and made
    assert all(c is want.coeffs[k] for k, c in op.coeffs.items())


def test_doubling_keeps_one_entry():
    x = x0 = DiffOp("z", families.J_gallery(families.F)[9].coeffs)
    for _ in range(64):
        x = x + x
    assert len(x._terms) == 1
    assert x.coeffs == {k: mul(rat(2**64), c) for k, c in x0.coeffs.items()}


def test_a_long_sum_of_gallery_members_sums_each_order_once(monkeypatch):
    J = families.J_gallery(families.F)
    rng = np.random.default_rng(11)
    picks = [(int(rng.integers(1, 10)), bool(rng.integers(2))) for _ in range(1000)]
    want = got = DiffOp.zero("z")
    for j, sub in picks:
        want = (diffop_oracle.minus if sub else diffop_oracle.plus)(want, J[j])
    calls = []
    real = diffop_mod._sum
    monkeypatch.setattr(diffop_mod, "_sum", lambda es: calls.append(es) or real(es))
    for j, sub in picks:
        got = got - J[j] if sub else got + J[j]
    assert calls == []
    assert got.coeffs.keys() == want.coeffs.keys()
    assert all(c is want.coeffs[k] for k, c in got.coeffs.items())
    assert len(calls) == len({k for j, _ in picks for k in J[j].coeffs})
