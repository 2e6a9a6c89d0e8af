import contextlib
import gc
import math
import os
import signal
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qsusy import (
    Binding, EvalDomainError, PoleError, UnboundSymbolError,
    add, diff, differentiate, equal0, evaluate, expand, fn, mul, opaque,
    parse, pow_, rat, substitute, substitute_opaque, sym, to_string, var,
)
from qsusy import expr as expr_mod, families, invariance, x2
from qsusy.cli import SuiteConfig, run_suite
from qsusy.diffop import DiffOp, pullback
from qsusy.expr import (
    MINUS_ONE, ONE, ZERO, Add, EvalError, Expr, ExprError, Fn, Mul, NotRationalError, Opaque, Pow,
    Rat, Sym, Var, children, evaluate_exact, free_vars, opaque_names, rebuild, sort_key,
    substitute_param, substitute_var, values, values_and_faults,
)
from qsusy.invariance import SamplePlan, SamplingError, safe_points
from qsusy.parser import ParseError
import constructor_oracle
from scalar_oracle import evaluate as scalar_evaluate

z = var("z")


class TestParse:
    def test_power_literal(self):
        assert parse("z^3") == pow_(z, 3)

    def test_exp_literal(self):
        assert parse("exp(nu*z)") == fn("exp", mul(sym("nu"), z))

    def test_opaque_orders(self):
        e = parse("f''(z)/f'''(z)")
        assert e == mul(opaque("f", 2, z), pow_(opaque("f", 3, z), -1))

    def test_decimal_is_exact(self):
        assert parse("0.5*z") == mul(rat(1, 2), z)

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("sinh(z)")

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError, match="position"):
            parse("z + ")

    def test_identifiers_are_parameters(self):
        e = parse("b0*lambda")
        assert e == mul(sym("b0"), sym("lambda"))

    @pytest.mark.parametrize("text, message, pos", [
        ("(z exp", "expected ')', got 'e'", 3),
        ("sin(z", "expected ')', got ''", 5),
        ("z +* 2", "unexpected character '*'", 3),
        (" z^.5", "unexpected character '.'", 3),
        ("3*sinh(z)", "unknown function 'sinh'", 2),
        ("cos(z)*exp'(z)", "primes are not allowed on 'exp'", 7),
        ("z + f'' ", "primes require a function application after 'f'", 4),
        ("1.5.2", "trailing input '.2'", 3),
    ])
    def test_error_message_and_position(self, text, message, pos):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"{message} (at position {pos})"
        assert info.value.pos == pos

    @pytest.mark.parametrize("text, message, pos", [
        ("z^²", "unexpected character '²'", 2),  # a digit to str.isdigit, not to Fraction
        ("3²", "trailing input '²'", 1),
        ("9^9^9", "constant power 9^387420489 exceeds 10000 bits", 1),
        ("4^(10^9/2)", "constant power 4^500000000 exceeds 10000 bits", 1),
        ("(9*z)^9999999", "constant power (9*z)^9999999 exceeds 10000 bits", 5),
        ("2^(1/999999999)", "constant power 2^(1/999999999) exceeds 10000 bits", 1),
        ("exp(99999999*log(9))", "constant power 9^99999999 exceeds 10000 bits", 0),
        # each power is within the budget; the product or the sum is not, and
        # to_string could not print it
        ("3^(9999/2)*3^(9999/2)*3^(9999/2)*3^(9999/2)",
         "a constant of the result exceeds 10000 bits", 43),
        ("2^(-9000) + 3^(-5000)", "a constant of the result exceeds 10000 bits", 21),
    ])
    def test_non_decimal_digits_and_huge_powers_are_parse_errors(self, text, message, pos):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"{message} (at position {pos})"

    @pytest.mark.parametrize("text, kind", [
        ("9" * 5000, "ValueError"),  # past int's digit limit
        ("(10^400)^(1/2)", "OverflowError"),  # pow_'s root test converts to float
        ("(" * 2000 + "z" + ")" * 2000, "RecursionError"),
    ])
    def test_exceptions_inside_parse_become_parse_errors(self, text, kind):
        with pytest.raises(ParseError, match=f"^{kind}: "):
            parse(text)

    def test_constant_powers_within_the_budget_fold(self):
        assert parse("2^10000") == rat(2**10000)
        assert parse("(2^(1/2))^20") == rat(2**10)
        assert parse("2^(1/10000)") == pow_(rat(2), rat(1, 10000))

    def test_merged_root_powers_parse_in_bounded_time_and_memory(self):
        # mul merges the three roots into 2^(297783951/988939464559); the
        # perfect-root test of that power once computed 2^988939464559.  The
        # child process caps its address space at 2 GiB and its time at 10 s,
        # so a regression fails here instead of exhausting the machine
        code = ("import resource\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                "from qsusy import parse, pow_, rat\n"
                "got = parse('2^(1/9973)*2^(1/9967)*2^(1/9949)')\n"
                "assert got == pow_(rat(2), rat(297783951, 988939464559)), got\n")
        src = os.path.dirname(os.path.dirname(expr_mod.__file__))
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=10)
        assert out.returncode == 0, out.stderr

    def test_unicode_digits_and_letters(self):
        assert parse("١٢+α") == add(rat(12), sym("α"))
        assert parse("z²") == sym("z²")  # a name continues with \w, as str.isalnum


# the parser's input alphabet: characters, whole tokens, and a superscript
# digit, a Greek letter and an Arabic-Indic digit
PARSE_TEXTS = st.lists(st.sampled_from(
    list("z+-*/^() 0123456789.'fabxq_")
    + ["exp", "log", "sin", "tan", "cos", "sinh", "nu", "f'", "f''", "²", "α", "١"]),
    max_size=16).map(lambda pieces: "".join(pieces)[:16])


# stop at the first failing example: a parser that folds 9^9^9 would not return
@settings(max_examples=300, deadline=None, report_multiple_bugs=False)
@given(PARSE_TEXTS)
@example("z^²")
@example("3²")
@example("f(²")
@example("9^9^9")
def test_parse_returns_an_expr_or_raises_an_expr_error(text):
    try:
        assert isinstance(parse(text), Expr)
    except ExprError:
        pass


class TestCanonical:
    def test_sums_flatten_and_merge(self):
        assert parse("z^3 + 2*z - z^3") == mul(2, z)

    def test_like_factors_merge(self):
        assert parse("z^(2-lambda)*z^lambda") == pow_(z, 2)

    def test_exp_factors_merge(self):
        assert parse("exp(nu*z)*exp(-nu*z)") == ONE

    def test_rational_folding(self):
        assert parse("2/3 + 1/6") == rat(5, 6)
        assert parse("(2/3)^2") == rat(4, 9)

    def test_exp_log_folding(self):
        q = var("q")
        assert fn("exp", mul(rat(2), fn("log", q))) == pow_(q, 2)
        assert fn("log", fn("exp", q)) == q
        assert fn("log", pow_(q, rat(1, 2))) == mul(rat(1, 2), fn("log", q))

    def test_scalar_distributes_over_sum(self):
        a, b = sym("a"), sym("b")
        assert add(a, mul(-1, add(a, b))) == mul(-1, b)

    def test_zero_power(self):
        assert pow_(parse("z+1"), 0) == ONE


class TestDifferentiate:
    def test_power_rule_with_parameter(self):
        lam = sym("lambda")
        got = diff(parse("z^lambda"), "z", 2)
        want = mul(lam, add(lam, -1), pow_(z, add(lam, -2)))
        assert equal0(got - want)

    def test_exponential(self):
        nu = sym("nu")
        got = diff(parse("exp(nu*z)"), "z", 3)
        assert equal0(got - mul(pow_(nu, 3), fn("exp", mul(nu, z))))

    def test_opaque_order_bump(self):
        assert diff(opaque("f", 0, z), "z", 2) == opaque("f", 2, z)

    def test_opaque_chain_rule(self):
        e = opaque("f", 1, pow_(z, 2))
        assert diff(e, "z") == mul(2, z, opaque("f", 2, pow_(z, 2)))

    def test_order_zero_is_identity(self):
        e = parse("sin(z)*z^2")
        assert diff(e, "z", 0) == e

    def test_differentiate_wrapper_detects_variable(self):
        assert differentiate(parse("q^2", "q")) == mul(2, var("q"))


class TestSubstitute:
    def test_opaque_with_cubic(self):
        got = substitute_opaque(parse("f'(z)/f''(z)"), "f", parse("z^3"))
        assert got == mul(rat(1, 2), z)

    def test_variable_substitution(self):
        q = var("q")
        assert substitute(parse("z^2"), z, pow_(q, 2)) == pow_(q, 4)

    def test_opaque_exponential_ratio(self):
        got = substitute_opaque(parse("f'''(z)/f''(z)"), "f", parse("exp(nu*z)"))
        assert got == sym("nu")

    def test_opaque_substitution_differentiates_argument(self):
        e = opaque("f", 2, z)
        got = substitute_opaque(e, "f", parse("z^3"))
        assert got == mul(6, z)


class TestEvaluate:
    def test_simple(self):
        assert evaluate(parse("z^2"), 3.0) == 9.0

    def test_identity_case(self):
        assert evaluate(parse("exp(nu*z)"), 1.0, Binding(params={"nu": 0.0})) == 1.0

    def test_bound_opaque(self):
        b = Binding(funcs={"f": parse("z^3")})
        assert evaluate(parse("f''(z)"), 2.0, b) == pytest.approx(12.0)

    def test_unbound_parameter_raises(self):
        with pytest.raises(UnboundSymbolError):
            evaluate(parse("nu*z"), 1.0)

    def test_unbound_opaque_raises(self):
        with pytest.raises(UnboundSymbolError):
            evaluate(parse("f(z)"), 1.0)

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            evaluate(parse("1/z"), 1e-12)

    def test_negative_base_rational_power(self):
        with pytest.raises(EvalDomainError):
            evaluate(pow_(z, rat(1, 2)), -1.0)


CORPUS = [
    "z^3 + 2*z",
    "exp(z/3)*sin(z)",
    "log(z)*z^2",
    "z^(5/2) + 1/z",
    "cos(z)/(z + 2)",
    "sin(z)^2 + cos(z)^2",
    "tan(z/4)",
]


@pytest.mark.parametrize("text", CORPUS)
def test_numeric_derivative_matches_central_difference(text):
    import numpy as np

    e = parse(text)
    de = diff(e, "z")
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.6, 2.4, size=20)
    h = 1e-5
    for x in pts:
        x = float(x)
        sym_val = evaluate(de, x)
        num_val = (evaluate(e, x + h) - evaluate(e, x - h)) / (2 * h)
        assert abs(sym_val - num_val) <= 1e-6 * (1 + abs(sym_val))


@pytest.mark.parametrize("text", CORPUS + ["f''(z)^2/(3*z) - sin(z)^(1/2)",
                                           "1/2 - z^(-3)*exp(2*z)"])
def test_print_parse_round_trip(text):
    e = parse(text)
    assert parse(to_string(e)) == e


# hypothesis strategies for small random expressions ------------------------

_leaf = st.sampled_from([z, sym("a"), rat(2), rat(1, 3), rat(-1)])


def _build(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: add(*ab)),
        st.tuples(children, children).map(lambda ab: mul(*ab)),
        children.map(lambda e: pow_(e, 2)),
        children.map(lambda e: fn("sin", e)),
        children.map(lambda e: fn("exp", e)),
    )


_expr = st.recursive(_leaf, _build, max_leaves=6)
_rational = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(_expr, _expr, _rational, _rational)
def test_differentiation_is_linear(e1, e2, a, b):
    combo = add(mul(rat(a), e1), mul(rat(b), e2))
    lhs = diff(combo, "z")
    rhs = add(mul(rat(a), diff(e1, "z")), mul(rat(b), diff(e2, "z")))
    assert equal0(lhs - rhs)


@settings(max_examples=60, deadline=None)
@given(_expr, _expr)
def test_leibniz_rule(e1, e2):
    lhs = diff(mul(e1, e2), "z")
    rhs = add(mul(diff(e1, "z"), e2), mul(e1, diff(e2, "z")))
    assert equal0(lhs - rhs)


@settings(max_examples=60, deadline=None)
@given(_expr)
def test_round_trip_generated(e):
    assert parse(to_string(e)) == e


# the constructor memo against the unmemoized constructors ---------------------

_MEMOIZED = ("add", "mul", "pow_", "fn", "_diff1")


@contextlib.contextmanager
def _unmemoized():
    """Every memoized function of qsusy.expr replaced by its original, so that
    the constructors and the operators also call each other unmemoized."""
    saved = {name: getattr(expr_mod, name) for name in _MEMOIZED}
    try:
        for name, f in saved.items():
            setattr(expr_mod, name, f.__wrapped__)
        yield
    finally:
        for name, f in saved.items():
            setattr(expr_mod, name, f)


def _built(f, *args):
    try:
        return f(*args)
    except ExprError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(_expr, _expr)
def test_memoized_constructors_match_their_originals(e1, e2):
    calls = [("add", (e1, e2)), ("add", (e1, mul(-1, e1))), ("mul", (e1, e2)),
             ("pow_", (e1, 2)), ("pow_", (e1, -1)),
             ("pow_", (e1, e2)), ("pow_", (e2, rat(1, 2))), ("fn", ("exp", e1)),
             ("fn", ("log", e1)), ("fn", ("cos", e2)), ("_diff1", (e1, "z")),
             ("_diff1", (e2, "a"))]
    if e2 != ZERO:  # 0 has no inverse: pow_(0, -1) raises before any call is made
        calls.append(("mul", (e2, pow_(e2, -1))))
    got = [_built(getattr(expr_mod, name), *args) for name, args in calls]
    wrapped = [_built(getattr(expr_mod, name).__wrapped__, *args) for name, args in calls]
    with _unmemoized():
        want = [_built(getattr(expr_mod, name), *args) for name, args in calls]
    for g, w, u in zip(got, wrapped, want):
        assert g == w == u
        if not isinstance(g, tuple):
            assert sort_key(g) == sort_key(w) == sort_key(u)


def test_equal_calls_return_the_same_node():
    # fresh leaves each time: the results are one object all the same
    def build():
        z_, a_ = var("z"), sym("a")
        s = add(fn("sin", z_), mul(a_, pow_(z_, 3)))
        return s, diff(s, "z", 2)

    (s1, d1), (s2, d2) = build(), build()
    assert s1 is s2 and d1 is d2


def test_exceptions_are_not_memoized():
    for _ in range(2):
        with pytest.raises(ExprError, match="0 raised to a negative power"):
            pow_(0, -1)
        with pytest.raises(ExprError, match="unknown function"):
            fn("sinh", z)


def test_memos_stay_bounded_over_a_suite():
    run_suite(SuiteConfig(suites=["construction"]))
    for name in _MEMOIZED:
        info = getattr(expr_mod, name).cache_info()
        assert info.maxsize == expr_mod._MEMO and info.currsize <= expr_mod._MEMO


# constructors that keep existing nodes against ones that rebuild every term ---

@settings(max_examples=80, deadline=None)
@given(_expr, _expr, _rational)
def test_add_and_mul_match_the_rebuilding_constructors(e1, e2, c):
    k = rat(c)
    calls = [("add", (e1, e2)), ("add", (e1, e2, e1)), ("add", (mul(k, e1), e2, mul(3, e1))),
             ("add", (e1, mul(-1, e1), k)), ("add", (add(e1, k), add(e2, rat(2)))),
             ("mul", (e1, e2)), ("mul", (k, e1, rat(-2), e2)), ("mul", (e1, pow_(e1, -1))),
             ("mul", (k, add(e1, e2))), ("mul", (e2, e2, e1))]
    for name, args in calls:
        got = _built(getattr(expr_mod, name).__wrapped__, *args)
        want = _built(getattr(constructor_oracle, name), *args)
        assert got == want
        if not isinstance(got, tuple):
            assert sort_key(got) == sort_key(want)


# rational multiples against the general product and the rebuilding oracle -----

_half = rat(1, 2)


def _leaky_build(children):
    """_build, with square roots and products of them: with h = (a*b)^(1/2),
    mul(a, h, h) merges a power that pow_ splits into a product, whose factors
    mul must merge again."""
    root = children.map(lambda e: pow_(e, _half))
    return st.one_of(
        _build(children), root, st.tuples(root, root).map(lambda hk: mul(*hk)),
        st.tuples(children, children).map(lambda ab: mul(ab[0], *[pow_(mul(*ab), _half)] * 2)))


_leaky_expr = st.recursive(_leaf, _leaky_build, max_leaves=6)


def _leaks():
    """Products whose merged powers split: mul once left them unmerged as
    a*a*b, a*b/a/b and alpha*alpha*beta*beta*nu^4/4; now regression inputs."""
    a, b, al, be = sym("a"), sym("b"), sym("alpha"), sym("beta")
    h, g, k = pow_(mul(a, b), _half), pow_(mul(a, b), rat(-1, 2)), pow_(mul(al, be), _half)
    return mul(a, h, h), mul(a, b, g, g), mul(rat(1, 4), pow_(sym("nu"), 4), al, be, k, k)


def _general_mul(*factors):
    """mul's product loop, unmemoized: a third factor 1 keeps mul off its
    shortcut for two factors."""
    return expr_mod.mul.__wrapped__(ONE, *factors)


def _assert_same_op(got, general, oracle):
    assert got.coeffs.keys() == general.coeffs.keys() == oracle.coeffs.keys()
    for k, c in got.coeffs.items():
        assert c is general.coeffs[k] and c == oracle.coeffs[k]
        assert sort_key(c) == sort_key(oracle.coeffs[k])


def _leak_examples(test):
    leaks = _leaks()
    for c in (Fraction(-1), Fraction(3), Fraction(2, 3)):
        for i, e1 in enumerate(leaks):
            test = example(c, e1, leaks[i - 1])(test)
    return test


@settings(max_examples=150, deadline=None)
@given(_rational, _leaky_expr, _leaky_expr)
@_leak_examples
@example(Fraction(-1), add(mul(2, z, sym("a")), mul(3, z, fn("sin", z))), z)
def test_a_rational_multiple_is_the_general_product(c, e1, e2):
    k, s, o = rat(c), add(e1, e2), constructor_oracle
    scaled = expr_mod.mul.__wrapped__
    cases = [(scaled(k, e1), _general_mul(k, e1), o.mul(k, e1)),
             (scaled(e2, k), _general_mul(e2, k), o.mul(e2, k)),
             (scaled(k, s), _general_mul(k, s), o.mul(k, s)),
             (scaled(k, k), _general_mul(k, k), o.mul(k, k)),
             (e1 - e2, add(e1, _general_mul(MINUS_ONE, e2)), o.add(e1, o.mul(MINUS_ONE, e2))),
             (-e1, _general_mul(MINUS_ONE, e1), o.mul(MINUS_ONE, e1))]
    for got, general, oracle in cases:
        assert got is general
        assert got == oracle and sort_key(got) == sort_key(oracle)
    a, b = DiffOp("z", {0: e1, 1: s, 2: e2}), DiffOp("z", {0: e2, 2: e1, 3: k})
    orders = set(a.coeffs) | set(b.coeffs)
    _assert_same_op(a - b, a + DiffOp("z", {j: _general_mul(MINUS_ONE, v) for j, v in b.coeffs.items()}),
                    DiffOp("z", {j: o.add(a.coeff(j), o.mul(MINUS_ONE, b.coeff(j))) for j in orders}))
    _assert_same_op(a.scaled(k), DiffOp("z", {j: _general_mul(k, v) for j, v in a.coeffs.items()}),
                    DiffOp("z", {j: o.mul(k, v) for j, v in a.coeffs.items()}))
    _assert_same_op(-b, DiffOp("z", {j: _general_mul(MINUS_ONE, v) for j, v in b.coeffs.items()}),
                    DiffOp("z", {j: o.mul(MINUS_ONE, v) for j, v in b.coeffs.items()}))


def test_scaling_and_subtracting_gallery_members_rebuild_no_factor(monkeypatch):
    J = families.J_gallery(families.F)
    leak = _leaks()[0]
    for name in _MEMOIZED:
        getattr(expr_mod, name).cache_clear()
    calls = []
    for name in ("pow_", "fn"):
        real = getattr(expr_mod, name)
        monkeypatch.setattr(expr_mod, name, lambda *a, _real=real: calls.append(a) or _real(*a))
    scaled = J[9].scaled(rat(3, 7))
    difference = J[9] - J[8]
    assert calls == []
    assert scaled.coeff(1) == mul(rat(-3, 7), z) and difference.coeff(0) == add(ONE, -families.F)
    want = mul(3, sym("b"), pow_(sym("a"), 2))
    calls.clear()
    assert mul(rat(3), leak) is want and calls == []


def _power_key(f):
    """mul's power-map key of the factor f: a Pow's base, the exp sentinel, or f."""
    if isinstance(f, Pow):
        return f.base
    return expr_mod._EXP if isinstance(f, Fn) and f.name == "exp" else f


@settings(max_examples=150, deadline=None)
@given(_leaky_expr, _leaky_expr)
@example(z, pow_(pow_(z, _half), _half))  # squared, the root of a root is a root of z
def test_no_product_has_two_factors_with_one_power_key(e1, e2):
    product = mul(e1, e2, e2)
    assert product == constructor_oracle.mul(e1, e2, e2)
    for e in (e1, e2, product, add(e1, e2), *_leaks()):
        for x in expr_mod._nodes(e):
            if isinstance(x, Mul):
                keys = [_power_key(f) for f in x.factors if not isinstance(f, Rat)]
                assert len(keys) == len(set(keys)), x
    a, b = sym("a"), sym("b")
    h, g = pow_(mul(a, b), _half), pow_(mul(a, b), rat(-1, 2))
    assert mul(a, h, h) is mul(pow_(a, 2), b)
    assert mul(a, b, g, g) is ONE


def test_a_root_of_a_power_is_one_power_unless_the_power_is_even():
    r = pow_(pow_(z, _half), _half)
    assert r is pow_(z, rat(1, 4)) and mul(r, pow_(z, rat(3, 4))) is z
    assert pow_(pow_(z, 3), rat(1, 3)) is z
    # (z^2)^(1/2) is |z|, not z: it stays nested
    a = pow_(pow_(z, 2), _half)
    assert type(a) is Pow and a.base is pow_(z, 2) and a.exponent is _half
    assert evaluate(a, -2.0) == scalar_evaluate(a, -2.0) == 2.0


def test_add_keeps_a_term_that_shares_its_core_with_no_other():
    t, u = mul(3, z, sym("a")), fn("sin", z)
    s = add(t, u)
    assert isinstance(s, Add) and any(x is t for x in s.terms)
    assert any(x is u for x in s.terms)


def test_add_rebuilds_a_term_whose_coefficient_merged():
    t = mul(3, z, sym("a"))
    s = add(t, t)
    assert s is not t and s == mul(6, z, sym("a")) == constructor_oracle.add(t, t)
    assert add(t, mul(-3, sym("a"), z)) == rat(0)


def test_a_product_is_split_into_coefficient_and_core_once():
    t = mul(rat(2, 3), z, sym("a"))
    assert expr_mod._coeff_core(t) is expr_mod._coeff_core(t)
    c, core = expr_mod._coeff_core(t)
    assert c is rat(2, 3) and core == mul(z, sym("a"))
    assert expr_mod._coeff_core(core) == (ONE, core)


def _exact_root(n: int, q: int):
    """The integer r >= 0 with r**q == n, found by bisection; None if none is."""
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if mid**q < n else (lo, mid)
    return lo if lo**q == n else None


_fold_base = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(lambda r, k: r**k, st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
              st.integers(2, 4)))  # perfect powers, so that roots fold
_fold_exponent = st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 1, 2, 3, 4]))


@settings(max_examples=300, deadline=None)
@given(_fold_base, _fold_exponent)
@example(Fraction(-8, 27), Fraction(-3))
@example(Fraction(4, 9), Fraction(-3, 2))
@example(Fraction(-8), Fraction(1, 3))
@example(Fraction(0), Fraction(-2, 3))
def test_pow_folds_constants_as_fraction_arithmetic(b, e):
    if b == 0 and e < 0:
        with pytest.raises(ExprError):
            pow_(Rat(b), Rat(e))
        return
    got = pow_(Rat(b), Rat(e))
    p, q = e.numerator, e.denominator
    roots = [_exact_root(b.numerator, q), _exact_root(b.denominator, q)] if b >= 0 else [None]
    if q == 1:
        assert got is Rat(b**p)
    elif None not in roots:
        assert got is Rat(Fraction(*roots) ** p)
    else:
        assert type(got) is Pow and got.base is Rat(b) and got.exponent is Rat(e)


def test_a_constant_past_the_int_digit_limit_prints():
    limit = sys.get_int_max_str_digits()
    got = [repr(mul(pow_(Rat(3), Rat(20000)), var("z"))), to_string(pow_(rat(-2, 3), 15001)),
           to_string(Pow(z, Rat(10**9000 + 7)))]
    sys.set_int_max_str_digits(0)
    try:
        want = [f"{3**20000}*z", f"-{2**15001}/{3**15001}", f"z^{10**9000 + 7}"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want


def test_canonical_eval_agrees_with_raw_combination():
    # same function assembled two ways evaluates identically to rounding
    raw = add(mul(parse("z+1"), parse("z-1")), rat(1))
    canon = expand(raw)
    for x in (0.3, 1.7, 2.9):
        assert evaluate(raw, x) == pytest.approx(evaluate(canon, x), abs=1e-12)


# the numeric sampling layer ---------------------------------------------------

_points = st.lists(st.floats(-3.0, 3.0), max_size=5)


def _scalar_outcome(e, x, bind=None):
    """The oracle's float at x, or the type and message of what it raises."""
    try:
        return scalar_evaluate(e, x, bind)
    except (ArithmeticError, ValueError, EvalError) as exc:
        return type(exc), str(exc)


def _same_outcome(got, want):
    if isinstance(want, tuple):
        return got == want
    return isinstance(got, float) and np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=80, deadline=None)
@given(_expr, st.floats(-3.0, 3.0), st.floats(-2.0, 2.0))
def test_evaluate_is_the_oracle_at_one_point(e, x, a):
    bind = Binding(params={"a": a})
    try:
        got = evaluate(e, x, bind)
    except (ArithmeticError, ValueError, EvalError) as exc:
        got = type(exc), str(exc)
    assert _same_outcome(got, _scalar_outcome(e, x, bind))


@settings(max_examples=80, deadline=None)
@given(st.lists(_expr, max_size=4), _points, st.floats(-2.0, 2.0))
def test_values_matches_evaluate_exactly(exprs, pts, a):
    bind = Binding(params={"a": a})
    try:
        want = [[scalar_evaluate(e, x, bind) for e in exprs] for x in pts]
    except (ArithmeticError, ValueError):
        assume(False)  # overflow inside evaluate itself; nothing to compare
    got = values(exprs, pts, bind)
    assert got.shape == (len(pts), len(exprs))
    np.testing.assert_array_equal(got, np.array(want).reshape(got.shape))


def test_values_shape_with_empty_lists():
    assert values([], [0.5, 1.5]).shape == (2, 0)
    assert values([z, ONE], []).shape == (0, 2)
    assert values([], []).shape == (0, 0)


@pytest.mark.parametrize("text, x", [
    ("1/z", 1e-12),                 # pole guard
    ("tan(z)", math.pi / 2),        # pole guard of tan
    ("nu*z", 1.0),                  # unbound parameter
    ("f(z)", 1.0),                  # unbound opaque function
    ("log(z - 2)", 1.0),            # domain error
])
def test_values_raises_what_evaluate_raises(text, x):
    e = parse(text)
    with pytest.raises(EvalError) as scalar:
        scalar_evaluate(e, x)
    with pytest.raises(EvalError) as batched:
        values([ONE, e], [2.5, x])
    assert type(batched.value) is type(scalar.value)
    assert str(batched.value) == str(scalar.value)
    _, F, errors = values_and_faults([e], [x])
    err = errors[F[0, 0]]
    assert (type(err), str(err)) == (type(scalar.value), str(scalar.value))


def test_values_raises_in_scalar_loop_order():
    # expression by expression: 1/z meets its pole at 0.0 before log(z - 2)
    # meets its domain error at 1.0, which a point-by-point scan meets first
    exprs, pts = [pow_(z, -1), fn("log", z - 2)], [1.0, 0.0]
    with pytest.raises(PoleError) as scalar:
        scalar_evaluate(exprs[0], 0.0)
    with pytest.raises(EvalError) as batched:
        values(exprs, pts)
    assert type(batched.value) is PoleError
    assert str(batched.value) == str(scalar.value)


# the batch kernel against the scalar oracle ------------------------------------

_c = st.sampled_from([rat(0), rat(1, 2), rat(-1), rat(3, 2)])
_pole_leaf = st.one_of(
    st.sampled_from([z, sym("a"), rat(2), rat(-1, 3), opaque("f", 0, z),
                     pow_(z - 1, -40),          # overflows next to z = 1
                     pow_(-1 - z * z, pow_(z - 1, -40))]),  # negative base, infinite power
    _c.map(lambda c: pow_(z - c, -1)),          # 1/(z - c)
    _c.map(lambda c: fn("log", z + c)),         # log(z + c)
)


def _pole_build(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: add(*ab)),
        st.tuples(children, children).map(lambda ab: mul(*ab)),
        children.map(lambda e: fn("tan", e)),
        children.map(lambda e: pow_(e - 1, 3)),   # a negative base to an integer power
        children.filter(lambda e: e != rat(0)).map(lambda e: pow_(e, -2)),
        children.map(lambda e: pow_(e, rat(1, 2))),
        children.map(lambda e: fn("sin", e)),
        children.map(lambda e: fn("exp", e)),
        children.map(lambda e: opaque("f", 1, e)),
    )


_pole_expr = st.recursive(_pole_leaf, _pole_build, max_leaves=5)
_pole_points = st.lists(st.one_of(st.floats(-3.0, 3.0),
                                  st.sampled_from([0.0, 0.5, 1.0, -1.0, -1.5, 1.5,
                                                   1 - 1e-9, 1 + 3e-9, 0.5 + 2**-10,
                                                   math.pi / 2])),
                        max_size=6)
# f is bound to an expression that itself applies the opaque g, and both use
# the same Var object as the sampled expressions
_nested = Binding(funcs={"f": add(mul(opaque("g", 0, pow_(z, 2)), z), fn("log", z + 2)),
                         "g": add(fn("tan", z), pow_(z + 1, -1))})


def _assert_kernel_is_the_oracle(exprs, pts, bind, got=None):
    """Every entry of the kernel (or of got, a (V, F, errors) it gave) is the
    oracle's value, or faults with the oracle's exception, type and message."""
    V, F, errors = got or values_and_faults(exprs, pts, bind)
    assert V.shape == F.shape == (len(pts), len(exprs))
    assert errors[0] is None
    for i, x in enumerate(pts):
        for j, e in enumerate(exprs):
            want = _scalar_outcome(e, x, bind)
            if isinstance(want, tuple):
                assert F[i, j] != 0
                err = errors[F[i, j]]
                assert (type(err), str(err)) == want
                continue
            assert F[i, j] == 0
            got = V[i, j]
            if np.isnan(want):
                assert np.isnan(got)
            else:
                assert got == want and np.signbit(got) == np.signbit(want)


@settings(max_examples=300, deadline=None)
@given(st.lists(_pole_expr, min_size=1, max_size=3), _pole_points, st.floats(-2.0, 2.0))
def test_kernel_matches_evaluate_bit_for_bit(exprs, pts, a):
    _assert_kernel_is_the_oracle(exprs, pts, _nested.with_params(a=a))


@settings(max_examples=300, deadline=None)
@given(st.lists(_pole_expr, min_size=1, max_size=3), _pole_points, st.floats(-2.0, 2.0))
def test_kernel_matches_evaluate_over_blocks_of_two_points(exprs, pts, a):
    # one-element columns meet point-dependent siblings in every block
    with mock.patch.object(expr_mod, "_BLOCK", 2):
        _assert_kernel_is_the_oracle(exprs, pts, _nested.with_params(a=a))


def _faults(F, errors):
    return [(type(errors[k]), str(errors[k])) for k in F[F != 0]]


@settings(max_examples=150, deadline=None)
@given(st.lists(_pole_expr, min_size=1, max_size=3), _pole_points.filter(bool),
       st.lists(st.floats(1e-3, 2.0).filter(lambda a: abs(a - 1) > 1e-6), max_size=3))
def test_a_stacked_walk_gives_each_binding_its_own_columns(exprs, pts, avals):
    # a varies between the bindings and b does not; 1/(a - 1) meets its pole
    # in the a = 1 slice only and log(a) its domain error in the a = -1 one
    a = sym("a")
    exprs = exprs + [pow_(a - 1, -1), fn("log", a), mul(sym("b"), z)]
    binds = [_nested.with_params(a=v, b=0.5) for v in avals + [1.0, -1.0]]
    chunk = np.array(pts)
    stacked = invariance._Store().columns(exprs, chunk, binds)
    for bind, (V, F, errors) in zip(binds, stacked):
        V1, F1, errors1 = values_and_faults(exprs, chunk, bind)
        assert np.array_equal(F != 0, F1 != 0)
        assert V[F == 0].tobytes() == V1[F1 == 0].tobytes()
        assert _faults(F, errors) == _faults(F1, errors1)
    assert [F[:, -3].any() for _, F, _ in stacked] == [False] * len(avals) + [True, False]
    assert [F[:, -2].any() for _, F, _ in stacked] == [False] * len(avals) + [False, True]


@settings(max_examples=100, deadline=None)
@given(st.lists(_pole_expr, min_size=1, max_size=3), st.lists(_pole_expr, min_size=1, max_size=3),
       _pole_points.filter(len), st.floats(-2.0, 2.0))
def test_a_kept_context_is_the_oracle_call_after_call(first, second, pts, a):
    # a point search in a checks run keeps one context per candidate chunk:
    # its memo, rational columns and errors serve every later call
    bind = _nested.with_params(a=a)
    cx = expr_mod._walker(np.array(pts, dtype=float), bind, [None])
    for exprs in (first, second, first + second, second):
        _assert_kernel_is_the_oracle(exprs, pts, bind, (*cx.columns(exprs), cx.errors))


_a = sym("a")
_many = np.linspace(-2.0, 2.0, 2501)  # three blocks of points, 0.0 among them


@pytest.mark.parametrize("bad, a", [(pow_(_a - 1, -1), 1.0),    # a constant pole
                                    (fn("log", _a), -1.0)])      # a constant domain error
def test_point_independent_fault_faults_every_point(bad, a):
    exprs = [add(bad, z), add(bad, fn("log", z + 1)), mul(fn("exp", z), bad)]
    bind = Binding(params={"a": a})
    _assert_kernel_is_the_oracle(exprs, _many, bind)
    _, F, errors = values_and_faults(exprs[:1], _many, bind)
    assert F.all()
    assert len(errors) == 1 + math.ceil(len(_many) / expr_mod._BLOCK)  # one per block


@pytest.mark.parametrize("e, a", [
    (pow_(_a - 1, z), 1.0),                               # a zero base, a pole at z < 0
    (pow_(-1 - z * z, fn("exp", fn("exp", _a))), 10.0),   # an infinite exponent
    (fn("exp", opaque("f", 1, pow_(z, -1))), 0.0),        # f' = 1 of an argument that faults
])
def test_one_element_operand_of_a_point_dependent_node(e, a):
    _assert_kernel_is_the_oracle([e], _many, Binding(params={"a": a}, funcs={"f": z}))


def test_clean_point_independent_term_is_the_oracle():
    e, bind = add(mul(pow_(_a - 1, -1), fn("exp", _a)), fn("sin", z)), Binding(params={"a": 3.0})
    V, F, _ = values_and_faults([e], _many, bind)
    assert not F.any()
    assert V[:, 0].tobytes() == np.array([scalar_evaluate(e, x, bind) for x in _many]).tobytes()


def test_point_independent_node_is_evaluated_once_per_block(monkeypatch):
    calls, exp = [0], math.exp

    def counted(x):
        calls[0] += 1
        return exp(x)

    monkeypatch.setattr(math, "exp", counted)
    e = add(mul(fn("exp", _a), z), fn("exp", z))
    pts = np.linspace(-1.0, 1.0, 3000)
    values_and_faults([e], pts, Binding(params={"a": 0.5}))
    assert calls[0] <= len(pts) + math.ceil(len(pts) / expr_mod._BLOCK)


@settings(max_examples=150, deadline=None)
@given(st.lists(_pole_expr, max_size=3), st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1),
       st.sampled_from([((-3.0, 3.0),), ((0.4, 1.6), (-1.2, -0.8))]))
def test_point_search_returns_the_rows_values_gives(exprs, a, seed, intervals):
    # safe_points hands back the kernel rows that accepted its points
    bind = _nested.with_params(a=a)
    plan = SamplePlan(seed=seed, intervals=intervals)
    try:
        with mock.patch.object(invariance, "MAGNITUDE_CAP", 1e6):
            pts, V = safe_points(exprs, plan, bind, count=4)
    except (SamplingError, ArithmeticError, ValueError):
        return
    assert V.shape == (4, len(exprs))
    assert V.tobytes() == values(exprs, pts, bind).tobytes()


def test_kernel_reports_the_first_exception_evaluate_meets():
    hard = pow_(z - 1, -40)     # a negative base overflows at 1 - 1e-9
    soft = fn("log", z - 2)     # a domain error there
    exprs = [Pow(hard, soft), Pow(soft, hard)]
    V, F, errors = values_and_faults(exprs, [1 - 1e-9])
    got = [(type(errors[k]), str(errors[k])) for k in F[0]]
    assert got == [_scalar_outcome(e, 1 - 1e-9) for e in exprs]
    assert [t for t, _ in got] == [OverflowError, EvalDomainError]


def test_kernel_over_several_blocks_of_points():
    pts = np.linspace(-2.0, 2.0, 2501)  # more points than one DAG walk takes
    e = add(pow_(z - float(pts[1500]), -1), fn("log", z + 1), opaque("f", 0, z))
    bind = Binding(funcs={"f": fn("tan", z)})
    V, F, errors = values_and_faults([e], pts, bind)
    for i, x in enumerate(pts):
        want = _scalar_outcome(e, x, bind)
        if isinstance(want, tuple):
            err = errors[F[i, 0]]
            assert (type(err), str(err)) == want
        else:
            assert F[i, 0] == 0 and V[i, 0] == want
    assert type(errors[F[1500, 0]]) is PoleError
    assert F[:625, 0].all() and not F[626:1500, 0].any()


def test_nested_opaque_contexts_do_not_share_entries():
    # f's body and the sampled expression share the node z; inside f it must
    # mean f's argument, not the sample point
    bind = Binding(funcs={"f": mul(opaque("g", 0, z), z), "g": pow_(z, 3)})
    e = add(opaque("f", 0, pow_(z, 2)), z)
    pts = [0.5, 1.25, -2.0]
    V, F, _ = values_and_faults([e, opaque("g", 0, z)], pts, bind)
    assert not F.any()
    np.testing.assert_array_equal(V, [[scalar_evaluate(e, x, bind),
                                       scalar_evaluate(opaque("g", 0, z), x, bind)]
                                      for x in pts])


# exact evaluation against an unmemoized Fraction walk ---------------------------

def _exact_oracle(e, at):
    """The tree walk evaluate_exact replaced: no memo, Fraction at every node."""

    def ev(x):
        if isinstance(x, Rat):
            return x.value
        if isinstance(x, Var):
            return at
        if isinstance(x, Sym):
            raise NotRationalError(f"parameter {x.name!r} has no rational value")
        if isinstance(x, Add):
            out = Fraction(0)
            for t in x.terms:
                out += ev(t)
            return out
        if isinstance(x, Mul):
            out = Fraction(1)
            for f in x.factors:
                out *= ev(f)
            return out
        if isinstance(x, Pow):
            expo = ev(x.exponent)
            if expo.denominator != 1:
                raise NotRationalError("non-integer exponent")
            return ev(x.base) ** expo.numerator
        raise NotRationalError(f"{type(x).__name__} node is not rational")

    return ev(e)


_poles = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(3, 2)]
_rational_leaf = st.one_of(
    st.sampled_from([z, rat(2), rat(-1, 3), rat(0)]),
    st.sampled_from(_poles).map(lambda c: pow_(z - rat(c), -1)),   # 1/(z - c)
)
# z and 1/z are integer exponents only at some values; 1/2 + 3/2 is 2 only
# once reduced
_exponents = st.sampled_from([rat(-2), rat(-1), rat(0), rat(3), z, pow_(z, -1),
                              Add((rat(1, 2), rat(3, 2)))])


def _exact_build(children, exponents):
    # raw nodes: canonical mul would refuse to build 0 * (0)^-1
    return st.one_of(
        st.tuples(children, children).map(Add),
        st.tuples(children, children).map(Mul),
        st.tuples(children, exponents).map(lambda ek: Pow(*ek)),
    )


# half the examples are rational throughout and reach a value or a pole; the
# other half also draw an unbound parameter, Fn, Opaque and a 1/2 exponent
_exact_expr = st.one_of(
    st.recursive(_rational_leaf, lambda c: _exact_build(c, _exponents), max_leaves=6),
    st.recursive(
        st.one_of(_rational_leaf, st.sampled_from([sym("b"), fn("sin", z), opaque("f", 0, z)])),
        lambda c: st.one_of(_exact_build(c, st.one_of(_exponents, st.just(rat(1, 2)))),
                            c.map(lambda e: fn("exp", e))),
        max_leaves=6))


def _outcome(f, *args):
    try:
        return f(*args)
    except (NotRationalError, ZeroDivisionError) as exc:
        return type(exc)


def _failure(f, *args):
    with pytest.raises((NotRationalError, ZeroDivisionError)) as info:
        f(*args)
    return type(info.value), str(info.value)


# the hard cases of the sum instructions: a raw product inlined in two
# sums, a zero base to a negative power among raising terms, 0^0, and negative
# bases to negative powers (one the exponent of a power)
_shared = Mul((rat(3), z, Pow(Add((z, rat(-1))), rat(-2))))
_zero_power = Mul((z, Pow(z, rat(-1))))


@settings(max_examples=300, deadline=None)
@given(_exact_expr, st.one_of(st.sampled_from(_poles), _rational))
@example(Pow(z, pow_(z, -1)), Fraction(-1))  # a negative reciprocal as an exponent
@example(Add((Add((_shared, z)), Mul((Add((_shared, rat(1))), z)))), Fraction(3, 2))
@example(Add((Add((_shared, z)), Mul((Add((_shared, rat(1))), z)))), Fraction(1))
@example(Add((sym("b"), _zero_power)), Fraction(0))  # NotRationalError first
@example(Add((_zero_power, sym("b"))), Fraction(0))  # ZeroDivisionError first
@example(Add((rat(2), Pow(z, rat(0)))), Fraction(0))
@example(Pow(Add((z, rat(-3))), rat(-3)), Fraction(1))
@example(Pow(z, Pow(Add((z, rat(-3))), rat(-1))), Fraction(2))
def test_evaluate_exact_matches_the_unmemoized_walk(e, x):
    got = _outcome(evaluate_exact, e, x)
    want = _outcome(_exact_oracle, e, x)
    assert got == want and type(got) is type(want)


def test_evaluate_exact_raises_what_the_walk_raises_first():
    # the exponent is evaluated before the base, children in order
    assert _outcome(evaluate_exact, Pow(pow_(z, -1), sym("b")), Fraction(0)) is NotRationalError
    assert _outcome(evaluate_exact, Pow(sym("b"), pow_(z, -1)), Fraction(0)) is ZeroDivisionError
    assert _outcome(evaluate_exact, add(fn("sin", z), pow_(z, -1)), Fraction(0)) is NotRationalError
    assert _outcome(evaluate_exact, pow_(z - 1, -1), Fraction(1)) is ZeroDivisionError
    nonint = (NotRationalError, "non-integer exponent")
    cases = [
        # a constant non-integer exponent is checked before its base runs
        (Pow(pow_(z, -1), rat(1, 2)), Fraction(0), nonint),
        (Pow(fn("sin", z), rat(1, 2)), Fraction(1), nonint),
        # z is an exponent that is not an integer at 1/2, where the base has a pole
        (Pow(pow_(2 * z - 1, -1), z), Fraction(1, 2), nonint),
        # Fn and Opaque raise without their argument being evaluated
        (fn("exp", pow_(z, -1)), Fraction(0), (NotRationalError, "Fn node is not rational")),
        (opaque("f", 0, sym("b")), Fraction(1), (NotRationalError, "Opaque node is not rational")),
    ]
    for e, x, want in cases:
        assert _failure(evaluate_exact, e, x) == _failure(_exact_oracle, e, x) == want


def _exact_result(f, e, at):
    """The value, or the exception's type and message; the oracle's one
    ZeroDivisionError, Fraction's, is named as evaluate_exact names it."""
    try:
        return f(e, at)
    except NotRationalError as exc:
        return NotRationalError, str(exc)
    except ZeroDivisionError as exc:
        msg = "zero base with a negative exponent" if f is _exact_oracle else str(exc)
        return ZeroDivisionError, msg


# several expressions over the same drawn subterms, among raising leaves
_raising_leaf = st.sampled_from([sym("b"), fn("sin", z), pow_(z - rat(1, 2), -1), Pow(z + 1, z)])
_sharing_exprs = st.lists(_exact_expr, min_size=1, max_size=3).flatmap(
    lambda shared: st.lists(
        st.recursive(st.one_of(st.sampled_from(shared), _rational_leaf, _raising_leaf),
                     lambda c: _exact_build(c, _exponents), max_leaves=4),
        min_size=2, max_size=4))
# runs of calls at one point: (point, indices into the expressions), the
# points repeating among the runs
_call_runs = st.lists(st.tuples(st.sampled_from(_poles + [Fraction(2)]),
                                st.lists(st.integers(0, 3), min_size=1, max_size=4)),
                      min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(_sharing_exprs, _call_runs)
# a base kept from one call still gets its zero check in the next
@example([z, Pow(rat(2), pow_(z, -1))], [(Fraction(0), [0, 1])])
# a power whose zero base raised is not kept
@example([Pow(z + 1, z)], [(Fraction(-1), [0, 0])])
# a value kept at one point is not read at another
@example([z], [(Fraction(0), [0]), (Fraction(2), [0])])
@example([Add((rat(2), Pow(z, rat(0))))], [(Fraction(0), [0])])  # 0^0 is 1
def test_evaluate_exact_matches_the_walk_over_runs_of_calls_at_repeated_points(exprs, runs):
    for x, calls in runs:
        for i in calls:
            e = exprs[i % len(exprs)]
            got, want = _exact_result(evaluate_exact, e, x), _exact_result(_exact_oracle, e, x)
            assert got == want and type(got) is type(want)


# the instructions evaluate_exact runs and the values kept on the nodes -------------

@contextlib.contextmanager
def _deadline(seconds: float):
    """Fail, instead of hang, a block still running after `seconds`."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_evaluate_exact_evaluates_a_shared_dag_once_per_node():
    # e(k+1) = e(k)*z + e(k)*z^2: 203 distinct nodes, 2^40 tree paths; the
    # unmemoized walk already takes seconds at depth 18.  The two raw DAGs
    # built apart from fresh leaves are one object
    x, a = Fraction(3, 2), Fraction(-1, 7)

    def raw():
        v = Var("z")
        e = Add((v, Rat(a)))
        for _ in range(40):
            e = Add((Mul((e, v)), Mul((e, Pow(v, Rat(2))))))
        return e

    canonical = z + rat(a)
    for _ in range(40):
        canonical = add(mul(canonical, z), mul(canonical, pow_(z, 2)))
    first, second = raw(), raw()
    assert second is first
    for e in (canonical, first, second):
        t0 = time.perf_counter()
        with _deadline(5.0):
            got = evaluate_exact(e, x)
        assert time.perf_counter() - t0 < 1.0
        assert got == (x + a) * (x + x * x) ** 40


def _x2_identities(a):
    """The coefficients of each x2 identity at alpha a, as the x2-exact loop
    certifies them: literature operator minus its combination."""
    out = []
    for side, shift in (("minus", a), ("plus", a - 3)):
        coeffs = x2.cij_coefficients(shift)
        if side == "minus":
            gallery = x2.x2_J_gallery(a)
        else:
            gallery = {j: x2.x2b_conjugated_K(j, a) for j in range(1, 9)}
        for i in range(1, 5):
            const = coeffs.C(i, 0) if side == "minus" else x2.kside_constant(i, shift)
            op = x2.literature_x2(i, side, a) - DiffOp.mult(x2.U, const)
            for j in range(1, 9):
                if coeffs.C(i, j):
                    op = op - gallery[j].scaled(coeffs.C(i, j))
            out.append(list(op.coeffs.values()))
    return out


@contextlib.contextmanager
def _node_runs():
    """Count the node runs of exact evaluation inside the block."""
    runs = [0]
    run = expr_mod._value

    def counted(x, at):
        runs[0] += 1
        return run(x, at)

    with mock.patch.object(expr_mod, "_value", counted):
        yield runs


def test_a_coefficient_keeps_its_instruction_and_an_earlier_point_runs_no_node():
    # the x2-exact loop: every coefficient of each identity at each point
    a, pts = Fraction(7, 2), [Fraction(7 * k + 3, 16) for k in range(1, 5)]
    identities = _x2_identities(a)
    for cs in identities:
        instructions = None
        for x in pts:
            for c in cs:
                assert evaluate_exact(c, x) == 0
            # one instruction per coefficient, reused at every point
            if instructions is None:
                instructions = [c._exact for c in cs]
            assert all(c._exact is ins for c, ins in zip(cs, instructions))
    # each node kept its value at every point, not only at the last one
    with _node_runs() as runs:
        for c in identities[0]:
            assert evaluate_exact(c, pts[0]) == 0
    assert runs[0] == 0


def test_a_second_identity_of_one_alpha_runs_fewer_nodes_than_the_first():
    # the frame nodes the identities share run once; the point is one no
    # other test evaluates at, so that no node holds a value there yet
    first, second = _x2_identities(Fraction(7, 2))[:2]
    x = Fraction(1001, 977)
    counts = []
    for cs in (first, second):
        with _node_runs() as runs:
            assert all(evaluate_exact(c, x) == 0 for c in cs)
        counts.append(runs[0])
    assert 0 < counts[1] < counts[0]


def test_an_evaluated_node_nothing_holds_dies_with_its_values():
    # raw nodes: no constructor memo holds them
    c = Rat(Fraction(4321, 8765))
    e = Add((Mul((c, Var("z"))), Pow(Add((Var("z"), c)), Rat(-2))))
    assert evaluate_exact(e, Fraction(3)) == 3 * c.value + 1 / (3 + c.value) ** 2
    assert e._exact[2] == {(3, 1): (3 * c.value + 1 / (3 + c.value) ** 2).as_integer_ratio()}
    gone = [weakref.ref(x) for x in (e, *e.terms, e.terms[1].base)]
    del e
    gc.collect()
    assert all(ref() is None for ref in gone)


def test_a_node_refuses_its_instruction_slot():
    e = add(mul(3, z, z), 5)
    evaluate_exact(e, Fraction(2))
    assert e._exact is not None
    with pytest.raises(AttributeError, match="immutable"):
        setattr(e, "_exact", None)
    with pytest.raises(AttributeError, match="immutable"):
        e._exact = (0, ())


def test_a_call_that_raises_leaves_the_tape_intact():
    e = add(mul(3, z, z), mul(2, pow_(z - 1, -1)), 5)
    with pytest.raises(ZeroDivisionError):
        evaluate_exact(e, Fraction(1))
    with pytest.raises(NotRationalError, match="parameter 'a'"):
        evaluate_exact(add(e, sym("a")), Fraction(2))
    for x in (Fraction(2), Fraction(-1, 3)):
        assert evaluate_exact(e, x) == 3 * x * x + 2 / (x - 1) + 5


# the rewriting core -------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(_expr)
def test_substituting_the_variable_for_itself_is_identity(e):
    assert substitute_var(e, "z", z) == e


@settings(max_examples=60, deadline=None)
@given(_expr, st.floats(-1.0, 1.0))
def test_substitute_var_evaluates_as_composition(e, x):
    bind = Binding(params={"a": 0.7})
    try:
        want = evaluate(e, 2 * x + 1 / 3, bind)
        got = evaluate(substitute_var(e, "z", 2 * z + rat(1, 3)), x, bind)
    except (EvalError, ArithmeticError, ValueError):
        assume(False)  # a pole, a domain error or an overflow; nothing to compare
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(_expr, st.floats(-1.0, 1.0))
def test_expand_evaluates_like_the_original(e, x):
    bind = Binding(params={"a": 0.7})
    try:
        want = evaluate(e, x, bind)
        got = evaluate(expand(e), x, bind)
    except (EvalError, ArithmeticError, ValueError):
        assume(False)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def _tower(depth):
    """e(k+1) = sin(e(k)) + cos(e(k)): 3 new nodes per level, 2^depth tree paths."""
    e = add(opaque("f", 1, z), mul(sym("a"), z))  # 5 distinct nodes
    for _ in range(depth):
        e = add(fn("sin", e), fn("cos", e))
    return e


def test_rewriters_visit_a_shared_dag_once_per_node():
    # a walker that does not share subtrees would take 2^40 steps here
    depth = 40
    e = _tower(depth)
    u = var("u")
    assert free_vars(e) == {"z"} and opaque_names(e) == {"f"}
    assert free_vars(substitute_var(e, "z", u)) == {"u"}
    assert free_vars(substitute_param(e, "a", z)) == {"z"}
    assert opaque_names(substitute_opaque(e, "f", parse("z^3"))) == set()
    assert opaque_names(expand(e)) == {"f"}
    pulled = pullback(DiffOp("z", {0: e}), "u", pow_(u, 2), {"f": fn("exp", u)})
    assert free_vars(pulled.coeff(0)) == {"u"} and opaque_names(pulled.coeff(0)) == set()

    visits = {}

    def count(node, kids):
        visits[id(node)] = visits.get(id(node), 0) + 1
        return None

    rebuild(e, count)
    # the distinct nodes from an independent walk: one per structure, as
    # nodes are interned, so 5 + 3 * depth
    nodes, stack = {}, [e]
    while stack:
        x = stack.pop()
        if id(x) not in nodes:
            nodes[id(x)] = x
            stack.extend(children(x))
    assert visits.keys() == nodes.keys()
    assert len(nodes) == 5 + 3 * depth
    assert set(visits.values()) == {1}


# interned nodes: one object per structure ---------------------------------------

def _raw_copy(e):
    """e built again node by node through the raw classes, from new leaves."""
    t = type(e)
    if t is Rat:
        return Rat(Fraction(e.value.numerator, e.value.denominator))
    if t is Sym or t is Var:
        return t(e.name)
    if t is Add:
        return Add(tuple(map(_raw_copy, e.terms)))
    if t is Mul:
        return Mul(tuple(map(_raw_copy, e.factors)))
    if t is Pow:
        return Pow(_raw_copy(e.base), _raw_copy(e.exponent))
    if t is Fn:
        return Fn(e.name, _raw_copy(e.arg))
    return Opaque(e.name, e.order, _raw_copy(e.arg))


@settings(max_examples=100, deadline=None)
@given(st.one_of(_expr, _pole_expr), st.one_of(_expr, _pole_expr))
def test_identity_is_structural_equality(a, b):
    # sort_key is a complete structural key
    assert (a is b) == (sort_key(a) == sort_key(b))
    assert _raw_copy(a) is a and _raw_copy(b) is b


def test_rat_is_interned_by_its_reduced_value():
    assert Rat(Fraction(2, 4)) is Rat(Fraction(1, 2))
    assert Rat(2) is Rat(2.0) is Rat(Fraction(4, 2))
    assert Rat(3) is not Rat(Fraction(1, 3)) and Sym("a") is not Var("a")


def test_a_node_nothing_holds_leaves_the_table():
    name = "a_symbol_no_other_test_uses"
    s = sym(name)
    e = add(mul(3, s, z), fn("exp", s), pow_(s, 2))
    diff(e, "z")
    gone = weakref.ref(s)
    assert (Sym, name) in expr_mod._table
    del s, e
    for f in _MEMOIZED:
        getattr(expr_mod, f).cache_clear()
    gc.collect()
    assert gone() is None
    assert not any(isinstance(k, tuple) and name in k for k in list(expr_mod._table))
