import gc
import time
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from qsusy import (
    Add, Binding, EvalError, Fn, Mul, Rat, Var, add, fn, mul, opaque, parse, pow_, rat, sym, var,
)
from qsusy import expr, invariance, models, suites, x2
from qsusy.diffop import DiffOp, commutator
from qsusy.expr import diff, values, values_and_faults
from qsusy.families import build_H_minus, build_H_minus_direct, build_J, build_K, monomial_J
from qsusy.invariance import (
    IllConditionedBasisError, SamplePlan, SamplingError, Subspace, checks,
    check_annihilates, check_invariant, default_probes,
    decide_lie_closure_each, lie_closure_identities, op_order_each,
    ops_equal_each, ops_equal_numeric, ops_equal_pairs, safe_points, safe_points_each,
    space_verdicts, verify_commutator_table,
)
from scalar_oracle import evaluate as scalar_evaluate

z = var("z")


def seed_space(f):
    return Subspace([rat(1), z, f], "z")


def op_order(op):
    """op_order_each with no binding."""
    (order,) = op_order_each(op, SamplePlan(), [None])
    return order


class TestCheckInvariant:
    def test_monomial_pass_with_matrix(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            op = monomial_J(3, Fraction(5, 2))
        v = check_invariant(op, seed_space(parse("z^(5/2)")))
        assert v.passed
        lam = 2.5
        want = np.zeros((3, 3))
        want[2, 2] = lam * (lam - 1)
        assert np.allclose(v.matrix, want, atol=1e-9)

    def test_derivative_fails_on_cubic_space(self):
        v = check_invariant(DiffOp.d("z"), seed_space(parse("z^3")))
        assert not v.passed
        assert v.matrix is None

    def test_opaque_exponential(self):
        v = check_invariant(build_J(1), seed_space(parse("exp(z)")),
                            bind=Binding(funcs={"f": parse("exp(z)")}))
        assert v.passed

    def test_degenerate_basis_rejected(self):
        V = Subspace([rat(1), z, mul(2, z)], "z")
        with pytest.raises(IllConditionedBasisError):
            check_invariant(DiffOp.d("z"), V)


class TestCheckAnnihilates:
    def test_third_derivative_on_quadratics(self):
        v = check_annihilates(DiffOp.d("z", 3),
                              Subspace([rat(1), z, pow_(z, 2)], "z"))
        assert v.passed

    def test_partner_kernel_cubic(self):
        from qsusy.families import build_P3_plus

        op = build_P3_plus(parse("z^3"))
        V = Subspace([rat(1), pow_(z, 2), pow_(z, 3)], "z", prefactor=pow_(z, -1))
        assert check_annihilates(op, V).passed

    def test_derivative_does_not_annihilate(self):
        assert not check_annihilates(DiffOp.d("z"), Subspace([rat(1), z], "z")).passed


class TestRestrictedMatrix:
    def test_diagonal_example(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            op = monomial_J(3, Fraction(2)).scaled(-1)
        M = check_invariant(op, Subspace([rat(1), z, pow_(z, 2)], "z")).matrix
        assert np.allclose(M, np.diag([0.0, 0.0, -2.0]), atol=1e-9)

    def test_identity(self):
        M = check_invariant(DiffOp.identity("z"), seed_space(parse("z^3"))).matrix
        assert np.allclose(M, np.eye(3), atol=1e-9)

    def test_shift_entry(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            op = monomial_J(4, Fraction(3))
        M = check_invariant(op, seed_space(parse("z^3"))).matrix
        want = np.zeros((3, 3))
        want[0, 1] = -2.0
        assert np.allclose(M, want, atol=1e-9)

    def test_failure_gives_no_matrix(self):
        v = check_invariant(DiffOp.d("z"), seed_space(parse("z^3")))
        assert not v.passed and v.matrix is None


class TestSampling:
    def test_deterministic(self):
        plan = SamplePlan(seed=42)
        a, _ = safe_points([pow_(z, -1)], plan, count=10)
        b, _ = safe_points([pow_(z, -1)], plan, count=10)
        assert np.array_equal(a, b)

    def test_avoids_poles(self):
        plan = SamplePlan(seed=1, intervals=((-1.0, 1.0),))
        pts, _ = safe_points([pow_(z, -1)], plan, count=8)
        assert np.all(np.abs(pts) > 1e-6)

    def test_verdict_stable_across_seeds(self):
        f = parse("exp(z)")
        bind = Binding(funcs={"f": f})
        for i in (1, 4, 8):
            op = build_J(i)
            v1 = check_invariant(op, seed_space(f), SamplePlan(seed=3), bind)
            v2 = check_invariant(op, seed_space(f), SamplePlan(seed=1234), bind)
            assert v1.passed == v2.passed


def _reference_safe_points(exprs, plan, bind=None, count=None):
    """The point-by-point search that the batched safe_points replaced."""
    def safe_value(e, x):
        try:
            v = scalar_evaluate(e, x, bind)
        except EvalError:
            return None
        if not np.isfinite(v) or abs(v) > invariance.MAGNITUDE_CAP:
            return None
        return v

    need = count if count is not None else invariance.FIT_POINTS + invariance.HOLDOUT_POINTS
    rng = np.random.default_rng(plan.seed)
    out, bad = [], []
    for lo, hi in plan.intervals:
        draws = rng.uniform(lo, hi, size=60 * need)
        for x in draws:
            x = float(x)
            if any(abs(x - g) < invariance.EXCLUSION for g in bad):
                continue
            if any(abs(x - p) < invariance.EXCLUSION / 10 for p in out):
                continue
            if any(safe_value(e, x) is None for e in exprs):
                bad.append(x)
                continue
            out.append(x)
            if len(out) >= need:
                return np.array(out)
    raise SamplingError(f"could only find {len(out)} of {need} usable sample points")


def _outcome(search, exprs, plan, bind):
    try:
        out = search(exprs, plan, bind)
    except (SamplingError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(out, tuple):  # safe_points: the points and the rows that accepted them
        pts, V = out
        assert V.shape == (len(pts), len(exprs))
        assert V.tobytes() == values(exprs, pts, bind).tobytes()
        out = pts
    return out.tolist()


def _setup(seed, kw):
    """A SamplePlan at seed with kw's lower-case fields, and kw's upper-case
    entries: the invariance constants a search runs under."""
    return (SamplePlan(seed=seed, **{k: v for k, v in kw.items() if k.islower()}),
            {k: v for k, v in kw.items() if k.isupper()})


# name: (expressions, SamplePlan fields and invariance constants, binding,
# what the search ends in)
_SEARCH_CASES = {
    "magnitude cap at a double pole": (
        [pow_(z - rat(3, 2), -2)], dict(MAGNITUDE_CAP=1e2), None, list),
    "log domain and a pole": (
        [fn("log", z - 2), pow_(z - 3, -1)], dict(intervals=((1.5, 3.5),)), None, list),
    "negative base, fractional power": (
        [mul(pow_(z - 4, rat(1, 2)), pow_(z - rat(9, 2), -1))],
        dict(intervals=((3.0, 5.0),), EXCLUSION=1e-2), None, list),
    "opaque function off its domain": (
        [opaque("f", 1, z), opaque("f", 0, z)], dict(intervals=((5.5, 8.0), (0.5, 2.5))),
        Binding(funcs={"f": fn("log", z - 7)}), list),
    "too few usable points": (
        [fn("log", z - rat(799, 100))], dict(intervals=((7.5, 8.0),), EXCLUSION=1e-2),
        None, SamplingError),
    "evaluate itself raises": (  # exp(exp(z)) overflows to inf, then sin(inf)
        [fn("sin", fn("exp", fn("exp", z)))], dict(intervals=((6.0, 7.0),)), None,
        ValueError),
}


@pytest.mark.parametrize("case", sorted(_SEARCH_CASES))
def test_safe_points_matches_point_by_point_search(case):
    exprs, kw, bind, ends_in = _SEARCH_CASES[case]
    for seed in range(20):
        plan, consts = _setup(seed, kw)
        with mock.patch.dict(vars(invariance), consts):
            want = _outcome(_reference_safe_points, exprs, plan, bind)
            assert (list if isinstance(want, list) else want[0]) is ends_in
            assert _outcome(safe_points, exprs, plan, bind) == want, seed


# one checks run keeps its candidate draws and kernel columns in one store ------

def _search(exprs, plan, bind, count, consts=()):
    """safe_points' points and rows as bytes, or the type and message of what
    it raises, under the invariance constants consts."""
    try:
        with mock.patch.dict(vars(invariance), consts):
            pts, V = safe_points(exprs, plan, bind, count)
    except (SamplingError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return pts.tobytes(), V.tobytes()


_fz = fn("exp", z)
_pole = pow_(z - 2, -1)
_exp_f = Binding(funcs={"f": _fz})
_SHARED_CALLS = [  # (expressions, plan, binding, count): nodes, draws and bindings shared
    ([_fz, mul(_fz, z)], SamplePlan(seed=3), None, 8),
    ([mul(_fz, z), _pole, add(_fz, fn("log", z))], SamplePlan(seed=3), None, 8),
    ([opaque("f", 1, z), opaque("f", 0, z), _fz], SamplePlan(seed=3), _exp_f, 8),
    ([opaque("f", 1, z), opaque("f", 0, z)], SamplePlan(seed=3),
     Binding(funcs={"f": fn("log", z - 2)}), 8),            # another f on the same chunk
    ([opaque("f", 2, z), mul(opaque("f", 0, z), z)], SamplePlan(seed=3),
     Binding(funcs={"f": _fz}), 8),                          # an equal binding, not the same
    ([mul(sym("a"), _fz), pow_(sym("a") - rat(1, 2), -1)], SamplePlan(seed=3),
     Binding(params={"a": 0.5}), 8),                         # a pole at every point
    ([mul(sym("a"), _fz), _pole], SamplePlan(seed=3), Binding(params={"a": 2.0}), 8),
    ([_pole, fn("log", z - 3)], SamplePlan(seed=3, tol=1e-10), None, 8),  # the same draws
    ([_pole, add(_fz, fn("log", z))], SamplePlan(seed=3), None, 18),
    ([add(opaque("f", 0, pow_(z, 2)), z), _pole], SamplePlan(seed=5),
     Binding(funcs={"f": mul(opaque("g", 0, z), z), "g": fn("log", z - 1)}), 12),
    ([fn("sin", fn("exp", fn("exp", z)))], SamplePlan(seed=3, intervals=((6.0, 7.0),)),
     None, 8),                                               # raises ValueError
]
_CALLS = _SHARED_CALLS + [(exprs, plan, bind, None, consts)
                          for exprs, kw, bind, _ in _SEARCH_CASES.values()
                          for plan, consts in map(_setup, range(4), [kw] * 4)]


@invariance.checks
def _in_one_run(calls, got):
    for k, call in enumerate(calls):
        got.append(_search(*call))
        yield str(k), "search", True, 0.0


def test_one_run_gives_each_search_what_it_gives_alone():
    alone = [_search(*call) for call in _CALLS]
    for call, want in zip(_CALLS, alone):
        with mock.patch.dict(vars(invariance), *call[4:]):
            ref = _outcome(lambda e, p, b: _reference_safe_points(e, p, b, call[3]), *call[:3])
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert want == ref
        else:
            assert np.frombuffer(want[0]).tolist() == ref
            assert want[1] == values(call[0], np.frombuffer(want[0]), call[2]).tobytes()
    assert {w[0] if isinstance(w[0], type) else list for w in alone} == {
        list, SamplingError, ValueError}
    for order in (range(len(_CALLS)), range(len(_CALLS) - 1, -1, -1)):
        got = []
        _in_one_run([_CALLS[k] for k in order], got)
        assert got == [alone[k] for k in order]


def test_a_stored_context_holds_its_roots():
    # the kernel memo is keyed by node id: were a root freed, a fresh node
    # could take its id and be handed the old node's column
    plan = SamplePlan(seed=11)

    @invariance.checks
    def fresh_nodes():
        for k in range(1, 60):
            e = Add((Mul((Rat(k), Var("z"))), Fn("exp", Var("z"))))  # no memo keeps these
            pts, V = safe_points([e], plan, count=6)
            yield str(k), "fresh", V.tobytes() == values([e], pts).tobytes(), 0.0

    assert [r["verdict"] for r in fresh_nodes()] == ["pass"] * 59


def test_no_store_survives_its_run():
    store, shared = [], []

    @invariance.checks
    def inner():
        shared.append(invariance._store is store[0]())  # a nested run shares the store
        safe_points([_fz, _pole], SamplePlan(), _exp_f)
        yield "inner", "nested", True, 0.0

    @invariance.checks
    def outer():
        store.append(weakref.ref(invariance._store))
        yield from inner()
        yield from inner()
        raise SamplingError("the run ends here")

    gc.collect()
    gc.disable()
    try:
        with pytest.raises(SamplingError):
            outer()
        assert shared == [True, True]
        assert invariance._store is None and store[0]() is None  # freed without the collector
    finally:
        gc.enable()


def test_a_run_and_a_kernel_call_leave_no_garbage():
    gc.collect()
    values_and_faults([add(mul(rat(1, 2), z, z), mul(3, fn("exp", z)))], np.linspace(0, 1, 3000))
    verify_commutator_table(parse("exp(z)"), SamplePlan(seed=3))
    assert gc.collect() == 0


def _ops_equal_per_probe(a, b, bind=None, plan=SamplePlan()):
    """The loop that ops_equal_numeric replaced: one point search per probe."""
    worst = 0.0
    for psi in default_probes(a.var):
        pairs_a = [(c, diff(psi, a.var, k)) for k, c in a.coeffs.items()]
        pairs_b = [(c, diff(psi, b.var, k)) for k, c in b.coeffs.items()]
        flat = [e for pair in pairs_a + pairs_b for e in pair]
        pts, _ = safe_points([psi] + flat, plan, bind, count=12)
        V = values(flat, pts, bind)
        T = V[:, 0::2] * V[:, 1::2]
        va, vb, mag = np.zeros((3, len(pts)))
        for k, t in enumerate(T.T):
            if k < len(pairs_a):
                va += t
            else:
                vb += t
            mag += np.abs(t)
        rel = np.abs(va - vb) / (1.0 + mag)
        worst = max(worst, float(rel.max(initial=0.0)))
    return worst <= plan.tol, worst


def _against_oracle(monkeypatch, module) -> list:
    """Make module's ops_equal_pairs assert that every pair's (ok, worst)
    under every binding matches the per-probe loop; the number of pairs of
    each call is recorded."""
    seen = []

    def both(pairs, binds, plan=SamplePlan()):
        got = ops_equal_pairs(pairs, binds, plan)
        assert got == [[_ops_equal_per_probe(a, b, bind, plan) for a, b in pairs]
                       for bind in binds]
        seen.append(len(pairs))
        return got

    monkeypatch.setattr(module, "ops_equal_pairs", both)
    return seen


class TestOneSearchPerPair:
    """ops_equal_numeric gives the per-probe loop's (ok, worst), bit for bit."""

    @pytest.mark.parametrize("f_text", ["z^3", "exp(z)", "z^(7/3)"])
    def test_galleries(self, f_text):
        f = parse(f_text)
        bind = Binding(funcs={"f": f})
        verdicts = []
        for build, top in ((build_J, 9), (build_K, 8)):
            for i in range(1, top + 1):
                for other in (build(i), build(i % top + 1)):
                    got = ops_equal_numeric(build(i, f), other, bind)
                    assert got == _ops_equal_per_probe(build(i, f), other, bind)
                    verdicts.append(got[0])
        assert True in verdicts and False in verdicts

    def test_h_minus_routes(self, monkeypatch):
        # each route check decides all of its draws in one stacked call; each
        # draw's (ok, worst) is still the per-probe loop's for its binding alone
        seen = []

        def both(a, b, binds, plan=SamplePlan()):
            got = ops_equal_each(a, b, binds, plan)
            assert got == [_ops_equal_per_probe(a, b, bind, plan) for bind in binds]
            seen.append(len(got))
            return got

        monkeypatch.setattr(suites, "ops_equal_each", both)
        checks = suites.suite_construction(SamplePlan())
        assert seen == [50, 10] and all(c["verdict"] == "pass" for c in checks)

    def test_commutator_identities(self, monkeypatch):
        # the table's 28 identities in one grouped call
        seen = _against_oracle(monkeypatch, invariance)
        assert all(r["verdict"] == "pass" for r in verify_commutator_table(parse("exp(z)")))
        assert seen == [28]

    def test_x2_identities(self, monkeypatch):
        # each side's four identities in one grouped call
        seen = _against_oracle(monkeypatch, x2)
        recs = x2.verify_x2_identities(Fraction(7, 2), SamplePlan())
        assert seen == [4, 4] and all(r["verdict"] == "pass" for r in recs)


def _invariant_per_element(op, V, plan=SamplePlan(), annihilate=False):
    """The per-element pair loop and relative residual that check_invariant
    and check_annihilates replaced: (passed, residuals, matrix)."""
    elements = V.elements
    n = len(elements)
    pairs = [[(c, diff(b, op.var, k)) for k, c in op.coeffs.items()] for b in elements]
    pts, A = safe_points(elements + [e for row in pairs for pair in row for e in pair], plan)
    T = A[:, n::2] * A[:, n + 1::2]
    B, Y, G = A[:, :n], np.zeros((len(pts), n)), np.zeros((len(pts), n))
    col = 0
    for i, row in enumerate(pairs):
        for t in T[:, col:col + len(row)].T:
            Y[:, i] += t
            G[:, i] += np.abs(t)
        col += len(row)
    M = None
    if not annihilate:
        B_fit = B[:invariance.FIT_POINTS]
        scales = np.maximum(np.linalg.norm(B_fit, axis=0), 1e-300)
        M_hat, *_ = np.linalg.lstsq(B_fit / scales, Y[:invariance.FIT_POINTS], rcond=None)
        M = M_hat / scales[:, None]
        Y = Y - B @ M
    r = np.abs(Y).max(axis=0) / (1.0 + np.maximum(G.max(axis=0), np.abs(B).max()))
    ok = bool(np.all(r <= plan.tol))
    return ok, [float(x) for x in r], M if ok else None


@pytest.mark.parametrize("label", ["z^3", "exp(z)", "log(z)", "sin(z)", "cubic"])
def test_one_action_matches_per_element_loop(label):
    """check_invariant and check_annihilates give the per-element loop's
    verdict, residuals and matrix, bit for bit."""
    from qsusy.families import build_P3_minus, build_P3_plus

    f = parse(suites.FAMILY_F_SET[label])
    V, Vk = suites.seed_basis(f), suites.partner_basis(f)
    plan, kplan = SamplePlan(), SamplePlan(tol=1e-10)
    cases = [(check_invariant, build_J(i, f), V, plan) for i in range(1, 10)]
    cases += [(check_invariant, build_K(i, f), Vk, plan) for i in range(0, 9)]
    cases += [(check_invariant, DiffOp.mult("z", z), V, plan),
              (check_annihilates, build_P3_minus(f), V, kplan),
              (check_annihilates, build_P3_plus(f), Vk, kplan),
              (check_annihilates, DiffOp.d("z"), V, kplan)]
    verdicts = []
    for check, op, space, p in cases:
        v = check(op, space, p)
        ok, residuals, M = _invariant_per_element(op, space, p, check is check_annihilates)
        assert (v.passed, v.residuals) == (ok, residuals)
        assert (v.matrix is None and M is None) or np.array_equal(v.matrix, M)
        verdicts.append(ok)
    assert True in verdicts and False in verdicts
    # K0 is a first-order building block of the K gallery: it does not
    # preserve the partner space
    assert not verdicts[9]
    # grouped: each space's gallery members and supercharge in one search
    for members, p3, space in (([build_J(i, f) for i in range(1, 10)], build_P3_minus(f), V),
                               ([build_K(i, f) for i in range(0, 9)], build_P3_plus(f), Vk)):
        asks = [(op, True, plan.tol) for op in members] + [(p3, False, kplan.tol)]
        grouped = space_verdicts(space, asks, plan)
        assert len(grouped) == len(asks)
        for (op, fit, _), v in zip(asks, grouped):
            ok, residuals, M = _invariant_per_element(op, space, plan if fit else kplan, not fit)
            assert (v.passed, v.residuals) == (ok, residuals)
            assert (v.matrix is None and M is None) or np.array_equal(v.matrix, M)


def test_commutator_identities_are_built_once(monkeypatch):
    from qsusy.diffop import commutator

    invariance.commutator_table.cache_clear()
    built = []
    monkeypatch.setattr(invariance, "commutator",
                        lambda a, b: built.append((a, b)) or commutator(a, b))
    for text in ("z^3", "z^(7/3)"):
        assert all(r["verdict"] == "pass" for r in verify_commutator_table(parse(text)))
    assert len(built) == 28


class TestCommutatorTable:
    @pytest.mark.parametrize("f_text", ["z^3", "exp(z)", "z^(7/3)"])
    def test_all_entries(self, f_text):
        results = verify_commutator_table(parse(f_text))  # decided at 10 * 1e-9
        assert len(results) == 28
        bad = [r for r in results if r["verdict"] != "pass"]
        assert not bad, bad

    def test_specific_entry_j1_j4(self):
        from qsusy.diffop import commutator, compose

        f = parse("z^3")
        lhs = commutator(build_J(1, f), build_J(4, f))
        rhs = compose(DiffOp("z", {1: rat(2)}), build_J(1, f))
        ok, res = ops_equal_numeric(lhs, rhs)
        assert ok, res

    def test_diagonal_trivially_zero(self):
        from qsusy.diffop import commutator

        f = parse("z^3")
        assert commutator(build_J(2, f), build_J(2, f)).is_zero()

    def test_printed_form_of_one_entry_fails(self):
        # regression guard: the second-row entry with the first-derivative
        # multiplier is reproducible only with the z f'' - f' numerator
        from qsusy.diffop import commutator, compose
        f = parse("z^3")
        bind = Binding(funcs={"f": f})
        lhs = commutator(build_J(2), build_J(4))
        zz = var("z")
        as_printed = compose(
            DiffOp("z", {1: mul(2, add(mul(zz, opaque("f", 1, zz)),
                                       mul(-1, opaque("f", 0, zz))),
                                pow_(opaque("f", 2, zz), -1)),
                         0: rat(1)}),
            build_J(1))
        ok, _ = ops_equal_numeric(lhs, as_printed, bind)
        assert not ok
        corrected = invariance.commutator_table()[2, 4][1]
        ok, res = ops_equal_numeric(lhs, corrected, bind)
        assert ok, res


class TestLieClosure:
    def test_closure_point(self):
        rep = decide_lie_closure_each(*lie_closure_identities(
            Fraction(2), Fraction(-1, 2), Fraction(1, 2), parse("-z^2/4")), SamplePlan(), [None])[0]
        assert rep.closed and rep.first_order
        assert max(rep.structure_residuals.values()) < 1e-9

    @staticmethod
    def _commutators(am, a0, ap, f):
        """[J-,J0], [J+,J0] and [J+,J-] of the shifted combinations."""
        f = parse(f)
        Jm = build_J(2, f) + build_J(4, f).scaled(am)
        J0 = build_J(3, f) + build_J(5, f).scaled(a0)
        Jp = build_J(6, f) + build_J(7, f).scaled(ap)
        return [commutator(Jm, J0), commutator(Jp, J0), commutator(Jp, Jm)]

    def test_wrong_product_stays_second_order(self):
        rep = decide_lie_closure_each(*lie_closure_identities(
            Fraction(2), Fraction(-1, 2), Fraction(1), parse("-z^2/4")), SamplePlan(), [None])[0]
        assert not rep.closed
        cs = self._commutators(Fraction(2), Fraction(-1, 2), Fraction(1), "-z^2/4")
        assert [op_order(c) for c in cs] == [1, 2, 2]

    def test_cubic_not_closed(self):
        rep = decide_lie_closure_each(*lie_closure_identities(
            1, Fraction(-1, 2), 1, parse("z^3")), SamplePlan(), [None])[0]
        assert not rep.closed
        cs = self._commutators(1, Fraction(-1, 2), 1, "z^3")
        assert max(op_order(c) for c in cs) == 3


def test_a_failed_joint_search_counts_every_coefficient():
    flat = add(pow_(fn("sin", z), 2), pow_(fn("cos", z), 2), -1)  # zero only numerically
    assert op_order(DiffOp("z", {0: z, 3: flat})) == 0
    # log(-1 - z^2) faults at every draw, so the one search over all the
    # coefficients fails, and each counts as nonzero: flat's order 3 wins
    op = DiffOp("z", {0: z, 1: fn("log", add(-1, mul(-1, pow_(z, 2)))), 3: flat})
    with pytest.raises(SamplingError):
        safe_points(list(op.coeffs.values()), SamplePlan(), count=6)
    assert op_order(op) == 3


class TestChecksRunner:
    def test_outcomes_become_records(self):
        @checks
        def outcomes():
            yield "a", "first", True, 1e-12
            yield "b", "second", False, float("inf")
            yield "c", "third", None, None, "not applicable"
            yield "d", "fourth", np.bool_(True), np.float64("nan")

        recs = outcomes()
        assert [(r["id"], r["anchor"], r["verdict"], r["residual"]) for r in recs] == [
            ("a", "first", "pass", 1e-12), ("b", "second", "fail", None),
            ("c", "third", "skipped", None), ("d", "fourth", "pass", None)]
        assert [r.get("reason") for r in recs] == [
            None, "residual not finite: inf", "not applicable", "residual not finite: nan"]
        assert all(r["millis"] >= 0 for r in recs)

    def test_non_finite_residual_reasons(self):
        @checks
        def outcomes():
            yield "a", "minus", False, float("-inf")
            yield "b", "caller", False, float("nan"), "solver diverged"
            yield "c", "none", None, None

        recs = outcomes()
        assert [(r["residual"], r.get("reason")) for r in recs] == [
            (None, "residual not finite: -inf"), (None, "solver diverged"), (None, None)]

    def test_finished_record_passes_through(self):
        done = {"id": "x", "anchor": "done", "verdict": "pass",
                "residual": 0.0, "millis": 123.0}

        @checks
        def outcomes():
            time.sleep(0.05)
            yield done
            yield "y", "after", True, 0.0

        recs = outcomes()
        assert recs[0] is done and recs[0] == {"id": "x", "anchor": "done", "verdict": "pass",
                                               "residual": 0.0, "millis": 123.0}
        # the clock restarts at the finished record: the sleep is not charged to y
        assert recs[1]["millis"] < 50.0

    def test_exception_propagates(self):
        @checks
        def outcomes():
            yield "a", "first", True, 0.0
            raise SamplingError("no points")

        with pytest.raises(SamplingError, match="no points"):
            outcomes()

    def test_millis_cover_the_call(self):
        @checks
        def outcomes():
            for k in range(5):
                time.sleep(0.01)
                yield f"c{k}", "sleep", True, 0.0

        t0 = time.monotonic()
        recs = outcomes()
        wall = 1000.0 * (time.monotonic() - t0)
        assert all(r["millis"] >= 9.0 for r in recs)
        assert sum(r["millis"] for r in recs) >= 0.9 * wall


def test_each_sampled_decision_makes_one_search(monkeypatch):
    # one safe_points search per decision, and no kernel call outside it
    calls = []

    def spy(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(invariance, "safe_points_each",
                        spy("search", invariance.safe_points_each))
    monkeypatch.setattr(expr, "values_and_faults", spy("kernel", expr.values_and_faults))

    def searches(decide, *args):
        calls.clear()
        decide(*args)
        return calls.copy()

    f = parse("z^3")
    bind = Binding(params={"alpha": 1.0, "nu": 1.0, "b0": 0.5})
    assert searches(check_invariant, build_J(6, f), seed_space(f)) == ["search"]
    assert searches(check_annihilates, DiffOp.d("z", 3), seed_space(z * z)) == ["search"]
    assert searches(ops_equal_numeric, build_J(2, f), build_J(4, f)) == ["search"]
    op = commutator(build_J(6, f), build_J(3, f))
    assert len(op.coeffs) > 1
    assert searches(op_order_each, op, SamplePlan(), [None, None]) == ["search"]
    # a route check: one search for all of its draws, not one per draw
    routes = (lambda gc: (build_H_minus(gc, f), build_H_minus_direct(gc, f)))
    assert searches(suites._routes_agree, SamplePlan(), np.random.default_rng(3),
                    5, 12, 5, routes) == ["search"]
    # a build only constructs; the printed forms are decided with the conditions
    assert searches(models.build_example, 1, bind) == []
    model = models.build_example(1, bind)
    assert searches(models.verify_susy_conditions, model) == ["search", "search"]


def test_stacked_search_is_each_bindings_own_search():
    # log(z - a) rejects every draw below a: at a = 0 the first chunk is
    # enough, at a = 2.4 the search needs later chunks, at a = 100 and with a
    # unbound it finds no point; b puts one binding in a group of its own
    a, b = sym("a"), sym("b")
    exprs = [fn("log", z - a), mul(a, z), add(b, z)]
    binds = [Binding(params={"a": 0.0, "b": 1.0}), Binding(params={"a": 2.4, "b": 1.0}),
             Binding(params={"a": 100.0, "b": 1.0}), Binding(params={"a": 0.5, "b": 2.0}),
             Binding(params={"a": 2.4}), None, Binding(params={"a": 1.0, "b": 1.0})]
    plan = SamplePlan()
    found = safe_points_each(exprs, plan, binds, count=6)
    assert len(found) == len(binds)
    kinds = []
    for bind, got in zip(binds, found):
        try:
            pts, V = safe_points(exprs, plan, bind, count=6)
        except SamplingError as exc:
            assert type(got) is SamplingError and str(got) == str(exc)
            kinds.append("error")
            continue
        assert pts.tobytes() == got[0].tobytes() and V.tobytes() == got[1].tobytes()
        kinds.append("points")
    assert kinds == ["points", "points", "error", "points", "error", "error", "points"]
    # a = 2.4 accepts points past the first chunk of 12 draws
    assert not set(found[1][0]) <= set(np.random.default_rng(plan.seed).uniform(0.5, 2.5, 12))


def test_closure_bindings_leave_the_order_stage_at_their_first_high_order():
    # on the special shape, (am, a0, ap) = (1, -1/2, 1) gives orders 1, 1, 1
    # and (2, 0, 3) gives 1, 2, 2: the second skips the third operator
    built = lie_closure_identities(sym("am"), sym("a0"), sym("ap"), parse("-z^2/(2*am)"))
    closes = Binding(params={"am": 1.0, "a0": -0.5, "ap": 1.0})
    second = Binding(params={"am": 2.0, "a0": 0.0, "ap": 3.0})
    seen = []

    def spy(op, plan, binds):
        seen.append(list(binds))
        return op_order_each(op, plan, binds)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariance, "op_order_each", spy)
        reports = decide_lie_closure_each(*built, SamplePlan(), [closes, second])
        assert seen == [[closes, second], [closes, second], [closes]]
        seen.clear()
        (alone,) = decide_lie_closure_each(*built, SamplePlan(), [second])
        assert seen == [[second], [second]]
    assert [r.first_order for r in reports] == [True, False]
    assert reports[0].closed and not reports[1].closed
    assert alone == reports[1]
    assert decide_lie_closure_each(*built, SamplePlan(), [closes]) == reports[:1]


def test_a_stacked_walk_covers_at_most_one_block(monkeypatch):
    # five bindings of three points under a block of seven: walks of 2, 2 and 1
    monkeypatch.setattr(invariance, "_BLOCK", 7)
    chunk = np.array([0.5, 1.5, 2.5])
    binds = [Binding(params={"a": float(k)}) for k in range(5)]
    store = invariance._Store()
    got = store.columns([mul(sym("a"), z)], chunk, binds)
    assert sorted(len(held) for held, _ in store.contexts.values()) == [1, 2, 2]
    assert [V[:, 0].tolist() for V, _, _ in got] == [[k * x for x in chunk] for k in range(5)]
