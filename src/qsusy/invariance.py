"""Decide whether an operator preserves or annihilates a finite-dimensional
function space, extract restricted matrices, and verify commutator identities.

Membership is decided numerically: least-squares fit on sample points,
certified on disjoint holdout points.  This covers opaque and transcendental
generating functions where structural equality of canonical forms is too weak.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, wraps

import numpy as np
from numpy.random import default_rng

from .expr import (
    EMPTY_BINDING, Expr, Binding, ZERO, ONE, MINUS_ONE, ExprError, EvalError,
    mul, pow_, fn, var, as_expr, diff, opaque_names, _walker, _BLOCK,
)
from .diffop import DiffOp, compose, commutator, OperatorError
from .families import F, _fv, J_gallery


class InvarianceError(ExprError):
    pass


class IllConditionedBasisError(InvarianceError):
    pass


class SamplingError(InvarianceError):
    pass


DEFAULT_INTERVALS = ((0.5, 2.5), (3.0, 5.0), (0.15, 0.45), (5.5, 8.0))
FIT_POINTS = 12       # points a membership fit solves on
HOLDOUT_POINTS = 6    # further points that certify the fit
EXCLUSION = 1e-3      # radius around a rejected draw that a search skips
COND_CEILING = 1e10   # largest condition number of a sampled basis
MAGNITUDE_CAP = 1e9   # largest value a sample point may give an expression


@dataclass(frozen=True)
class SamplePlan:
    """Where a check samples, and the one tolerance of every sampled residual.

    A residual passes at tol; the decisions that need a different margin state
    it once, as a fixed multiple: the P3 annihilations at tol / 10, the
    commutator table, the closure identities, the models' conditions, gauge
    and partner checks and the exit code of `qsusy model` at 10 * tol, and
    the models' spectra at 100 * tol.  The point counts, the exclusion radius
    and the caps are the module constants above.
    """
    seed: int = 7
    tol: float = 1e-9
    intervals: tuple = DEFAULT_INTERVALS


@dataclass
class Subspace:
    basis: list
    variable: str = "z"
    prefactor: Expr | None = None

    @property
    def elements(self) -> list:
        if self.prefactor is None:
            return list(self.basis)
        return [mul(self.prefactor, b) for b in self.basis]


def record(check_id: str, anchor: str, ok, residual, t0, reason=None) -> dict:
    """One check record; ok=None means skipped, and a non-finite residual is
    null, with that value as the reason when the caller gives none.

    millis is the time since t0 on the time.monotonic() clock.
    """
    verdict = "pass" if ok else "fail"
    if ok is None:
        verdict = "skipped"
    finite = residual is not None and math.isfinite(residual)
    if reason is None and residual is not None and not finite:
        reason = f"residual not finite: {residual}"
    out = {"id": check_id, "anchor": anchor, "verdict": verdict,
           "residual": float(residual) if finite else None,
           "millis": round(1000.0 * (time.monotonic() - t0), 3)}
    if reason is not None:
        out["reason"] = reason
    return out


class _Store:
    """What one checks run keeps for its point searches: the candidate draws
    of each (seed, intervals, need), drawn once and read-only, and one kernel
    context per (candidate chunk, batch of bindings), so a node the run has
    evaluated there is not evaluated there again.  An entry holds its chunk,
    bindings and roots, so no id it is keyed by can be reused while it lives;
    one whose memo has passed _CONTEXT_NODES entries is replaced.
    """

    def __init__(self):
        self.draws: dict = {}     # (seed, intervals, need) -> (rng, chunks of each interval)
        self.contexts: dict = {}  # (id(chunk), id of each binding) -> (bindings, context)

    def candidates(self, plan: SamplePlan, need: int):
        """The candidate chunks of 2*need draws, in draw order; an interval is
        drawn when a search first reaches it."""
        key = (plan.seed, plan.intervals, need)
        if key not in self.draws:
            self.draws[key] = (default_rng(plan.seed), [])
        rng, drawn = self.draws[key]
        for k, (lo, hi) in enumerate(plan.intervals):
            if k == len(drawn):
                draws = rng.uniform(lo, hi, size=60 * need)
                draws.flags.writeable = False
                step = max(2 * need, 1)
                drawn.append([draws[i:i + step] for i in range(0, len(draws), step)])
            yield from drawn[k]

    def columns(self, exprs: list, chunk: np.ndarray, binds: list) -> list:
        """values_and_faults(exprs, chunk, bind) for each bind of binds.

        Bindings with the same parameter names and opaque functions are
        stacked, up to _BLOCK points at a time: one context walks the chunk
        repeated once per binding, each parameter the one value they agree on
        or else a column of float(value) per point, and each reads its rows.
        """
        P, per, out = len(chunk), max(_BLOCK // len(chunk), 1), [None] * len(binds)
        groups: dict = {}
        for d, b in enumerate(binds):
            groups.setdefault((tuple(sorted(b.params)), tuple(b.funcs.items())), []).append(d)
        for ds in groups.values():
            for batch in (ds[start:start + per] for start in range(0, len(ds), per)):
                held = [binds[d] for d in batch]
                key = (id(chunk), *map(id, held))
                if key not in self.contexts or len(self.contexts[key][1].memo) > _CONTEXT_NODES:
                    stacked = held[0].with_params(**{
                        name: value if all(b.params[name] == value for b in held)
                        else np.repeat([float(b.params[name]) for b in held], P)
                        for name, value in held[0].params.items()})
                    self.contexts[key] = held, _walker(np.tile(chunk, len(held)), stacked, [None])
                cx = self.contexts[key][1]
                V, F = cx.columns(exprs)
                for k, d in enumerate(batch):
                    out[d] = V[k * P:(k + 1) * P], F[k * P:(k + 1) * P], cx.errors
        return out


_CONTEXT_NODES = 1000  # memo entries a context may pass before it is dropped (sweep: CHANGES.md)
_store: _Store | None = None  # the store of the checks run in progress


def checks(gen):
    """Run a generator of check outcomes and return their records.

    An outcome is (id, anchor, ok, residual[, reason]).  It is charged the
    time since the previous outcome, or since the call for the first, so the
    records of one call sum to its time; a list of outcomes, decided in one
    point search, shares that time evenly.  A finished record (a dict, from a
    nested call of a decorated function) passes through unchanged and
    restarts the clock.

    The outermost run owns one _Store for every point search inside it,
    nested runs included, and drops it when it ends, however it ends.
    """
    @wraps(gen)
    def run(*args, **kwargs):
        global _store
        outermost = _store is None
        if outermost:
            _store = _Store()
        try:
            out = []
            t0 = time.monotonic()
            for item in gen(*args, **kwargs):
                items = item if isinstance(item, list) else [item]
                t0 = time.monotonic() - (time.monotonic() - t0) / max(len(items), 1)
                out += [it if isinstance(it, dict) else record(*it[:4], t0, *it[4:])
                        for it in items]
                t0 = time.monotonic()
            return out
        finally:
            if outermost:
                _store = None
    return run


@dataclass
class Verdict:
    passed: bool
    residuals: list
    matrix: np.ndarray | None


def safe_points(exprs: list, plan: SamplePlan, bind: Binding | None = None,
                count: int | None = None):
    """(points, V) where exprs evaluate cleanly: safe_points_each for one binding."""
    return _or_raise(safe_points_each(exprs, plan, [bind], count))[0]


def safe_points_each(exprs: list, plan: SamplePlan, binds: list,
                     count: int | None = None) -> list:
    """Per binding of binds, (points, V) with V[i, j] the value of exprs[j]
    at points[i] under it, or the SamplingError its search ends in.

    V holds the kernel rows that accepted the points, bit-equal to
    values(exprs, points, bind).  The candidates depend only on the plan's
    seed and intervals and on count (FIT_POINTS + HOLDOUT_POINTS by default):
    60*count uniform draws from each interval in turn, from one
    default_rng(plan.seed), taken in chunks of 2*count.  A draw is rejected
    where an expression faults or its value is not finite or above
    MAGNITUDE_CAP; a later draw within EXCLUSION of a rejected one, or within
    a tenth of it of an accepted point, is skipped unseen.  An error that is
    not an EvalError at a rejected draw is raised.

    The draws and their kernel columns come from the checks run's _Store, or
    outside a run from a store of this call alone; at each chunk one stacked
    walk evaluates every binding still searching.  The verdicts come from
    array masks; only draws near an earlier draw or point (_near) replay the
    exclusion rules in Python, in draw order, so each binding gets the result
    a point-by-point search of its own gives.
    """
    need = count if count is not None else FIT_POINTS + HOLDOUT_POINTS
    store = _store if _store is not None else _Store()
    binds = [b or EMPTY_BINDING for b in binds]
    # per binding: the points accepted so far, their rows, the draws rejected so far
    state = [([], [], []) for _ in binds]
    found: dict = {}
    for chunk in store.candidates(plan, need):
        searching = [d for d in range(len(binds)) if d not in found]
        cols = store.columns(exprs, chunk, [binds[d] for d in searching])
        for d, (V, F, errors) in zip(searching, cols):
            out, rows, bad = state[d]
            # per draw and expression: a fault or a value out of range
            S = (F != 0) | ~np.isfinite(V) | (np.abs(V) > MAGNITUDE_CAP)
            rejected = S.any(axis=1)
            kept = np.ones(len(chunk), bool)  # not skipped by an exclusion rule
            for i in _near(chunk, out + bad, EXCLUSION):
                x = float(chunk[i])
                prior_bad = bad + chunk[:i][kept[:i] & rejected[:i]].tolist()
                prior_out = out + chunk[:i][kept[:i] & ~rejected[:i]].tolist()
                kept[i] = not (any(abs(x - g) < EXCLUSION for g in prior_bad)
                               or any(abs(x - p) < EXCLUSION / 10 for p in prior_out))
            ok = (kept & ~rejected).nonzero()[0]
            end = len(chunk) if len(out) + len(ok) < need else ok[need - len(out) - 1] + 1
            failed = kept[:end] & rejected[:end]
            for i in failed.nonzero()[0].tolist():
                err = errors[F[i, S[i].argmax()]]  # None for a value out of range
                if err is not None and not isinstance(err, EvalError):
                    raise err
            ok = ok[ok < end]
            out += chunk[ok].tolist()
            rows.append(V[ok])
            if len(out) >= need:
                found[d] = np.array(out), np.concatenate(rows)
            else:
                bad += chunk[failed].tolist()
        if len(found) == len(binds):
            break
    return [found[d] if d in found else SamplingError(
        f"could only find {len(out)} of {need} usable sample points")
        for d, (out, _, _) in enumerate(state)]


def _or_raise(found: list) -> list:
    """A list form's result, raising its first SamplingError if it has one."""
    for got in found:
        if isinstance(got, SamplingError):
            raise got
    return found


def _near(x: np.ndarray, others: list, radius: float) -> list:
    """The indices i of x with another element of x, or one of others, closer
    than radius to x[i]: a superset of the draws an exclusion rule can reach."""
    allx = np.concatenate([x, others]) if others else x
    order = allx.argsort(kind="stable")
    s = allx[order]
    close = s[1:] - s[:-1] < radius
    if not close.any():
        return []
    hit = np.zeros(len(allx), bool)
    hit[order[1:][close]] = True
    hit[order[:-1][close]] = True
    return hit[:len(x)].nonzero()[0].tolist()


def _sampled_actions(decisions: list, fs: list, plan: SamplePlan, bind: Binding | None,
                     count: int | None = None):
    """_sampled_actions_each for one binding."""
    return _or_raise(_sampled_actions_each(decisions, fs, plan, [bind], count))[0]


def _sampled_actions_each(decisions: list, fs: list, plan: SamplePlan, binds: list,
                          count: int | None = None) -> list:
    """Per binding: points, values F of fs and, per decision (a list of
    operators), (each op's signed sums Y of op(f_i), one magnitude sum G over
    the terms of its ops); or the SamplingError of its point search.

    One point search covers fs, every coefficient of every op of every
    decision and the derivatives of fs the ops need.  G measures how much
    floating-point cancellation went into a decision's image values; its
    residuals are judged relative to it.  Terms are added one at a time, op
    by op in coefficient order, not pairwise, and each decision sums only its
    own ops, so its sums are bit-equal to those of a search of its own at
    the same points.
    """
    ops = [op for group in decisions for op in group]
    v, n = ops[0].var, len(fs)
    coeffs = [c for op in ops for c in op.coeffs.values()]
    orders = sorted({k for op in ops for k in op.coeffs})
    derivs = [diff(f, v, k) for k in orders for f in fs]

    def actions(pts, A):
        C, D = A[:, n:n + len(coeffs)], A[:, n + len(coeffs):]
        out, col = [], 0
        for group in decisions:
            G, Ys = np.zeros((len(pts), n)), []
            for op in group:
                Y = np.zeros_like(G)
                for k in op.coeffs:
                    j = orders.index(k) * n
                    t = C[:, col:col + 1] * D[:, j:j + n]
                    Y += t
                    G += np.abs(t)
                    col += 1
                Ys.append(Y)
            out.append((Ys, G))
        return pts, A[:, :n], out

    return [got if isinstance(got, SamplingError) else actions(*got)
            for got in safe_points_each(fs + coeffs + derivs, plan, binds, count)]


def relative_residual(R: np.ndarray, S) -> np.ndarray:
    """Per column, max |R| / (1 + S), for a scale S that broadcasts against R.

    Rounding is monotone, so where S is constant down a column this equals
    max |R| over (1 + S) bit for bit.
    """
    return (np.abs(R) / (1.0 + S)).max(axis=0)


def space_verdicts(V: Subspace, asks: list, plan: SamplePlan = SamplePlan(),
                   bind: Binding | None = None) -> list:
    """Per (op, fit, tol) of asks, its Verdict at tol, every one from one
    point search on V.

    A fit is the least-squares membership of op(b_i) in span(V), certified
    on holdouts, with its matrix where it passes; otherwise the ask is
    op(b_i) = 0.  Each residual is scaled by the larger of its image's term
    magnitudes and the largest basis value.
    """
    for op, _, _ in asks:
        if op.var != V.variable:
            raise OperatorError(f"operator in {op.var!r}, space in {V.variable!r}")
    _, B_all, acts = _sampled_actions([[op] for op, _, _ in asks], V.elements, plan, bind)
    B_fit, top, out = B_all[:FIT_POINTS], np.abs(B_all).max(), []
    if any(fit for _, fit, _ in asks):
        cond = float(np.linalg.cond(B_fit))
        if not np.isfinite(cond) or cond > COND_CEILING:
            raise IllConditionedBasisError(
                f"sampled basis condition number {cond:.3e} exceeds ceiling")
        # column scaling keeps the solve well-behaved for lopsided bases
        scales = np.maximum(np.linalg.norm(B_fit, axis=0), 1e-300)
    for (_, fit, tol), ((Y_all,), G_all) in zip(asks, acts):
        M = None
        if fit:
            M_hat, *_ = np.linalg.lstsq(B_fit / scales, Y_all[:FIT_POINTS], rcond=None)
            M = M_hat / scales[:, None]
            Y_all = Y_all - B_all @ M
        r = relative_residual(Y_all, np.maximum(G_all.max(axis=0), top))
        ok = bool(np.all(r <= tol))
        # M in the (j, i) layout: column i holds the coordinates of op(b_i)
        out.append(Verdict(ok, r.tolist(), M if ok else None))
    return out


def check_invariant(op: DiffOp, V: Subspace, plan: SamplePlan = SamplePlan(),
                    bind: Binding | None = None) -> Verdict:
    """Whether op maps V into its span: space_verdicts for one fit."""
    return space_verdicts(V, [(op, True, plan.tol)], plan, bind)[0]


def check_annihilates(op: DiffOp, V: Subspace, plan: SamplePlan = SamplePlan(),
                      bind: Binding | None = None) -> Verdict:
    """Whether op(b_i) = 0 for every element: space_verdicts for one annihilation."""
    return space_verdicts(V, [(op, False, plan.tol)], plan, bind)[0]


# ---------------------------------------------------------------------------
# numeric operator equality

def default_probes(variable: str) -> list:
    x = var(variable)
    return [ONE, x, pow_(x, 2), fn("exp", mul(pow_(as_expr(3), -1), x)), fn("sin", x)]


def ops_equal_numeric(a: DiffOp, b: DiffOp, bind: Binding | None = None,
                      plan: SamplePlan = SamplePlan()):
    """(worst residual <= plan.tol, worst residual): ops_equal_pairs for one
    pair and one binding."""
    return _or_raise(ops_equal_pairs([(a, b)], [bind], plan))[0][0]


def ops_equal_each(a: DiffOp, b: DiffOp, binds: list,
                   plan: SamplePlan = SamplePlan()) -> list:
    """ops_equal_pairs for one pair: per binding, its (ok, worst) or the
    SamplingError of its point search."""
    return [got if isinstance(got, SamplingError) else got[0]
            for got in ops_equal_pairs([(a, b)], binds, plan)]


def ops_equal_pairs(pairs: list, binds: list, plan: SamplePlan = SamplePlan()) -> list:
    """Per binding, whether the two operators of each pair (a, b) of pairs
    agree on the default probes at 12 safe points, as a list of (worst
    residual <= plan.tol, worst residual) per pair; or the SamplingError of
    the one point search of them all.

    Differences are judged relative to the summed term magnitudes of the two
    applications of their own pair, point by point, so cancellation-heavy
    coefficients do not masquerade as disagreement.  The probes are entire,
    so the one point search gives each probe the points its own search would.
    """
    if len({op.var for pair in pairs for op in pair}) > 1:
        raise OperatorError("variable tags differ")
    out = []
    for got in _sampled_actions_each(pairs, default_probes(pairs[0][0].var), plan, binds,
                                     count=12):
        if not isinstance(got, SamplingError):
            worst = [float(relative_residual(Ya - Yb, G).max(initial=0.0))
                     for (Ya, Yb), G in got[2]]
            got = [(w <= plan.tol, w) for w in worst]
        out.append(got)
    return out


def op_order_each(op: DiffOp, plan: SamplePlan, binds: list) -> list:
    """Per binding, the largest derivative order whose coefficient is not
    numerically zero (above 1e-8 in magnitude at some sample point).

    One point search covers every coefficient.  If it fails, every
    coefficient counts as nonzero: the order is the structural one.
    """
    orders = sorted(op.coeffs)
    return [max(orders, default=-1) if isinstance(got, SamplingError) else
            max((k for k, big in zip(orders, (np.abs(got[1]) > 1e-8).any(axis=0)) if big),
                default=-1)
            for got in safe_points_each([op.coeffs[k] for k in orders], plan, binds, count=6)]


# ---------------------------------------------------------------------------
# the commutator table

def _rows() -> dict:
    """RHS of each [J_i, J_j] (i < j), f opaque, as a sum of (aD + b) ∘ J_target
    terms; target 0 is the identity."""
    f, z = F, var("z")
    fp, fpp = diff(f, "z"), diff(f, "z", 2)
    inv = pow_(fpp, -1)
    two = as_expr(2)
    wf = z * fp - f
    return {
        (1, 2): [(two * inv, ZERO, 1)],
        (1, 3): [(two * fp * inv, ONE, 1)],
        (1, 4): [(two, ZERO, 1)],
        (1, 5): [(two * z, ZERO, 1), (two * inv, ZERO, 4)],
        (1, 6): [(two * f, ZERO, 1), (two * fp * inv, ONE, 4)],
        (1, 7): [(two * z * z, -z, 1), (two * inv, ZERO, 9)],
        (1, 8): [(two * z * f, -f, 1), (two * fp * inv, ONE, 9)],
        (2, 3): [(two * wf * inv, z, 1)],
        # multiplier corrected from the printed z f' - f, which fails numerically
        (2, 4): [(two * (z * fpp - fp) * inv, ONE, 1)],
        (2, 5): [(two * z * (z * fpp - fp) * inv, z, 1), (two * z * inv, ZERO, 4)],
        (2, 6): [(two * f * (z * fpp - fp) * inv, f, 1), (two * z * fp * inv, z, 4)],
        (2, 7): [(two * z * (z * z * fpp - z * fp + f) * inv, ZERO, 1), (two * z * inv, ZERO, 9)],
        (2, 8): [(two * f * (z * z * fpp - z * fp + f) * inv, ZERO, 1),
                 (two * z * fp * inv, z, 9)],
        (3, 4): [(two * (f * fpp - fp * fp) * inv, ZERO, 1)],
        (3, 5): [(two * z * (f * fpp - fp * fp) * inv, ZERO, 1), (two * f * inv, ZERO, 4)],
        (3, 6): [(two * f * (f * fpp - fp * fp) * inv, ZERO, 1), (two * f * fp * inv, f, 4)],
        (3, 7): [(two * z * (z * f * fpp - z * fp * fp + f * fp) * inv, ZERO, 1),
                 (two * f * inv, ZERO, 9)],
        (3, 8): [(two * f * (z * f * fpp - z * fp * fp + f * fp) * inv, ZERO, 1),
                 (two * f * fp * inv, f, 9)],
        (4, 5): [(two * fp * inv, MINUS_ONE, 4)],
        (4, 6): [(two * fp * fp * inv, ZERO, 4)],
        (4, 7): [(two * z * f, ZERO, 1), (ZERO, -z, 4), (two * fp * inv, MINUS_ONE, 9)],
        (4, 8): [(two * f * f, ZERO, 1), (ZERO, -f, 4), (two * fp * fp * inv, ZERO, 9)],
        (5, 6): [(two * fp * wf * inv, f, 4)],
        (5, 7): [(two * z * z * f, ZERO, 1), (-two * z * wf * inv, ZERO, 4),
                 (two * z * fp * inv, -z, 9)],
        (5, 8): [(two * z * f * f, ZERO, 1), (-two * f * wf * inv, ZERO, 4),
                 (two * z * fp * fp * inv, ZERO, 9)],
        (6, 7): [(two * z * f * f, ZERO, 1), (-two * fp * wf * inv * z, ZERO, 4),
                 (two * f * fp * inv, -f, 9)],
        (6, 8): [(two * f * f * f, ZERO, 1), (-two * f * fp * wf * inv, ZERO, 4),
                 (two * f * fp * fp * inv, ZERO, 9)],
        (7, 8): [(two * (z * z * fp * fp - 2 * z * f * fp + f * f) * inv, ZERO, 9)],
    }


@lru_cache(maxsize=1)
def commutator_table() -> dict:
    """{(i, j): ([J_i, J_j], its tabulated right-hand side)} for 1 <= i < j <= 8,
    from one J gallery with f opaque; f is bound at evaluation."""
    J = {0: DiffOp.identity("z"), **J_gallery()}
    return {(i, j): (commutator(J[i], J[j]),
                     sum((compose(DiffOp("z", {1: a, 0: b}), J[target]) for a, b, target in row),
                         DiffOp.zero("z")))
            for (i, j), row in _rows().items()}


@checks
def verify_commutator_table(f, plan: SamplePlan = SamplePlan()):
    """Check all 28 commutator identities for a concrete generating function,
    each at 10 * plan.tol.

    The identities are built once, with f opaque, and decided in one point
    search with f bound; each has its own record, and the records share the
    time of the table's build and search evenly.
    Each record's id and anchor name the identity.  Raises
    DegenerateFunctionError where f'' vanishes identically, and ExprError
    where f is not concrete: bound to f, it would contain itself.
    """
    f = _fv(f)[0]
    if "f" in opaque_names(f):
        raise ExprError("the generating function must not contain f itself")
    table = commutator_table()
    (found,) = _or_raise(ops_equal_pairs(list(table.values()), [Binding(funcs={"f": f})],
                                         replace(plan, tol=10 * plan.tol)))
    yield [(f"[J{i},J{j}]", f"[J{i},J{j}]", ok, res) for (i, j), (ok, res) in zip(table, found)]


# ---------------------------------------------------------------------------
# Lie-algebra closure of shifted combinations

@dataclass
class ClosureReport:
    first_order: bool
    closed: bool
    structure_residuals: dict


def lie_closure_identities(alpha_minus, alpha_zero, alpha_plus, f):
    """J₋ = J2+α₋J4, J₀ = J3+α₀J5, J₊ = J6+α₊J7 and the three structure
    identities {name: (lhs, rhs)} of an sl(2)-type algebra among them."""
    f = as_expr(f)
    am, a0, ap = as_expr(alpha_minus), as_expr(alpha_zero), as_expr(alpha_plus)
    J = J_gallery(f)
    Jm = J[2] + J[4].scaled(am)
    J0 = J[3] + J[5].scaled(a0)
    Jp = J[6] + J[7].scaled(ap)
    half = Fraction(1, 2)
    return (Jm, J0, Jp), {
        "[J-,J0]=J-/2": (commutator(Jm, J0), Jm.scaled(as_expr(half))),
        "[J+,J0]=-J+/2": (commutator(Jp, J0), Jp.scaled(as_expr(-half))),
        "[J+,J-]=-2J0+1": (commutator(Jp, Jm),
                           J0.scaled(as_expr(-2)) + DiffOp.identity(Jm.var)),
    }


def decide_lie_closure_each(ops, targets: dict, plan: SamplePlan, binds: list) -> list:
    """Per binding, whether lie_closure_identities' combinations are first
    order and its identities hold under it, each decided at 10 * plan.tol.

    A binding leaves the order stage at its first operator above order 1.
    The identities are decided in one point search per binding; where it
    fails, none of them holds, each at residual inf.
    """
    first_order = [True] * len(binds)
    for op in ops:
        live = [d for d, ok in enumerate(first_order) if ok]
        if not live:
            break
        for d, order in zip(live, op_order_each(op, plan, [binds[d] for d in live])):
            first_order[d] = order <= 1
    closed, resids = list(first_order), [{} for _ in binds]
    found = ops_equal_pairs(list(targets.values()), binds, replace(plan, tol=10 * plan.tol))
    for d, got in enumerate(found):
        if isinstance(got, SamplingError):
            got = [(False, float("inf"))] * len(targets)
        for key, (ok, resids[d][key]) in zip(targets, got):
            closed[d] = closed[d] and ok
    return [ClosureReport(*report) for report in zip(first_order, closed, resids)]
