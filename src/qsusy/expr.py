"""Immutable symbolic expressions over one variable with exact rational constants.

Every constructor returns a canonical form: sums and products are flattened,
rational constants folded exactly, like powers merged (x^a * x^b -> x^(a+b)),
and exp/log folded for rational multiples.  No full rational-function
normalization is attempted; callers that need semantic equality beyond the
canonical form fall back to numeric sampling.

Nodes are hash-consed: structurally equal nodes are one object, so
structural equality is identity, and == and hash on nodes are those of
object.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from fractions import Fraction
from typing import Union

import numpy as np

Rational = Union[int, Fraction]

EPS_POLE = 1e-10


class ExprError(Exception):
    pass


class EvalError(ExprError):
    pass


class UnboundSymbolError(EvalError):
    pass


class PoleError(EvalError):
    pass


class EvalDomainError(EvalError):
    pass


FN_NAMES = ("exp", "log", "sin", "cos", "tan")


# every node is interned: _table maps a node's structural key to a weak
# reference to the one live node with that key, and a node leaves the table
# when nothing else holds it
_table: dict = {}


def _drop(ref: weakref.KeyedRef, table=_table):
    if table.get(ref.key) is ref:  # and not a node built since under that key
        del table[ref.key]


def _make(cls, key, fields: tuple):
    """A new node of cls under key, its slots set to fields in order (a slot
    without a field starts as None)."""
    x = object.__new__(cls)
    for name, v in itertools.zip_longest(cls.__slots__, fields):
        object.__setattr__(x, name, v)
    object.__setattr__(x, "_key", None)
    object.__setattr__(x, "_exact", None)
    _table[key] = weakref.KeyedRef(x, _drop, key)
    return x


class Expr:
    """A node; its children are nodes too, so its key (type and fields) is a
    complete structural key, and == and hash are those of object."""

    __slots__ = ("_key", "_exact", "__weakref__")  # _exact: evaluate_exact's instruction and values

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _table.get(key)
        x = None if ref is None else ref()
        return _make(cls, key, fields) if x is None else x

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __repr__(self):
        from .parser import to_string  # import cycle

        return to_string(self)

    # arithmetic sugar; int/Fraction operands are coerced to exact constants
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return _sum(((ONE, self), (MINUS_ONE, as_expr(other))))

    def __rsub__(self, other):
        return _sum(((ONE, as_expr(other)), (MINUS_ONE, self)))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return mul(self, pow_(as_expr(other), -1))

    def __rtruediv__(self, other):
        return mul(as_expr(other), pow_(self, -1))

    def __pow__(self, other):
        return pow_(self, as_expr(other))

    def __neg__(self):
        return mul(MINUS_ONE, self)


class Rat(Expr):
    """A rational constant: a reduced numerator and a positive denominator."""

    __slots__ = ("num", "den")

    def __new__(cls, value: Rational):
        if type(value) is int:
            return _rat(value)
        value = value if isinstance(value, Fraction) else Fraction(value)
        return _rat(value.numerator, value.denominator)

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __float__(self):
        return self.num / self.den  # float(Fraction) to the bit


def _rat(n: int, d: int = 1) -> Rat:
    """The Rat n/d (d != 0), keyed by the reduced numerator alone when the
    denominator is 1."""
    if d != 1:
        g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
        n, d = n // g, d // g
    key = n if d == 1 else (n, d)
    ref = _table.get(key)
    x = None if ref is None else ref()
    return _make(Rat, key, (n, d)) if x is None else x


class Sym(Expr):
    """A free named parameter (real-valued)."""

    __slots__ = ("name",)


class Var(Expr):
    """The designated independent variable of an expression context."""

    __slots__ = ("name",)


class Add(Expr):
    __slots__ = ("terms",)


class Mul(Expr):
    __slots__ = ("factors", "_split")  # _split: kept by _coeff_core


class Pow(Expr):
    __slots__ = ("base", "exponent")


class Fn(Expr):
    __slots__ = ("name", "arg")


class Opaque(Expr):
    """An unspecified function symbol applied at `arg`, carrying a derivative order."""

    __slots__ = ("name", "order", "arg")

    def __new__(cls, name: str, order: int, arg: Expr):
        if order < 0:
            raise ExprError("opaque derivative order must be >= 0")
        return super().__new__(cls, name, order, arg)


ZERO = Rat(0)
ONE = Rat(1)
MINUS_ONE = Rat(-1)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Rat(x)
    if isinstance(x, float):
        if x == int(x):
            return Rat(int(x))
        return Rat(Fraction(x))
    raise TypeError(f"cannot coerce {x!r} to Expr")


def rat(p: Rational, q: int = 1) -> Expr:
    return Rat(Fraction(p, q) if q != 1 else Fraction(p))


def sym(name: str) -> Expr:
    return Sym(name)


def var(name: str) -> Expr:
    return Var(name)


# ---------------------------------------------------------------------------
# ordering of canonical children

def sort_key(e: Expr):
    k = e._key
    if k is None:
        if isinstance(e, Rat):
            k = (0, e.num, e.den)
        elif isinstance(e, Sym):
            k = (1, e.name)
        elif isinstance(e, Var):
            k = (2, e.name)
        elif isinstance(e, Fn):
            k = (3, e.name, sort_key(e.arg))
        elif isinstance(e, Opaque):
            k = (4, e.name, e.order, sort_key(e.arg))
        elif isinstance(e, Pow):
            k = (5, sort_key(e.base), sort_key(e.exponent))
        elif isinstance(e, Mul):
            k = (6, len(e.factors), tuple(sort_key(f) for f in e.factors))
        else:
            k = (7, len(e.terms), tuple(sort_key(t) for t in e.terms))
        object.__setattr__(e, "_key", k)
    return k


# ---------------------------------------------------------------------------
# canonicalizing constructors

# add, mul, pow_, fn and _diff1 depend only on their arguments' structure, so
# each memoizes its last _MEMO calls (size from a sweep, CHANGES.md)
_MEMO = 512
_EXP = ("exp-sentinel",)  # mul's power-map key of the exp factors


def _coeff_core(t: Expr):
    """(Rat coefficient, coefficient-free core) of canonical t; a Rat or a sum is its own core."""
    if isinstance(t, Mul) and isinstance(t.factors[0], Rat):
        s = t._split
        if s is None:
            f = t.factors
            s = (f[0], f[1] if len(f) == 2 else Mul(f[1:]))
            object.__setattr__(t, "_split", s)
        return s
    return ONE, t


def _with_coeff(c: Rat, core: Expr) -> Expr:
    if c is ONE:
        return core
    if isinstance(core, Mul):
        return Mul((c,) + core.factors)
    return Mul((c, core))


def _base_exp(f: Expr) -> tuple:
    """mul's power-map key of the factor f (a Pow's base, _EXP for an exp, or
    else f itself) and f's exponent under that key."""
    if isinstance(f, Pow):
        return f.base, f.exponent
    if isinstance(f, Fn) and f.name == "exp":
        return _EXP, f.arg
    return f, ONE


@functools.lru_cache(maxsize=_MEMO)
def add(*terms) -> Expr:
    return _sum([(ONE, as_expr(t)) for t in terms])


def _sum(entries) -> Expr:
    """The canonical sum of c*t over the (Rat c, canonical t) entries."""
    cn, cd = 0, 1  # the constant term, as an unreduced pair
    # core -> [coefficient's numerator, denominator, the term itself while no
    # other term shares its core and its multiplier is 1]
    groups: dict[Expr, list] = {}
    stack = list(entries)
    for c, t in stack:
        if isinstance(t, Add):
            stack.extend((c, u) for u in t.terms)
            continue
        if isinstance(t, Rat):
            cn, cd = cn * t.den * c.den + c.num * t.num * cd, cd * t.den * c.den
            continue
        k, core = _coeff_core(t)
        n, d = k.num, k.den
        if c is not ONE:
            n, d, t = n * c.num, d * c.den, None
        g = groups.get(core)
        if g is None:
            groups[core] = [n, d, t]
        else:
            g[0], g[1], g[2] = g[0] * d + n * g[1], g[1] * d, None
    parts = [_with_coeff(_rat(n, d), core) if t is None else t
             for core, (n, d, t) in groups.items() if n != 0]
    if cn != 0:
        parts.append(_rat(cn, cd))
    if not parts:
        return ZERO
    if len(parts) == 1:
        return parts[0]
    parts.sort(key=sort_key)
    return Add(tuple(parts))


@functools.lru_cache(maxsize=_MEMO)
def mul(*factors) -> Expr:
    if len(factors) == 2:  # a rational multiple is a coefficient change, where exact
        c, t = factors if isinstance(factors[0], Rat) else factors[::-1]
        if isinstance(c, Rat) and isinstance(t, Expr):
            k, core = _coeff_core(t)
            if isinstance(core, (Rat, Add)):
                return _sum(((c, t),))
            return _with_coeff(_rat(c.num * k.num, c.den * k.den), core) if c.num else ZERO
    flat = []
    for f in (as_expr(f) for f in factors):
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    cn, cd = 1, 1  # product of the rational factors, as an unreduced pair
    powmap: dict = {}  # power-map key -> list of exponent Exprs, keys in first-seen order
    for f in flat:
        if isinstance(f, Rat):
            if f is ZERO:
                return ZERO
            cn, cd = cn * f.num, cd * f.den
            continue
        base, e = _base_exp(f)
        powmap.setdefault(base, []).append(e)
    parts, pieces = [], []
    for key, exps in powmap.items():
        etot = exps[0] if len(exps) == 1 else add(*exps)
        rebuilt = fn("exp", etot) if key is _EXP else pow_(key, etot)
        if isinstance(rebuilt, Rat):
            if rebuilt is ZERO:
                return ZERO
            cn, cd = cn * rebuilt.num, cd * rebuilt.den
        elif isinstance(rebuilt, Mul) or len(exps) > 1 and _base_exp(rebuilt)[0] is not key:
            pieces.append(rebuilt)
        else:
            parts.append(rebuilt)
    if pieces:
        # a merged power came out under other keys ((a*b)^(1/2) squared is a*b,
        # (z^(1/2))^(1/2) squared is z^(1/2)), which the other parts may share
        return mul(*parts, *pieces, _rat(cn, cd))
    c = _rat(cn, cd)
    if c is ZERO or not parts:
        return c
    if len(parts) == 1:
        if c is ONE:
            return parts[0]
        if isinstance(parts[0], Add):
            # a pure scalar multiple of a sum distributes, so that sums cancel
            return _sum(((c, parts[0]),))
    if c is not ONE:
        parts.append(c)
    parts.sort(key=sort_key)
    return parts[0] if len(parts) == 1 else Mul(tuple(parts))


def _perfect_root(n: int, q: int):
    # past n's bit length every root r >= 2 has r**q >= 2**q > n: none to test
    if n < 0 or (n > 1 and q > n.bit_length()):
        return None
    r = round(n ** (1.0 / q)) if n > 0 else 0
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**q == n:
            return cand
    return None


@functools.lru_cache(maxsize=_MEMO)
def pow_(base, exponent) -> Expr:
    b = as_expr(base)
    e = as_expr(exponent)
    if isinstance(e, Rat):
        if e is ZERO:
            return ONE
        if e is ONE:
            return b
        if isinstance(b, Rat):
            n, d, p, q = b.num, b.den, e.num, e.den
            if b is ZERO and p < 0:
                raise ExprError("0 raised to a negative power")
            if q != 1:
                if n <= 0:  # 0, or no real root
                    return ZERO if n == 0 else Pow(b, e)
                n, d = _perfect_root(n, q), _perfect_root(d, q)
                if n is None or d is None:
                    return Pow(b, e)
            return _rat(n**p, d**p) if p > 0 else _rat(d**-p, n**-p)
        if e.den == 1 and isinstance(b, Mul):
            return mul(*(pow_(f, e) for f in b.factors))
        if isinstance(b, Pow):
            p = b.exponent
            # (b^p)^e is b^(p*e), but (b^2)^(1/2) is |b|: an even power stays
            # under a root
            if e.den == 1 or isinstance(p, Rat) and (p.den != 1 or p.num % 2):
                return pow_(b.base, mul(p, e))
        if isinstance(b, Fn) and b.name == "exp":
            return fn("exp", mul(e, b.arg))
    if b is ONE:
        return ONE
    return Pow(b, e)


def _split_log_multiple(term: Expr):
    """Return (base, Rat exponent) if term == r*log(base), else None."""
    if isinstance(term, Fn) and term.name == "log":
        return term.arg, ONE
    if isinstance(term, Mul) and len(term.factors) == 2:
        a, b = term.factors
        if isinstance(a, Rat) and isinstance(b, Fn) and b.name == "log":
            return b.arg, a
    return None


@functools.lru_cache(maxsize=_MEMO)
def fn(name: str, arg) -> Expr:
    a = as_expr(arg)
    if name not in FN_NAMES:
        raise ExprError(f"unknown function {name!r}")
    if name == "exp":
        if a is ZERO:
            return ONE
        if isinstance(a, Fn) and a.name == "log":
            return a.arg
        hit = _split_log_multiple(a)
        if hit is not None:
            return pow_(*hit)
        if isinstance(a, Add):
            pows, rest = [], []
            for t in a.terms:
                h = _split_log_multiple(t)
                if h is not None:
                    pows.append(pow_(*h))
                else:
                    rest.append(t)
            if pows:
                return mul(*pows, Fn("exp", add(*rest)) if rest else ONE)
    elif name == "log":
        if a is ONE:
            return ZERO
        if isinstance(a, Fn) and a.name == "exp":
            return a.arg
        if isinstance(a, Pow) and isinstance(a.exponent, Rat):
            return mul(a.exponent, fn("log", a.base))
    elif name == "sin" or name == "tan":
        if a is ZERO:
            return ZERO
    elif name == "cos":
        if a is ZERO:
            return ONE
    return Fn(name, a)


def opaque(name: str, order: int, arg) -> Expr:
    return Opaque(name, order, as_expr(arg))


# ---------------------------------------------------------------------------
# DAG traversal: every rewrite and leaf query goes through children()

def children(e: Expr) -> tuple:
    """The child nodes of e in constructor order; () for a leaf."""
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base, e.exponent)
    if isinstance(e, (Fn, Opaque)):
        return (e.arg,)
    return ()


def _remake(e: Expr, kids: tuple) -> Expr:
    if isinstance(e, Add):
        return add(*kids)
    if isinstance(e, Mul):
        return mul(*kids)
    if isinstance(e, Pow):
        return pow_(*kids)
    if isinstance(e, Fn):
        return fn(e.name, kids[0])
    if isinstance(e, Opaque):
        return Opaque(e.name, e.order, kids[0])
    return e


def rebuild(e: Expr, visit) -> Expr:
    """Rewrite e bottom-up, visiting each distinct node (by identity) once.

    visit(node, kids) gets the node and its rewritten children and returns the
    node's image, or None to rebuild the node from kids through the
    canonicalizing constructors (a leaf is then kept as it is).  Shared
    subtrees are rewritten once per call, however often they occur.
    """
    memo: dict[int, Expr] = {}

    def walk(x: Expr) -> Expr:
        out = memo.get(id(x))
        if out is None:
            kids = tuple(walk(c) for c in children(x))
            out = visit(x, kids)
            if out is None:
                out = _remake(x, kids)
            memo[id(x)] = out
        return out

    return walk(e)


def _nodes(e: Expr):
    """Each distinct node of e (by identity) once, in no particular order."""
    seen: set[int] = set()
    stack = [e]
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            yield x
            stack.extend(children(x))


# ---------------------------------------------------------------------------
# expansion (distribute products over sums); used by exact-equality checks

def _expand_node(e: Expr, kids: tuple):
    if isinstance(e, Mul):
        sums: list[list[Expr]] = [[ONE]]
        for p in kids:
            terms = list(p.terms) if isinstance(p, Add) else [p]
            sums = [acc + [t] for acc in sums for t in terms]
        return add(*(mul(*combo) for combo in sums))
    if isinstance(e, Pow):
        b, ex = kids
        if isinstance(b, Add) and isinstance(ex, Rat) and ex.den == 1:
            n = ex.num
            # distribute over term tuples; repeated mul() of the whole sum
            # would just re-merge into the power being expanded
            if 0 < n <= 16:
                combos: list[list[Expr]] = [[]]
                for _ in range(n):
                    combos = [acc + [t] for acc in combos for t in b.terms]
                return add(*(mul(*combo) for combo in combos))
            if -16 <= n < 0:
                inner = expand(pow_(b, -n))
                return pow_(inner, MINUS_ONE)
    return None


def expand(e: Expr) -> Expr:
    return rebuild(e, _expand_node)


def equal0(e: Expr) -> bool:
    """True if e expands and canonicalizes to exactly 0."""
    return expand(e) is ZERO


def equal_canonical(a: Expr, b: Expr) -> bool:
    return a == b or equal0(a - b)


# ---------------------------------------------------------------------------
# differentiation

@functools.lru_cache(maxsize=_MEMO)
def _diff1(e: Expr, v: str) -> Expr:
    if isinstance(e, (Rat, Sym)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == v else ZERO
    if isinstance(e, Add):
        return add(*(_diff1(t, v) for t in e.terms))
    if isinstance(e, Mul):
        pieces = []
        fs = e.factors
        for i, f in enumerate(fs):
            df = _diff1(f, v)
            if df is ZERO:
                continue
            pieces.append(mul(df, *fs[:i], *fs[i + 1 :]))
        return add(*pieces) if pieces else ZERO
    if isinstance(e, Pow):
        b, ex = e.base, e.exponent
        dex = _diff1(ex, v)
        db = _diff1(b, v)
        if dex is ZERO:
            return ZERO if db is ZERO else mul(ex, db, pow_(b, ex - 1))
        return mul(e, add(mul(dex, fn("log", b)), mul(ex, db, pow_(b, -1))))
    if isinstance(e, Fn):
        da = _diff1(e.arg, v)
        if da is ZERO:
            return ZERO
        a = e.arg
        if e.name == "exp":
            core = e
        elif e.name == "log":
            core = pow_(a, -1)
        elif e.name == "sin":
            core = fn("cos", a)
        elif e.name == "cos":
            core = mul(MINUS_ONE, fn("sin", a))
        else:  # tan
            core = add(ONE, pow_(fn("tan", a), 2))
        return mul(core, da)
    if isinstance(e, Opaque):
        da = _diff1(e.arg, v)
        return ZERO if da is ZERO else mul(Opaque(e.name, e.order + 1, e.arg), da)
    raise ExprError(f"unexpected node {type(e)}")


def diff(e: Expr, v: str, order: int = 1) -> Expr:
    if order < 0:
        raise ExprError("derivative order must be nonnegative")
    out = e
    for _ in range(order):
        out = _diff1(out, v)
    return out


def differentiate(e: Expr, order: int = 1, v: str | None = None) -> Expr:
    """Differentiate with respect to the expression's variable (unique Var)."""
    if v is None:
        v = _sole_var(e, "ambiguous variable")
    return diff(e, v, order)


# ---------------------------------------------------------------------------
# substitution

def substitute_var(e: Expr, name: str, repl: Expr) -> Expr:
    return rebuild(e, lambda x, kids: repl if isinstance(x, Var) and x.name == name else None)


def substitute_param(e: Expr, name: str, repl: Expr) -> Expr:
    return rebuild(e, lambda x, kids: repl if isinstance(x, Sym) and x.name == name else None)


def substitute_opaque(e: Expr, name: str, repl: Expr, repl_var: str | None = None) -> Expr:
    """Replace the opaque symbol `name` by a concrete expression.

    An occurrence of order k becomes the k-th derivative of `repl` evaluated
    at the occurrence's argument.
    """
    if repl_var is None:
        repl_var = _sole_var(repl, "ambiguous replacement variable")

    def visit(x: Expr, kids: tuple):
        if isinstance(x, Opaque) and x.name == name:
            return substitute_var(diff(repl, repl_var, x.order), repl_var, kids[0])
        return None

    return rebuild(e, visit)


def substitute(e: Expr, target, repl) -> Expr:
    """Dispatching substitution: target may be a Var, a Sym, or an opaque name."""
    repl = as_expr(repl)
    if isinstance(target, Var):
        return substitute_var(e, target.name, repl)
    if isinstance(target, Sym):
        return substitute_param(e, target.name, repl)
    if isinstance(target, str):
        if target in opaque_names(e):
            return substitute_opaque(e, target, repl)
        if target in free_vars(e):
            return substitute_var(e, target, repl)
        return substitute_param(e, target, repl)
    raise ExprError(f"bad substitution target {target!r}")


# ---------------------------------------------------------------------------
# structure queries

def free_vars(e: Expr) -> set[str]:
    return {x.name for x in _nodes(e) if isinstance(x, Var)}


def opaque_names(e: Expr) -> set[str]:
    return {x.name for x in _nodes(e) if isinstance(x, Opaque)}


def _sole_var(e: Expr, what: str) -> str:
    """The unique free variable of e, "_" if it has none; ExprError if several."""
    names = free_vars(e)
    if len(names) > 1:
        raise ExprError(f"{what}: {sorted(names)}")
    return next(iter(names)) if names else "_"


# ---------------------------------------------------------------------------
# numeric evaluation

class NotRationalError(ExprError):
    pass


# evaluate_exact runs one instruction per node, compiled on the node's first
# run and kept on it with the node's values, over reduced (numerator,
# denominator) pairs
_SUM, _POW, _VAR, _RAISE = range(4)


def _instruction(x: Expr) -> tuple:
    """(opcode, argument, values) of x, compiled once.

    A sum's instruction adds its terms, and a constant's, a product's or a
    power's of a constant integer exponent is a sum of one term: a term is a
    constant n/d times factors (base node, integer exponent), a product's
    factors and such powers inlined.  Any other power runs its exponent, then its base.  Sym,
    Fn, Opaque and a constant non-integer exponent raise; nothing below them
    is run.  values maps a point to x's value there, for each point where x
    ran without error; it lives and dies with x.
    """
    t = type(x)
    if t is Add:
        ins = (_SUM, tuple(_term(u) for u in x.terms))
    elif t is Mul or t is Rat or (t is Pow and type(x.exponent) is Rat and x.exponent.den == 1):
        ins = (_SUM, (_term(x),))
    elif t is Pow and type(x.exponent) is Rat:
        ins = (_RAISE, "non-integer exponent")
    elif t is Pow:
        ins = (_POW, (x.exponent, x.base))
    elif t is Var:
        ins = (_VAR, None)
    elif t is Sym:
        ins = (_RAISE, f"parameter {x.name!r} has no rational value")
    else:
        ins = (_RAISE, f"{t.__name__} node is not rational")
    ins += ({},)
    object.__setattr__(x, "_exact", ins)
    return ins


def _term(x: Expr) -> tuple:
    """(n, d, factors) of x as a term of a sum."""
    n, d, fs = 1, 1, []
    for f in x.factors if type(x) is Mul else (x,):
        if type(f) is Rat:
            n, d = n * f.num, d * f.den
        elif type(f) is Pow and type(f.exponent) is Rat and f.exponent.den == 1:
            fs.append((f.base, f.exponent.num))
        else:
            fs.append((f, 1))
    return n, d, tuple(fs)


def _value(x: Expr, at: tuple) -> tuple:
    """The reduced pair of x at the point `at`, running in order the children
    that hold no value there, and kept on x once it has it."""
    op, a, values = x._exact
    if op == _SUM:
        n, d = 0, 1
        for tn, td, fs in a:
            for b, k in fs:
                bn, bd = (b._exact or _instruction(b))[2].get(at) or _value(b, at)
                if k == 1:
                    tn, td = tn * bn, td * bd
                elif k > 0:
                    tn, td = tn * bn**k, td * bd**k
                elif k < 0:
                    if bn == 0:
                        raise ZeroDivisionError("zero base with a negative exponent")
                    tn, td = tn * bd**-k, td * bn**-k
            n, d = n * td + tn * d, d * td
        g = math.gcd(n, d)
        v = (n // g, d // g) if d > 0 else (-n // g, -d // g)
    elif op == _POW:
        k, kd = (a[0]._exact or _instruction(a[0]))[2].get(at) or _value(a[0], at)
        if kd != 1:
            raise NotRationalError("non-integer exponent")
        n, d = (a[1]._exact or _instruction(a[1]))[2].get(at) or _value(a[1], at)
        if k < 0:
            if n == 0:
                raise ZeroDivisionError("zero base with a negative exponent")
            n, d, k = (-d, -n, -k) if n < 0 else (d, n, -k)
        v = (n**k, d**k)  # a power of a reduced pair is reduced
    elif op == _VAR:
        v = at
    else:
        raise NotRationalError(a)
    values[at] = v
    return v


def evaluate_exact(e: Expr, at: Fraction) -> Fraction:
    """Exact rational evaluation; raises NotRationalError on a parameter, on
    transcendental or opaque content and ZeroDivisionError at poles, the
    first exception a tree walk would raise.  Each node keeps its value at
    every point where it ran without error, for its lifetime, so it runs once
    per point however many calls share it, in whatever order they come.
    """
    p = at.as_integer_ratio()
    return Fraction(*((e._exact or _instruction(e))[2].get(p) or _value(e, p)))


class Binding:
    """Numeric values for parameters plus concrete expressions for opaque symbols."""

    def __init__(self, params: dict[str, float] | None = None,
                 funcs: dict[str, Expr] | None = None):
        self.params = dict(params or {})
        self.funcs: dict[str, tuple[str, Expr]] = {}
        self._deriv_cache: dict[tuple[str, int], Expr] = {}
        for name, fe in (funcs or {}).items():
            fe = as_expr(fe)
            v = _sole_var(fe, f"bound function {name!r} has several variables")
            self.funcs[name] = (v, fe)

    def func_derivative(self, name: str, order: int) -> tuple[str, Expr]:
        if name not in self.funcs:
            raise UnboundSymbolError(f"opaque function {name!r} is not bound")
        v, fe = self.funcs[name]
        key = (name, order)
        if key not in self._deriv_cache:
            self._deriv_cache[key] = diff(fe, v, order)
        return v, self._deriv_cache[key]

    def with_params(self, **extra) -> "Binding":
        b = Binding(self.params | extra, {})
        b.funcs = self.funcs
        b._deriv_cache = self._deriv_cache
        return b


EMPTY_BINDING = Binding()


def evaluate(e: Expr, at: float, bind: Binding | None = None) -> float:
    """Value at one point (every Var is the point): a one-point call of the
    batch kernel, raising the exception it records there."""
    return float(values([e], [at], bind)[0, 0])


# ---------------------------------------------------------------------------
# batched evaluation: one walk of the DAG per block of points

_NAN = float("nan")
_BLOCK = 1024  # points per DAG walk: bounds the memory a long grid takes


def _merge(faults) -> np.ndarray | None:
    """Per point, the first fault in child order; None when no point faults."""
    out = None
    for f in faults:
        if f is not None:
            out = f if out is None else np.where(out != 0, out, f)
    return out


def _flag(fault, cond: np.ndarray, errors: list, make):
    """Record make(k), the exception at point k, for each point k where cond
    holds and no earlier fault did; the point's fault indexes it in errors.
    A one-element cond or fault holds at every point (such a fault is never 0,
    so no point is left to flag)."""
    if not cond.any():
        return fault
    new = np.flatnonzero(cond if fault is None else cond & (fault == 0))
    out = np.zeros(len(cond), np.int32) if fault is None else fault.copy()
    out[new] = np.arange(len(errors), len(errors) + len(new))
    errors.extend(make(k) for k in new.tolist())
    return out


def _map(fast, slow, cols: list, fault, errors: list, rows: bool = False):
    """fast(*args) per point without a fault, args taken from cols (columns of
    one element or one per point) as Python floats, so each element goes
    through the CPython/libm routine itself; with rows, fast(args) instead.
    If fast raises anywhere, slow is applied point by point instead, and the
    exception slow raises at a point is recorded there."""
    n = max(map(len, cols))
    idx = None if fault is None else np.flatnonzero(fault == 0)
    args = [itertools.repeat(c.item()) if len(c) < n
            else (c if idx is None else c[idx]).tolist() for c in cols]
    try:
        got = list(map(fast, zip(*args)) if rows else map(fast, *args))
    except (ArithmeticError, ValueError):
        got = None
    if got is None:  # outside the handler, so no exception chains to the fast one's
        got, raised = [], {}
        for k, a in enumerate(zip(*args)):
            try:
                got.append(slow(a) if rows else slow(*a))
            except (ArithmeticError, ValueError) as exc:
                got.append(_NAN)
                raised[k if idx is None else int(idx[k])] = exc.with_traceback(None)
        if raised:
            cond = np.zeros(n, bool)
            cond[list(raised)] = True
            fault = _flag(fault, cond, errors, raised.__getitem__)
    if idx is None:
        return np.array(got, dtype=float), fault
    out = np.full(n, _NAN)
    out[idx] = got
    return out, fault


def _exp1(a: float) -> float:
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def _pow1(base: float, expo: float) -> float:
    try:
        return base**expo
    except OverflowError:
        if base < 0:  # the overflow of a negative base is raised, not inf
            raise
        return math.inf


def values_and_faults(exprs: list, points, bind: Binding | None = None):
    """(V, F, errors): the batch kernel, the one float interpreter.

    V and F have shape (len(points), len(exprs)); every Var is the point.
    Where F[i, j] is 0, V[i, j] is the value of exprs[j] at points[i].
    Otherwise errors[F[i, j]] is the exception evaluation meets there (the
    first in evaluation order: children before their parent, in child order)
    and V[i, j] is meaningless; errors[0] is None.

    Each block of up to _BLOCK points gets a fresh _Context, in which every
    distinct node is evaluated once, over the whole block at once; nothing is
    kept between calls (invariance's point search keeps contexts for a checks
    run).  A node that cannot vary with the point (a Rat, a Sym bound to a
    number, anything built only from them) is a one-element column, computed
    once per block and spread by numpy broadcasting; a fault there records
    one exception for every point of the block.  A Sym bound to an array (in
    invariance's stacked walks, over one block) is that array, one value per
    point.  Mul multiplies in factor order, Add takes math.fsum per point
    over a zip of its term columns, and Pow and the elementary functions call
    the Python/libm routine per element, a one-element operand (such as a
    constant exponent) repeated as a scalar.
    The rules:
    - x^e with e < 0 and |x| < EPS_POLE is a PoleError naming |x|;
    - x^e with x < 0 and e not an integer is an EvalDomainError (round() of a
      non-finite e raises its own error first);
    - log(a) with a <= 0 is an EvalDomainError, with a < EPS_POLE a PoleError;
    - tan(a) with |cos(a)| < EPS_POLE is a PoleError;
    - an unbound parameter or opaque function is an UnboundSymbolError;
    - exp and a power of a non-negative base give inf on overflow; any other
      error a routine raises is recorded as raised, without its traceback.
    Exception objects are built only where a point faults.
    """
    x0 = np.array(points, dtype=float)
    V = np.empty((len(x0), len(exprs)))
    F = np.zeros((len(x0), len(exprs)), np.int32)
    errors: list = [None]
    for start in range(0, len(x0), _BLOCK):
        block = slice(start, start + _BLOCK)
        V[block], F[block] = _walker(x0[block], bind or EMPTY_BINDING, errors).columns(exprs)
    return V, F, errors


class _Context:
    """Memoized columns over the points `at`: ev(x) gives x's read-only
    values and its faults (or None), each node evaluated once for the life of
    the context.  node is _walker's rule function, which holds the binding,
    the errors list and the rational columns.  The memo is keyed by node id,
    so roots holds every expression columns() was given: no key can be reused
    by another node while the context lives.  Nothing refers back to a
    context, so reference counting frees its columns when it is dropped.
    """

    __slots__ = ("at", "node", "errors", "memo", "inner", "roots")

    def __init__(self, at: np.ndarray, node, errors: list):
        self.at, self.node, self.errors = at, node, errors
        self.memo: dict[int, tuple] = {}
        self.inner: dict[int, _Context] = {}
        self.roots: list = []

    def ev(self, x: Expr):
        out = self.memo.get(id(x))
        if out is None:
            out = self.memo[id(x)] = self.node(x, self)
            out[0].flags.writeable = False
        return out

    def columns(self, exprs: list):
        """(V, F) of exprs over the block, as values_and_faults gives them."""
        V = np.empty((len(self.at), len(exprs)))
        F = np.zeros((len(self.at), len(exprs)), np.int32)
        with np.errstate(all="ignore"):
            for j, e in enumerate(exprs):
                out = self.memo.get(id(e))
                if out is None:
                    self.roots.append(e)
                    out = self.ev(e)
                V[:, j], f = out
                if f is not None:
                    F[:, j] = f
        return V, F


def _walker(x0: np.ndarray, b: Binding, errors: list) -> _Context:
    """A context over the points x0 whose nonzero faults index the
    exceptions recorded in errors."""
    rats: dict[Rat, tuple] = {}  # one column per rational value

    def flag(fault, cond, make):
        return _flag(fault, cond, errors, make)

    def fail(fault, make):  # every point without an earlier fault
        return np.full(1, _NAN), flag(fault, np.ones(1, bool), make)

    def value_at(col: np.ndarray, k: int) -> float:  # at point k, also of one element
        return float(col[k if len(col) > 1 else 0])

    def constant(value):
        try:
            return np.full(1, float(value)), None
        except (ArithmeticError, ValueError, TypeError) as exc:
            exc = exc.with_traceback(None)  # its frames would hold this one
            return fail(None, lambda k: exc)

    def round_error(v: float) -> Exception:
        try:
            round(v)  # raises for the non-finite v it is given
        except (OverflowError, ValueError) as exc:
            return exc.with_traceback(None)

    def node(x: Expr, cx: _Context):
        ev = cx.ev
        t = type(x)
        if t is Rat:
            out = rats.get(x)
            if out is None:
                out = rats[x] = constant(x)
            return out
        if t is Mul:
            kids = [ev(f) for f in x.factors]
            out = kids[0][0]
            for v, _ in kids[1:]:  # numpy multiplies by a 0-d array faster than by a (1,) one
                out = out * v if len(out) == len(v) else out.squeeze() * v.squeeze()
            return out, _merge([f for _, f in kids])
        if t is Add:
            kids = [ev(u) for u in x.terms]
            fault = _merge([f for _, f in kids])
            return _map(math.fsum, math.fsum, [v for v, _ in kids], fault, errors, rows=True)
        if t is Var:
            return cx.at, None
        if t is Pow:
            base, bf = ev(x.base)
            expo, ef = ev(x.exponent)
            fault = _merge((bf, ef))
            r = x.exponent if type(x.exponent) is Rat else None
            pole = (lambda k: PoleError(
                f"divisor magnitude {abs(value_at(base, k)):.3e} below pole guard"))
            if r is None:
                fault = flag(fault, (expo < 0) & (np.abs(base) < EPS_POLE), pole)
            elif r.num < 0:
                fault = flag(fault, np.abs(base) < EPS_POLE, pole)
            if r is None or r.den != 1:
                neg = base < 0
                finite = np.isfinite(expo)
                fault = flag(fault, neg & ~finite, lambda k: round_error(value_at(expo, k)))
                fault = flag(fault, neg & finite & (expo != np.floor(expo)), lambda k:
                             EvalDomainError("negative base with non-integer exponent"))
            return _map(pow, _pow1, [base, expo], fault, errors)
        if t is Fn:
            a, fault = ev(x.arg)
            name = x.name
            if name == "exp":
                return _map(math.exp, _exp1, [a], fault, errors)
            if name == "log":
                fault = flag(fault, a <= 0,
                             lambda k: EvalDomainError("log of non-positive value"))
                fault = flag(fault, a < EPS_POLE,
                             lambda k: PoleError("log argument inside pole guard"))
                return _map(math.log, math.log, [a], fault, errors)
            if name == "tan":
                c, fault = _map(math.cos, math.cos, [a], fault, errors)
                fault = flag(fault, np.abs(c) < EPS_POLE, lambda k: PoleError("tan at a pole"))
            f = getattr(math, name)
            return _map(f, f, [a], fault, errors)
        if t is Sym:
            if x.name not in b.params:
                return fail(None, lambda k: UnboundSymbolError(
                    f"parameter {x.name!r} is not bound"))
            value = b.params[x.name]  # an array in a stacked binding: one value per point
            return (value, None) if isinstance(value, np.ndarray) else constant(value)
        if t is Opaque:
            a, fault = ev(x.arg)
            try:
                _, d = b.func_derivative(x.name, x.order)
            except ExprError as exc:
                exc = exc.with_traceback(None)
                return fail(fault, lambda k: exc)
            # an opaque argument's column opens its own context: Var means `a`
            # there, so memo entries and nested contexts never leak between
            # them; arguments with one column share a context
            sub = cx.inner.get(id(a))
            if sub is None:
                sub = cx.inner[id(a)] = _Context(a, cx.node, errors)
            v, df = sub.ev(d)
            fault = _merge((fault, df))
            if fault is not None and len(fault) > len(v):  # a constant of a varying argument
                v = v.repeat(len(fault))
            return v, fault
        return fail(None, lambda k: ExprError(f"unexpected node {type(x)}"))

    return _Context(x0, node, errors)


def values(exprs: list, points, bind: Binding | None = None) -> np.ndarray:
    """Value matrix of shape (len(points), len(exprs)), from the batch kernel,
    at points the caller fixed; evaluate is a one-point call of it.

    If an entry faults, the exception recorded at the first faulting entry in
    the order of a scalar loop (expression by expression, then point by
    point) is raised.  The sampled checks do not call it: each reads the rows
    of its one safe_points search.
    """
    V, F, errors = values_and_faults(exprs, points, bind)
    if F.any():
        raise errors[F.T[F.T != 0][0]]
    return V
