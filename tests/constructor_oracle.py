"""The canonicalizing add and mul as they were before they kept existing nodes:
every term is split and rebuilt, and every coefficient starts from a fresh
Fraction.  Unmemoized, they call each other, and qsusy.expr's pow_ and fn.
The tests hold expr.add and expr.mul to them, by == and by sort_key.
"""

from fractions import Fraction

from qsusy.expr import ONE, ZERO, Add, Fn, Mul, Pow, Rat, as_expr, fn, pow_, sort_key


def _base_exp(f, exp_key):
    if isinstance(f, Pow):
        return f.base, f.exponent
    if isinstance(f, Fn) and f.name == "exp":
        return exp_key, f.arg
    return f, ONE


def _coeff_core(t):
    if isinstance(t, Mul) and isinstance(t.factors[0], Rat):
        rest = t.factors[1:]
        core = rest[0] if len(rest) == 1 else Mul(rest)
        return t.factors[0].value, core
    return Fraction(1), t


def _with_coeff(c, core):
    if c == 1:
        return core
    if isinstance(core, Mul):
        return Mul((Rat(c),) + core.factors)
    return Mul((Rat(c), core))


def add(*terms):
    flat = []
    for t in (as_expr(t) for t in terms):
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    const = Fraction(0)
    groups = {}
    for t in flat:
        if isinstance(t, Rat):
            const += t.value
            continue
        c, core = _coeff_core(t)
        groups[core] = groups.get(core, Fraction(0)) + c
    parts = [_with_coeff(c, core) for core, c in groups.items() if c != 0]
    if const != 0:
        parts.append(Rat(const))
    if not parts:
        return ZERO
    if len(parts) == 1:
        return parts[0]
    parts.sort(key=sort_key)
    return Add(tuple(parts))


def mul(*factors):
    flat = []
    for f in (as_expr(f) for f in factors):
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    coeff = Fraction(1)
    powmap = {}
    order = []
    _EXP = ("exp-sentinel",)
    for f in flat:
        if isinstance(f, Rat):
            if f.value == 0:
                return ZERO
            coeff *= f.value
            continue
        base, e = _base_exp(f, _EXP)
        if base in powmap:
            powmap[base].append(e)
        else:
            powmap[base] = [e]
            order.append(base)
    parts, pieces = [], []
    for key in order:
        exps = powmap[key]
        etot = exps[0] if len(exps) == 1 else add(*exps)
        rebuilt = fn("exp", etot) if key is _EXP else pow_(key, etot)
        if isinstance(rebuilt, Rat):
            if rebuilt.value == 0:
                return ZERO
            coeff *= rebuilt.value
        elif isinstance(rebuilt, Mul):
            pieces.extend(rebuilt.factors)
        elif len(exps) > 1 and _base_exp(rebuilt, _EXP)[0] is not key:
            pieces.append(rebuilt)
        else:
            parts.append(rebuilt)
    if pieces:  # a merged power came out under other keys: they merge again
        return mul(*parts, *pieces, Rat(coeff))
    if coeff == 0:
        return ZERO
    if not parts:
        return Rat(coeff)
    if len(parts) == 1:
        if coeff == 1:
            return parts[0]
        if isinstance(parts[0], Add):
            c = Rat(coeff)
            return add(*(mul(c, t) for t in parts[0].terms))
    if coeff != 1:
        parts.append(Rat(coeff))
    parts.sort(key=sort_key)
    return parts[0] if len(parts) == 1 else Mul(tuple(parts))
