"""Recursive-descent parser and round-tripping pretty printer.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' factor)?
    base   := number | name | '(' expr ')' | name '(' expr ')'

One regex makes the tokens, skipping white space: a number is decimal digits
`\\d` (exactly what `Fraction` reads) with an optional `.` and more; a name
is a letter or `_`, then `\\w` characters, then its primes; any other
character stands alone. A name other than the variable is a parameter; an
applied name is a built-in function or the opaque `f`, whose primes give the
derivative order. ParseError also refuses `b^x` and `exp(x*log(b))`, x
rational, when a rational n/d in b has |x|*log2(max(|n|, d)) or x's
denominator (pow_'s root-test degree) past BIT_BUDGET; a result holding a
rational with log2(max(|n|, d)) past it, which sums and products of allowed
powers build; and a literal past int's digit limit, a constant past float
range or nesting past the stack.
"""

import math
import re
import sys
from fractions import Fraction

from .expr import (Expr, Rat, Sym, Var, Add, Mul, Pow, Fn, Opaque, FN_NAMES, ExprError,
                   add, mul, pow_, fn, opaque, sort_key, _nodes, _split_log_multiple)

OPAQUE = "f"
BIT_BUDGET = 10_000
_TOKEN = re.compile(r"(\d+(?:\.\d*)?)|([^\W\d]\w*'*)|\S")


class ParseError(ExprError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Cursor:
    """Tokens as (kind, token, position), kind 1 a number, 2 a name, else None."""

    def __init__(self, text: str, variable: str):
        self.toks = [(m.lastindex, m.group(), m.start()) for m in _TOKEN.finditer(text)]
        self.toks.append((None, "", len(text)))  # the empty token ends the stream
        self.i, self.v = 0, variable

    def peek(self, part: int = 1):
        return self.toks[self.i][part]

    def take(self, want: str | None = None) -> tuple:
        if want is not None and self.peek() != want:
            raise ParseError(f"expected {want!r}, got {self.peek()[:1]!r}", self.peek(2))
        self.i += 1
        return self.toks[self.i - 1]


def parse(text: str, variable: str = "z") -> Expr:
    """Parse `text` into a canonical Expr in the given variable."""
    c = _Cursor(text, variable)
    try:
        out = _expr(c)
    except (ValueError, OverflowError, RecursionError) as exc:  # see the module doc
        raise ParseError(f"{type(exc).__name__}: {exc}", c.peek(2)) from None
    if c.peek():
        raise ParseError(f"trailing input {text[c.peek(2):]!r}", c.peek(2))
    for x in _nodes(out):  # sums and products of allowed powers can outgrow them
        if isinstance(x, Rat) and _bits(x, 1) > BIT_BUDGET:
            raise ParseError(f"a constant of the result exceeds {BIT_BUDGET} bits", c.peek(2))
    return out


def _expr(c: _Cursor) -> Expr:
    op = c.take()[1] if c.peek() in ("+", "-") else "+"
    terms = [mul(Rat(-1 if op == "-" else 1), _term(c))]
    while c.peek() in ("+", "-"):
        terms.append(mul(Rat(-1 if c.take()[1] == "-" else 1), _term(c)))
    return add(*terms)


def _term(c: _Cursor) -> Expr:
    factors = [_factor(c)]
    while c.peek() in ("*", "/"):
        factors.append(pow_(_factor(c), -1) if c.take()[1] == "/" else _factor(c))
    return mul(*factors)


def _factor(c: _Cursor) -> Expr:
    b = _base(c)
    return _power(b, c.take()[2], _factor(c)) if c.peek() == "^" else b


def _bits(b: Expr, x: Fraction):
    if isinstance(b, Rat):
        m = max(abs(b.num), b.den)
        return max(abs(x) * Fraction(math.log2(m)), x.denominator) if m > 1 else 0
    if isinstance(b, Pow) and isinstance(b.exponent, Rat):
        return _bits(b.base, x * b.exponent.value)
    return max((_bits(f, x) for f in b.factors), default=0) if isinstance(b, Mul) else 0


def _power(b: Expr, pos: int, e: Expr) -> Expr:
    if isinstance(e, Rat) and _bits(b, e.value) > BIT_BUDGET:
        raise ParseError(f"constant power {to_string(Pow(b, e))} exceeds {BIT_BUDGET} bits", pos)
    return pow_(b, e)


def _base(c: _Cursor) -> Expr:
    kind, tok, pos = c.take()
    if tok == "(":
        inner = _expr(c)
        c.take(")")
        return inner
    if kind == 1:
        return Rat(Fraction(tok))
    if kind != 2 or not (tok[0].isalpha() or tok[0] == "_"):
        raise ParseError(f"unexpected character {tok[:1]!r}", pos)
    name, order = tok.rstrip("'"), tok.count("'")
    if c.peek() != "(":
        if order:
            raise ParseError(f"primes require a function application after {name!r}", pos)
        return Var(name) if name == c.v else Sym(name)
    arg = _base(c)  # the parenthesized argument
    if name in FN_NAMES:
        if order:
            raise ParseError(f"primes are not allowed on {name!r}", pos)
        for t in (arg.terms if isinstance(arg, Add) else (arg,)) if name == "exp" else ():
            if hit := _split_log_multiple(t):
                _power(hit[0], pos, hit[1])  # exp makes exp(x*log(b)) b^x
        return fn(name, arg)
    if name == OPAQUE:
        return opaque(name, order, arg)
    raise ParseError(f"unknown function {name!r}", pos)


# ---------------------------------------------------------------------------
# pretty printer

def _digits(n: int) -> str:
    """str(n), also past sys.get_int_max_str_digits(): there n is split by
    divmod with a power of ten, and each part printed in turn."""
    limit = sys.get_int_max_str_digits()
    if not limit or n.bit_length() < 3 * limit:  # under limit digits
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    hi, lo = divmod(abs(n), 10**k)
    return ("-" if n < 0 else "") + _digits(hi) + _digits(lo).zfill(k)


def _pow_str(e: Pow) -> str:
    base = to_string(e.base)
    if isinstance(e.base, (Add, Mul, Pow)) or (isinstance(e.base, Rat) and e.base.num < 0):
        base = f"({base})"
    exp = e.exponent
    if isinstance(exp, Rat) and exp.den == 1 and exp.num >= 0:
        return f"{base}^{_digits(exp.num)}"
    if isinstance(exp, (Sym, Var)):
        return f"{base}^{exp.name}"
    return f"{base}^({to_string(exp)})"


def _mul_str(e: Mul) -> str:
    num, den = [], []
    coeff = Fraction(1)
    for f in e.factors:
        if isinstance(f, Rat):
            coeff *= f.value
        elif isinstance(f, Pow) and isinstance(f.exponent, Rat) and f.exponent.num < 0:
            inv = pow_(f.base, -f.exponent)
            den.append(_atom_str(inv))
        else:
            num.append(_atom_str(f))
    out = ""
    if coeff.numerator != 1 or not num:
        out = _digits(coeff.numerator)
    if num:
        out = "*".join(([out] if out else []) + num)
    if coeff.denominator != 1:
        den.insert(0, _digits(coeff.denominator))
    for d in den:
        out += f"/{d}"
    return out


def _atom_str(e: Expr) -> str:
    s = to_string(e)
    if isinstance(e, (Add, Mul)) or (isinstance(e, Rat) and e.num < 0):
        return f"({s})"
    return s


def to_string(e: Expr) -> str:
    """Render in a form that parses back to an equal canonical Expr."""
    if isinstance(e, Rat):
        return _digits(e.num) if e.den == 1 else f"{_digits(e.num)}/{_digits(e.den)}"
    if isinstance(e, (Sym, Var)):
        return e.name
    if isinstance(e, Fn):
        return f"{e.name}({to_string(e.arg)})"
    if isinstance(e, Opaque):
        primes = "'" * e.order
        return f"{e.name}{primes}({to_string(e.arg)})"
    if isinstance(e, Pow):
        return _pow_str(e)
    if isinstance(e, Mul):
        s = _mul_str(e)
        return s
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(sorted(e.terms, key=sort_key)):
            lead = t.factors[0] if isinstance(t, Mul) else t
            neg = isinstance(lead, Rat) and lead.num < 0
            body = to_string(-t if neg else t)
            if i == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)
    raise ExprError(f"unexpected node {type(e)}")
