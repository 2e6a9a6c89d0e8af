"""Independent numerical cross-checks: a finite-difference eigensolver on a
uniform grid and a normalizability probe.

The eigensolver is a plain second-order tridiagonal discretization with
Dirichlet ends; it exists to confirm algebraic spectra, not to compete with
production solvers.  Its LAPACK routine comes from scipy's ``_flapack``
alone: ``scipy.linalg`` loads some 300 modules more and doubles the start-up.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .expr import Expr, Binding, EvalError, ExprError, values_and_faults


class GridError(ExprError):
    pass


MAX_NODES = 10**6


# scipy's compiled LAPACK wrappers alone and outside sys.modules; finding
# scipy's directory does not import scipy
_spec = FileFinder(os.path.join(find_spec("scipy").submodule_search_locations[0], "linalg"),
                   (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec("_flapack")
_flapack = module_from_spec(_spec)
_spec.loader.exec_module(_flapack)


@dataclass(frozen=True)
class Grid:
    q_lo: float
    q_hi: float
    n: int = 2000

    def __post_init__(self):
        if not 200 <= self.n <= MAX_NODES:
            raise GridError(f"need 200 to {MAX_NODES} grid points, got {self.n}")
        if not self.q_hi > self.q_lo:
            raise GridError("empty interval")
        with np.errstate(all="ignore"):
            scale = 1.0 / np.float64(self.h) ** 2
        if not 0.0 < scale < math.inf:
            raise GridError(f"grid spacing {self.h:g} out of range: 1/h^2 is {scale:g}")

    @property
    def h(self) -> float:
        return (self.q_hi - self.q_lo) / (self.n - 1)

    def interior(self) -> np.ndarray:
        return np.linspace(self.q_lo, self.q_hi, self.n)[1:-1]


def _column(e: Expr, xs: np.ndarray, bind: Binding | None):
    """The kernel's values, faults and errors for e at xs, and per point
    whether evaluation failed with something other than an EvalError."""
    V, F, errors = values_and_faults([e], xs, bind)
    hard = np.array([err is not None and not isinstance(err, EvalError) for err in errors])
    return V[:, 0], F[:, 0], errors, hard[F[:, 0]]


def fd_spectrum(V: Expr, grid: Grid, k: int = 6, bind: Binding | None = None) -> np.ndarray:
    """Lowest k eigenvalues of -(1/2) d^2/dq^2 + V with Dirichlet ends."""
    if k < 1:
        raise GridError(f"need k >= 1 eigenvalues, got {k}")
    qs = grid.interior()
    vals, fault, errors, hard = _column(V, qs, bind)
    bad = (fault != 0) | ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        err = errors[fault[i]]
        if hard[i]:
            raise GridError(f"potential cannot be evaluated at node q={qs[i]}: "
                            f"{type(err).__name__}: {err}") from err
        if fault[i]:
            raise GridError(f"potential singular at node q={qs[i]}: {err}")
        raise GridError(f"potential not finite at node q={qs[i]}")
    h = grid.h
    diag = 1.0 / h**2 + vals
    off = np.full(len(qs) - 1, -0.5 / h**2)
    return eigh_tridiagonal(diag, off, min(k, len(qs)))


def eigh_tridiagonal(diag: np.ndarray, off: np.ndarray, k: int) -> np.ndarray:
    """The k lowest eigenvalues of the symmetric tridiagonal matrix (diag, off),
    ascending: the dstebz call of scipy.linalg.eigh_tridiagonal(select="i",
    select_range=(0, k - 1), eigvals_only=True), so the same to the bit."""
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise GridError("tridiagonal matrix has a non-finite entry")
    m, w, _, _, info = _flapack.dstebz(diag, off, 2, 0.0, 1.0, 1, k, 0.0, "E")
    if info:
        raise GridError(f"LAPACK dstebz failed with info={info}")
    return w[:m]


def _segment_integral(psi: Expr, bind: Binding | None, lo: float, hi: float) -> float:
    """Composite Simpson of psi^2 over 257 nodes.  A node where psi does not
    evaluate, or overflows, makes the integral infinite; any other error that
    is not an EvalError is raised."""
    n = 257
    xs = np.linspace(lo, hi, n)
    val, fault, errors, hard = _column(psi, xs, bind)
    for err in (errors[f] for f in fault[hard]):  # fsum's ValueError is an overflow too
        if not (isinstance(err, OverflowError) or str(err) == "-inf + inf in fsum"):
            raise err
    with np.errstate(over="ignore"):
        ys = val * val
    if fault.any() or not np.all(np.isfinite(ys)):
        return math.inf
    h = (hi - lo) / (n - 1)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum()))


def _infinite_ladder(start: float, base: float, sign: int) -> list:
    """Rung j: base * (2^j - 1) to base * (2^(j+1) - 1) from start toward sign * inf."""
    return [(start + sign * base * (2**j - 1), start + sign * base * (2**(j + 1) - 1))[::sign]
            for j in range(6)]


def _finite_ladder(end: float, width: float, sign: int) -> list:
    """Rung j: width / 2^(j+2) to width / 2^(j+1) from end toward sign * inf."""
    return [(end + sign * width / 2**(j + 2), end + sign * width / 2**(j + 1))[::sign]
            for j in range(6)]


def _ladders(domain: tuple) -> list:
    """The probe's ladders of six rungs, each rung (lo, hi) by [::sign]: toward
    +inf, -inf, then (an open end may blow up) toward the finite lo and hi."""
    lo, hi = domain
    anchor_lo = lo if math.isfinite(lo) else (min(0.0, hi) - 1.0 if math.isfinite(hi) else -1.0)
    anchor_hi = hi if math.isfinite(hi) else (max(0.0, lo) + 1.0 if math.isfinite(lo) else 1.0)
    base = max(1.0, abs(anchor_hi - anchor_lo))
    width = hi - lo if math.isfinite(lo) and math.isfinite(hi) else base
    infinite = [_infinite_ladder(anchor, base, sign) for end, anchor, sign
                in ((hi, anchor_hi, 1), (lo, anchor_lo, -1)) if not math.isfinite(end)]
    return infinite + [_finite_ladder(end, width, sign)
                       for end, sign in ((lo, 1), (hi, -1)) if math.isfinite(end)]


def normalizability_probe(psi: Expr, domain: tuple, bind: Binding | None = None) -> str:
    """Classify |psi|^2 as 'normalizable', 'divergent', or 'inconclusive'.

    The tail integral is evaluated on a geometric ladder of six rungs toward
    each open or infinite end; the growth ratio of successive rungs decides
    the verdict.
    """
    verdicts = set()
    for ladder in _ladders(domain):
        tails = [_segment_integral(psi, bind, a, b) for a, b in ladder]
        if any(math.isinf(t) for t in tails):
            return "divergent"
        later = [t2 / t1 for t1, t2 in zip(tails, tails[1:]) if t1 > 0][-3:]
        verdicts.add("normalizable" if all(r < 0.9 for r in later) else
                     "divergent" if all(r > 1.1 for r in later) else "inconclusive")
    return ("divergent" if "divergent" in verdicts else
            "inconclusive" if "inconclusive" in verdicts else "normalizable")
