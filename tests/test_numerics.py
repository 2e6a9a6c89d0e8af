import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scipy.linalg import eigh_tridiagonal

from qsusy import Binding, EvalError, numerics, parse
from qsusy.numerics import Grid, GridError, fd_spectrum, normalizability_probe
from scalar_oracle import evaluate as scalar_evaluate


def _reference_fd_spectrum(V, grid, k, bind=None):
    """fd_spectrum built node by node with the scalar evaluator."""
    qs = grid.interior()
    vals = np.empty(len(qs))
    for i, q in enumerate(qs):
        try:
            v = scalar_evaluate(V, float(q), bind)
        except EvalError as exc:
            raise GridError(f"potential singular at node q={q}: {exc}") from None
        except (ArithmeticError, ValueError) as exc:
            raise GridError(f"potential cannot be evaluated at node q={q}: "
                            f"{type(exc).__name__}: {exc}") from exc
        if not np.isfinite(v):
            raise GridError(f"potential not finite at node q={q}")
        vals[i] = v
    diag = 1.0 / grid.h**2 + vals
    off = np.full(len(qs) - 1, -0.5 / grid.h**2)
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                            eigvals_only=True)


class TestGrid:
    def test_minimum_points(self):
        with pytest.raises(GridError):
            Grid(0.0, 1.0, 100)

    def test_empty_interval(self):
        with pytest.raises(GridError):
            Grid(1.0, 1.0, 500)

    def test_maximum_points(self):
        # the bound is checked before any node is allocated
        assert Grid(0.0, 1.0, 10**6).n == 10**6
        with pytest.raises(GridError):
            Grid(0.0, 1.0, 10**6 + 1)

    def test_spacing(self):
        g = Grid(0.0, 1.0, 201)
        assert g.h == pytest.approx(0.005)

    @pytest.mark.parametrize("lo, hi", [
        (0.0, 1e-300),     # h^2 underflows to zero
        (0.0, 1e-155),     # h^2 is subnormal and 1/h^2 overflows
        (0.0, 5e-324),     # h itself underflows to zero
        (-1e300, 1e300),   # h^2 overflows
        (-math.inf, 0.0),
    ])
    def test_spacing_whose_inverse_square_is_not_a_finite_float(self, lo, hi):
        with pytest.raises(GridError, match="1/h\\^2"):
            Grid(lo, hi, 2000)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1e-150), (-1e150, 1e150)])
    def test_spacing_near_the_limits(self, lo, hi):
        assert math.isfinite(1.0 / Grid(lo, hi, 2000).h ** 2)


def _tridiagonal(seed, n, scale, split):
    """A random symmetric tridiagonal (diag, off) of order n at the given
    scale, each off-diagonal entry zero with probability split."""
    rng = np.random.default_rng(seed)
    diag = scale * rng.standard_normal(n)
    off = scale * rng.standard_normal(n - 1)
    off[rng.random(n - 1) < split] = 0.0
    return diag, off


class TestEighTridiagonal:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 3000), st.integers(1, 10),
           st.sampled_from([1e-3, 1e-1, 1.0, 10.0, 1e3, 1e6]),
           st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0]))
    def test_matches_scipy_to_the_bit(self, seed, n, k, scale, split):
        # scipy's own function, through scipy.linalg, is the oracle; a split
        # share above 0 makes the matrix fall apart into blocks
        k = min(k, n)
        diag, off = _tridiagonal(seed, n, scale, split)
        want = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                                eigvals_only=True)
        got = numerics.eigh_tridiagonal(diag, off, k)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 300), st.integers(1, 10),
           st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans(), st.data())
    def test_non_finite_input_raises(self, seed, n, k, bad, on_diag, data):
        # LAPACK's dstebz returns some such matrices without a complaint
        k = min(k, n)
        diag, off = _tridiagonal(seed, n, 1.0, 0.0)
        target = diag if on_diag else off
        target[data.draw(st.integers(0, len(target) - 1))] = bad
        with pytest.raises(ValueError):
            eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                             eigvals_only=True)
        with pytest.raises(GridError, match="non-finite"):
            numerics.eigh_tridiagonal(diag, off, k)


class TestFdSpectrum:
    def test_harmonic_oscillator(self):
        ev = fd_spectrum(parse("q^2/2", "q"), Grid(-12.0, 12.0, 4000), 3)
        assert np.abs(ev - np.array([0.5, 1.5, 2.5])).max() < 1e-4

    def test_particle_in_a_box(self):
        ev = fd_spectrum(parse("0", "q"), Grid(0.0, math.pi, 2000), 3)
        want = np.array([0.5, 2.0, 4.5])
        assert np.abs(ev - want).max() < 1e-3

    def test_parameter_binding(self):
        ev = fd_spectrum(parse("omega^2*q^2/2", "q"), Grid(-12.0, 12.0, 2000), 1,
                         Binding(params={"omega": 2.0}))
        assert ev[0] == pytest.approx(1.0, abs=1e-3)

    def test_singular_node_errors_by_default(self):
        with pytest.raises(GridError):
            fd_spectrum(parse("1/q", "q"), Grid(-1.0, 1.0, 999), 1)

    @pytest.mark.parametrize("text", [
        "1/q", "1/q^2 + q", "log(q + 1/2)", "q^(1/2) + 1/(q - 1/2)",
        "exp(exp(exp(2*q)))",   # not finite on the right end
    ])
    def test_singular_grid_matches_scalar_reference(self, text):
        V, grid = parse(text, "q"), Grid(-1.0, 1.0, 999)
        with pytest.raises(GridError) as want:
            _reference_fd_spectrum(V, grid, 3)
        with pytest.raises(GridError) as got:
            fd_spectrum(V, grid, 3)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("text, lo, hi", [
        ("q^1001", -12.0, 12.0),            # a negative base overflows
        ("sin(exp(exp(q)))", 5.0, 12.0),    # sin(inf) is a math domain error
    ])
    def test_node_that_cannot_be_evaluated_is_a_grid_error(self, text, lo, hi):
        V, grid = parse(text, "q"), Grid(lo, hi, 999)
        with pytest.raises(GridError) as want:
            _reference_fd_spectrum(V, grid, 1)
        with pytest.raises(GridError) as got:
            fd_spectrum(V, grid, 1)
        assert str(got.value) == str(want.value)
        cause, want_cause = got.value.__cause__, want.value.__cause__
        assert (type(cause), str(cause)) == (type(want_cause), str(want_cause))

    def test_grid_refinement_second_order(self):
        e_coarse = fd_spectrum(parse("q^2/2", "q"), Grid(-12.0, 12.0, 1000), 1)[0]
        e_fine = fd_spectrum(parse("q^2/2", "q"), Grid(-12.0, 12.0, 2000), 1)[0]
        err_c = abs(e_coarse - 0.5)
        err_f = abs(e_fine - 0.5)
        assert err_f < err_c / 2.0


def _ladders_oracle(domain):
    """The probe's ladders as the written-out formulas: six rungs toward +inf,
    then -inf, then the finite lo and hi."""
    lo, hi = domain
    anchor_lo = lo if math.isfinite(lo) else (min(0.0, hi) - 1.0 if math.isfinite(hi) else -1.0)
    anchor_hi = hi if math.isfinite(hi) else (max(0.0, lo) + 1.0 if math.isfinite(lo) else 1.0)
    base = max(1.0, abs(anchor_hi - anchor_lo))
    ladders = []
    if not math.isfinite(hi):
        ladders.append([(anchor_hi + base * (2**j - 1), anchor_hi + base * (2**(j + 1) - 1))
                        for j in range(6)])
    if not math.isfinite(lo):
        ladders.append([(anchor_lo - base * (2**(j + 1) - 1), anchor_lo - base * (2**j - 1))
                        for j in range(6)])
    width = hi - lo if math.isfinite(lo) and math.isfinite(hi) else base
    if math.isfinite(lo):
        ladders.append([(lo + width / 2**(j + 2), lo + width / 2**(j + 1)) for j in range(6)])
    if math.isfinite(hi):
        ladders.append([(hi - width / 2**(j + 1), hi - width / 2**(j + 2)) for j in range(6)])
    return ladders


_ENDS = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, math.inf, -math.inf])


class TestNormalizability:
    @given(_ENDS, _ENDS)
    @example(-math.inf, math.inf)
    @example(0.0, math.inf)
    @example(-math.inf, -0.0)
    @example(-0.0, 1.0)
    @example(0.1, 0.9)
    @example(-1e308, 1e308)  # a width that overflows
    @settings(max_examples=300, deadline=None)
    def test_the_ladders_are_the_written_out_formulas(self, lo, hi):
        # repr tells signed zeros apart, which == does not
        want = _ladders_oracle((lo, hi))
        got = numerics._ladders((lo, hi))
        assert got == want and repr(got) == repr(want)

    def test_gaussian(self):
        assert normalizability_probe(parse("exp(-q^2)", "q"),
                                     (-math.inf, math.inf)) == "normalizable"

    def test_inverse_gaussian(self):
        assert normalizability_probe(parse("exp(q^2)", "q"),
                                     (-math.inf, math.inf)) == "divergent"

    def test_mild_edge_singularity(self):
        assert normalizability_probe(parse("q^(-1/4)*exp(-q^2/2)", "q"),
                                     (0.0, math.inf)) == "normalizable"

    def test_hard_edge_singularity(self):
        assert normalizability_probe(parse("1/q", "q"), (0.0, 1.0)) == "divergent"

    def test_slow_tail_is_divergent(self):
        # constant tail: every rung contributes equally
        verdict = normalizability_probe(parse("1", "q"), (-math.inf, math.inf))
        assert verdict in ("divergent", "inconclusive")

    def test_marginal_tail_inconclusive(self):
        # |psi|^2 ~ 1/q diverges logarithmically: every rung contributes log 2
        verdict = normalizability_probe(parse("q^(-1/2)", "q"), (1.0, math.inf))
        assert verdict == "inconclusive"

    def test_square_integrable_tail(self):
        assert normalizability_probe(parse("1/q", "q"),
                                     (1.0, math.inf)) == "normalizable"

    def test_the_finite_end_of_a_half_line_is_probed(self):
        # q^(-3/2) is not square-integrable at 0, whichever end 0 is
        for text, domain, want in (("q^(-3/2)*exp(-q^2/2)", (0.0, math.inf), "divergent"),
                                   ("q*exp(-q^2/2)", (0.0, math.inf), "normalizable"),
                                   ("(-q)^(-3/2)*exp(-q^2/2)", (-math.inf, 0.0), "divergent")):
            assert normalizability_probe(parse(text, "q"), domain) == want, text

    def test_radial_sector_growth(self):
        # growing sector element of the radial family
        psi = parse("q^(1/2)*exp(q^2/2)", "q")
        assert normalizability_probe(psi, (0.0, math.inf)) == "divergent"

    @pytest.mark.parametrize("b0", [3.0, 0.5])
    def test_an_overflowing_sum_is_divergent(self, b0):
        # example 1's plus-side eigenfunctions: far out, two of their terms
        # overflow with opposite signs and the kernel's fsum raises
        from qsusy import add, mul
        from qsusy.expr import values_and_faults
        from qsusy.models import algebraic_spectrum, build_example

        model = build_example(1, Binding(params={"alpha": 1.0, "nu": 1.0, "b0": b0}))
        sp = algebraic_spectrum(model, "plus")
        raised = 0
        for coords in sp.coordinates.T:
            psi = add(*(mul(float(c.real), b)
                        for c, b in zip(coords, model.sector_plus.elements)))
            _, fault, errors = values_and_faults([psi], [40.0], model.binding)
            raised += str(errors[fault[0, 0]]) == "-inf + inf in fsum"
            assert normalizability_probe(psi, model.norm_domain, model.binding) == "divergent"
        assert len(sp.eigenvalues) == 3 and raised == (3 if b0 == 3.0 else 2)

    def test_evaluation_error_propagates(self):
        # exp(exp(q)) overflows to inf far out, and sin(inf) raises ValueError
        # inside evaluate; that is not a divergence verdict
        with pytest.raises(ValueError):
            normalizability_probe(parse("sin(exp(exp(q)))", "q"), (0.0, math.inf))


def test_bound_model_potential_matches_scalar_reference():
    from qsusy.models import build_example

    model = build_example(1, Binding(params={"alpha": 1.1, "nu": 0.9, "b0": 3.5}))
    grid = Grid(*model.fd_domain, 2000)
    want = _reference_fd_spectrum(model.V_minus, grid, 6, model.binding)
    got = fd_spectrum(model.V_minus, grid, 6, model.binding)
    assert got.tobytes() == want.tobytes()


def test_fd_agrees_with_algebraic_level():
    from qsusy.models import algebraic_spectrum, build_example

    b = Binding(params={"alpha": 1.0, "nu": 1.0, "b0": 3.0})
    model = build_example(1, b)
    sp = algebraic_spectrum(model, "minus")
    real = sorted(ev.real for ev in sp.eigenvalues)
    lo, hi = model.fd_domain
    fd = fd_spectrum(model.V_minus, Grid(lo, hi, 4000), 6, b)
    # the two normalizable levels appear in the grid spectrum
    for target in (real[1], real[2]):
        assert np.min(np.abs(fd - target)) < 1e-3
