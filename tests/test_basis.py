"""Orthonormal-system checks against independent oracles.

Every numerical claim here is checked against something that does not share
code with the package: Gauss quadrature rules and raw Jacobi polynomials from
scipy.special, closed-form norm constants for the Legendre and Chebyshev
special cases, and exact discrete Fourier orthogonality on periodic grids.
"""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_jacobi, roots_jacobi

from wl1approx.basis import (BasisSpec, ProjectionResult, chebyshev,
                             chebyshev_extrema, eval_basis, eval_deriv,
                             eval_table, fourier, frequencies, jacobi, kappa,
                             leading_indices, legendre, linf_norms,
                             log_weight_mass, nested_rank,
                             project_coefficients)
from wl1approx import basis
from wl1approx.basis import _log_phi_scale
from wl1approx.solver import synthesize

PARAM_GRID = [(-0.5, -0.5), (-0.5, 0.0), (0.0, 0.0), (0.0, 0.5),
              (0.5, 0.5), (1.0, 0.0), (1.0, 1.0), (0.5, -0.5)]


def quadrature_gram(spec, K, Q=120):
    # Rule for the raw weight (1-t)^a (1+t)^b; dividing by the total mass
    # turns it into the probability-measure inner product.
    x, wq = roots_jacobi(Q, spec.alpha, spec.beta)
    T = eval_table(spec, K, x)
    mass = np.exp(log_weight_mass(spec.alpha, spec.beta))
    return (T.conj().T * wq) @ T / mass


def test_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec("hermite")
    with pytest.raises(ValueError):
        jacobi(-1.0, 0.0)
    with pytest.raises(ValueError):
        jacobi(0.0, -1.5)
    assert legendre() == jacobi(0.0, 0.0)
    assert chebyshev() == jacobi(-0.5, -0.5)
    assert fourier().is_complex
    assert not legendre().is_complex


@pytest.mark.parametrize("ab, name", [((np.nan, 0.0), "alpha"),
                                      ((np.inf, 0.0), "alpha"),
                                      ((0.0, np.nan), "beta")])
def test_spec_rejects_non_finite_parameters(ab, name):
    # NaN and +infinity pass the alpha, beta > -1 comparison; both would
    # only fail later, deep in a fit.
    with pytest.raises(ValueError, match="parameter %s must be finite" % name):
        jacobi(*ab)


def test_labels():
    assert legendre().label() == "jacobi:0,0"
    assert chebyshev().label() == "jacobi:-0.5,-0.5"
    assert fourier().label() == "fourier"


def test_weight_mass_closed_forms():
    # int (1-t)^0 (1+t)^0 = 2, int (1-t²)^(-1/2) = pi
    assert abs(np.exp(log_weight_mass(0.0, 0.0)) - 2.0) < 1e-14
    assert abs(np.exp(log_weight_mass(-0.5, -0.5)) - np.pi) < 1e-14


def test_kappa_closed_forms():
    j = np.arange(21)
    np.testing.assert_allclose(kappa(0.0, 0.0, j), 2.0 / (2 * j + 1),
                               rtol=1e-14)
    # degree-0 and degree-1 values by hand: the (-1/2,-1/2) degree-1
    # polynomial is t/2, so its squared arcsine-weight norm is pi/8.
    assert abs(kappa(-0.5, -0.5, 0) - np.pi) < 1e-14
    assert abs(kappa(-0.5, -0.5, 1) - np.pi / 8) < 1e-15
    with pytest.raises(ValueError):
        kappa(0.0, 0.0, -1)


@pytest.mark.parametrize("ab", PARAM_GRID)
def test_kappa_matches_quadrature(ab):
    a, b = ab
    x, wq = roots_jacobi(60, a, b)
    for j in range(21):
        raw = eval_jacobi(j, a, b, x)
        oracle = float(wq @ raw ** 2)
        assert abs(kappa(a, b, j) - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("ab", PARAM_GRID)
def test_jacobi_orthonormal(ab):
    spec = jacobi(*ab)
    G = quadrature_gram(spec, 25)
    assert np.max(np.abs(G - np.eye(25))) < 1e-11


def test_eval_basis_matches_scaled_raw_polynomials():
    rng = np.random.default_rng(7)
    t = rng.uniform(-1, 1, 40)
    for a, b in [(0.0, 0.0), (0.5, 1.0), (-0.5, -0.5)]:
        spec = jacobi(a, b)
        mass = np.exp(log_weight_mass(a, b))
        for i in (1, 2, 5, 12):
            scale = np.sqrt(mass / kappa(a, b, i - 1))
            expect = eval_jacobi(i - 1, a, b, t) * scale
            np.testing.assert_allclose(eval_basis(spec, i, t), expect,
                                       rtol=1e-12, atol=1e-12)


def test_eval_table_consistent_with_eval_basis():
    # Jacobi tables are indexed by 1-based degree order; exponential tables
    # by the stored frequency.
    t = np.linspace(-1, 1, 17)
    for spec in (legendre(), chebyshev(), fourier(), jacobi(1.0, 0.5)):
        T = eval_table(spec, 9, t)
        assert T.shape == (17, 9)
        labels = frequencies(9) if spec.is_complex else np.arange(1, 10)
        for pos, i in enumerate(labels):
            col = eval_basis(spec, int(i), t)
            np.testing.assert_allclose(T[:, pos], col, rtol=1e-13,
                                       atol=1e-13)


@pytest.mark.parametrize("spec", [legendre(), chebyshev(), jacobi(1.0, 0.0),
                                  jacobi(-0.75, -0.75)],
                         ids=lambda s: s.label())
@pytest.mark.parametrize("K", [1, 2, 200])
def test_eval_table_matches_scipy_jacobi(spec, K):
    # scipy's eval_jacobi supplies the raw polynomials; only the unit-norm
    # factor comes from the package.
    t = np.concatenate([[-1.0, 0.0, 1.0],
                        np.random.default_rng(3).uniform(-1, 1, 300)])
    j = np.arange(K)
    expect = (eval_jacobi(j, spec.alpha, spec.beta, t[:, None])
              * np.exp(_log_phi_scale(spec.alpha, spec.beta, j)))
    T = eval_table(spec, K, t)
    assert T.shape == (t.size, K) and T.flags.f_contiguous
    sup = np.max(np.abs(expect), axis=0)
    assert np.all(np.abs(T - expect) <= 1e-11 * sup)


def test_eval_rejects_outside_domain():
    with pytest.raises(ValueError):
        eval_table(legendre(), 4, np.array([1.5]))
    with pytest.raises(ValueError):
        eval_basis(fourier(), 1, np.array([-1.01]))
    with pytest.raises(ValueError):
        eval_table(legendre(), 4, np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        eval_deriv(legendre(), 3, np.array([np.nan]))


def test_fourier_exact_discrete_orthogonality():
    # On the half-open uniform P-point grid the discrete average of
    # phi_j conj(phi_k) is exactly delta_jk for |j-k| < P.
    P, K = 64, 21
    t = -1.0 + 2.0 * np.arange(P) / P
    T = eval_table(fourier(), K, t)
    G = T.conj().T @ T / P
    assert np.max(np.abs(G - np.eye(K))) < 1e-13
    assert np.max(np.abs(np.abs(T) - 1.0)) < 1e-14


def test_fourier_index_is_frequency():
    t = np.array([-0.37, 0.0, 0.9])
    for j in (-3, -1, 0, 2):
        np.testing.assert_allclose(eval_basis(fourier(), j, t),
                                   np.exp(1j * np.pi * j * t), rtol=1e-12)


PHASE_T = np.concatenate([np.random.default_rng(5).uniform(-1, 1, 200),
                          [1.0, -1.0, 0.0, -0.8, 0.3, 1e-300]])


def exact_phasor(t, j):
    # exp(i pi r) with r = t * j mod 2 folded in exact rational arithmetic
    # and rounded once to double.
    r = np.array([float(Fraction(x) * j % 2) for x in t])
    return np.exp(1j * np.pi * r)


def test_reduced_phase_matches_exact_fold():
    # Compared through exp(i pi r), not r itself: a fold that lands just
    # below 0 where the exact one sits just below 2 is the same phase, and
    # 4.5e-16 leaves room for the rounding of pi * 2 in that case.
    freqs = [0, 1, -1, 7, -7, 2047, -2047, 2048, -2048, 40961, 300001]
    r = basis._reduced_phase(PHASE_T, np.array(freqs))
    for col, j in enumerate(freqs):
        err = np.abs(np.exp(1j * np.pi * r[:, col]) - exact_phasor(PHASE_T, j))
        assert np.max(err) <= 4.5e-16, (j, np.max(err))


def test_fourier_large_frequency_matches_exact_fold():
    # A product t * j rounded in double or long double precision is off by
    # many ulps at these frequencies.
    for j, tol in ((300001, 1e-15), (10**9 + 7, 1e-13)):
        err = np.abs(eval_basis(fourier(), j, PHASE_T)
                     - exact_phasor(PHASE_T, j))
        assert np.max(err) <= tol, (j, np.max(err))


@pytest.mark.parametrize("K", [1, 2, 3, 8, 21, 160])
def test_fourier_table_conjugate_pairs(K):
    T = eval_table(fourier(), K, PHASE_T)
    assert T.flags.c_contiguous
    assert np.max(np.abs(np.abs(T) - 1.0)) <= 1e-15
    fr = frequencies(K)
    for j in range(1, (K + 1) // 2):
        np.testing.assert_array_equal(T[:, fr == -j], T[:, fr == j].conj())


def test_frequency_layout():
    np.testing.assert_array_equal(frequencies(5), [-2, -1, 0, 1, 2])
    np.testing.assert_array_equal(frequencies(4), [-2, -1, 0, 1])
    np.testing.assert_array_equal(frequencies(1), [0])
    with pytest.raises(ValueError):
        frequencies(0)


def test_leading_indices_nesting():
    spec = fourier()
    for K in (7, 8, 21):
        fr = frequencies(K)
        for M in range(1, K + 1):
            idx = leading_indices(spec, K, M)
            np.testing.assert_array_equal(fr[idx], frequencies(M))
    np.testing.assert_array_equal(leading_indices(legendre(), 9, 4),
                                  np.arange(4))
    with pytest.raises(ValueError):
        leading_indices(spec, 5, 6)
    with pytest.raises(ValueError):
        leading_indices(spec, 5, 0)


def test_nested_rank():
    np.testing.assert_array_equal(nested_rank(legendre(), 4), [1, 2, 3, 4])
    # freq -2,-1,0,1,2 first appear at sizes 4,2,1,3,5
    np.testing.assert_array_equal(nested_rank(fourier(), 5), [4, 2, 1, 3, 5])
    ranks = nested_rank(fourier(), 12)
    assert sorted(ranks) == list(range(1, 13))


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    t = rng.uniform(-0.9, 0.9, 25)
    step = 1e-5
    for spec in (legendre(), chebyshev(), jacobi(1.0, 0.5), fourier()):
        for i in ([2, 5, 9] if spec.kind == "jacobi" else [-4, -1, 0, 3]):
            d1 = eval_deriv(spec, i, t)
            fd = (eval_basis(spec, i, t + step)
                  - eval_basis(spec, i, t - step)) / (2 * step)
            scale = max(1.0, np.max(np.abs(d1)))
            assert np.max(np.abs(d1 - fd)) < 1e-6 * scale
            d2 = eval_deriv(spec, i, t, order=2)
            fd2 = (eval_basis(spec, i, t + step) - 2 * eval_basis(spec, i, t)
                   + eval_basis(spec, i, t - step)) / step ** 2
            scale2 = max(1.0, np.max(np.abs(d2)))
            assert np.max(np.abs(d2 - fd2)) < 1e-4 * scale2


@pytest.mark.parametrize("order", [1, 2])
def test_jacobi_derivative_factor_is_closed_form(order):
    # d/dt P_j^(a,b) = (j + a + b + 1) / 2 * P_{j-1}^(a+1,b+1) (DLMF
    # 18.9.15), applied order times.  The factor holds to rounding even at
    # j = 2080, where one taken through log-gamma values near 1e4 is off by
    # 3e-13 (order 1) and 8e-13 (order 2).
    a, b, j = 2.0, 0.5, 2080
    t = np.linspace(-0.9, 0.9, 7)
    factor = np.exp(_log_phi_scale(a, b, j))
    for k in range(order):
        factor *= (j + a + b + 1.0 + k) / 2.0
    shifted = next(basis._jacobi_row_blocks(a + order, b + order, t,
                                            [(0, j - order + 1)]))[-1]
    np.testing.assert_allclose(eval_deriv(jacobi(a, b), j + 1, t, order),
                               factor * shifted, rtol=1e-14)


def test_fourier_derivative_identity():
    t = np.linspace(-1, 1, 9)
    for j in (-5, 2):
        for order in (1, 2):
            expect = (1j * np.pi * j) ** order * np.exp(1j * np.pi * j * t)
            np.testing.assert_allclose(eval_deriv(fourier(), j, t, order),
                                       expect, rtol=1e-12)
    np.testing.assert_allclose(eval_deriv(fourier(), 3, t, order=0),
                               eval_basis(fourier(), 3, t), rtol=1e-13)
    with pytest.raises(ValueError):
        eval_deriv(fourier(), 1, t, order=3)


def test_chebyshev_extrema_is_shared_and_read_only():
    grid = chebyshev_extrema(50)
    np.testing.assert_array_equal(grid,
                                  np.cos(np.pi * np.arange(50) / 49)[::-1])
    assert chebyshev_extrema(50) is grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        chebyshev_extrema(1)


def test_linf_norm_closed_forms():
    # Legendre sup is at the right endpoint: sqrt(2 degree + 1).
    norms = linf_norms(legendre(), 8)
    np.testing.assert_allclose(norms, np.sqrt(2 * np.arange(1, 9) - 1),
                               rtol=1e-12)
    cheb = linf_norms(chebyshev(), 6)
    assert abs(cheb[0] - 1.0) < 1e-12
    np.testing.assert_allclose(cheb[1:], np.sqrt(2), rtol=1e-12)
    np.testing.assert_allclose(linf_norms(fourier(), 7), 1.0, rtol=1e-14)


@pytest.mark.parametrize("ab", [(0.25, 0.75), (1.0, 0.0), (-0.4, 0.3),
                                (-0.75, -0.75), (-0.9, -0.6)])
def test_linf_norm_bounds_dense_grid(ab):
    spec = jacobi(*ab)
    t = np.cos(np.pi * np.arange(4001) / 4000)
    T = np.abs(eval_table(spec, 10, t))
    dense = T.max(axis=0)
    norms = linf_norms(spec, 10)
    # A sup norm can exceed a grid max, never undercut it.
    assert np.all(norms >= dense * (1 - 1e-9))
    np.testing.assert_allclose(norms, dense, rtol=1e-4)


def _scalar_golden_max(fn, lo, hi, tol=1e-10):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fn(x1)
    return max(f1, f2)


@pytest.mark.parametrize("ab", [(-0.75, -0.75), (-0.9, -0.6), (-0.55, -0.99)])
def test_interior_linf_norms_match_scalar_search(ab):
    # Reference: one golden-section search per function on eval_basis,
    # from the bracket around its maximum on the same Chebyshev grid.  The
    # arithmetic is the same, so the values must agree exactly.
    spec, K = jacobi(*ab), 17
    grid = np.cos(np.pi * np.arange(4096) / 4095)[::-1]
    table = np.abs(eval_table(spec, K, grid))
    expect = []
    for i in range(K):
        best = int(np.argmax(table[:, i]))
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
        expect.append(_scalar_golden_max(
            lambda x: abs(eval_basis(spec, i + 1, x)[0]), lo, hi))
    np.testing.assert_array_equal(linf_norms(spec, K), expect)


@pytest.mark.parametrize("K, block", [(17, 5), (33, 32), (100, 32)])
def test_interior_linf_norms_blocked_equal_dense(K, block, monkeypatch):
    # The bracket pass takes blocks of degrees; one block of all K degrees
    # is the whole (4096, K) table, and the norms must be the same bits.
    # The uncached search is called, since linf_norms keeps its result.
    spec, search = jacobi(-0.75, -0.75), basis._jacobi_sup_norms.__wrapped__
    monkeypatch.setattr(basis, "_TABLE_BLOCK", block)
    blocked = search(spec, K)
    monkeypatch.setattr(basis, "_TABLE_BLOCK", K)
    np.testing.assert_array_equal(blocked, search(spec, K))


@pytest.mark.parametrize("spec", [jacobi(-0.75, -0.75), jacobi(1, 0)],
                         ids=lambda s: s.label())
def test_linf_norms_search_once_per_spec_and_K(spec):
    # linf_norms keeps each (spec, K) it has searched as one read-only
    # array, with the bits of a fresh search; a repeated pair returns that
    # array and does not search again.
    search = basis._jacobi_sup_norms
    fresh = {K: search.__wrapped__(spec, K) for K in (5, 8, 12, 20)}
    search.cache_clear()
    kept = {}
    for K in (12, 5, 12, 20, 8, 20):
        norms = linf_norms(spec, K)
        np.testing.assert_array_equal(norms, fresh[K])
        assert not norms.flags.writeable
        assert kept.setdefault(K, norms) is norms
    assert search.cache_info().misses == 4


def test_linf_norms_default_sweep_searches_once_per_K(monkeypatch):
    # The default Jacobi weight sweep builds weights at K = 4N for
    # N = 10, 20, 40, 80, then again from K = 40 for its next gamma: four
    # interior searches, each taking one Chebyshev grid, and the repeat
    # returns the first K = 40 array itself.
    grids = []
    grid = basis.chebyshev_extrema
    monkeypatch.setattr(basis, "chebyshev_extrema",
                        lambda n: grids.append(n) or grid(n))
    basis._jacobi_sup_norms.cache_clear()
    spec = jacobi(-0.75, -0.75)
    first = linf_norms(spec, 40)
    for K in (80, 160, 320):
        linf_norms(spec, K)
    assert linf_norms(spec, 40) is first
    assert not first.flags.writeable
    assert len(grids) == 4


def test_interior_linf_norms_build_no_square_table(monkeypatch):
    # Both parameters below -1/2 put the maxima inside the interval.  Each
    # golden-section step keeps the diagonals of blocks of degrees over
    # the K points, so neither eval_table nor any (K, K) array is built:
    # the peak stays below half of one such table (8.7 MB at K = 1040).
    def no_table(*args):
        raise AssertionError("eval_table called")

    monkeypatch.setattr(basis, "eval_table", no_table)
    basis._jacobi_sup_norms.cache_clear()
    K = 1040
    tracemalloc.start()
    try:
        norms = linf_norms(jacobi(-0.75, -0.75), K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert norms.shape == (K,) and np.all(norms >= 1.0)
    assert peak <= 0.5 * K * K * 8, peak


def test_projection_recovers_basis_functions():
    spec = legendre()
    res = project_coefficients(lambda t: eval_basis(spec, 4, t), spec, 8)
    assert isinstance(res, ProjectionResult)
    assert res.converged
    expect = np.zeros(8)
    expect[3] = 1.0
    np.testing.assert_allclose(res.coeffs, expect, atol=1e-12)

    fres = project_coefficients(lambda t: np.exp(2j * np.pi * t), fourier(), 7)
    assert fres.converged
    idx = np.flatnonzero(frequencies(7) == 2)[0]
    e = np.zeros(7, dtype=complex)
    e[idx] = 1.0
    np.testing.assert_allclose(fres.coeffs, e, atol=1e-12)


def test_projection_reconstructs_smooth_function():
    # The pole pair at +-i/5 puts the Bernstein ellipse parameter near 1.22,
    # so 120 retained terms leave a truncation tail around 5e-11.
    spec = chebyshev()
    f = lambda t: 1.0 / (1.0 + 25 * t ** 2)
    res = project_coefficients(f, spec, 120)
    assert res.converged and res.nodes >= 120
    t = np.linspace(-1, 1, 501)
    approx = eval_table(spec, 120, t) @ res.coeffs
    assert np.max(np.abs(approx - f(t))) < 1e-8


def _runge(t):
    return 1.0 / (1.0 + 25 * t ** 2)


# Projection sizes: one block, one block and a tail of 1, 2 or 3 rows, and
# many blocks.
PROJECTION_MS = [1, 2, basis._TABLE_BLOCK - 1, basis._TABLE_BLOCK + 1, 34, 35,
                 65, 520]
PROJECTION_SPECS = [legendre(), chebyshev(), jacobi(1.0, 0.0),
                    jacobi(-0.75, -0.75), fourier()]
# Projection errors, in units of eps times the scale of the projected
# function.  At the cases below the worst ratios were 88 for expansions
# (Fourier, M = 520; Chebyshev 13, jacobi(1, 0) 6.4) and 304 for plane
# waves (M = 520; 302 before the Fourier sums were folded), the same on
# one and on two BLAS threads.
EXPANSION_ACCURACY = 256
PLANE_WAVE_ACCURACY = 1024
# scipy's Gauss weights for these rules are off by far more than rounding,
# so the projection stops unconverged or misses the bound (FOUND 34).
SCIPY_WEIGHTS = pytest.mark.xfail(
    strict=True, reason="scipy's Gauss weights (FOUND 34): unconverged or "
    "inaccurate projection")
ACCURACY_CASES = (
    [(spec, M) for spec in (chebyshev(), fourier()) for M in PROJECTION_MS]
    + [(jacobi(1.0, 0.0), M) for M in PROJECTION_MS[:-1]]
    + [pytest.param(spec, M, marks=SCIPY_WEIGHTS)
       for spec, M in ((legendre(), 520), (jacobi(1.0, 0.0), 520),
                       (jacobi(-0.75, -0.75), 2))])


def _expansion(spec, M):
    # f = sum_k z_k phi_k with z_k = +-0.9^rank, and z.
    rank = nested_rank(spec, M)
    z = np.random.default_rng(0).choice([-1.0, 1.0], M) * 0.9 ** rank
    return (lambda t: synthesize(z, spec, t)), z


@pytest.mark.parametrize("spec, M", ACCURACY_CASES,
                         ids=lambda a: a.label() if isinstance(a, BasisSpec)
                         else str(a))
def test_projection_recovers_expansion(spec, M, monkeypatch):
    # The coefficients of f = sum_k z_k phi_k, z_k = +-0.9^rank, are z, so
    # its projection must give z back up to rounding: of the samples of f,
    # of the basis values and of the quadrature sum.  Every passing case
    # converges at 2080 nodes or fewer; the cap stops the M = 520 ladders
    # on scipy's weights at 4160 nodes instead of 8320.
    monkeypatch.setattr(basis, "STOP_DOUBLING_AT_ORDER", 4160)
    f, z = _expansion(spec, M)
    scale = np.sum(np.abs(z) * linf_norms(spec, M))
    res = project_coefficients(f, spec, M)
    err = np.max(np.abs(res.coeffs - z))
    assert res.converged, res.nodes
    assert err <= EXPANSION_ACCURACY * np.finfo(float).eps * scale, err


@pytest.mark.parametrize("M", PROJECTION_MS)
def test_fourier_projection_of_plane_wave(M):
    # The coefficient of frequency j of exp(i pi a t) is sinc(a - j), and
    # for a half-integer a it is +-1 / (pi (a - j)), rounded once.
    for a in (0.5, 10.5, -99.5):
        res = project_coefficients(lambda t: np.exp(1j * np.pi * a * t),
                                   fourier(), M)
        d = a - frequencies(M)
        exact = (-1.0) ** np.abs(d - 0.5) / (np.pi * d)
        err = np.max(np.abs(res.coeffs - exact))
        assert res.converged, (a, res.nodes)
        assert err <= PLANE_WAVE_ACCURACY * np.finfo(float).eps, (a, err)


def test_projection_ladder_verdict_and_nodes(monkeypatch):
    # An expansion of degree < M times phi_k has degree < 2M - 1, so the
    # first rule, max(64, 2M) nodes, and its doubling integrate it
    # exactly: the loop must stop, converged, at the first doubling.  No
    # rule is exact for the exponentials, so their case is a measured one:
    # runge25 at M = 33 converges one doubling later.
    cases = [(spec, M, _expansion(spec, M)[0], nodes)
             for spec, M, nodes in ((legendre(), 33, 132),
                                    (chebyshev(), 33, 132),
                                    (jacobi(1.0, 0.0), 33, 132),
                                    (jacobi(-0.75, -0.75), 2, 128))]
    cases.append((fourier(), 33, _runge, 264))
    for spec, M, f, nodes in cases:
        res = project_coefficients(f, spec, M)
        assert (res.converged, res.nodes) == (True, nodes), spec.label()
    # |t|^3 never converges.  Its ladder for M = 80 runs 160, 320, ... and
    # stops at the first order at or above the cap: at the cap itself, and
    # past a cap that falls between two orders.
    for cap in (320, 200):
        monkeypatch.setattr(basis, "STOP_DOUBLING_AT_ORDER", cap)
        res = project_coefficients(lambda t: np.abs(t) ** 3, legendre(), 80)
        assert (res.converged, res.nodes) == (False, 320), cap


@pytest.mark.parametrize("spec", [jacobi(1.0, 0.0), fourier()],
                         ids=lambda s: s.label())
def test_projection_peak_memory_is_one_table(spec):
    # At M = 520 the projection converges at Q = 2080 nodes.  No (Q, M)
    # table is built: the Jacobi recurrence and block buffers, and the
    # exponentials' phasor set, block buffer and folded data at Q / 2
    # nodes, stay below a quarter of the table's bytes.
    M, Q = 520, 2080
    project_coefficients(_runge, spec, M)  # the Gauss rules are cached now
    tracemalloc.start()
    try:
        res = project_coefficients(_runge, spec, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged and res.nodes == Q
    table_bytes = Q * M * (16 if spec.is_complex else 8)
    assert peak <= 0.25 * table_bytes


# PHASE_T's nonzero |t| and their negatives: nodes with x == -x[::-1]
# exactly, as the folded Fourier sums need.
_POSITIVE_T = np.unique(np.abs(PHASE_T[PHASE_T != 0.0]))
SYMMETRIC_T = np.concatenate([-_POSITIVE_T[::-1], _POSITIVE_T])
# Entries of the folded Fourier sums, by angle addition, against
# eval_table's, in eps: at most 7.5 for M = 1 ... 2080 on SYMMETRIC_T.
FOURIER_ENTRY_ACCURACY = 16


@pytest.mark.parametrize("M", PROJECTION_MS)
def test_projection_blocks_hold_table_entries(M, monkeypatch):
    # Column k of the identity picks row k of the table out of the block
    # sums exactly, at any BLAS thread count: one nonzero term, the others
    # 0.  So the Jacobi blocks must cover every row once and hold
    # eval_table's entries, each row scaled by its own degree.
    eye = np.eye(PHASE_T.size)
    for spec in PROJECTION_SPECS[:-1]:
        table = eval_table(spec, M, PHASE_T)
        sums = basis._projection(spec, M, PHASE_T, eye)
        assert np.array_equal(sums, table.T), spec.label()
    # The folded Fourier sums pick one phasor entry the same way.  Each
    # |j| = 0 ... M // 2 must come from one block of the k-phasor set and
    # one m0 column, once; rows +-j must be exact conjugates, since both
    # come from one phasor column, and so must the columns of nodes +-p;
    # and every entry must be within a few eps of conj(eval_table).
    calls = []
    phasors = basis._phasors

    def recorded(t, freqs, half, out):
        calls.append(list(freqs))
        return phasors(t, freqs, half, out)

    monkeypatch.setattr(basis, "_phasors", recorded)
    sums = basis._fourier_projection(M, SYMMETRIC_T, np.eye(SYMMETRIC_T.size))
    half = M // 2
    steps, starts = calls[0], [m0 for (m0,) in calls[1:]]
    assert steps == list(range(min(basis._TABLE_BLOCK, half + 1)))
    covered = [m0 + k for m0 in starts for k in steps if m0 + k <= half]
    assert covered == list(range(half + 1))
    m = np.arange(1, M - half)  # both of +-m stored
    assert np.array_equal(sums[half - m], np.conj(sums[half + m]))
    assert np.array_equal(sums, np.conj(sums[:, ::-1]))
    table = np.conj(eval_table(fourier(), M, SYMMETRIC_T))
    err = np.max(np.abs(sums - table.T))
    assert err <= FOURIER_ENTRY_ACCURACY * np.finfo(float).eps, err


def test_fourier_projection_rejects_asymmetric_nodes():
    # The fold pairs node i with node Q - 1 - i; it must never sum over a
    # node set where these are not exact negatives.
    v = np.ones(4)
    for x in (np.array([-0.5, -0.25, 0.25, 0.5 + 2 ** -53]),
              np.array([-0.5, 0.0, 0.5])):
        with pytest.raises(ValueError):
            basis._fourier_projection(3, x, v[:x.size])


def test_fourier_projection_phasor_count(monkeypatch):
    # Per refinement with Q nodes, the folded sums evaluate the phasors
    # at the Q / 2 positive nodes only: the set k = 0 ... 31 once and one
    # column per block of 32 |j| values, not Q M entries.
    entries = {}
    phasors = basis._phasors

    def counted(t, freqs, half, out):
        entries[t.size] = entries.get(t.size, 0) + out.size
        return phasors(t, freqs, half, out)

    monkeypatch.setattr(basis, "_phasors", counted)
    M = 520
    res = project_coefficients(_runge, fourier(), M)
    blocks = -(-(M // 2 + 1) // basis._TABLE_BLOCK)
    assert sorted(entries) == [res.nodes // 4, res.nodes // 2]
    for n, count in entries.items():
        assert count <= n * (basis._TABLE_BLOCK + blocks), (n, count)


@pytest.mark.parametrize("M", [2, 33, 520])
def test_fourier_projection_of_real_function_is_conjugate_symmetric(M):
    # A real f has c_-j = conj(c_j).  The fold gives C_m + i S_m and
    # C_m - i S_m from one real pair (C_m, S_m), so the pair is exact.
    res = project_coefficients(
        lambda t: np.exp(t) / (1.0 + 25 * (t - 0.3) ** 2), fourier(), M)
    half = M // 2
    m = np.arange(1, M - half)
    assert np.array_equal(res.coeffs[half - m], np.conj(res.coeffs[half + m]))
    assert np.any(res.coeffs.imag != 0.0)


def _two_copy_table_sums(f, spec, M, Q):
    # The Q-node sums of f against eval_table's (Q, M) array, copied to C
    # order and, for the exponentials, conjugated into a second copy; its
    # blocks of _TABLE_BLOCK columns are multiplied by the weighted samples
    # one at a time, as project_coefficients sums the Jacobi families.
    ab = (0.0, 0.0) if spec.is_complex else (spec.alpha, spec.beta)
    x, w = basis._jacobi_rule(Q, *ab)
    table = np.ascontiguousarray(eval_table(spec, M, x))
    if spec.is_complex:
        table = table.conj()
    v = w * f(x)
    return np.concatenate([table[:, r0:r0 + basis._TABLE_BLOCK].T @ v
                           for r0 in range(0, M, basis._TABLE_BLOCK)])


# Past one block the jacobi(-0.75, -0.75) ladders of runge25 never
# converge and spend seconds in scipy's roots_jacobi (ROADMAP item 2); the
# block test above covers that family's blocks at these sizes.
TWO_COPY_CASES = [
    pytest.param(spec, M, id="%s-%d" % (spec.label(), M))
    for spec in PROJECTION_SPECS for M in PROJECTION_MS
    if M != 65 and (spec.label() != "jacobi:-0.75,-0.75"
                    or M <= basis._TABLE_BLOCK)]


# The folded Fourier sums take other entries (within
# FOURIER_ENTRY_ACCURACY eps) and another summation order than the
# whole-table sums, so they agree with them within this many eps times
# sum_q |w_q f(x_q)|.  Worst measured: 7.3 for runge25 at M = 520, 36 at
# M = 2080.
FOURIER_SUM_ACCURACY = 64


@pytest.mark.parametrize("spec, M", TWO_COPY_CASES)
def test_projection_is_bit_identical_to_two_copy_table(spec, M):
    # The Jacobi block sums hold the entries of the whole table and run the
    # same gemv per block, so at the order the projection stops every
    # coefficient must match the whole-table sums exactly.  The Fourier
    # sums must match them within FOURIER_SUM_ACCURACY.  Either way the
    # verdict must be the stopping rule applied to the whole-table sums of
    # that order and of the order before.
    res = project_coefficients(_runge, spec, M)
    cur = _two_copy_table_sums(_runge, spec, M, res.nodes)
    if spec.is_complex:
        x, w = basis._jacobi_rule(res.nodes, 0.0, 0.0)
        bound = FOURIER_SUM_ACCURACY * np.finfo(float).eps \
            * np.sum(np.abs(w * _runge(x)))
        assert np.max(np.abs(res.coeffs - cur)) <= bound
    else:
        assert np.array_equal(res.coeffs, cur), \
            np.flatnonzero(res.coeffs != cur).tolist()
    prev = _two_copy_table_sums(_runge, spec, M, res.nodes // 2)
    scale = max(1.0, float(np.max(np.abs(cur))))
    close = np.max(np.abs(cur - prev)) <= basis.PROJECTION_TOL * scale
    assert res.converged == close, res.nodes
    assert close or res.nodes >= basis.STOP_DOUBLING_AT_ORDER, res.nodes


@pytest.mark.parametrize("Q", [64, 130, 1040, 2080])
def test_legendre_rule_is_exactly_symmetric(Q):
    # The folded Fourier sums pair each node with its negative, so the
    # Legendre rule must stay symmetric bit for bit, whatever formula
    # builds it.
    x, w = basis._jacobi_rule(Q, 0.0, 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_jacobi_rule_is_read_only():
    # A function that writes to its argument must not corrupt the cached
    # rule that every later projection reads.
    x, w = basis._jacobi_rule(64, 1.0, 0.0)
    assert not x.flags.writeable and not w.flags.writeable
    before = project_coefficients(_runge, jacobi(1.0, 0.0), 8)

    def scribble(t):
        t *= 0.5
        return t

    with pytest.raises(ValueError):
        project_coefficients(scribble, jacobi(1.0, 0.0), 8)
    after = project_coefficients(_runge, jacobi(1.0, 0.0), 8)
    assert np.array_equal(before.coeffs, after.coeffs)


# Legendre and alpha != beta rules are built by the package, with scipy's
# algorithm and arithmetic order; odd orders put a node at 0, where scipy's
# Legendre values switch from the recurrence to a power series.  Bit
# identity was checked on x86-64 with scipy 1.17.1 only: a scipy build
# whose compiler fuses the scalar loops' multiply-adds could round
# differently and fail these tests with nothing wrong in the package.
RULE_PARAMS = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 0.5), (0.5, -0.25)]
RULE_ORDERS = [64, 65, 130, 1040, 2080]


@pytest.mark.parametrize("Q", RULE_ORDERS)
@pytest.mark.parametrize("ab", RULE_PARAMS, ids=str)
def test_gauss_rule_is_bit_identical_to_scipy(ab, Q):
    x, w = basis._gauss_jacobi(Q, *ab)
    xs, ws = roots_jacobi(Q, *ab)
    assert np.array_equal(x, xs), np.flatnonzero(x != xs).tolist()
    assert np.array_equal(w, ws), np.flatnonzero(w != ws).tolist()


@pytest.mark.parametrize("ab", [(1000.5, 0.5), (0.5, -0.5)], ids=str)
def test_gauss_rule_branches_are_bit_identical_to_scipy(ab):
    # alpha + beta > 1000 takes the weight mass from exp(betaln) and
    # alpha + beta = 0 its own diagonal, as scipy does.
    x, w = basis._gauss_jacobi(64, *ab)
    xs, ws = roots_jacobi(64, *ab)
    assert np.array_equal(x, xs) and np.array_equal(w, ws)


@pytest.mark.parametrize("ab, scipy_calls", [((-0.75, -0.75), 1),
                                             ((-0.5, -0.5), 1),
                                             ((0.0, 0.0), 0),
                                             ((1.0, 0.0), 0)])
def test_gauss_rule_source(monkeypatch, ab, scipy_calls):
    # alpha = beta != 0 stays on scipy's Gegenbauer and Chebyshev rules.
    calls = []

    def counting(*args):
        calls.append(args)
        return roots_jacobi(*args)

    monkeypatch.setattr(basis, "roots_jacobi", counting)
    x, w = basis._jacobi_rule.__wrapped__(64, *ab)
    assert len(calls) == scipy_calls
    xs, ws = roots_jacobi(64, *ab)
    assert np.array_equal(x, xs)
    assert np.array_equal(w, ws * np.exp(-log_weight_mass(*ab)))


def test_command_line_import_leaves_out_scipy_linalg():
    # The rule builder imports scipy.linalg when it first runs, as scipy
    # does, so that start-up does not pay for it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(basis.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, wl1approx.cli; "
            "sys.exit('scipy.linalg' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], env=env)
    assert res.returncode == 0, "importing wl1approx.cli loads scipy.linalg"


def test_recurrence_tables_are_shared_and_read_only():
    # Keyed by exactly (alpha, beta, K): the cached values are those a
    # fresh computation gives, and callers cannot change them.
    scale = basis._phi_scale(1.0, 0.0, 9)
    assert basis._phi_scale(1.0, 0.0, 9) is scale
    assert np.array_equal(scale, np.exp(_log_phi_scale(1.0, 0.0, np.arange(9))))
    coeffs = basis._jacobi_coeffs(-0.75, -0.75, 12)
    assert basis._jacobi_coeffs(-0.75, -0.75, 12) is coeffs
    for arr in (scale, *coeffs):
        assert not arr.flags.writeable


@pytest.mark.parametrize("rows", [1, 2, 5, 40])
def test_recurrence_blocks_match_one_block(rows):
    # Any block size gives the rows of the single-block table, bit for bit.
    t = np.linspace(-1, 1, 37)
    full = next(basis._jacobi_row_blocks(0.5, -0.25, t, [(0, 40)]))
    bounds = [(j0, min(j0 + rows, 40)) for j0 in range(0, 40, rows)]
    blocks = [P.copy() for P in
              basis._jacobi_row_blocks(0.5, -0.25, t, bounds)]
    assert np.array_equal(np.concatenate(blocks), full)
