"""Weighted-l1 solver: optimality, feasibility, covariance, degeneracy.

The ground truth for optimality is an exact linear-programming
reformulation solved by an independent backend (HiGHS); everything else is
checked against hand-solvable instances or structural properties that hold
for every run (interpolation, scaling covariance, monotone monitoring).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from problems import problem, runge
from wl1approx import basis as basis_module, solver as solver_module
from wl1approx.basis import (chebyshev, chebyshev_extrema, eval_table,
                             fourier, jacobi, leading_indices, legendre,
                             linf_norms)
from wl1approx.experiments import get_function
from wl1approx.grid import generate
from wl1approx.solver import (MAX_ITER, STATUS_CONVERGED, STATUS_INFEASIBLE,
                              STATUS_MAX_ITER, TOL_GAP, SamplingProblem,
                              l1_objective, lp_oracle, make_problem,
                              oracle_least_squares, solve_least_squares,
                              solve_weighted_l1, sup_error, synthesize)


def cospi_expsin(t):
    return np.cos(np.pi * t) * np.exp(np.sin(np.pi * t))


def test_make_problem_scales_samples():
    p = problem(legendre(), 5, 5, relax=True)
    ps = p.A.pointset
    np.testing.assert_array_equal(p.y, np.sqrt(ps.tau) * runge(50)(ps.points))
    assert isinstance(p, SamplingProblem)


def test_make_problem_validation():
    p = problem(legendre(), 5, 6, weights="unit")
    A, W = p.A, p.w
    with pytest.raises(ValueError):
        make_problem(A, np.ones(4), W)
    with pytest.raises(ValueError):
        make_problem(A, np.array([1, 2, np.nan, 4, 5.0]), W)
    with pytest.raises(ValueError):
        make_problem(A, np.ones(5), W, eta=-0.1)
    with pytest.raises(ValueError):
        make_problem(A, np.ones(5), np.ones(4))
    with pytest.raises(ValueError):
        solve_weighted_l1(make_problem(A, np.ones(5), W), mode="both")


@pytest.mark.parametrize("eta", [np.nan, np.inf])
def test_make_problem_rejects_non_finite_eta(eta):
    # A NaN radius would pass for a ball and end in max_iter with a NaN
    # gap; an infinite one gives a NaN z.
    p = problem(legendre(), 5, 6, relax=True)
    with pytest.raises(ValueError, match="eta must be finite"):
        make_problem(p.A, np.ones(5), p.w, eta=eta)


def test_single_point_solution_is_unit_spike():
    res = solve_weighted_l1(problem(legendre(), [0.0], 2, [1.0], "unit"))
    assert res.status == STATUS_CONVERGED
    np.testing.assert_allclose(res.z, [1.0, 0.0], atol=1e-9)
    assert abs(res.objective - 1.0) < 1e-9


def test_lp_oracle_rejects_complex():
    A = problem(fourier(), 4, 4).A
    with pytest.raises(ValueError):
        lp_oracle(A, np.ones(4), np.ones(4))


def ill_conditioned_problem(seed):
    # Random points, jacobi(1, 0), N = 40 + seed % 41, K = 2N, runge25:
    # cond(A) is near 1e9.
    N = 40 + seed % 41
    return problem(jacobi(1.0, 0.0), generate("uniform_random", N, seed=seed),
                   2 * N, runge(25))


def test_lp_oracle_is_tight_on_an_ill_conditioned_instance():
    # HiGHS's simplex at its default tolerances ends 7e-4 below the optimum
    # here by violating the constraints; the certified solve bounds the
    # optimum.
    p = ill_conditioned_problem(3)
    res = solve_weighted_l1(p)
    _, obj_lp = lp_oracle(p.A, p.y, p.w.w)
    assert res.status == STATUS_CONVERGED
    assert abs(obj_lp - res.objective) <= 1e-8 * res.objective


@pytest.mark.parametrize("seed", [105, 155])
def test_lp_oracle_raises_where_the_interior_point_fails(seed):
    # HiGHS's interior point stops without a solution here.  Its simplex
    # answered 7.0e-6 (seed 105) and 2.5e-6 (seed 155) relative below the
    # certified solves, which bound the optimum, so no answer is returned.
    p = ill_conditioned_problem(seed)
    with pytest.raises(RuntimeError, match="LP oracle failed"):
        lp_oracle(p.A, p.y, p.w.w)


@pytest.mark.parametrize("seed, steps", [(3, 14), (105, 16), (155, 15)])
def test_refinement_on_demand_keeps_ill_conditioned_solves(seed, steps):
    # The corrector refines its Newton solve only while the linearized
    # residuals exceed TOL_FEAS / 10 of the right-hand side.  These solves
    # end with gaps near TOL_GAP; with two refinement rounds on every
    # corrector they converge in these step counts.  With a threshold of
    # 1e-8, seed 155 ends in max_iter; with 1e-12, it takes one more step.
    res = solve_weighted_l1(ill_conditioned_problem(seed))
    assert res.status == STATUS_CONVERGED
    assert res.iterations == steps


def well_conditioned_problem(spec, N, eta):
    # K = 4N, gamma = 1, Chebyshev points for Legendre and N equispaced
    # points on [-1, 1) for Fourier: cond(A / w) between 16 and 54.
    pts = (generate("equispaced", N + 1)[:-1] if spec.is_complex
           else generate("chebyshev", N))
    noise = np.random.default_rng(N).uniform(-eta, eta, N)
    samples = np.exp(np.sin(np.pi * pts)) / (1.25 + pts) + noise
    return problem(spec, pts, 4 * N, samples, relax=True, eta=eta)


@pytest.mark.parametrize("spec, N, eta, steps", [
    (legendre(), 60, 0.0, 11), (legendre(), 40, 1e-3, 13),
    (fourier(), 40, 0.0, 6), (fourier(), 80, 1e-3, 15),
    (legendre(), 80, 0.0, 11), (legendre(), 80, 1e-3, 13)])
def test_well_conditioned_step_counts(monkeypatch, spec, N, eta, steps):
    # Step counts of well-conditioned solves on the four paths (real or
    # complex, equality or ball), the same on one and two BLAS threads.
    # The real cases at N = 80 are the largest sizes the benchmark fits.
    # A rewrite of the Newton step that changes more than its last bits
    # shows up here; one that only rounds differently may not, and the
    # ill-conditioned pins above are the finer check.  The corrector
    # refines only while its largest residual is above the threshold: the
    # complex equality solve then takes 30 triangular solves (52 with the
    # threshold set from the smallest residual).
    calls = count_lapack(monkeypatch, "dtrtrs")
    res = solve_weighted_l1(well_conditioned_problem(spec, N, eta),
                            "inequality" if eta else "equality")
    assert res.status == STATUS_CONVERGED
    assert res.iterations == steps
    if spec.is_complex and not eta:
        assert len(calls) == 30


def count_lapack(monkeypatch, *names):
    # _ipm imports its LAPACK routines when it runs, so wrapped ones count.
    from scipy.linalg import lapack
    calls = []
    for name in names:
        def counted(*args, _name=name, _f=getattr(lapack, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(lapack, name, counted)
    return calls


def test_newton_factor_is_cholesky_until_its_spread_is_too_wide(monkeypatch):
    # Each setup factors the normal equations by Cholesky while the
    # factor's squared diagonal spread stays within CHOL_SPREAD; after the
    # first that does not, the solve takes QR of the factored rows.
    calls = count_lapack(monkeypatch, "dpotrf", "dgeqrf")
    p = well_conditioned_problem(fourier(), 40, 0.0)
    res = solve_weighted_l1(p)
    assert calls == ["dpotrf"] * (res.iterations + 1)
    calls.clear()
    ill = solve_weighted_l1(ill_conditioned_problem(155))
    assert ill.status == STATUS_CONVERGED
    assert "dpotrf" not in calls[calls.index("dgeqrf"):]
    # QR on every step keeps the well-conditioned solve's steps and optimum.
    monkeypatch.setattr(solver_module, "CHOL_SPREAD", 0.0)
    calls.clear()
    qr = solve_weighted_l1(p)
    assert calls == ["dpotrf"] + ["dgeqrf"] * (qr.iterations + 1)
    assert (qr.status, qr.iterations) == (res.status, res.iterations)
    assert abs(qr.objective - res.objective) <= 1e-12 * res.objective


@pytest.mark.parametrize("eta", [0.0, 1e-3])
def test_real_and_complex_paths_agree(eta):
    # The same real data posed as complex take the second-order cones
    # (t_i, Re zt_i, Im zt_i) and twice the constraint rows instead of the
    # orthant block (p, q); the solves must take the same steps to the
    # same optimum.  The orthant is the cones |zt_i| <= t_i turned by an
    # orthonormal map, so the iterates agree too: every complementarity
    # x.s matches to rounding.  A turn that is not orthonormal, (t +- zt)
    # / 2, moves the starting point and fails this in ball mode.
    pts = generate("jittered", 40, seed=7)
    mode = "inequality" if eta else "equality"
    p1 = problem(legendre(), pts, 160, runge(25), gamma=0.5, eta=eta)
    r1 = solve_weighted_l1(p1, mode)
    r2 = solve_weighted_l1(make_problem(p1.A, runge(25)(pts) + 0j, p1.w,
                                        eta=eta), mode)
    assert r1.status == r2.status == STATUS_CONVERGED
    assert r1.iterations == r2.iterations
    assert abs(r2.objective - r1.objective) <= 1e-12 * r1.objective
    h0 = r2.gap_history[0]
    assert len(r1.gap_history) == len(r2.gap_history)
    assert np.max(np.abs(np.subtract(r1.gap_history, r2.gap_history))) \
        <= 1e-12 * h0
    assert np.max(np.abs(r2.z.imag)) <= 1e-12
    if not eta:
        _, obj_lp = lp_oracle(p1.A, p1.y, p1.w.w)
        assert abs(r1.objective - obj_lp) <= 1e-8 * obj_lp


def test_scaling_covariance():
    p = problem(legendre(), 12, 24, relax=True)
    res1 = solve_weighted_l1(p)
    c = 3.7
    p2 = make_problem(p.A, c * runge(50)(p.A.pointset.points), p.w)
    res2 = solve_weighted_l1(p2)
    scale = max(1.0, np.max(np.abs(res2.z)))
    assert np.max(np.abs(res2.z - c * np.asarray(res1.z))) <= 1e-6 * scale
    assert abs(res2.objective - c * res1.objective) <= 1e-6 * res2.objective


def test_unweighted_aliasing_objective_value():
    # With flat weights every aliased spike costs exactly 1 (acceptance
    # criterion 2 checks the spikes at frequencies 0 and +-10).
    res = solve_weighted_l1(problem(fourier(), 11, 21, np.ones(11), "unit"))
    assert res.status == STATUS_CONVERGED
    assert abs(res.objective - 1.0) <= 1e-8


def test_data_off_the_range_by_a_hair_converge():
    # compare --basis fourier, peaks500 at N = 10: the equispaced grid
    # holds t = -1 and t = 1, which give one row, and the noise on the two
    # samples leaves y off the range of A by more than TOL_FEAS ||y|| but
    # within the margin that lets the solve start.  The certificate then
    # measures against off_range, and the solve converges on the
    # projected data.  The objective pinned below is that of 10 steps
    # certified against eta, which end in max_iter.
    pt_seed, noise_seed = np.random.SeedSequence([0, 0, 10]).spawn(2)
    noise = np.random.default_rng(noise_seed).uniform(-1e-8, 1e-8, 10)
    p = problem(fourier(), generate("equispaced", 10, seed=pt_seed), 40,
                lambda t: get_function("peaks500")(t) + noise, "poly_gamma",
                gamma=0.5, relax=True)
    res = solve_weighted_l1(p)
    feas_abs = solver_module.TOL_FEAS * np.linalg.norm(p.y)
    assert res.status == STATUS_CONVERGED and res.iterations <= 9
    assert feas_abs < res.off_range <= 10 * feas_abs
    assert res.feasibility_residual == pytest.approx(res.off_range, rel=1e-6)
    assert res.feasibility_residual <= 10 * feas_abs
    assert res.objective == pytest.approx(0.16105045409043242, rel=1e-8)


def test_inequality_relaxes_objective():
    res_eq = solve_weighted_l1(problem(legendre(), 16, 48, relax=True))
    p_in = problem(legendre(), 16, 48, relax=True, eta=1e-2)
    res_in = solve_weighted_l1(p_in, mode="inequality")
    assert res_in.status == STATUS_CONVERGED
    resid = np.linalg.norm(p_in.A.entries @ res_in.z - p_in.y)
    assert resid <= 1e-2 + 1e-8
    assert res_in.objective <= res_eq.objective * (1 + 1e-6)


def test_inequality_eta_zero_routes_to_equality():
    p = problem(legendre(), 10, 20, relax=True)
    r_eq = solve_weighted_l1(p)
    r_in = solve_weighted_l1(p, mode="inequality")
    np.testing.assert_array_equal(r_in.z, r_eq.z)
    assert r_in.iterations == r_eq.iterations


def test_max_iter_is_honest():
    res = solve_weighted_l1(problem(legendre(), 10, 40, relax=True),
                            max_iter=30)
    assert res.iterations <= 30
    assert res.status in ("converged", "max_iter")
    assert MAX_ITER == 100


@pytest.mark.parametrize("max_iter", [2, MAX_ITER])
@pytest.mark.parametrize("eta", [0.0, 1e-2])
@pytest.mark.parametrize("basis", ["legendre", "fourier"])
def test_result_fields_are_recomputed_from_z(basis, eta, max_iter):
    # The reported residual is max(||A z - y|| - eta, 0) for the returned z,
    # capped or not, and a converged result never carries a negative gap.
    # gap_history, the complementarity x.s at the start and after each
    # Newton step, falls to the gap tolerance; it is not the certificate's
    # gap, and the Fourier equality solve ends it at 1.08 TOL_GAP.  An
    # exact fit interpolates.
    spec, f, gamma = ((legendre(), runge(50), 1.0) if basis == "legendre"
                      else (fourier(), cospi_expsin, 0.5))
    p = problem(spec, 20, 80, f, gamma=gamma, relax=True, eta=eta)
    res = solve_weighted_l1(p, mode="inequality" if eta else "equality",
                            max_iter=max_iter)
    true = max(np.linalg.norm(p.A.entries @ res.z - p.y) - eta, 0.0)
    assert res.feasibility_residual == pytest.approx(true, rel=1e-12,
                                                     abs=1e-15)
    assert res.objective == pytest.approx(l1_objective(res.z, p.w.w),
                                          rel=1e-14)
    hist = np.array(res.gap_history)
    assert len(hist) == res.iterations + 1
    assert np.all(np.diff(hist) <= 1e-6 * hist[0])
    if max_iter == 2:
        assert res.status == STATUS_MAX_ITER and res.iterations == 2
        return
    assert res.status == STATUS_CONVERGED and res.feasibility_residual <= 1e-8
    assert 0.0 <= res.duality_gap <= TOL_GAP * max(1.0, res.objective)
    slack = 2.0 if spec.is_complex and not eta else 1.0
    assert hist[-1] <= slack * TOL_GAP * max(1.0, res.objective)
    if not eta:
        pts = p.A.pointset.points
        gap = np.max(np.abs(synthesize(res.z, spec, pts) - f(pts)))
        assert gap <= 1e-7 * (1.0 + np.max(np.abs(f(pts))))


def test_stalled_solve_stops_early(monkeypatch):
    # A zero gap tolerance cannot be met; the solve stops once its steps
    # make no progress instead of running on toward max_iter.  The
    # tolerance is read when the solve runs, not when the module loads.
    monkeypatch.setattr(solver_module, "TOL_GAP", 0.0)
    res = solve_weighted_l1(problem(legendre(), 20, 80, relax=True))
    assert res.status == STATUS_MAX_ITER
    assert res.iterations <= 30
    assert 0.0 <= res.duality_gap <= 1e-10 * res.objective


def test_zero_data_gives_zero_solution():
    p = problem(legendre(), 10, 20, np.zeros(10), relax=True)
    for mode in ("equality", "inequality"):
        res = solve_weighted_l1(p, mode=mode)
        assert res.status == STATUS_CONVERGED
        assert not np.any(res.z) and res.objective == 0.0


def _svd_min_norm(B, y):
    # Independent minimum-norm least squares: full SVD through the plain
    # QR-iteration driver, numpy's cutoff eps * max(shape) * sigma_max.
    import scipy.linalg as sla
    U, s, Vh = sla.svd(B, full_matrices=False, lapack_driver="gesvd")
    keep = s > np.finfo(float).eps * max(B.shape) * s[0]
    return Vh[keep].conj().T @ ((U[:, keep].conj().T @ y) / s[keep])


def test_least_squares_on_block_where_gelsd_fails():
    # Equispaced Legendre, N=160, K=640, M=123: condition number ~3e16, and
    # numpy's lstsq (LAPACK gelsd) stops with "SVD did not converge" on
    # some LAPACK builds.
    p = problem(legendre(), 160, 640)
    A, y = p.A, p.y
    B = A.leading(123)
    z = solve_least_squares(A, y, 123)
    assert z.shape == (123,) and np.all(np.isfinite(z))
    z_ref = _svd_min_norm(B, y)
    ynorm = np.linalg.norm(y)
    res, res_ref = np.linalg.norm(B @ z - y), np.linalg.norm(B @ z_ref - y)
    assert abs(res - res_ref) <= 1e-12 * ynorm
    assert np.linalg.norm(z) <= np.linalg.norm(z_ref) * (1 + 1e-8)

    M_best, coeffs = oracle_least_squares(A, y, runge(50))
    assert 1 <= M_best <= 160 and np.all(np.isfinite(coeffs))


def test_least_squares_falls_back_when_lstsq_raises(monkeypatch):
    A, Af = problem(legendre(), 20, 80).A, problem(fourier(), 15, 41).A
    A1 = problem(legendre(), [0.0], 2).A
    rng = np.random.default_rng(11)
    y = rng.normal(size=20)
    expect = {M: solve_least_squares(A, y, M) for M in (6, 20, 30)}
    yf = rng.normal(size=15) + 1j * rng.normal(size=15)
    expect_f = solve_least_squares(Af, yf, 21)

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least "
                                    "Squares")

    monkeypatch.setattr(np.linalg, "lstsq", broken)
    for M, z_np in expect.items():
        z = solve_least_squares(A, y, M)
        B = A.leading(M)
        np.testing.assert_allclose(z, _svd_min_norm(B, y), atol=1e-10)
        np.testing.assert_allclose(np.linalg.norm(B @ z - y),
                                   np.linalg.norm(B @ z_np - y), atol=1e-12)
    z = solve_least_squares(Af, yf, 21)
    np.testing.assert_allclose(z, expect_f, atol=1e-10)
    z = solve_least_squares(A1, np.array([2.0]), 2)
    np.testing.assert_allclose(z, [2.0, 0.0], atol=1e-12)


def _oracle_errors(A, y, f_true, resolution=10000):
    # The exhaustive search: every one of the oracle's own fits measured
    # on the whole grid as sup_error measures it.
    grid = chebyshev_extrema(resolution)
    fg = np.broadcast_to(np.asarray(f_true(grid)), grid.shape)
    return np.array([solver_module._grid_error(z, A.basis, grid, fg)
                     for z in solver_module._prefix_fits(A, y)])


@pytest.mark.parametrize("spec, N, noise", [
    pytest.param(spec, N, 0.0, id="%s-%d" % (spec.label(), N))
    for N in (12, 40)
    for spec in (legendre(), chebyshev(), jacobi(1.0, 0.0), fourier())] + [
    pytest.param(fourier(), 40, 1e-6, id="fourier-40-noise"),
    pytest.param(legendre(), 80, 0.0, id="jacobi:0,0-80")])
def test_oracle_least_squares_matches_per_M_sweep(spec, N, noise):
    # The pruned search finds the first minimum of the exhaustive one, or
    # an error within rounding of it, and returns its lstsq refit.  With
    # noise, M = 17, 18 and 19 lie within 1.4% of each other at the noise
    # floor; the pruned search must still find the first minimum.
    # N jittered points, on [-1, 1) for the exponentials (t = +-1 give the
    # same row), and K = 2N + 1 or 4N.
    f = cospi_expsin if spec.is_complex else runge(25)
    p = problem(spec, generate("jittered", N + spec.is_complex, seed=N)[:N],
                2 * N + 1 if spec.is_complex else 4 * N, f)
    A, y = p.A, p.y
    if noise:
        rng = np.random.default_rng(N)
        y = y + np.sqrt(A.pointset.tau) * rng.uniform(-noise, noise, len(y))
    errors = _oracle_errors(A, y, f)
    M, z = oracle_least_squares(A, y, f)
    assert M == np.argmin(errors) + 1 \
        or errors[M - 1] <= errors.min() * (1 + 1e-12)
    np.testing.assert_array_equal(z, solve_least_squares(A, y, M))


def test_oracle_least_squares_measures_few_fits_on_the_full_grid(
        monkeypatch):
    # The bounds take every 8th point of the 10000-point grid, all 1250
    # in one block at L = 40; the fits that can still win are measured
    # through the Chebyshev matrix, whose table has 40 points, not on the
    # grid's table.  A sweep of every fit over the grid takes 10000.
    f = runge(25)
    p = problem(legendre(), generate("jittered", 40, seed=40), 160, f)
    A, y = p.A, p.y
    points, measured = [], []
    grid_error = solver_module._grid_error

    def counted(spec, K, t):
        points.append(np.size(t))
        return eval_table(spec, K, t)

    def counted_error(z, *args):
        measured.append(z)
        return grid_error(z, *args)

    monkeypatch.setattr(solver_module, "eval_table", counted)
    monkeypatch.setattr(solver_module, "_grid_error", counted_error)
    solver_module._chebyshev_matrix.cache_clear()
    M, z = oracle_least_squares(A, y, f, resolution=10000)
    assert points == [1250, 40] and len(measured) <= 2
    np.testing.assert_array_equal(z, solve_least_squares(A, y, M))


@pytest.mark.parametrize("spec, N, f", [
    (jacobi(1.0, 0.0), 40, lambda t: t * t),
    (legendre(), 12, lambda t: np.zeros_like(t)),
], ids=["square", "zero"])
def test_oracle_least_squares_equals_the_exhaustive_search(spec, N, f):
    # Every fit of M >= 3 terms reproduces t^2, so their errors tie within
    # rounding (near 1e-15); for zero data they all tie at 0.  The bounds
    # less their rounding margin still find the first M of smallest error
    # among all L of the oracle's fits, each measured as sup_error
    # measures it.
    p = problem(spec, generate("jittered", N, seed=N), 4 * N, f)
    A, y = p.A, p.y
    errors = _oracle_errors(A, y, f)
    M, z = oracle_least_squares(A, y, f)
    assert M == np.argmin(errors) + 1
    np.testing.assert_array_equal(z, solve_least_squares(A, y, M))


@pytest.mark.parametrize("spec, N, f, past", [
    (fourier(), 40, cospi_expsin, 0), (legendre(), 80, runge(25), 25)],
    ids=["fourier-40", "jacobi:0,0-80"])
def test_oracle_fits_every_prefix_from_one_qr(monkeypatch, spec, N, f, past):
    # lstsq fits only the prefixes past the condition cutoff, here the
    # last `past` ones (M = 56 ... 80 for Legendre), and the winner once
    # more; the per-M sweep called it L times.  The QR fits agree with
    # lstsq within 100 cond(A_M) eps of their size, the others are its
    # bits, and each row is zero off its leading positions.
    p = problem(spec, generate("jittered", N + spec.is_complex, seed=N)[:N],
                2 * N + 1 if spec.is_complex else 4 * N, f)
    A, y = p.A, p.y
    calls, lstsq = [], np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    oracle_least_squares(A, y, f)
    assert len(calls) == past + 1
    eps = np.finfo(float).eps
    for M, row in enumerate(solver_module._prefix_fits(A, y), 1):
        lead = leading_indices(spec, N, M)
        z = solve_least_squares(A, y, M)
        assert not np.any(np.delete(row, lead))
        if M > N - past:
            np.testing.assert_array_equal(row[lead], z)
        else:
            cond = np.linalg.cond(A.leading(M))
            assert np.max(np.abs(row[lead] - z)) \
                <= 100 * cond * eps * np.max(np.abs(z))


@pytest.mark.parametrize("spec, N, f", [
    (jacobi(1.0, 0.0), 40, runge(25)), (fourier(), 40, cospi_expsin)],
    ids=["jacobi:1,0-40", "fourier-40"])
def test_oracle_bounds_are_lower_bounds(spec, N, f):
    # Every fit's bound is at most its full-grid error, or the prune could
    # skip the winner; the exponential bounds come from phasor powers.
    # Off the rounding floor the bounds are close to the errors.
    p = problem(spec, generate("jittered", N + spec.is_complex, seed=N)[:N],
                2 * N + 1 if spec.is_complex else 4 * N, f)
    A, y = p.A, p.y
    grid = chebyshev_extrema(10000)
    bound = solver_module._oracle_bounds(
        solver_module._prefix_fits(A, y), spec, grid,
        np.broadcast_to(f(grid), grid.shape))
    errors = _oracle_errors(A, y, f)
    assert np.all(bound <= errors)
    assert np.median(bound / errors) > 0.9


def test_oracle_least_squares_broadcasts_a_scalar_truth():
    # A constant f_true may return a scalar; it is the constant array's
    # sweep, so the answer is the same bits.
    spec = legendre()
    p = problem(spec, generate("jittered", 20, seed=20), 80, np.full(20, 0.5))
    A, y = p.A, p.y
    M, z = oracle_least_squares(A, y, lambda t: 0.5)
    M_arr, z_arr = oracle_least_squares(A, y, lambda t: np.full_like(t, 0.5))
    assert M == M_arr
    np.testing.assert_array_equal(z, z_arr)
    assert sup_error(lambda t: 0.5, z, spec) <= 1e-13


def test_oracle_least_squares_skips_non_finite_errors(monkeypatch):
    # A non-finite truth makes every bound non-finite, so no fit is
    # measured on the full grid.
    p = problem(legendre(), generate("jittered", 12, seed=12), 48, runge(25))
    A, y = p.A, p.y
    monkeypatch.setattr(solver_module, "_grid_error", None)
    assert oracle_least_squares(A, y, lambda t: np.nan) == (None, None)
    assert oracle_least_squares(A, y, lambda t: np.inf) == (None, None)


def test_oracle_least_squares_peak_memory_is_one_block():
    # Fourier, L = 80: the (10000, 80) complex table of a per-M sweep
    # alone is 12.8 MB.  The blocked sweep holds one block of rows, its
    # product and the 80 x 80 coefficients.
    p = problem(fourier(), generate("jittered", 81, seed=80)[:-1], 161,
                cospi_expsin)
    A, y = p.A, p.y
    tracemalloc.start()
    try:
        M, z = oracle_least_squares(A, y, cospi_expsin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1 <= M <= 80 and np.all(np.isfinite(z))
    assert peak <= 4 << 20


def test_synthesize_basics():
    # Scalar points and the domain; test_synthesize_matches_table checks
    # the values.
    z = np.array([0.5, -1.0, 2.0])
    for spec in (legendre(), fourier()):
        val = synthesize(z, spec, 0.3)
        assert np.ndim(val) == 0
        assert val == pytest.approx(
            (eval_table(spec, 3, np.array([0.3])) @ z)[0], abs=1e-14)
        for bad in (1.5, -1.01, np.nan, np.array([0.0, np.nan])):
            with pytest.raises(ValueError):
                synthesize(z, spec, bad)
        with pytest.raises(ValueError):
            synthesize(np.zeros(0), spec, 0.3)
        with pytest.raises(ValueError):
            sup_error(np.cos, np.zeros(0), spec)


@pytest.mark.parametrize("K", [1, 2, 3, 8, 160, 320])
@pytest.mark.parametrize("spec", [legendre(), chebyshev(), jacobi(1, 0),
                                  jacobi(-0.75, -0.75), fourier()],
                         ids=lambda s: s.label())
def test_synthesize_matches_table(spec, K):
    # A Jacobi sum adds the row blocks of the table, so it agrees with the
    # table product at each point t within K eps sum_i |z_i| |phi_i(t)|,
    # for real, nonnegative and complex z.  Horner's rule (exponentials)
    # agrees within the uniform bound of the synthesize docstring.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(K)
    z = rng.normal(size=K)
    zc = z + 1j * rng.normal(size=K)
    t = np.concatenate([np.linspace(-1, 1, 1001), rng.uniform(-1, 1, 500)])
    T = eval_table(spec, K, t)
    for zz in ([zc] if spec.is_complex else [z, np.abs(z), zc]):
        got = synthesize(zz, spec, t)
        expect = T @ zz
        assert got.dtype == expect.dtype
        if spec.is_complex:
            bound = 16 * K * eps * np.sum(np.abs(zz) * linf_norms(spec, K))
        else:
            bound = K * eps * (np.abs(T) @ np.abs(zz))
        assert np.all(np.abs(got - expect) <= bound)


def test_synthesis_builds_no_table(monkeypatch):
    # synthesize builds no table; sup_error builds one (K, K) table, for
    # its Chebyshev matrix, and never a (resolution, K) one.
    def no_table(*args, **kwargs):
        raise AssertionError("eval_table called")

    table, sizes = eval_table, []

    def square_table(spec, K, t):
        sizes.append((np.size(t), K))
        return table(spec, K, t)

    monkeypatch.setattr(basis_module, "eval_table", no_table)
    monkeypatch.setattr(solver_module, "eval_table", square_table)
    solver_module._chebyshev_matrix.cache_clear()
    f = lambda t: np.cos(np.pi * t)
    z = np.array([0.5, 0.0, 0.5])    # frequencies -1, 0, 1
    assert sup_error(f, z, fourier()) < 1e-14
    assert sup_error(f, np.ones(40), legendre()) > 0
    assert synthesize(np.ones(5), chebyshev(), np.zeros(3)).shape == (3,)
    assert sizes == [(40, 40)]


EPS = np.finfo(float).eps


@pytest.mark.parametrize("n, K", [(10000, 1), (10000, 2), (10000, 23),
                                  (10000, 24), (10000, 40), (10000, 320),
                                  (100, 160)])
@pytest.mark.parametrize("spec", [legendre(), chebyshev(), jacobi(1, 0),
                                  jacobi(-0.75, -0.75)],
                         ids=lambda s: s.label())
def test_chebyshev_grid_sum_matches_table(spec, n, K):
    # The approximant sup_error measures on chebyshev_extrema(n), from the
    # cached Chebyshev matrix and one DCT-I for 1 < K < n, from synthesize
    # for K = 1 and K >= n, agrees with the table product to the bound of
    # the sup_error docstring, for real and complex coefficients: with the
    # table product as the function, the error is that difference.
    rng = np.random.default_rng(K)
    z = rng.normal(size=K)
    for zz in (z, z + 1j * rng.normal(size=K)):
        f = lambda t: eval_table(spec, K, t) @ zz
        bound = 16 * K * EPS * np.sum(np.abs(zz) * linf_norms(spec, K))
        assert sup_error(f, zz, spec, resolution=n) <= bound


def test_sup_error_takes_the_cheaper_path(monkeypatch):
    # A Jacobi expansion of 1 < K < n terms takes the cached Chebyshev
    # matrix and one DCT-I of size n; K = 1, K >= n and the exponentials
    # take synthesize (table row blocks, Horner's rule) on the grid.
    matrix, synth = [], []
    chebyshev_matrix = solver_module._chebyshev_matrix
    synthesize_ = solver_module.synthesize
    monkeypatch.setattr(solver_module, "_chebyshev_matrix",
                        lambda spec, K: matrix.append(K)
                        or chebyshev_matrix(spec, K))
    monkeypatch.setattr(solver_module, "synthesize",
                        lambda z, *a: synth.append(len(z))
                        or synthesize_(z, *a))
    f = np.zeros_like
    for K in (1, 2, 23, 24, 320):
        sup_error(f, np.ones(K), legendre())
    for K in (99, 100, 160):
        sup_error(f, np.ones(K), legendre(), resolution=100)
    sup_error(f, np.ones(160), jacobi(1, 0), resolution=200)
    assert matrix == [2, 23, 24, 320, 99, 160]
    assert synth == [1, 100, 160]
    # The exponentials run Horner's rule on the grid's cached phasor.
    phasors, horner = [], solver_module._fourier_horner
    monkeypatch.setattr(solver_module, "_fourier_horner",
                        lambda z, t, w: phasors.append(w) or horner(z, t, w))
    z = np.random.default_rng(1).normal(size=320) + 0j
    sup_error(f, z, fourier())
    assert len(phasors) == 1 \
        and phasors[0] is solver_module._grid_phasor(10000)
    assert synth == [1, 100, 160]
    assert matrix == [2, 23, 24, 320, 99, 160]


def test_error_grid_truth_and_phasor_are_cached_read_only():
    # The truth on the grid is evaluated once per (f_true, n), the phasor
    # exp(i pi t) once per n; both are read-only, so Horner's rule must
    # conjugate into a new array, and it gives synthesize's bits.
    grid = chebyshev_extrema(10000)
    calls = []

    def f(t):
        calls.append(np.size(t))
        return cospi_expsin(t)

    w = solver_module._grid_phasor(10000)
    fg = solver_module._grid_truth(f, 10000)
    assert solver_module._grid_phasor(10000) is w
    assert solver_module._grid_truth(f, 10000) is fg
    assert not w.flags.writeable and not fg.flags.writeable
    rng = np.random.default_rng(3)
    for K in (1, 2, 7, 40, 161):
        z = rng.normal(size=K) + 1j * rng.normal(size=K)
        assert sup_error(f, z, fourier()) == np.max(np.abs(
            synthesize(z, fourier(), grid) - cospi_expsin(grid)))
    assert calls == [10000]
    np.testing.assert_array_equal(w.real, np.cos(np.pi * grid))
    np.testing.assert_array_equal(w.imag, np.sin(np.pi * grid))

    class Unhashable:
        __hash__ = None

        def __call__(self, t):
            calls.append(np.size(t))
            return cospi_expsin(t)

    sup_error(Unhashable(), np.ones(3), fourier(), resolution=50)
    sup_error(Unhashable(), np.ones(3), fourier(), resolution=50)
    assert calls == [10000, 50, 50]


def test_chebyshev_matrix_cache_is_bounded_and_read_only():
    cached = solver_module._chebyshev_matrix
    cached.cache_clear()
    C = cached(legendre(), 40)
    assert C.shape == (40, 40) and not C.flags.writeable
    with pytest.raises(ValueError):
        C[0, 0] = 1.0
    assert cached(legendre(), 40) is C
    for K in range(2, 20):
        cached(chebyshev(), K)
    assert cached.cache_info().maxsize == 8
    assert cached.cache_info().currsize == 8


# Property tests: small real instances on a grid of spacing 0.05, so that
# no two sample points nearly coincide.
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=20)


@st.composite
def real_instances(draw):
    K = draw(st.integers(1, 16))
    grid = draw(st.lists(st.integers(-20, 20), min_size=1,
                         max_size=min(8, K), unique=True))
    coef = draw(st.lists(st.floats(-2.0, 2.0), min_size=K, max_size=K))
    w = draw(st.lists(st.floats(0.5, 2.0), min_size=K, max_size=K))
    A = problem(legendre(), np.sort(grid) / 20.0, K).A
    samples = (A.entries @ np.array(coef)) / np.sqrt(A.pointset.tau)
    return A, samples, np.array(w)


@PROPERTY
@given(real_instances())
def test_property_matches_lp_oracle(inst):
    A, samples, w = inst
    p = make_problem(A, samples, w)
    res = solve_weighted_l1(p)
    _, obj_lp = lp_oracle(A, p.y, w)
    assert res.status == STATUS_CONVERGED
    assert abs(res.objective - obj_lp) <= 1e-6 * max(1.0, obj_lp)


@PROPERTY
@given(real_instances(), st.floats(1.0, 3.0))
def test_property_ball_around_zero_gives_zero(inst, factor):
    A, samples, w = inst
    p = make_problem(A, samples, w)
    res = solve_weighted_l1(make_problem(A, samples, w,
                                         eta=factor * np.linalg.norm(p.y)),
                            mode="inequality")
    assert res.status == STATUS_CONVERGED
    assert res.objective <= 1e-7


@PROPERTY
@given(real_instances())
def test_property_tiny_ball_matches_equality(inst):
    A, samples, w = inst
    r_eq = solve_weighted_l1(make_problem(A, samples, w))
    r_in = solve_weighted_l1(make_problem(A, samples, w, eta=1e-10),
                             mode="inequality")
    assert r_in.status == STATUS_CONVERGED
    assert abs(r_in.objective - r_eq.objective) \
        <= 1e-6 * max(1.0, r_eq.objective)


@PROPERTY
@given(real_instances(), st.floats(0.1, 10.0), st.booleans())
def test_property_objective_scales_with_data(inst, c, negate):
    A, samples, w = inst
    c = -c if negate else c
    r1 = solve_weighted_l1(make_problem(A, samples, w))
    r2 = solve_weighted_l1(make_problem(A, c * samples, w))
    assert r2.status == STATUS_CONVERGED
    assert abs(r2.objective - abs(c) * r1.objective) \
        <= 1e-6 * max(1.0, r2.objective)


@PROPERTY
@given(st.integers(1, 6), st.lists(st.floats(-1.0, 1.0), min_size=4,
                                   max_size=4),
       st.floats(0.5, 1.0), st.sampled_from(["equality", "inequality"]))
def test_property_off_range_data_is_infeasible(P, inner, jump, mode):
    # Period-2 exponentials take equal values at t = -1 and t = 1, so
    # samples that differ there lie off the range of A.  The solve stops
    # before its first step and reports the residual of the z it returns.
    p = problem(fourier(), np.linspace(-1.0, 1.0, 6), 2 * P + 1,
                np.array([0.0] + inner + [jump]), np.ones(2 * P + 1),
                eta=1e-3)
    res = solve_weighted_l1(p, mode=mode)
    assert res.status == STATUS_INFEASIBLE
    assert res.iterations == 0 and res.duality_gap == np.inf
    eta = p.eta if mode == "inequality" else 0.0
    true = max(np.linalg.norm(p.A.entries @ res.z - p.y) - eta, 0.0)
    assert res.feasibility_residual == pytest.approx(true, rel=1e-12)
