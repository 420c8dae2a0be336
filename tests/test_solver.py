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

from wl1approx import basis as basis_module, solver as solver_module
from wl1approx.basis import (chebyshev, chebyshev_extrema, eval_basis,
                             eval_table, fourier, frequencies, jacobi,
                             leading_indices, legendre, linf_norms)
from wl1approx.experiments import _comparison_weights, get_function
from wl1approx.grid import build_pointset, generate
from wl1approx.sampling import build_matrix, default_weights, make_weights
from wl1approx.solver import (MAX_ITER, STATUS_CONVERGED, STATUS_INFEASIBLE,
                              STATUS_MAX_ITER, TOL_GAP, SamplingProblem,
                              SolveResult, l1_objective, lp_oracle,
                              make_problem, oracle_least_squares, save_result,
                              solve_least_squares, solve_weighted_l1,
                              sup_error, synthesize)


def cospi_expsin(t):
    return np.cos(np.pi * t) * np.exp(np.sin(np.pi * t))


def small_problem(N=20, K=80, gamma=1.0, f=None, eta=0.0):
    spec = legendre()
    ps = build_pointset(generate("equispaced", N), spec)
    A = build_matrix(spec, ps, K)
    W = make_weights(spec, K, scheme="poly_gamma", gamma=gamma, relax=True)
    fn = f if f is not None else (lambda t: 1.0 / (1.0 + 50 * t ** 2))
    return make_problem(A, fn(ps.points), W, eta=eta), fn


def test_make_problem_scales_samples():
    p, _ = small_problem(N=5, K=5)
    np.testing.assert_array_equal(
        p.y, np.sqrt(p.A.pointset.tau) * (1.0 / (1.0 + 50 * p.A.pointset.points ** 2)))
    assert isinstance(p, SamplingProblem)


def test_make_problem_validation():
    spec = legendre()
    ps = build_pointset(generate("equispaced", 5), spec)
    A = build_matrix(spec, ps, 6)
    W = make_weights(spec, 6)
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
    p, _ = small_problem(N=5, K=6)
    with pytest.raises(ValueError, match="eta must be finite"):
        make_problem(p.A, np.ones(5), p.w, eta=eta)


def test_single_point_solution_is_unit_spike():
    spec = legendre()
    ps = build_pointset([0.0], spec)
    A = build_matrix(spec, ps, 2)
    p = make_problem(A, np.array([1.0]), make_weights(spec, 2))
    res = solve_weighted_l1(p)
    assert res.status == STATUS_CONVERGED
    np.testing.assert_allclose(res.z, [1.0, 0.0], atol=1e-9)
    assert abs(res.objective - 1.0) < 1e-9


def test_matches_lp_oracle_on_random_instances():
    rng = np.random.default_rng(21)
    spec = legendre()
    for trial in range(30):
        N = int(rng.integers(2, 7))
        K = int(rng.integers(N, 13))
        pts = np.sort(rng.uniform(-1, 1, N))
        ps = build_pointset(pts, spec)
        A = build_matrix(spec, ps, K)
        z_true = rng.normal(size=K) * (rng.random(K) < 0.6)
        y = A.entries @ z_true
        w = make_weights(spec, K, scheme="custom",
                         custom=np.sqrt(2 * np.arange(1, K + 1) - 1)
                         * (1.0 + rng.random(K)))
        samples = y / np.sqrt(ps.tau)
        p = make_problem(A, samples, w)
        res = solve_weighted_l1(p)
        z_lp, obj_lp = lp_oracle(A, p.y, w.w)
        assert res.status == STATUS_CONVERGED, f"trial {trial}"
        assert abs(res.objective - obj_lp) <= 1e-6 * max(1.0, obj_lp), \
            f"trial {trial}: {res.objective} vs {obj_lp}"


def test_lp_oracle_rejects_complex():
    spec = fourier()
    ps = build_pointset(generate("equispaced", 4), spec)
    A = build_matrix(spec, ps, 4)
    with pytest.raises(ValueError):
        lp_oracle(A, np.ones(4), np.ones(4))


def ill_conditioned_problem(seed):
    # Random points, jacobi(1, 0), N = 40 + seed % 41, K = 2N, runge25:
    # cond(A) is near 1e9.
    spec, N = jacobi(1.0, 0.0), 40 + seed % 41
    pts = generate("uniform_random", N, seed=seed)
    A = build_matrix(spec, build_pointset(pts, spec), 2 * N)
    w = default_weights(spec, 2 * N, 1.0)
    return make_problem(A, 1.0 / (1.0 + 25.0 * pts ** 2), w)


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
    A = build_matrix(spec, build_pointset(pts, spec), 4 * N)
    w = default_weights(spec, 4 * N, 1.0, relax=True)
    noise = np.random.default_rng(N).uniform(-eta, eta, N)
    samples = np.exp(np.sin(np.pi * pts)) / (1.25 + pts) + noise
    return make_problem(A, samples, w, eta=eta)


@pytest.mark.parametrize("spec, N, eta, steps", [
    (legendre(), 60, 0.0, 11), (legendre(), 40, 1e-3, 13),
    (fourier(), 40, 0.0, 6), (fourier(), 80, 1e-3, 15),
    (legendre(), 80, 0.0, 11), (legendre(), 80, 1e-3, 13)])
def test_well_conditioned_step_counts(spec, N, eta, steps):
    # Step counts of well-conditioned solves on the four paths (real or
    # complex, equality or ball), the same on one and two BLAS threads.
    # The real cases at N = 80 are the largest sizes the benchmark fits.
    # A rewrite of the Newton step that changes more than its last bits
    # shows up here; one that only rounds differently may not, and the
    # ill-conditioned pins above are the finer check.
    res = solve_weighted_l1(well_conditioned_problem(spec, N, eta),
                            "inequality" if eta else "equality")
    assert res.status == STATUS_CONVERGED
    assert res.iterations == steps


def count_factorizations(monkeypatch):
    # _ipm imports its LAPACK routines when it runs, so wrapped ones count.
    from scipy.linalg import lapack
    calls = []
    for name in ("dpotrf", "dgeqrf"):
        def counted(*args, _name=name, _f=getattr(lapack, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(lapack, name, counted)
    return calls


def test_newton_factor_is_cholesky_until_its_spread_is_too_wide(monkeypatch):
    # Each setup factors the normal equations by Cholesky while the
    # factor's squared diagonal spread stays within CHOL_SPREAD; after the
    # first that does not, the solve takes QR of the factored rows.
    calls = count_factorizations(monkeypatch)
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
    spec = legendre()
    pts = generate("jittered", 40, seed=7)
    A = build_matrix(spec, build_pointset(pts, spec), 160)
    w = default_weights(spec, 160, 0.5)
    samples = 1.0 / (1.0 + 25.0 * pts ** 2)
    mode = "inequality" if eta else "equality"
    p1 = make_problem(A, samples, w, eta=eta)
    r1 = solve_weighted_l1(p1, mode)
    r2 = solve_weighted_l1(make_problem(A, samples.astype(complex), w,
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
        _, obj_lp = lp_oracle(A, p1.y, w.w)
        assert abs(r1.objective - obj_lp) <= 1e-8 * obj_lp


def test_feasibility_of_converged_runs():
    p, _ = small_problem()
    res = solve_weighted_l1(p)
    assert res.status == STATUS_CONVERGED
    resid = np.linalg.norm(p.A.entries @ res.z - p.y)
    assert resid <= 1e-8 * max(1.0, np.linalg.norm(p.y))
    assert res.feasibility_residual <= 1e-8
    assert res.duality_gap <= 1e-7 * max(1.0, res.objective)


def test_interpolation_property():
    for f, spec, scheme, gamma in [
            (cospi_expsin, fourier(), "fourier_gamma", 0.5),
            (lambda t: 1.0 / (1.0 + 50 * t ** 2), legendre(), "poly_gamma",
             1.0)]:
        ps = build_pointset(generate("equispaced", 20), spec)
        A = build_matrix(spec, ps, 80)
        W = make_weights(spec, 80, scheme=scheme, gamma=gamma,
                         relax=(scheme == "poly_gamma"))
        res = solve_weighted_l1(make_problem(A, f(ps.points), W))
        vals = synthesize(res.z, spec, ps.points)
        gap = np.max(np.abs(vals - f(ps.points)))
        assert gap <= 1e-7 * (1.0 + np.max(np.abs(f(ps.points))))


def test_scaling_covariance():
    p, fn = small_problem(N=12, K=24)
    res1 = solve_weighted_l1(p)
    c = 3.7
    ps = p.A.pointset
    p2 = make_problem(p.A, c * fn(ps.points), p.w)
    res2 = solve_weighted_l1(p2)
    scale = max(1.0, np.max(np.abs(res2.z)))
    assert np.max(np.abs(res2.z - c * np.asarray(res1.z))) <= 1e-6 * scale
    assert abs(res2.objective - c * res1.objective) <= 1e-6 * res2.objective


def test_monitored_objective_decreases():
    # gap_history holds the interior-point complementarity x.s at the start
    # and after each Newton step; it falls to the gap tolerance.
    p, _ = small_problem(N=40, K=160)
    res = solve_weighted_l1(p)

    spec = fourier()
    ps = build_pointset(generate("equispaced", 20), spec)
    A = build_matrix(spec, ps, 80)
    W = make_weights(spec, 80, scheme="fourier_gamma", gamma=0.5)
    pin = make_problem(A, cospi_expsin(ps.points), W, eta=1e-2)
    rin = solve_weighted_l1(pin, mode="inequality")
    for r in (res, rin):
        assert r.status == STATUS_CONVERGED
        hist = np.array(r.gap_history)
        assert len(hist) >= 3
        assert np.all(np.diff(hist) <= 1e-6 * hist[0])
        assert hist[-1] <= TOL_GAP * max(1.0, r.objective)


def test_aliasing_family_prefers_zero_frequency():
    spec = fourier()
    for P in (5, 10):
        N, K = 2 * P + 1, 4 * P + 1
        ps = build_pointset(generate("equispaced", N), spec)
        A = build_matrix(spec, ps, K)
        W = make_weights(spec, K, scheme="fourier_gamma", gamma=0.5)
        res = solve_weighted_l1(make_problem(A, np.ones(N), W))
        fr = frequencies(K)
        top = fr[int(np.argmax(np.abs(res.z)))]
        assert top == 0, f"P={P}: dominant frequency {top}"
        assert abs(fr[np.argmax(np.abs(res.z))]) != 2 * P


def test_unweighted_aliasing_objective_value():
    # With flat weights every aliased spike costs exactly 1.
    spec = fourier()
    ps = build_pointset(generate("equispaced", 11), spec)
    A = build_matrix(spec, ps, 21)
    W = make_weights(spec, 21, scheme="unit")
    res = solve_weighted_l1(make_problem(A, np.ones(11), W))
    assert res.status == STATUS_CONVERGED
    assert abs(res.objective - 1.0) <= 1e-8
    fr = frequencies(21)
    for j in (0, 10, -10):
        spike = np.zeros(21, dtype=complex)
        spike[fr == j] = 1.0
        assert np.linalg.norm(A.entries @ spike - p_y(A)) <= 1e-14
        assert abs(l1_objective(spike, W.w) - 1.0) < 1e-14


def p_y(A):
    return np.sqrt(A.pointset.tau) * np.ones(A.shape[0])


def test_infeasible_system_detected():
    # Period-2 exponentials cannot separate the two endpoints, so samples
    # of a non-periodic function there are unreachable.
    spec = fourier()
    ps = build_pointset([-1.0, 1.0], spec)
    A = build_matrix(spec, ps, 5)
    W = make_weights(spec, 5)
    p = make_problem(A, ps.points.astype(float), W)
    res = solve_weighted_l1(p)
    assert res.status == STATUS_INFEASIBLE
    assert res.iterations == 0
    assert res.duality_gap == np.inf
    res_ball = solve_weighted_l1(
        make_problem(A, ps.points.astype(float), W, eta=0.1),
        mode="inequality")
    assert res_ball.status == STATUS_INFEASIBLE


def test_data_off_the_range_by_a_hair_converge():
    # compare --basis fourier, peaks500 at N = 10: the equispaced grid
    # holds t = -1 and t = 1, which give one row, and the noise on the two
    # samples leaves y off the range of A by more than TOL_FEAS ||y|| but
    # within the margin that lets the solve start.  The certificate then
    # measures against off_range, and the solve converges on the
    # projected data.  The objective pinned below is that of 10 steps
    # certified against eta, which end in max_iter.
    spec = fourier()
    pt_seed, noise_seed = np.random.SeedSequence([0, 0, 10]).spawn(2)
    ps = build_pointset(generate("equispaced", 10, seed=pt_seed), spec)
    A = build_matrix(spec, ps, 40)
    samples = get_function("peaks500")(ps.points) + np.random.default_rng(
        noise_seed).uniform(-1e-8, 1e-8, ps.n)
    p = make_problem(A, samples, _comparison_weights(spec, 40))
    res = solve_weighted_l1(p)
    feas_abs = solver_module.TOL_FEAS * np.linalg.norm(p.y)
    assert res.status == STATUS_CONVERGED and res.iterations <= 9
    assert feas_abs < res.off_range <= 10 * feas_abs
    assert res.feasibility_residual == pytest.approx(res.off_range, rel=1e-6)
    assert res.feasibility_residual <= 10 * feas_abs
    assert res.objective == pytest.approx(0.16105045409043242, rel=1e-8)


def test_inequality_relaxes_objective():
    p_eq, fn = small_problem(N=16, K=48)
    res_eq = solve_weighted_l1(p_eq)
    p_in, _ = small_problem(N=16, K=48, eta=1e-2)
    res_in = solve_weighted_l1(p_in, mode="inequality")
    assert res_in.status == STATUS_CONVERGED
    resid = np.linalg.norm(p_in.A.entries @ res_in.z - p_in.y)
    assert resid <= 1e-2 + 1e-8
    assert res_in.objective <= res_eq.objective * (1 + 1e-6)


def test_inequality_eta_zero_routes_to_equality():
    p, _ = small_problem(N=10, K=20)
    r_eq = solve_weighted_l1(p)
    r_in = solve_weighted_l1(p, mode="inequality")
    np.testing.assert_array_equal(r_in.z, r_eq.z)
    assert r_in.iterations == r_eq.iterations


def test_max_iter_is_honest():
    p, _ = small_problem(N=10, K=40)
    res = solve_weighted_l1(p, max_iter=30)
    assert res.iterations <= 30
    assert res.status in ("converged", "max_iter")
    assert MAX_ITER == 100


@pytest.mark.parametrize("max_iter", [2, MAX_ITER])
@pytest.mark.parametrize("eta", [0.0, 1e-2])
@pytest.mark.parametrize("basis", ["legendre", "fourier"])
def test_result_fields_are_recomputed_from_z(basis, eta, max_iter):
    # The reported residual is max(||A z - y|| - eta, 0) for the returned z,
    # capped or not, and a converged result never carries a negative gap.
    spec = legendre() if basis == "legendre" else fourier()
    ps = build_pointset(generate("equispaced", 20), spec)
    A = build_matrix(spec, ps, 80)
    if spec.is_complex:
        W = make_weights(spec, 80, scheme="fourier_gamma", gamma=0.5)
        f = cospi_expsin
    else:
        W = make_weights(spec, 80, scheme="poly_gamma", gamma=1.0, relax=True)
        f = lambda t: 1.0 / (1.0 + 50 * t ** 2)
    p = make_problem(A, f(ps.points), W, eta=eta)
    res = solve_weighted_l1(p, mode="inequality" if eta else "equality",
                            max_iter=max_iter)
    true = max(np.linalg.norm(A.entries @ res.z - p.y) - eta, 0.0)
    assert res.feasibility_residual == pytest.approx(true, rel=1e-12,
                                                     abs=1e-15)
    assert res.objective == pytest.approx(l1_objective(res.z, W.w),
                                          rel=1e-14)
    if max_iter == 2:
        assert res.status == STATUS_MAX_ITER and res.iterations == 2
    else:
        assert res.status == STATUS_CONVERGED
        assert 0.0 <= res.duality_gap <= TOL_GAP * max(1.0, res.objective)


def test_stalled_solve_stops_early(monkeypatch):
    # A zero gap tolerance cannot be met; the solve stops once its steps
    # make no progress instead of running on toward max_iter.  The
    # tolerance is read when the solve runs, not when the module loads.
    monkeypatch.setattr(solver_module, "TOL_GAP", 0.0)
    p, _ = small_problem(N=20, K=80)
    res = solve_weighted_l1(p)
    assert res.status == STATUS_MAX_ITER
    assert res.iterations <= 30
    assert 0.0 <= res.duality_gap <= 1e-10 * res.objective


def test_zero_data_gives_zero_solution():
    p, _ = small_problem(N=10, K=20, f=lambda t: 0.0 * t)
    for mode in ("equality", "inequality"):
        res = solve_weighted_l1(p, mode=mode)
        assert res.status == STATUS_CONVERGED
        assert not np.any(res.z) and res.objective == 0.0


def test_least_squares_recovery_and_min_norm():
    spec = legendre()
    ps = build_pointset(generate("equispaced", 20), spec)
    A = build_matrix(spec, ps, 80)
    rng = np.random.default_rng(5)
    x = rng.normal(size=6)
    y = A.leading(6) @ x
    got = solve_least_squares(A, y, 6)
    np.testing.assert_allclose(got, x, atol=1e-10)

    ps1 = build_pointset([0.0], spec)
    A1 = build_matrix(spec, ps1, 2)
    z = solve_least_squares(A1, np.array([2.0]), 2)
    np.testing.assert_allclose(z, [2.0, 0.0], atol=1e-12)


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
    spec = legendre()
    f = lambda t: 1.0 / (1.0 + 50 * t ** 2)
    ps = build_pointset(generate("equispaced", 160), spec)
    A = build_matrix(spec, ps, 640)
    y = np.sqrt(ps.tau) * f(ps.points)
    B = A.leading(123)
    z = solve_least_squares(A, y, 123)
    assert z.shape == (123,) and np.all(np.isfinite(z))
    z_ref = _svd_min_norm(B, y)
    ynorm = np.linalg.norm(y)
    res, res_ref = np.linalg.norm(B @ z - y), np.linalg.norm(B @ z_ref - y)
    assert abs(res - res_ref) <= 1e-12 * ynorm
    assert np.linalg.norm(z) <= np.linalg.norm(z_ref) * (1 + 1e-8)

    M_best, coeffs = oracle_least_squares(A, y, f)
    assert 1 <= M_best <= 160 and np.all(np.isfinite(coeffs))


def test_least_squares_falls_back_when_lstsq_raises(monkeypatch):
    spec = legendre()
    ps = build_pointset(generate("equispaced", 20), spec)
    A = build_matrix(spec, ps, 80)
    rng = np.random.default_rng(11)
    y = rng.normal(size=20)
    expect = {M: solve_least_squares(A, y, M) for M in (6, 20, 30)}
    psf = build_pointset(generate("equispaced", 15), fourier())
    Af = build_matrix(fourier(), psf, 41)
    yf = rng.normal(size=15) + 1j * rng.normal(size=15)
    expect_f = solve_least_squares(Af, yf, 21)
    ps1 = build_pointset([0.0], spec)
    A1 = build_matrix(spec, ps1, 2)

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


def test_oracle_least_squares_beats_fixed_truncation():
    spec = legendre()
    f = lambda t: 1.0 / (1.0 + 25 * t ** 2)
    ps = build_pointset(generate("equispaced", 20), spec)
    A = build_matrix(spec, ps, 80)
    y = np.sqrt(ps.tau) * f(ps.points)
    M_best, coeffs = oracle_least_squares(A, y, f)
    assert 1 <= M_best <= 20
    err_best = sup_error(f, coeffs, spec)
    M_ref = int(np.ceil(np.sqrt(20)))
    err_ref = sup_error(f, solve_least_squares(A, y, M_ref), spec)
    assert err_best <= err_ref * (1 + 1e-12)


def _oracle_reference(A, y, f_true, resolution=10000):
    # The sweep as it stood before the grid was blocked: the full
    # (resolution, L) table and one matrix-vector product per M.  Returns
    # (M, z, errors over M = 1 ... L).
    n, K = A.shape
    grid = chebyshev_extrema(resolution)
    fg = np.asarray(f_true(grid))
    table = eval_table(A.basis, min(n, K), grid)
    best, errors = (np.inf, None, None), []
    for M in range(1, min(n, K) + 1):
        z = solve_least_squares(A, y, M)
        lead = leading_indices(A.basis, table.shape[1], M)
        approx = table[:, lead[0]:lead[-1] + 1] @ z
        errors.append(float(np.max(np.abs(approx - fg))))
        if errors[-1] < best[0]:
            best = (errors[-1], M, z)
    return best[1], best[2], np.array(errors)


def oracle_instance(spec, N, f):
    if spec.is_complex:
        # [-1, 1) sampled periodically: t = +-1 give the same row.
        pts, K = generate("jittered", N + 1, seed=N)[:-1], 2 * N + 1
    else:
        pts, K = generate("jittered", N, seed=N), 4 * N
    ps = build_pointset(pts, spec)
    return build_matrix(spec, ps, K), np.sqrt(ps.tau) * f(ps.points)


@pytest.mark.parametrize("N", [12, 40])
@pytest.mark.parametrize("spec", [legendre(), chebyshev(), jacobi(1.0, 0.0),
                                  fourier()], ids=lambda s: s.label())
def test_oracle_least_squares_matches_per_M_sweep(spec, N):
    # The fits are the same lstsq calls, so the coefficients are the same
    # bits; the errors come from another summation order, so the chosen M
    # may only move to a reference error within rounding of the minimum.
    f = cospi_expsin if spec.is_complex else \
        (lambda t: 1.0 / (1.0 + 25 * t ** 2))
    A, y = oracle_instance(spec, N, f)
    M_ref, z_ref, errors = _oracle_reference(A, y, f)
    M, z = oracle_least_squares(A, y, f)
    assert M == M_ref or errors[M - 1] <= errors.min() * (1 + 1e-12)
    np.testing.assert_array_equal(z, solve_least_squares(A, y, M))
    if M == M_ref:
        np.testing.assert_array_equal(z, z_ref)


def test_oracle_least_squares_broadcasts_a_scalar_truth():
    # A constant f_true may return a scalar; it is the constant array's
    # sweep, so the answer is the same bits.
    spec = legendre()
    A, y = oracle_instance(spec, 20, lambda t: np.full_like(t, 0.5))
    M, z = oracle_least_squares(A, y, lambda t: 0.5)
    M_arr, z_arr = oracle_least_squares(A, y, lambda t: np.full_like(t, 0.5))
    assert M == M_arr
    np.testing.assert_array_equal(z, z_arr)
    assert sup_error(lambda t: 0.5, z, spec) <= 1e-13


def test_oracle_least_squares_skips_non_finite_errors():
    spec = legendre()
    A, y = oracle_instance(spec, 12, lambda t: 1.0 / (1.0 + 25 * t ** 2))
    assert oracle_least_squares(A, y, lambda t: np.nan) == (None, None)
    assert oracle_least_squares(A, y, lambda t: np.inf) == (None, None)


def test_oracle_least_squares_peak_memory_is_one_block():
    # Fourier, L = 80: the (10000, 80) complex table of a per-M sweep
    # alone is 12.8 MB.  The blocked sweep holds one block of rows, its
    # product and the 80 x 80 coefficients.
    A, y = oracle_instance(fourier(), 80, cospi_expsin)
    tracemalloc.start()
    try:
        M, z = oracle_least_squares(A, y, cospi_expsin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1 <= M <= 80 and np.all(np.isfinite(z))
    assert peak <= 4 << 20


def test_synthesize_basics():
    spec = legendre()
    e1 = np.zeros(4)
    e1[0] = 1.0
    t = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(synthesize(e1, spec, t), np.ones(7),
                               atol=1e-14)
    np.testing.assert_allclose(synthesize(np.zeros(4), spec, t), 0.0,
                               atol=1e-300)
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


def test_sup_error_of_complex_jacobi_coefficients():
    # The matrix path keeps real and imaginary parts apart: against the
    # real part of the table product, the error is the largest imaginary
    # part.
    spec, K = jacobi(1, 0), 40
    rng = np.random.default_rng(5)
    z = rng.normal(size=K) + 1j * rng.normal(size=K)
    expect = eval_table(spec, K, chebyshev_extrema(10000)) @ z
    bound = 16 * K * EPS * np.sum(np.abs(z) * linf_norms(spec, K))
    f_real = lambda t: (eval_table(spec, K, t) @ z).real
    assert abs(sup_error(f_real, z, spec)
               - np.max(np.abs(expect.imag))) <= bound


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
    z = np.random.default_rng(1).normal(size=320) + 0j
    grid = chebyshev_extrema(10000)
    assert sup_error(f, z, fourier()) == np.max(np.abs(synthesize(
        z, fourier(), grid)))
    assert synth == [1, 100, 160, 320]
    assert matrix == [2, 23, 24, 320, 99, 160]


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


def test_sup_error_zero_for_exact_function():
    spec = legendre()
    z = np.array([0.5, -1.2, 0.25])
    f = lambda t: (0.5 * eval_basis(spec, 1, t) - 1.2 * eval_basis(spec, 2, t)
                   + 0.25 * eval_basis(spec, 3, t))
    assert sup_error(f, z, spec) < 1e-13
    with pytest.raises(ValueError):
        sup_error(f, z, spec, resolution=1)


def test_save_result_roundtrip(tmp_path):
    p, _ = small_problem(N=8, K=16)
    res = solve_weighted_l1(p)
    path = tmp_path / "run.txt"
    save_result(path, res)
    lines = path.read_text().splitlines()
    assert lines[0] == "status converged"
    assert lines[1].startswith("objective ")
    assert abs(float(lines[1].split()[1]) - res.objective) == 0.0
    assert len(lines) == 5 + len(res.z)
    assert isinstance(res, SolveResult)


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
    spec = legendre()
    ps = build_pointset(np.sort(grid) / 20.0, spec)
    A = build_matrix(spec, ps, K)
    samples = (A.entries @ np.array(coef)) / np.sqrt(ps.tau)
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
    # samples that differ there lie off the range of A.
    spec = fourier()
    ps = build_pointset(np.linspace(-1.0, 1.0, 6), spec)
    A = build_matrix(spec, ps, 2 * P + 1)
    samples = np.array([0.0] + inner + [jump])
    res = solve_weighted_l1(
        make_problem(A, samples, np.ones(2 * P + 1), eta=1e-3), mode=mode)
    assert res.status == STATUS_INFEASIBLE
    assert res.iterations == 0
