"""Weighted-l1 solver: optimality, feasibility, covariance, degeneracy.

The ground truth for optimality is an exact linear-programming
reformulation solved by an independent simplex backend; everything else is
checked against hand-solvable instances or structural properties that hold
for every run (interpolation, scaling covariance, monotone monitoring).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wl1approx.basis import eval_basis, eval_table, fourier, frequencies, legendre
from wl1approx.grid import build_pointset, generate
from wl1approx.sampling import build_matrix, make_weights
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
    return np.sqrt(A.pointset.tau) * np.ones(A.n_points)


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
    assert MAX_ITER == 200000


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


def test_stalled_solve_stops_early():
    # A zero gap tolerance cannot be met; the solve stops once its steps
    # make no progress instead of running on toward max_iter.
    p, _ = small_problem(N=20, K=80)
    res = solve_weighted_l1(p, tol_gap=0.0)
    assert res.status == STATUS_MAX_ITER
    assert res.iterations <= 100
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


def test_synthesize_basics():
    spec = legendre()
    e1 = np.zeros(4)
    e1[0] = 1.0
    t = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(synthesize(e1, spec, t), np.ones(7),
                               atol=1e-14)
    np.testing.assert_allclose(synthesize(np.zeros(4), spec, t), 0.0,
                               atol=1e-300)
    val = synthesize(e1, spec, 0.3)
    assert np.isscalar(val) or np.ndim(val) == 0
    rng = np.random.default_rng(9)
    z = rng.normal(size=5)
    expect = eval_table(spec, 5, t) @ z
    np.testing.assert_allclose(synthesize(z, spec, t), expect, rtol=1e-13)


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
