"""Gram-deviation measures, dual certificates, truncation bounds, scaling.

compute_E and compute_F are re-derived entry by entry from discrete inner
products inside the tests; the certificate checker is exercised on cases
whose Gram structure is known exactly (single nodes, aliased duplicate
columns); the refinement study is checked for reproducibility and for
decay exponents clearly above zero.
"""

from dataclasses import astuple

import numpy as np
import pytest

from problems import problem
from wl1approx.basis import (eval_basis, fourier, frequencies,
                             leading_indices, legendre, linf_norms,
                             project_coefficients)
from wl1approx.sampling import (default_weights, make_weights,
                                smallest_nonzero_singular_value)
from wl1approx.diagnostics import (REPORT_COLUMNS, CertificateResult,
                                   DiagnosticsReport, _admissible,
                                   check_dual_certificate, compute_E,
                                   compute_F, scaling_study,
                                   truncation_bound)
from wl1approx.experiments import (ExperimentConfig, _fmt, _write_csv,
                                   get_function, run_diagnostics)


def brute_gram(U, M):
    ps = U.pointset
    labels = U.column_labels()[leading_indices(U.basis, U.shape[1], M)]
    G = np.zeros((M, M), dtype=U.entries.dtype)
    for a, la_ in enumerate(labels):
        ia = int(la_) if U.basis.is_complex else int(la_) + 1
        fa = eval_basis(U.basis, ia, ps.points)
        for b, lb in enumerate(labels):
            ib = int(lb) if U.basis.is_complex else int(lb) + 1
            fb = eval_basis(U.basis, ib, ps.points)
            G[a, b] = np.sum(ps.tau * fb * np.conj(fa))
    return G


@pytest.mark.parametrize("spec", [legendre(), fourier()])
def test_compute_e_matches_brute_force(spec):
    rng = np.random.default_rng(17)
    for trial in range(6):
        U = problem(spec, np.sort(rng.uniform(-1, 1, 18)), 11).A
        for M in (2, 5, 9):
            E2, Einf = compute_E(U, M)
            D = np.eye(M) - brute_gram(U, M)
            assert abs(E2 - np.linalg.norm(D, 2)) < 1e-12
            assert abs(Einf - np.max(np.sum(np.abs(D), axis=1))) < 1e-12


def test_compute_e_two_point_example():
    # G = diag(1, 3/4) for the symmetric pair, so both deviations are 1/4.
    E2, Einf = compute_E(problem(legendre(), [-0.5, 0.5], 2).A, 2)
    assert abs(E2 - 0.25) < 1e-14
    assert abs(Einf - 0.25) < 1e-14


def test_compute_f_matches_brute_force():
    rng = np.random.default_rng(29)
    for spec in (legendre(), fourier()):
        K, M, R = 13, 3, 6
        p = problem(spec, np.sort(rng.uniform(-1, 1, 14)), K, weights="unit")
        U, W = p.A, p.w
        got = compute_F(U, W, M, R)
        C = U.entries.conj().T @ U.entries[:, leading_indices(spec, K, M)]
        rows = np.abs(C).sum(axis=1) / W.w
        tail = np.ones(K, bool)
        tail[leading_indices(spec, K, R)] = False
        assert abs(got - rows[tail].max()) < 1e-14


def test_compute_f_validation():
    p = problem(legendre(), 8, 10, weights="unit")
    U, W = p.A, p.w
    with pytest.raises(ValueError):
        compute_F(U, W, 5, 4)
    with pytest.raises(ValueError):
        compute_F(U, W, 2, 10)
    with pytest.raises(ValueError):
        compute_F(U, np.ones(9), 2, 5)


def test_compute_f_cauchy_schwarz_envelope():
    # Row sums over M columns obey F <= sqrt(M (1+E2)) * max tail
    # sup-to-weight ratio; a consequence independent of the implementation.
    rng = np.random.default_rng(31)
    for trial in range(20):
        spec = legendre() if trial % 2 else fourier()
        N = int(rng.integers(8, 20))
        pts = np.sort(rng.uniform(-1, 1, N))
        K = int(rng.integers(8, 14))
        M = int(rng.integers(1, 5))
        R = int(rng.integers(M, K - 1))
        p = problem(spec, pts, K, weights="unit")
        U, W = p.A, p.w
        F = compute_F(U, W, M, R)
        E2, _ = compute_E(U, M)
        sup = linf_norms(spec, K)
        tail = np.ones(K, bool)
        tail[leading_indices(spec, K, R)] = False
        ratio = np.max(sup[tail] / W.w[tail])
        assert F <= np.sqrt(M * (1.0 + E2)) * ratio * (1 + 1e-12)


def test_certificate_validation():
    p = problem(legendre(), 6, 8, weights="unit")
    U, W = p.A, p.w
    with pytest.raises(ValueError):
        check_dual_certificate(U, W, [])
    with pytest.raises(ValueError):
        check_dual_certificate(U, W, [1, 1])
    with pytest.raises(ValueError):
        check_dual_certificate(U, W, [0, 8])
    with pytest.raises(ValueError):
        check_dual_certificate(U, W, [-1, 0])
    with pytest.raises(ValueError):
        check_dual_certificate(U, W, [0, 1], signs=[1.0, 0.5])
    with pytest.raises(ValueError):
        check_dual_certificate(U, W, [0, 1], signs=[1.0])


def test_certificate_single_node():
    spec = legendre()
    p1 = problem(spec, [0.0], 1, weights="unit")
    cert = check_dual_certificate(p1.A, p1.w, [0])
    assert isinstance(cert, CertificateResult)
    assert cert.alpha == 0.0 and cert.theta == 0.0 and cert.satisfied

    K = 5
    p = problem(spec, [0.0], K, weights="unit")
    W = p.w
    got = check_dual_certificate(p.A, W, [0])
    vals = np.array([eval_basis(spec, i, np.array([0.0]))[0]
                     for i in range(1, K + 1)])
    expect_theta = np.max(np.abs(vals[1:]) / W.w[1:])
    assert abs(got.alpha) < 1e-14
    assert abs(got.theta - expect_theta) < 1e-14
    assert got.satisfied


def test_certificate_aliased_columns():
    spec = fourier()
    U = problem(spec, 11, 21).A
    fr = frequencies(21)
    pos0 = int(np.flatnonzero(fr == 0)[0])

    flat = check_dual_certificate(U, make_weights(spec, 21), [pos0])
    # the duplicate columns at +-10 correlate fully with the certificate
    assert abs(flat.theta - 1.0) < 1e-12
    assert not flat.satisfied

    grown = check_dual_certificate(
        U, make_weights(spec, 21, scheme="fourier_gamma", gamma=0.5), [pos0])
    assert grown.theta < 0.5
    assert grown.satisfied

    both = check_dual_certificate(
        U, make_weights(spec, 21),
        [pos0, int(np.flatnonzero(fr == 10)[0])])
    assert abs(both.alpha - 1.0) < 1e-12
    assert both.theta == np.inf
    assert not both.satisfied


def test_truncation_bound_zero_tail():
    spec = legendre()
    U = problem(spec, 10, 8).A
    w_ext = make_weights(spec, 12, scheme="poly_gamma", gamma=1.0,
                         relax=True).w
    x = np.zeros(12)
    x[:8] = np.random.default_rng(3).normal(size=8)
    sigma = smallest_nonzero_singular_value(U)
    assert truncation_bound(U, w_ext, x, sigma) == (0.0, 0.0)
    assert truncation_bound(U, w_ext[:8], x[:8], sigma) == (0.0, 0.0)


def test_truncation_bound_formula_and_modes():
    spec = legendre()
    K, L = 8, 14
    U = problem(spec, 10, K).A
    rng = np.random.default_rng(4)
    x = rng.normal(size=L) / np.arange(1, L + 1) ** 2
    w = make_weights(spec, L, scheme="poly_gamma", gamma=1.0, relax=True).w

    s = np.linalg.svd(U.entries, compute_uv=False)
    rank = int(np.count_nonzero(s > 1e-10 * s[0]))
    sigma = s[rank - 1]
    tail = np.arange(L) >= K
    tail_l1w = w[tail] @ np.abs(x[tail])
    expect_plain = tail_l1w * (1.0 + np.linalg.norm(w[~tail]) / sigma)
    wt = np.sqrt(np.arange(1, L + 1)) * w ** 2
    expect_tilde = tail_l1w + (wt[tail] @ np.abs(x[tail])) / sigma
    got_plain, got_tilde = truncation_bound(U, w, x, sigma)
    assert abs(got_plain - expect_plain) < 1e-12 * expect_plain
    assert abs(got_tilde - expect_tilde) < 1e-12 * expect_tilde

    with pytest.raises(ValueError, match="shorter than the truncation"):
        truncation_bound(U, w[:7], x[:7], sigma)


def test_truncation_bound_decreases_with_k():
    spec = legendre()
    L = 80
    x = np.exp(-0.4 * np.arange(L))
    w = make_weights(spec, L, scheme="poly_gamma", gamma=1.0, relax=True).w
    bounds = []
    for K in (10, 20, 40):
        U = problem(spec, 30, K).A
        sigma = smallest_nonzero_singular_value(U)
        bounds.append(truncation_bound(U, w, x, sigma)[0])
    assert bounds[0] > bounds[1] > bounds[2]


def test_report_csv_layout(tmp_path):
    rows = [DiagnosticsReport(h=0.1, xi=0.05, N=10, M=3, R=6, K=12, E2=0.2,
                              Einf=0.3, F=0.4, sigma_min=0.9, alpha=0.5,
                              theta=0.6, trunc_w=float("nan"),
                              trunc_wtilde=float("inf"))]
    path = tmp_path / "report.csv"
    _write_csv(path, REPORT_COLUMNS, map(astuple, rows))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS) == (
        "h,xi,N,M,R,K,E2,Einf,F,sigma_min,alpha,theta,trunc_w,trunc_wtilde")
    cells = lines[1].split(",")
    assert cells[0] == "0.10000000000000001"
    assert cells[2] == "10" and cells[3] == "3" and cells[5] == "12"
    assert cells[-2] == "nan" and cells[-1] == "inf"


@pytest.mark.parametrize("spec,label,fid", [
    (legendre(), "legendre", "runge25"), (fourier(), "fourier", "peaks500")],
    ids=["legendre", "fourier"])
def test_diagnostics_row_is_built_from_the_public_parts(tmp_path, spec,
                                                        label, fid):
    # One (N, M) cell recomputed from its parts: the surrogate quantities
    # on 4M columns at --gamma, sigma_min and the truncation bounds at the
    # run's K = 4N against the first 2K coefficients.
    N, M, gamma = 12, 3, 0.75
    cfg = ExperimentConfig(experiment="diagnostics", basis=label,
                           n_list=(N,), m_list=(M,), gamma=gamma,
                           functions=(fid,), out_dir=str(tmp_path))
    out = run_diagnostics(cfg)
    p = problem(spec, N, 4 * M, gamma=gamma)
    S, W, ps = p.A, p.w, p.A.pointset
    E2, Einf = compute_E(S, M)
    cert = check_dual_certificate(S, W, leading_indices(spec, 4 * M, M))
    U = problem(spec, N, 4 * N).A
    sigma = smallest_nonzero_singular_value(U)
    coeffs = project_coefficients(get_function(fid), spec, 8 * N).coeffs
    trunc = truncation_bound(U, default_weights(spec, 8 * N, gamma), coeffs,
                             sigma)
    expect = (ps.h, ps.xi, N, M, 2 * M, 4 * N, E2, Einf,
              compute_F(S, W, M, 2 * M), sigma, cert.alpha, cert.theta,
              *trunc)
    lines = open(out["csv"]).read().splitlines()
    assert lines[1:] == [",".join(_fmt(v) for v in expect)]

    for line in open(out["scaling"]).read().splitlines()[1:]:
        row = dict(zip(REPORT_COLUMNS, line.split(",")))
        assert row["K"] == str(4 * M)
        assert row["trunc_w"] == row["trunc_wtilde"] == "nan"


def test_scaling_study_legendre_decay():
    rows, slopes = scaling_study(legendre(), "equispaced", 4, n_levels=5)
    assert len(rows) >= 5
    ns = [r.N for r in rows]
    assert all(b == 2 * a for a, b in zip(ns, ns[1:]))
    hs = [r.h for r in rows]
    assert all(b < a for a, b in zip(hs, hs[1:]))
    for r in rows:
        assert np.isnan(r.trunc_w) and np.isnan(r.trunc_wtilde)
        assert r.R == 8 and r.K == 16
    assert slopes["E2"] > 0.5
    assert slopes["Einf"] > 0.5
    assert slopes["F"] > 0.5


def test_scaling_study_jittered_reproducible():
    r1, s1 = scaling_study(fourier(), "jittered", 4, n_levels=5, seed=11)
    r2, s2 = scaling_study(fourier(), "jittered", 4, n_levels=5, seed=11)
    assert [r.h for r in r1] == [r.h for r in r2]
    assert s1 == s2
    r3, _ = scaling_study(fourier(), "jittered", 4, n_levels=5, seed=12)
    assert [r.h for r in r1] != [r.h for r in r3]
    assert s1["E2"] > 0.5


def test_scaling_study_validation():
    # The regimes of the decay laws, boundaries included: h M <= 1 for the
    # exponentials, h M^2 <= 1 for Jacobi bases.
    assert _admissible(fourier(), 0.25, 4)
    assert not _admissible(fourier(), 0.3, 4)
    assert _admissible(legendre(), 0.0625, 4)
    assert not _admissible(legendre(), 0.07, 4)
    with pytest.raises(ValueError):
        scaling_study(legendre(), "equispaced", 4, n_levels=4)
    with pytest.raises(ValueError):
        scaling_study(legendre(), "equispaced", 40, n_levels=5)
