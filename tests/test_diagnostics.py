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

from wl1approx.basis import (eval_basis, fourier, frequencies,
                             leading_indices, legendre, linf_norms)
from wl1approx.grid import build_pointset, generate
from wl1approx.sampling import (build_matrix, make_weights,
                                smallest_nonzero_singular_value)
from wl1approx.diagnostics import (REPORT_COLUMNS, CertificateResult,
                                   DiagnosticsReport, check_dual_certificate,
                                   compute_E, compute_F, scaling_study,
                                   truncation_bound)
from wl1approx.experiments import _write_csv


def brute_gram(U, M):
    ps = U.pointset
    labels = U.column_labels()[leading_indices(U.basis, U.n_columns, M)]
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
        pts = np.sort(rng.uniform(-1, 1, 18))
        ps = build_pointset(pts, spec)
        U = build_matrix(spec, ps, 11)
        for M in (2, 5, 9):
            E2, Einf = compute_E(U, M)
            D = np.eye(M) - brute_gram(U, M)
            assert abs(E2 - np.linalg.norm(D, 2)) < 1e-12
            assert abs(Einf - np.max(np.sum(np.abs(D), axis=1))) < 1e-12


def test_compute_e_two_point_example():
    # G = diag(1, 3/4) for the symmetric pair, so both deviations are 1/4.
    ps = build_pointset([-0.5, 0.5], legendre())
    U = build_matrix(legendre(), ps, 2)
    E2, Einf = compute_E(U, 2)
    assert abs(E2 - 0.25) < 1e-14
    assert abs(Einf - 0.25) < 1e-14


def test_compute_f_matches_brute_force():
    rng = np.random.default_rng(29)
    for spec in (legendre(), fourier()):
        pts = np.sort(rng.uniform(-1, 1, 14))
        ps = build_pointset(pts, spec)
        K, M, R = 13, 3, 6
        U = build_matrix(spec, ps, K)
        W = make_weights(spec, K, scheme="unit")
        got = compute_F(U, W, M, R)
        C = U.entries.conj().T @ U.entries[:, leading_indices(spec, K, M)]
        rows = np.abs(C).sum(axis=1) / W.w
        tail = np.ones(K, bool)
        tail[leading_indices(spec, K, R)] = False
        assert abs(got - rows[tail].max()) < 1e-14


def test_compute_f_validation():
    ps = build_pointset(generate("equispaced", 8), legendre())
    U = build_matrix(legendre(), ps, 10)
    W = make_weights(legendre(), 10)
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
        ps = build_pointset(pts, spec)
        K = int(rng.integers(8, 14))
        M = int(rng.integers(1, 5))
        R = int(rng.integers(M, K - 1))
        U = build_matrix(spec, ps, K)
        W = make_weights(spec, K, scheme="unit")
        F = compute_F(U, W, M, R)
        E2, _ = compute_E(U, M)
        sup = linf_norms(spec, K)
        tail = np.ones(K, bool)
        tail[leading_indices(spec, K, R)] = False
        ratio = np.max(sup[tail] / W.w[tail])
        assert F <= np.sqrt(M * (1.0 + E2)) * ratio * (1 + 1e-12)


def test_certificate_validation():
    ps = build_pointset(generate("equispaced", 6), legendre())
    U = build_matrix(legendre(), ps, 8)
    W = make_weights(legendre(), 8)
    with pytest.raises(ValueError):
        check_dual_certificate(U, W, [])
    with pytest.raises(ValueError):
        check_dual_certificate(U, W, [1, 1])
    with pytest.raises(ValueError):
        check_dual_certificate(U, W, [8])
    with pytest.raises(ValueError):
        check_dual_certificate(U, W, [0, 1], signs=[1.0, 0.5])
    with pytest.raises(ValueError):
        check_dual_certificate(U, W, [0, 1], signs=[1.0])


def test_certificate_single_node():
    spec = legendre()
    ps = build_pointset([0.0], spec)
    U1 = build_matrix(spec, ps, 1)
    W1 = make_weights(spec, 1)
    cert = check_dual_certificate(U1, W1, [0])
    assert isinstance(cert, CertificateResult)
    assert cert.alpha == 0.0 and cert.theta == 0.0 and cert.satisfied

    K = 5
    U = build_matrix(spec, ps, K)
    W = make_weights(spec, K)
    got = check_dual_certificate(U, W, [0])
    vals = np.array([eval_basis(spec, i, np.array([0.0]))[0]
                     for i in range(1, K + 1)])
    expect_theta = np.max(np.abs(vals[1:]) / W.w[1:])
    assert abs(got.alpha) < 1e-14
    assert abs(got.theta - expect_theta) < 1e-14
    assert got.satisfied


def test_certificate_aliased_columns():
    spec = fourier()
    ps = build_pointset(generate("equispaced", 11), spec)
    U = build_matrix(spec, ps, 21)
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
    ps = build_pointset(generate("equispaced", 10), spec)
    U = build_matrix(spec, ps, 8)
    w_ext = make_weights(spec, 12, scheme="poly_gamma", gamma=1.0,
                         relax=True).w
    x = np.zeros(12)
    x[:8] = np.random.default_rng(3).normal(size=8)
    sigma = smallest_nonzero_singular_value(U)
    assert truncation_bound(U, w_ext, x, sigma) == (0.0, 0.0)


def test_truncation_bound_formula_and_modes():
    spec = legendre()
    ps = build_pointset(generate("equispaced", 10), spec)
    K, L = 8, 14
    U = build_matrix(spec, ps, K)
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

    with pytest.raises(ValueError):
        truncation_bound(U, w[:7], x[:7], sigma)


def test_truncation_bound_decreases_with_k():
    spec = legendre()
    ps = build_pointset(generate("equispaced", 30), spec)
    L = 80
    res = np.random.default_rng(8)
    x = np.exp(-0.4 * np.arange(L))
    w = make_weights(spec, L, scheme="poly_gamma", gamma=1.0, relax=True).w
    bounds = []
    for K in (10, 20, 40):
        U = build_matrix(spec, ps, K)
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
    with pytest.raises(ValueError):
        scaling_study(legendre(), "equispaced", 4, n_levels=4)
    with pytest.raises(ValueError):
        scaling_study(legendre(), "equispaced", 40, n_levels=5)
