"""End-to-end acceptance checks, one test per release criterion.

Every test prints a single "[criterion N] PASS/FAIL" line carrying the
measured numbers before asserting, so the verdicts survive in captured
output either way.  Tolerances and problem sizes are frozen here on
purpose; treat a failing line as a finding about the code or the claimed
behavior, not as a flaky test to rerun.
"""

import time

import numpy as np
from scipy.special import gammaln, roots_jacobi

from wl1approx.basis import (eval_basis, eval_deriv, eval_table, fourier,
                             jacobi, kappa, legendre, linf_norms,
                             log_weight_mass, project_coefficients)
from wl1approx.diagnostics import (check_dual_certificate, compute_E,
                                   scaling_study, truncation_bound)
from wl1approx.experiments import TEST_FUNCTIONS, get_function
from wl1approx.grid import build_pointset, generate
from wl1approx.sampling import (build_matrix, choose_K, make_weights,
                                smallest_nonzero_singular_value)
from wl1approx.solver import (lp_oracle, make_problem, oracle_least_squares,
                              solve_least_squares, solve_weighted_l1,
                              sup_error, synthesize)

PARAMS = (-0.5, 0.0, 0.5, 1.0)


def _verdict(n: int, failures, detail: str) -> None:
    tag = "PASS" if not failures else "FAIL"
    print("[criterion %d] %s: %s" % (n, tag, detail))
    assert not failures, "; ".join(failures)


def _rsquared(x, logy):
    slope, icept = np.polyfit(x, logy, 1)
    resid = logy - (slope * x + icept)
    total = logy - np.mean(logy)
    return 1.0 - float(resid @ resid) / float(total @ total)


def test_criterion_1_polynomial_system():
    t0 = time.perf_counter()
    failures = []

    worst_gram = 0.0
    for a in PARAMS:
        for b in PARAMS:
            spec = jacobi(a, b)
            x, qw = roots_jacobi(180, a, b)
            qw = qw / np.exp(log_weight_mass(a, b))
            T = eval_table(spec, 51, x)
            G = T.T @ (qw[:, None] * T)
            worst_gram = max(worst_gram,
                             float(np.max(np.abs(G - np.eye(51)))))
    if worst_gram > 1e-10:
        failures.append("orthonormality defect %.3e > 1e-10" % worst_gram)

    worst_kappa = 0.0
    js = np.arange(21)
    for a in PARAMS:
        for b in PARAMS:
            got = kappa(a, b, js)
            with np.errstate(divide="ignore", invalid="ignore"):
                # the closed form has a removable 0/0 at j=0, a+b=-1;
                # the override below supplies that limit
                logk = ((a + b + 1) * np.log(2.0) + gammaln(js + a + 1)
                        + gammaln(js + b + 1) - np.log(2 * js + a + b + 1)
                        - gammaln(js + a + b + 1) - gammaln(js + 1))
            if a + b + 1 == 0.0:
                logk[0] = ((a + b + 1) * np.log(2.0) + gammaln(a + 1)
                           + gammaln(b + 1) - gammaln(a + b + 2))
            ref = np.exp(logk)
            worst_kappa = max(worst_kappa,
                              float(np.max(np.abs(got - ref) / ref)))
    if worst_kappa > 1e-12:
        failures.append("norm-constant mismatch %.3e > 1e-12" % worst_kappa)

    worst_d = 0.0
    t = np.linspace(-0.9, 0.9, 25)
    step = 1e-5
    for a in PARAMS:
        for b in PARAMS:
            spec = jacobi(a, b)
            for i in (1, 2, 6, 11, 26, 51):
                d = eval_deriv(spec, i, t, order=1)
                fd = (eval_basis(spec, i, t + step)
                      - eval_basis(spec, i, t - step)) / (2 * step)
                scale = 1.0 + float(np.max(np.abs(d)))
                worst_d = max(worst_d, float(np.max(np.abs(fd - d))) / scale)
    if worst_d > 1e-6:
        failures.append("derivative defect %.3e > 1e-6" % worst_d)

    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append("runtime %.1fs >= 10s" % elapsed)
    _verdict(1, failures,
             "gram %.2e, norm constants %.2e, derivatives %.2e, %.1fs"
             % (worst_gram, worst_kappa, worst_d, elapsed))


def test_criterion_2_coarse_grid_duplicate_columns():
    t0 = time.perf_counter()
    failures = []
    bas = fourier()

    ps = build_pointset(generate("equispaced", 11), bas)
    A = build_matrix(bas, ps, 21)
    labels = A.column_labels()
    col = {j: A.entries[:, labels == j][:, 0] for j in (-10, 0, 10)}
    dup = max(float(np.max(np.abs(col[0] - col[10]))),
              float(np.max(np.abs(col[0] - col[-10]))))
    if dup > 1e-15:
        failures.append("duplicate columns differ by %.2e > 1e-15" % dup)

    ones = np.ones(11)
    prob = make_problem(A, ones, np.ones(21))
    cands = []
    z0 = np.zeros(21, complex)
    z0[labels == 0] = 1.0
    cands.append(("freq 0", z0))
    zs = np.zeros(21, complex)
    zs[labels == 10] = 0.5
    zs[labels == -10] = 0.5
    cands.append(("freqs +-10", zs))
    for name, z in cands:
        res = float(np.max(np.abs(A.entries @ z - prob.y)))
        obj = float(np.sum(np.abs(z)))
        if res > 1e-14 or abs(obj - 1.0) > 1e-14:
            failures.append("%s candidate: residual %.2e, objective %.16f"
                            % (name, res, obj))

    wv = make_weights(bas, 21, "fourier_gamma", gamma=0.5)
    rw = solve_weighted_l1(make_problem(A, ones, wv), mode="equality")
    dom = int(labels[np.argmax(np.abs(rw.z))])
    if dom != 0:
        failures.append("weighted minimizer concentrates at frequency %d"
                        % dom)

    f = get_function("cospi_expsin")
    ps20 = build_pointset(generate("equispaced", 20), bas)
    A20 = build_matrix(bas, ps20, 81)
    samples = f(ps20.points)
    unw = solve_weighted_l1(make_problem(A20, samples, np.ones(81)),
                            mode="equality")
    err_unw = sup_error(f, unw.z, bas)
    wv20 = make_weights(bas, 81, "fourier_gamma", gamma=0.5)
    weq = solve_weighted_l1(make_problem(A20, samples, wv20),
                            mode="equality")
    err_weq = sup_error(f, weq.z, bas)
    wineq = solve_weighted_l1(make_problem(A20, samples, wv20, eta=1e-2),
                              mode="inequality")
    err_wineq = sup_error(f, wineq.z, bas)
    if not err_unw > 1e-1:
        failures.append("unweighted error %.3e not > 1e-1" % err_unw)
    if not err_weq < 5e-3:
        failures.append("weighted equality error %.3e not < 5e-3" % err_weq)
    if not err_wineq < 5e-2:
        failures.append("weighted ball error %.3e not < 5e-2" % err_wineq)

    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append("runtime %.1fs >= 60s" % elapsed)
    _verdict(2, failures,
             "column gap %.2e, dominant freq %d, errors %.2e / %.2e / %.2e, "
             "%.1fs" % (dup, dom, err_unw, err_weq, err_wineq, elapsed))


def test_criterion_3_solver_matches_lp():
    t0 = time.perf_counter()
    failures = []
    bas = legendre()
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for trial in range(100):
        N = int(rng.integers(2, 9))
        K = int(rng.integers(2, 17))
        pts = np.sort(rng.uniform(-0.999, 0.999, N))
        ps = build_pointset(pts, bas)
        A = build_matrix(bas, ps, K)
        x0 = rng.standard_normal(K) * (rng.random(K) < 0.5)
        samples = synthesize(x0, bas, ps.points)
        w = 0.5 + rng.random(K)
        prob = make_problem(A, samples, w)
        _, ref = lp_oracle(A, prob.y, w)
        got = solve_weighted_l1(prob, mode="equality").objective
        rel = abs(got - ref) / max(abs(ref), 1e-12)
        worst = max(worst, rel)
        if rel > 1e-6:
            failures.append("trial %d (N=%d K=%d): objective %.10g vs LP "
                            "%.10g" % (trial, N, K, got, ref))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append("runtime %.1fs >= 60s" % elapsed)
    _verdict(3, failures,
             "100 instances, worst relative objective gap %.2e, %.1fs"
             % (worst, elapsed))


def test_criterion_4_equality_mode_interpolates():
    failures = []
    bas = legendre()
    ps = build_pointset(generate("equispaced", 20), bas)
    A = build_matrix(bas, ps, 80)
    w = np.arange(1, 81, dtype=float)
    worst = 0.0
    for fid in sorted(TEST_FUNCTIONS):
        f = get_function(fid)
        samples = f(ps.points)
        res = solve_weighted_l1(make_problem(A, samples, w),
                                mode="equality")
        gap = float(np.max(np.abs(synthesize(res.z, bas, ps.points)
                                  - samples)))
        tol = 1e-6 * (1.0 + float(np.max(np.abs(samples))))
        worst = max(worst, gap / tol)
        if gap > tol:
            failures.append("%s: node mismatch %.3e > %.3e (%s)"
                            % (fid, gap, tol, res.status))
    _verdict(4, failures,
             "%d functions, worst node mismatch at %.2f of tolerance"
             % (len(TEST_FUNCTIONS), worst))


def test_criterion_5_truncation_rule():
    t0 = time.perf_counter()
    failures = []
    bas = legendre()
    details = []
    for N in (10, 20, 40):
        ps = build_pointset(generate("equispaced", N), bas)
        A = build_matrix(bas, ps, 4 * N)
        sig = smallest_nonzero_singular_value(A)
        K = choose_K(bas, ps, 0.5)
        details.append("N=%d sigma %.3f K %d" % (N, sig, K))
        if sig < 0.5:
            failures.append("N=%d: sigma %.4f < 0.5" % (N, sig))
        if K > 4 * N:
            failures.append("N=%d: chose K=%d > %d" % (N, K, 4 * N))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append("runtime %.1fs >= 60s" % elapsed)
    _verdict(5, failures, "%s, %.1fs" % ("; ".join(details), elapsed))


def test_criterion_6_gram_defect_decay_rates():
    t0 = time.perf_counter()
    failures = []
    # one extra level for the polynomial run: its coarsest grid is outside
    # the admissible mesh regime and gets dropped
    _, sl = scaling_study(legendre(), "equispaced", 8, n_levels=8)
    _, sf = scaling_study(fourier(), "jittered", 8, n_levels=7)
    if sl["E2"] < 0.35:
        failures.append("polynomial E2 exponent %.3f < 0.35" % sl["E2"])
    if sl["Einf"] < 0.85:
        failures.append("polynomial Einf exponent %.3f < 0.85" % sl["Einf"])
    if sf["E2"] < 0.85:
        failures.append("exponential E2 exponent %.3f < 0.85" % sf["E2"])
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append("runtime %.1fs >= 120s" % elapsed)
    _verdict(6, failures,
             "exponents: polynomial E2 %.2f Einf %.2f, exponential E2 %.2f, "
             "%.1fs" % (sl["E2"], sl["Einf"], sf["E2"], elapsed))


def test_criterion_7_error_bound_envelopes():
    failures = []
    bas = legendre()
    L = 200
    fids = ("runge25", "cospi_expsin", "runge50")
    coeffs = {}
    for fid in fids:
        pr = project_coefficients(get_function(fid), bas, L)
        assert pr.converged
        coeffs[fid] = pr.coeffs
    sup = linf_norms(bas, L)

    ls_checked = 0
    ls_worst = 0.0
    for fid in fids:
        f = get_function(fid)
        x = coeffs[fid]
        for N in (40, 80, 160):
            ps = build_pointset(generate("equispaced", N), bas)
            AL = build_matrix(bas, ps, L)
            y = np.sqrt(ps.tau) * f(ps.points)
            eta = float(np.linalg.norm(y - AL.entries @ x))
            for M in (4, 6, 8, 12):
                eps, _ = compute_E(AL, M)
                if eps >= 1.0:
                    continue
                zc = solve_least_squares(AL, y, M)
                diff = x.copy()
                diff[:M] -= zc
                lhs = float(np.linalg.norm(diff))
                tail = float(sup[M:] @ np.abs(x[M:]))
                rhs = ((1 + 1 / np.sqrt(1 - eps)) * tail
                       + eta / np.sqrt(1 - eps))
                ls_checked += 1
                ls_worst = max(ls_worst, lhs / rhs)
                if lhs > rhs:
                    failures.append(
                        "LS %s N=%d M=%d: error %.3e above bound %.3e"
                        % (fid, N, M, lhs, rhs))
    if ls_checked < 10:
        failures.append("only %d LS runs applicable" % ls_checked)

    wl1_checked = 0
    wl1_worst = 0.0
    w_ext = np.arange(1, L + 1, dtype=float)
    for fid in fids:
        f = get_function(fid)
        x = coeffs[fid]
        for N in (20, 40):
            K = 4 * N
            ps = build_pointset(generate("equispaced", N), bas)
            A = build_matrix(bas, ps, K)
            wv = make_weights(bas, K, "poly_gamma", gamma=1.0, relax=True)
            res = solve_weighted_l1(make_problem(A, f(ps.points), wv),
                                    mode="equality")
            diff = x.copy()
            diff[:K] -= res.z
            lhs = float(np.linalg.norm(diff))
            tb = truncation_bound(A, w_ext, x)
            for M in (3, 4, 5, 6, 8):
                sg = np.where(np.abs(x[:M]) > 1e-13, np.sign(x[:M]), 1.0)
                cert = check_dual_certificate(A, wv, np.arange(M), sg)
                if not cert.satisfied:
                    continue
                rhs = 10.0 * (float(w_ext[M:] @ np.abs(x[M:])) + tb)
                wl1_checked += 1
                wl1_worst = max(wl1_worst, lhs / rhs)
                if lhs > rhs:
                    failures.append(
                        "wl1 %s N=%d M=%d: error %.3e above envelope %.3e"
                        % (fid, N, M, lhs, rhs))
    if wl1_checked < 10:
        failures.append("only %d certified wl1 runs" % wl1_checked)

    _verdict(7, failures,
             "%d LS runs (worst ratio %.3f), %d certified wl1 runs "
             "(worst ratio %.2e)" % (ls_checked, ls_worst, wl1_checked,
                                     wl1_worst))


def test_criterion_8_rate_comparison():
    # runge50 has poles at +-i/sqrt(50), a Bernstein ellipse parameter of
    # about 1.15: one decade of error costs ~16 degrees, so the 100x drop
    # shows only near N ~ 240 (oracle LS) to 320 (weighted l1).
    t0 = time.perf_counter()
    failures = []
    bas = legendre()
    f = get_function("runge50")
    Ns = np.array([10, 20, 40, 60, 80, 160, 320])
    err_l1 = []
    err_ls = []
    status_l1 = []
    for N in Ns:
        K = 4 * N
        ps = build_pointset(generate("equispaced", int(N)), bas)
        A = build_matrix(bas, ps, K)
        samples = f(ps.points)
        w = np.arange(1, K + 1, dtype=float)
        res = solve_weighted_l1(make_problem(A, samples, w),
                                mode="equality")
        err_l1.append(sup_error(f, res.z, bas))
        status_l1.append(res.status)
        _, zb = oracle_least_squares(A, np.sqrt(ps.tau) * samples, f)
        err_ls.append(sup_error(f, zb, bas))
    err_l1 = np.array(err_l1)
    err_ls = np.array(err_ls)

    ratios = err_l1 / err_ls
    for N, ratio in zip(Ns, ratios):
        if ratio > 10.0:
            failures.append("N=%d error ratio %.2f > 10" % (N, ratio))
    dec_l1 = err_l1[0] / err_l1[-1]
    dec_ls = err_ls[0] / err_ls[-1]
    span = "from N=%d to N=%d" % (Ns[0], Ns[-1])
    if dec_l1 < 100.0:
        failures.append("weighted-l1 error only fell %.1fx %s (needs 100x)"
                        % (dec_l1, span))
    if dec_ls < 100.0:
        failures.append("oracle LS error only fell %.1fx %s (needs 100x)"
                        % (dec_ls, span))
    r2_ls = _rsquared(np.sqrt(Ns), np.log(err_ls))
    r2_l1 = _rsquared(np.sqrt(Ns[1:]), np.log(err_l1[1:]))
    if r2_ls < 0.9:
        failures.append("oracle LS log-error vs sqrt(N) fit R2 %.3f < 0.9"
                        % r2_ls)
    if r2_l1 < 0.9:
        failures.append("weighted-l1 log-error vs sqrt(N) fit R2 %.3f < "
                        "0.9 (N >= %d branch)" % (r2_l1, Ns[1]))

    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        failures.append("runtime %.1fs >= 600s" % elapsed)
    worst = int(np.argmax(ratios))
    fmt = {"float_kind": lambda x: "%.4g" % x}
    _verdict(8, failures,
             "N %s, errors l1 %s ls %s, l1 status %s, ratio max %.2f@%d "
             "last %.2f@%d, decrease %.1fx/%.1fx %s, R2 %.3f/%.3f, %.1fs"
             % (np.array2string(Ns), np.array2string(err_l1, formatter=fmt),
                np.array2string(err_ls, formatter=fmt), "/".join(status_l1),
                ratios[worst], Ns[worst], ratios[-1], Ns[-1], dec_l1,
                dec_ls, span, r2_l1, r2_ls, elapsed))
