"""Solvers for the four fitting problems on sampled data.

Weighted l1 minimization, min sum_i w_i |z_i|, comes in two modes:
equality mode asks for A z = y exactly, inequality mode for
||A z - y|| <= eta.  Both modes, on real or complex data, pose one cone
program in the scaled variable zt = w z and solve it with one dense
primal-dual interior-point method (Mehrotra predictor-corrector,
Nesterov-Todd scaling).  The economy SVD U S Vh of A / w replaces the rows
of A by the independent rows of S Vh, so coinciding sample rows drop out:

* real data: zt = p - q with p, q >= 0, minimizing sum (p + q);
* complex data: one second-order cone (t_i, Re zt_i, Im zt_i) per
  coefficient, minimizing sum t_i;
* noise ball: one more cone (eta', U^H y - S Vh zt), where
  eta' = sqrt(eta^2 - ||y - U U^H y||^2), clamped at 0.

Data farther than eta from the range of A (one test for both modes) are
reported infeasible without iterating.  One stopping rule ends every
solve: the method's primal residual is at most tol_feas ||y||, its dual
residual at most tol_feas, its complementarity x.s at most
tol_gap max(1, c.x), and the residual and duality gap recomputed in data
space from z and the dual vector pass the same tolerances.

Least squares (plain and oracle) and synthesis round out the toolbox.  A
tiny-instance linear-programming oracle (HiGHS) is included for
cross-checking the l1 path on real data.
"""

from __future__ import annotations

import numpy as np
import numpy.linalg as la
from dataclasses import dataclass

from .basis import BasisSpec, eval_table, leading_indices
from .sampling import SamplingMatrix, WeightVector, make_weights

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_INFEASIBLE = "infeasible_detected"

TOL_FEAS = 1e-9   # relative to ||y||
TOL_GAP = 1e-8    # relative to max(1, objective)
MAX_ITER = 200000

MODES = ("equality", "inequality")


@dataclass(frozen=True)
class SamplingProblem:
    """A weighted-l1 instance: matrix, scaled data, weights, noise radius."""

    A: SamplingMatrix
    y: np.ndarray
    w: WeightVector
    eta: float = 0.0

    @property
    def weight_array(self) -> np.ndarray:
        return self.w.w


@dataclass(frozen=True)
class SolveResult:
    z: np.ndarray
    objective: float
    feasibility_residual: float
    duality_gap: float
    iterations: int
    status: str
    # The interior-point complementarity x.s at the start and after each
    # Newton step.
    gap_history: tuple = ()


def make_problem(A: SamplingMatrix, samples, weights, eta: float = 0.0,
                 ) -> SamplingProblem:
    """Assemble a problem from raw point samples f(t_n) + e_n.

    The data vector absorbs the same sqrt(tau_n) row scaling as the matrix,
    so the constraint residual is measured in the discrete norm.
    """
    samples = np.asarray(samples)
    n, K = A.shape
    if samples.shape != (n,):
        raise ValueError("expected %d samples, got %r" % (n, samples.shape))
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples contain NaN or infinity")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if isinstance(weights, WeightVector):
        wv = weights
    else:
        wv = make_weights(A.basis, K, scheme="custom", custom=weights)
    if len(wv) != K:
        raise ValueError("weight vector length %d, matrix has %d columns"
                         % (len(wv), K))
    y = np.sqrt(A.pointset.tau) * samples
    y.setflags(write=False)
    return SamplingProblem(A=A, y=y, w=wv, eta=float(eta))


def l1_objective(z, w) -> float:
    """Weighted l1 norm sum_i w_i |z_i|."""
    w = np.asarray(w)
    return float(w @ np.abs(np.asarray(z)))


def _ipm(G, h, c, cones):
    """Iterates of a primal-dual interior-point method for

        minimize c.x  subject to  G x = h,  x in C,

    C a product of second-order cones stored in x one after another;
    `cones` lists them in blocks of (count, dim), dim 1 being a half-line.
    Newton steps use Nesterov-Todd scaling W (W^-1 x = W s = lam) and
    Mehrotra's predictor-corrector, solving the normal equations through
    a QR factor R of W G^T.  The corrector gets two rounds of iterative
    refinement against all three linearized equations, which recover the
    accuracy that R^T R alone loses on ill-conditioned steps.

    Yields (x, y, x.s, ||h - G x||, max |c - G^T y - s|) before each
    Newton step, the first at the starting point.  Returns when a step
    cannot make progress: its length falls below 1e-8 or x.s below 1e-14
    of max(1, c.x), where rounding outweighs what is left to gain.
    """
    from scipy.linalg.lapack import dgeqrf, dtrtrs

    dims = np.repeat([d for _, d in cones], [k for k, _ in cones])
    heads = np.cumsum(dims) - dims
    cid = np.repeat(np.arange(len(dims)), dims)
    sign = -np.ones(len(c))
    sign[heads] = 1.0
    e = (sign > 0).astype(float)     # identity element of C
    tail = 1.0 - e

    def seg(u):                      # sums over each cone, along the last axis
        return np.add.reduceat(u, heads, axis=-1)

    def prod(u, v):                  # Jordan product u o v
        out = u[heads][cid] * v + v[heads][cid] * u
        out[heads] = seg(u * v)
        return out

    def mul(W, u):                   # W u, or the rows of u times W, for
        v, bv2, bj = W               # W = beta (2 v v^T - J) per cone
        return bv2 * seg(v * u)[..., cid] - bj * u

    def jnorm(u):                    # sqrt(u0^2 - |u1|^2) without cancellation
        n1 = np.sqrt(seg(tail * u * u))
        return np.sqrt((u[heads] - n1) * (u[heads] + n1))

    def step(d):                     # largest a with lam + a d in C
        t = seg(jlb * d)
        rho = tail * (d - ((t + d[heads]) / lb1)[cid] * lb)
        worst = np.max((np.sqrt(seg(rho * rho)) - t) / lnorm)
        return 1.0 / worst if worst > 0 else np.inf

    def newton(rp, rd, rc):          # G dx = rp, G^T dy + ds = rd,
        u0 = seg(jlam * rc)          # lam o (W^-1 dx + W ds) = rc
        u = (rc - u0[cid] * lam) * ilam0     # lam o u = rc
        u[heads] = u0
        u -= mul(W, rd)
        t = dtrtrs(R, rp - M.T @ u, trans=1)[0]
        dy = dtrtrs(R, t)[0]
        wdx = u + M @ dy
        ds = rd - G.T @ dy
        return mul(W, wdx), dy, ds, wdx, mul(W, ds)

    def solve(rp, rd, rc):           # also returns W^-1 dx and W ds
        d = newton(rp, rd, rc)
        for _ in range(2):
            dx, dy, ds, wdx, wds = d
            f = newton(rp - G @ dx, rd - G.T @ dy - ds,
                       rc - prod(lam, wdx + wds))
            d = tuple(a + b for a, b in zip(d, f))
        return d

    def setup(v, beta, lam_):        # scaling W, lam, QR factor of W G^T
        nonlocal W, M, R, lam, jlam, ilam0, lnorm, lb, jlb, lb1
        bc = beta[cid]
        W = (v, 2 * bc * v, bc * sign)
        lam = lam_
        det = seg(sign * lam * lam)
        jlam, ilam0 = sign * lam / det[cid], 1.0 / lam[heads][cid]
        lnorm = np.sqrt(det)
        lb = lam / lnorm[cid]
        jlb, lb1 = sign * lb, lb[heads] + 1
        M = mul(W, G).T
        R = np.triu(dgeqrf(M)[0][:M.shape[1]])

    W = M = R = lam = jlam = ilam0 = lnorm = lb = jlb = lb1 = None
    # Start from the least-norm solutions of the two equality systems,
    # shifted into the cone (W = I).
    setup(e, np.ones(len(dims)), e)
    zero = np.zeros_like(c)
    x = newton(h, zero, zero)[0]
    _, y, s = newton(np.zeros_like(h), c, zero)[:3]
    x, s = (u + max(0.0, 1.0 + np.max(np.sqrt(seg(tail * u * u)) - u[heads]))
            * e for u in (x, s))
    while True:
        xs = float(x @ s)
        rd = c - G.T @ y - s
        yield x, y, xs, float(la.norm(h - G @ x)), float(np.abs(rd).max())
        if not xs > 1e-14 * max(1.0, c @ x):     # also stops on NaN
            return
        a, b = jnorm(x), jnorm(s)
        xb, sb = x / a[cid], s / b[cid]
        gam = np.sqrt((1 + seg(xb * sb)) / 2)
        v = (xb + sign * sb) / (2 * gam)[cid]     # the scaling point
        lam = ((gam + sb[heads])[cid] * xb + (gam + xb[heads])[cid] * sb) \
            / (xb[heads] + sb[heads] + 2 * gam)[cid]
        lam[heads] = gam
        setup((v + e) / np.sqrt(2 * (v[heads] + 1))[cid], np.sqrt(a / b),
              lam * np.sqrt(a * b)[cid])
        rp, ll = h - G @ x, prod(lam, lam)
        _, _, _, wx, ws = newton(rp, rd, -ll)     # predictor
        sigma = (1.0 - min(1.0, step(wx), step(ws))) ** 3
        dx, dy, ds, wdx, wds = solve(rp, rd, sigma * xs / len(dims) * e - ll
                                     - prod(wx, ws))
        alpha = min(1.0, 0.99 * step(wdx), 0.99 * step(wds))
        if not alpha >= 1e-8:
            return
        x, y, s = x + alpha * dx, y + alpha * dy, s + alpha * ds


def solve_weighted_l1(p: SamplingProblem, mode: str = "equality",
                      tol_feas: float = TOL_FEAS, tol_gap: float = TOL_GAP,
                      max_iter: int = MAX_ITER) -> SolveResult:
    """Minimize sum_i w_i |z_i| over the selected constraint set.

    equality:   A z = y exactly (eta ignored).
    inequality: ||A z - y|| <= eta; eta = 0 gives the equality problem.

    Status is infeasible_detected, after 0 iterations, when y lies farther
    than eta from the range of A; converged when the check below passes;
    max_iter otherwise, after max_iter Newton steps or when a step can no
    longer make progress.  The check recomputes, from the returned z and
    the dual vector v mapped to data space and scaled so that
    max_i |(A^H v)_i| / w_i <= 1, the residual max(||A z - y|| - eta, 0)
    and the duality gap sum w|z| - Re<y, v> + max(eta, ||A z - y||) ||v||;
    it passes when the residual is at most tol_feas ||y|| and the gap at
    most tol_gap max(1, objective).  The gap is that of the constraint
    z satisfies, radius max(eta, ||A z - y||), so by weak duality it is
    nonnegative for every status, up to rounding.
    """
    if mode not in MODES:
        raise ValueError("unknown mode %r" % (mode,))
    A = p.A.entries
    y = np.asarray(p.y)
    w = np.asarray(p.weight_array, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("data contains NaN or infinity")
    eta = p.eta if mode == "inequality" else 0.0
    K = A.shape[1]
    ynorm = la.norm(y)
    if ynorm == 0:
        # z = 0 is optimal, certified by the dual vector 0.
        return SolveResult(z=np.zeros(K, np.result_type(A, y)), objective=0.0,
                           feasibility_residual=0.0, duality_gap=0.0,
                           iterations=0, status=STATUS_CONVERGED)
    U, S, Vh = la.svd(A / w, full_matrices=False)
    keep = S > (S[0] * 1e-12 if S[0] > 0 else 0)
    U, S, Vh = U[:, keep], S[keep], Vh[keep]
    Uy = U.conj().T @ y
    y_off = y - U @ Uy
    y_off -= U @ (U.conj().T @ y_off)    # once leaves eps ||y|| in range(A)
    off = la.norm(y_off)
    eta_r = np.sqrt(max(eta ** 2 - off ** 2, 0.0))
    feas_abs = tol_feas * ynorm

    def result(zt, mu, its, hist):   # mu is None for unreachable data
        z = zt / w
        obj = l1_objective(z, w)
        res = float(la.norm(A @ z - y))
        gap, status = np.inf, STATUS_INFEASIBLE
        if mu is not None:
            nu = U @ mu
            if eta_r > 0:
                nu = nu + y_off * (la.norm(mu) / eta_r)
            nu = nu / max(1.0, np.max(np.abs(A.conj().T @ nu) / w))
            gap = obj - float(np.real(np.vdot(y, nu))) \
                + max(eta, res) * la.norm(nu)
            ok = res - eta <= feas_abs and gap <= tol_gap * max(1.0, obj)
            status = STATUS_CONVERGED if ok else STATUS_MAX_ITER
        feas = max(res - eta, 0.0)
        return SolveResult(z=z, objective=obj, feasibility_residual=feas,
                           duality_gap=float(gap), iterations=its,
                           status=status, gap_history=tuple(hist))

    if off > eta + 10 * feas_abs:
        return result(Vh.conj().T @ (Uy / S), None, 0, ())
    # One cone program in the scaled variable zt = w z, with the rows of
    # A / w replaced by S Vh: A z = y becomes S Vh zt = U^H y, and
    # ||A z - y|| <= eta becomes ||U^H y - S Vh zt|| <= eta_r.  The data
    # enter divided by ||y||, so that the starting point, which sits at
    # unit distance from the cone boundary, matches their scale.
    r = len(S)
    B = S[:, None] * Vh
    b = Uy / ynorm
    if np.iscomplexobj(B) or np.iscomplexobj(y):
        # A cone (t_i, Re zt_i, Im zt_i) per coefficient; the rows hold the
        # real parts of the constraint, then the imaginary parts.
        Bc = np.block([[B.real, -B.imag], [B.imag, B.real]])
        G = np.zeros((2 * r, K, 3))
        G[:, :, 1], G[:, :, 2] = Bc[:, :K], Bc[:, K:]
        G, h = G.reshape(2 * r, 3 * K), np.concatenate([b.real, b.imag])
        c, cones = np.tile([1.0, 0.0, 0.0], K), [(K, 3)]

        def unpack(x, yd):
            return (ynorm * (x[1:3 * K:3] + 1j * x[2:3 * K:3]),
                    yd[:r] + 1j * yd[r:2 * r])
    else:
        # zt = p - q with p, q >= 0.
        G, h, c, cones = np.hstack([B, -B]), b, np.ones(2 * K), [(2 * K, 1)]

        def unpack(x, yd):
            return ynorm * (x[:K] - x[K:2 * K]), yd[:r]
    if eta_r > 0:
        m, n = G.shape
        G = np.block([[G, np.zeros((m, 1)), np.eye(m)],
                      [np.zeros((1, n)), np.ones((1, 1)), np.zeros((1, m))]])
        h, c = np.append(h, eta_r / ynorm), np.append(c, np.zeros(m + 1))
        cones.append((1, m + 1))
    hist = []
    for its, (x, yd, xs, rp, rd) in enumerate(_ipm(G, h, c, cones)):
        hist.append(ynorm * xs)
        if rp <= tol_feas and rd <= tol_feas \
                and hist[-1] <= tol_gap * max(1.0, ynorm * (c @ x)):
            res = result(*unpack(x, yd), its, hist)
            if res.status == STATUS_CONVERGED:
                return res
        if its >= max_iter:
            break
    return result(*unpack(x, yd), its, hist)


def solve_least_squares(A: SamplingMatrix, y, M: int) -> np.ndarray:
    """Least-squares fit against the leading M basis elements.

    Minimum-norm solution on rank-deficient blocks.  The returned length-M
    vector uses the same storage order as a size-M truncation, so it can be
    fed straight to synthesize.

    numpy's solver (LAPACK gelsd, divide and conquer) can fail to converge on
    nearly singular blocks, e.g. equispaced Legendre at N=160 with M=123.
    Only then the same minimum-norm problem is handed to the plain SVD
    driver gelss with numpy's singular-value cutoff eps * max(shape), so
    every block gelsd solves keeps its exact result.
    """
    y = np.asarray(y)
    block = A.leading(M)
    try:
        z, *_ = la.lstsq(block, y, rcond=None)
    except la.LinAlgError:
        from scipy.linalg import lstsq as svd_lstsq

        cond = np.finfo(float).eps * max(block.shape)
        z, *_ = svd_lstsq(block, y, cond=cond, lapack_driver="gelss")
    return z


def oracle_least_squares(A: SamplingMatrix, y, f_true, resolution: int = 10000):
    """Best least-squares truncation size in hindsight.

    Sweeps M from 1 to min(N, K), measuring each fit's sup error against the
    true function, and returns (best M, its coefficients).  Needs the truth,
    so this is an expository tool, not a practical method.
    """
    n, K = A.shape
    grid = _cheb_grid(resolution)
    fg = np.asarray(f_true(grid))
    table = eval_table(A.basis, min(n, K), grid)
    best = (np.inf, None, None)
    for M in range(1, min(n, K) + 1):
        z = solve_least_squares(A, y, M)
        # The leading indices are contiguous; a slice avoids copying.
        lead = leading_indices(A.basis, table.shape[1], M)
        approx = table[:, lead[0]:lead[-1] + 1] @ z
        err = float(np.max(np.abs(approx - fg)))
        if err < best[0]:
            best = (err, M, z)
    return best[1], best[2]


def synthesize(z, basis: BasisSpec, t):
    """Evaluate sum_i z_i phi_i at t (scalar or array)."""
    z = np.asarray(z)
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    vals = eval_table(basis, len(z), tt) @ z
    if np.isscalar(t) or np.ndim(t) == 0:
        return vals[0]
    return vals


def _cheb_grid(resolution: int) -> np.ndarray:
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    return np.cos(np.pi * np.arange(resolution) / (resolution - 1))[::-1]


def sup_error(f_true, z, basis: BasisSpec, resolution: int = 10000) -> float:
    """Max pointwise error of the synthesized approximant on a dense grid.

    The grid clusters near the ends, where polynomial approximants
    misbehave first.
    """
    grid = _cheb_grid(resolution)
    approx = synthesize(z, basis, grid)
    return float(np.max(np.abs(approx - np.asarray(f_true(grid)))))


def lp_oracle(A, y, w):
    """Exact equality-mode objective via linear programming (real data only).

    Splits z into positive and negative parts and hands the result to a
    simplex/interior solver.  Only for small cross-check instances.
    """
    from scipy.optimize import linprog

    entries = A.entries if isinstance(A, SamplingMatrix) else np.asarray(A)
    if np.iscomplexobj(entries) or np.iscomplexobj(np.asarray(y)):
        raise ValueError("the LP reformulation needs real data")
    n, K = entries.shape
    w = np.asarray(w, dtype=float)
    cost = np.concatenate([w, w])
    Aeq = np.hstack([entries, -entries])
    res = linprog(cost, A_eq=Aeq, b_eq=np.asarray(y), method="highs",
                  bounds=[(0, None)] * (2 * K))
    if not res.success:
        raise RuntimeError("LP oracle failed: %s" % (res.message,))
    z = res.x[:K] - res.x[K:]
    return z, float(res.fun)


def save_result(path, result: SolveResult) -> None:
    """Plain-text record: status header, scalars, then one coefficient per
    line (real and imaginary parts for complex data)."""
    with open(path, "w") as fh:
        fh.write("status %s\n" % result.status)
        fh.write("objective %.17g\n" % result.objective)
        fh.write("feasibility_residual %.17g\n" % result.feasibility_residual)
        fh.write("duality_gap %.17g\n" % result.duality_gap)
        fh.write("iterations %d\n" % result.iterations)
        for zi in result.z:
            if np.iscomplexobj(result.z):
                fh.write("%.17g %.17g\n" % (zi.real, zi.imag))
            else:
                fh.write("%.17g\n" % zi)
