"""Solvers for the four fitting problems on sampled data.

Weighted l1 minimization, min sum_i w_i |z_i|, comes in two modes:
equality mode asks for A z = y exactly, inequality mode for
||A z - y|| <= eta.  Both modes, on real or complex data, pose one cone
program in the scaled variable zt = w z and solve it with one dense
primal-dual interior-point method (Mehrotra predictor-corrector,
Nesterov-Todd scaling).  The economy SVD U S Vh of A / w replaces the rows
of A by the independent rows of S Vh, those of singular values above
SVD_RTOL S_0, so coinciding sample rows drop out:

* one cone |zt_i| <= t_i per coefficient, minimizing sum t_i.  For
  complex data zt_i has two real coordinates (Re, Im), and the cone is a
  second-order cone.  For real data it is the nonnegative quadrant turned
  by 45 degrees: the program takes p_i, q_i = (t_i +- zt_i) / sqrt(2)
  >= 0 on an orthant block, where the scaling, the Jordan product and the
  step to the boundary are elementwise;
* noise ball: one more second-order cone (eta', U^H y - S Vh zt), where
  eta' = sqrt(eta^2 - ||y - U U^H y||^2), clamped at 0.

Each Newton step solves its normal equations through a triangular factor
of d K (+ m + 1 for the ball) factored rows F, d the number of real
coordinates of zt_i and m the number of constraint rows: the Cholesky
factor of the square F^T F while its diagonal spread stays moderate, then,
for the rest of the solve, a QR factor of F.  The t_i enter no
constraint, so coefficient cone i contributes only the zt block of its
squared scaling, whose closed-form symmetric square root gives its d rows;
on the orthant, pair i gives one row, column i of the constraints scaled
by sqrt((w_p^2 + w_q^2) / 2).
Products with the constraint matrix touch only its nonzero columns, and
the scaled dual step W ds is W rd - W G^T dy, without a product of its
own.  The corrector's solve is refined, at most twice, only while its
linearized residuals exceed TOL_FEAS / 10 of its right-hand side.

Data farther than eta from the range of A (one test for both modes) are
reported infeasible without iterating.  One stopping rule ends every
solve: after each Newton step, the residual and duality gap recomputed in
data space from z and the dual vector are checked against TOL_FEAS ||y||
and TOL_GAP max(1, objective).  By weak duality this certificate is sound
at any iterate.  Data off the range by more than TOL_FEAS ||y|| beyond
eta, but within the margin that still lets the solve start, are
certified against the ball of radius off = ||y - U U^H y|| instead of
eta: no z can meet eta there, and the cone program already solves for
the projected data U U^H y.

Least squares (plain and oracle) and synthesis round out the toolbox;
synthesize is basis.synthesize.  sup_error measures an approximant on the
Chebyshev extrema; a Jacobi expansion gets there by one product with a
cached matrix of Chebyshev coefficients and one DCT-I instead of a sum
over every degree at every grid point.  A tiny-instance linear-programming
oracle (HiGHS) is included for cross-checking the l1 path on real data.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.linalg as la
from dataclasses import dataclass
from functools import lru_cache

from .basis import BasisSpec, chebyshev_extrema, eval_table, \
    leading_indices, synthesize
from .sampling import SamplingMatrix, WeightVector, make_weights

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_INFEASIBLE = "infeasible_detected"

TOL_FEAS = 1e-9   # relative to ||y||
TOL_GAP = 1e-8    # relative to max(1, objective)
MAX_ITER = 100    # Newton steps; solves end on their own within about 25
LP_TOL = 1e-10    # HiGHS feasibility tolerances of lp_oracle
CHOL_SPREAD = 1e12  # widest (max R_ii / min R_ii)^2 of a Cholesky step
# Singular values of A / w at most SVD_RTOL times the largest count as zero
# in the weighted-l1 solve.  sampling.RANK_RTOL = 1e-10 here would move the
# status or objective of some ill-conditioned solves.
SVD_RTOL = 1e-12

MODES = ("equality", "inequality")

# The maximum (minimum) entry, NaN if any is; ndarray.max without its
# Python wrapper, which costs more than the reduction on the short vectors
# of a solve.
_amax, _amin = np.maximum.reduce, np.minimum.reduce


def _norm(v) -> float:
    """la.norm of a vector, by its arithmetic but without its wrapper."""
    if np.iscomplexobj(v):
        return math.sqrt(v.real @ v.real + v.imag @ v.imag)
    return math.sqrt(v @ v)


@dataclass(frozen=True)
class SamplingProblem:
    """A weighted-l1 instance: matrix, scaled data, weights, noise radius."""

    A: SamplingMatrix
    y: np.ndarray
    w: WeightVector
    eta: float = 0.0


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
    # ||y - U U^H y||, the distance of the data from the range of A.
    off_range: float = 0.0


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
    if not (np.isfinite(eta) and eta >= 0):
        raise ValueError("eta must be finite and nonnegative, got %r" % eta)
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


def _ipm(G, h, d, radius=0.0):
    """Iterates of a primal-dual interior-point method for

        minimize sum_i t_i  subject to  |zt_i| <= t_i  (i = 1, ..., K)
        and  G zt = h  (radius 0)  or  ||h - G zt|| <= radius,

    where each zt_i has d real coordinates and G = [G_1 ... G_d] holds one
    block of K columns per coordinate.  The iterate x stacks an orthant
    block, then second-order cones:

    * d = 1: the cone |zt_i| <= t_i is the nonnegative quadrant turned by
      45 degrees, so x starts with p = (t + zt) / sqrt(2) >= 0, then
      q = (t - zt) / sqrt(2) >= 0: zt = (p - q) / sqrt(2), the cost is
      1 / sqrt(2) per coordinate and the constraint columns are
      [G, -G] / sqrt(2).  The turn is orthonormal, so the least-norm
      starting point, x.s and every Newton step are those of the cones
      (t_i, zt_i), up to rounding;
    * d = 2: one second-order cone (t_i, zt_i) per coefficient;
    * radius > 0: one ball cone (r, u) with r = radius and G zt + u = h.

    In this form, G' x = h' with x in a product C of the orthant and the
    second-order cones, G' is nonzero only on the zt coordinates (p and q)
    and the ball cone, and every product with G' or G'^T touches only
    those.  On the orthant everything is elementwise: the Jordan product
    u o v = u v, the Nesterov-Todd scaling w = sqrt(x / s), lam = sqrt(x s),
    lam^-1 o r = r / lam, and the step to the boundary, a ratio test.  The
    starting shift adds delta e, where e is the identity of each
    second-order cone and, on the orthant, the turned (1, 0), that is
    (1, 1) / sqrt(2) per pair.  mu = x.s / nu, where nu counts one per
    orthant pair and one per second-order cone, and the centring target
    sigma mu e o e is sigma mu e on a second-order cone and sigma mu / 2
    on each orthant coordinate.

    Newton steps use Nesterov-Todd scaling W (W^-1 x = W s = lam) and
    Mehrotra's predictor-corrector, solving the normal equations through an
    upper triangular R, R^T R = G' W^2 G'^T.  The orthant contributes
    G diag((w_p^2 + w_q^2) / 2) G^T: its K rows of the factored matrix are
    the columns of G scaled by sqrt((w_p^2 + w_q^2) / 2).  The t-columns
    of the cones are zero, so second-order coefficient cone i, with
    W_i = beta_i (2 v v^T - J), contributes only the zt block
    (W_i^2)_zz = beta_i^2 (I + 8 v0^2 vz vz^T).  Its symmetric square root
    beta_i (I + c_i vz vz^T), c_i = 8 v0^2 / (sqrt(1 + 8 v0^2 |vz|^2) + 1),
    times the rows of G^T for zt_i gives d rows of the factored matrix; the
    ball cone adds the m + 1 rows of W_b G_b^T, a column permutation of
    W_b.  That is d K (+ m + 1) rows F, and no matrix W G'^T is formed: a
    step takes G' (W u) and W (G'^T dy), and W ds = W rd - W G'^T dy, with
    W rd formed once for predictor and corrector.  After the corrector's
    solve, the residuals of all three linearized equations are recomputed;
    while their max-norm exceeds TOL_FEAS / 10 of that of the right-hand
    side, at most twice, a round of iterative refinement solves for the
    correction.  Refinement recovers the accuracy that R^T R alone loses on
    ill-conditioned steps; a solve that is already accurate gets no round.

    R is the Cholesky factor (dpotrf) of F^T F, one symmetric product
    away: about a quarter of the time of a QR of F at N = 80.  A step
    takes the QR factor of F (dgeqrf) instead when dpotrf fails or the
    factor's diagonal spread (max R_ii / min R_ii)^2 exceeds CHOL_SPREAD,
    and so does every later step of that solve, for either block; the
    spread grows as the iterates near the cone boundary, and a fresh check
    would pass on fewer than 1% of those later steps.  F^T F squares the
    condition number that QR sees: with Cholesky on every step that dpotrf
    passes, 7 of 450 check solves change their step count: the
    benchmark's fits (seed 1) and the ill-conditioned solves of
    tests/test_solver.py (seeds 0-199).  Every status and step count of
    those solves holds for CHOL_SPREAD from 1e6 to 1e14; at 1e15 two move.
    1e12 sits inside that range with margin on both sides.

    The factored rows are rebuilt in place, in one buffer per solve.  For
    the second-order coefficient cones (complex data) they are
    ((G_i^T vz_i) c_i) vz_i + G_i^T, then times beta_i.  That order of
    rounding is kept on purpose: while real data took these cones too, the
    one-pass G_i^T (beta_i (1 + c_i vz_i^2)) turned the ill-conditioned
    solve with seed 155 from converged into max_iter.  On the orthant the
    rows are one column scaling by construction.  Both blocks share the two
    triangular solves; one dpotrs in their place still turns the
    ill-conditioned solves with seeds 73 and 75 into max_iter.

    Yields (x, y, x.s) before each Newton step, the first at the starting
    point; the caller decides when to stop.  Returns when a step cannot
    make progress: its length falls below 1e-8 or x.s below 1e-14 of
    max(1, c.x), where rounding outweighs what is left to gain.
    """
    from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dpotrf, dtrtrs

    m, dK = G.shape
    K = dK // d
    no = 2 * K if d == 1 else 0      # orthant coordinates: p, then q
    half = no // 2
    kc = 0 if no else K              # second-order coefficient cones
    nb = m + 1 if radius > 0 else 0  # dimension of the ball cone, if any
    dims = np.array([d + 1] * kc + [nb] * (nb > 0), dtype=int)
    # The second-order cones fill x[no:]; heads, cid and hc index that part.
    heads = np.cumsum(dims) - dims
    cid = np.repeat(np.arange(len(dims)), dims)
    hc = heads[cid]                  # the head of each coordinate's cone
    sign = -np.ones(len(cid))
    sign[heads] = 1.0
    el = (sign > 0).astype(float)    # identity element of each cone
    tail = 1.0 - el
    nl, n, nu = len(dims), no + len(cid), half + len(dims)
    r2 = math.sqrt(0.5)
    # e: the identity element, on the orthant the turned (1, 0); cen =
    # e o e, the direction of the centring target.
    e = np.concatenate([np.full(no, r2), el])
    cen = np.concatenate([np.full(no, 0.5), el])
    c = np.zeros(n)
    c[:no] = r2
    c[no + heads[:kc]] = 1.0
    # The zt coordinates of x in the column order of G, then the ball cone:
    # for d = 1, p stands for p - q.
    if no:
        cols, Gz = np.arange(half), G * r2
    else:
        cols, Gz = np.flatnonzero(tail[:3 * K]).reshape(K, 2).T.ravel(), G
    Gc = Gz                          # G' on the columns cols of x
    if nb:
        cols = np.append(cols, np.arange(n - nb, n))
        Gc = np.block([[Gz, np.zeros((m, 1)), np.eye(m)],
                       [np.zeros((1, dK)), np.ones((1, 1)), np.zeros((1, m))]])
        h = np.append(h, radius)
        rb = np.arange(nb)
        perm = np.roll(rb, -1)       # W_b G_b^T = W_b[:, perm]
        bcols, bsign = dK + perm, sign[-nb:][perm]
    Gd = G.reshape(m, d, K)
    lwork = int(dgeqrf_lwork(dK + nb, len(h))[0])
    # The factored matrix, transposed, refilled by every setup: the
    # orthant's rows G^T sqrt((w_p^2 + w_q^2) / 2), or cone i's rows
    # beta_i (I + c_i vz vz^T) G_i^T, in Fz, then W_b[:, perm] for the
    # ball.  dgeqrf overwrites it, so the ball's zero row is reset.
    Ft = np.zeros((len(h), dK + nb))
    Fz = Ft[:m, :dK].reshape(m, d, K)

    def gmul(u):                     # G' u
        v = u[cols]
        if no:
            v[:half] -= u[half:no]
        return Gc @ v

    def gtmul(y):                    # G'^T y
        out = np.zeros(n)
        out[cols] = y @ Gc
        if no:
            out[half:no] = -out[:half]
        return out

    def seg(u):                      # sums over each second-order cone
        return np.add.reduceat(u, heads)

    def jnorm(u):                    # sqrt(u0^2 - |u1|^2) without cancellation
        n1, u0 = np.sqrt(seg(tail * u * u)), u[heads]
        return np.sqrt((u0 - n1) * (u0 + n1))

    # The maps below act on the orthant x[:no] by fo, on the second-order
    # cones x[no:] by fl (the l-names), and join the two results.
    def both(fo, fl, join=np.concatenate):
        if not nl:
            return fo
        if not no:
            return fl
        return lambda *us: join([fo(*[u[:no] for u in us]),
                                 fl(*[u[no:] for u in us])])

    def lprod(u, v):
        out = u[hc] * v + v[hc] * u
        out[heads] = seg(u * v)
        return out

    def lmul(u):
        return bv2 * seg(v * u)[cid] - bj * u

    def llinv(r):
        u0 = seg(jlam * r)
        u = (r - u0[cid] * ll) * ilam0
        u[heads] = u0
        return u

    def lworst(dv):
        t = seg(jlb * dv)
        rho = tail * (dv - ((t + dv[heads]) / lb1)[cid] * lb)
        return _amax((np.sqrt(seg(rho * rho)) - t) / lnorm)

    prod = both(np.multiply, lprod)              # Jordan product u o v
    mul = both(lambda u: wo * u, lmul)           # W u
    linv = both(lambda r: r / lo, llinv)         # lam^-1 o r
    # 1 / the largest a with lam + a dv in C, if positive: a ratio test on
    # the orthant.
    worst = both(lambda dv: -_amin(dv / lo), lworst, max)
    # The largest cone violation |zt| - t: -sqrt(2) min(p, q) on the
    # orthant.
    violation = both(lambda u: -math.sqrt(2) * _amin(u),
                     lambda u: _amax(np.sqrt(seg(tail * u * u)) - u[heads]),
                     max)

    def step(dv):                    # largest a with lam + a dv in C
        a = worst(dv)
        return 1.0 / a if a > 0 else np.inf

    def newton(rp, wrd, rc):         # G' dx = rp, G'^T dy + ds = rd,
        u = linv(rc)                 # lam o (W^-1 dx + W ds) = rc,
        u -= wrd                     # with wrd = W rd
        t = dtrtrs(R, rp - gmul(mul(u)), trans=1)[0]
        dy = dtrtrs(R, t)[0]
        gdy = gtmul(dy)
        wgdy = mul(gdy)
        return u + wgdy, wrd - wgdy, dy, gdy    # W^-1 dx, W ds, dy, G'^T dy

    def direction(rp, rd, rc, wrd):  # dx, dy, ds, W^-1 dx and W ds
        wdx, wds, dy, gdy = newton(rp, wrd, rc)
        return mul(wdx), dy, rd - gdy, wdx, wds

    def solve(rp, rd, rc, wrd):      # direction(), refined on demand
        d = direction(rp, rd, rc, wrd)
        tol = TOL_FEAS / 10 * max(_amax(abs(r)) for r in (rp, rd, rc))
        for k in range(2):
            dx, dy, ds, wdx, wds = d
            # Before the first round ds = rd - G'^T dy, so its residual is
            # exactly zero.
            r = (rp - gmul(dx), rd - gtmul(dy) - ds if k else zero,
                 rc - prod(lam, wdx + wds))
            if max(_amax(abs(u)) for u in r) <= tol:
                break
            d = tuple(a + b for a, b in zip(d, direction(*r, mul(r[1]))))
        return d

    def scaling(x, s):               # v, beta and lam of the cones x[no:]
        a, b = jnorm(x), jnorm(s)
        xb, sb = x / a[cid], s / b[cid]
        xh, sh = xb[heads], sb[heads]
        gam = np.sqrt((1 + seg(xb * sb)) / 2)
        v = (xb + sign * sb) / (2 * gam)[cid]     # the scaling point
        lam = ((gam + sh)[cid] * xb + (gam + xh)[cid] * sb) \
            / (xh + sh + 2 * gam)[cid]
        lam[heads] = gam
        return ((v + el) / np.sqrt(2 * (v[heads] + 1))[cid], np.sqrt(a / b),
                lam * np.sqrt(a * b)[cid])

    def setup():                     # lam, W, R from wo, lo, v, beta, ll
        nonlocal bv2, bj, lam, jlam, ilam0, lnorm, lb, jlb, lb1, R, qr
        lam = ll if not no else lo if not nl else np.concatenate([lo, ll])
        if nl:
            bc = beta[cid]
            bv2, bj = 2 * bc * v, bc * sign
            det = seg(sign * ll * ll)
            jlam, ilam0 = sign * ll / det[cid], 1.0 / ll[hc]
            lnorm = np.sqrt(det)
            lb = ll / lnorm[cid]
            jlb, lb1 = sign * lb, lb[heads] + 1
        if no:
            np.multiply(G, np.sqrt((wo[:half] ** 2 + wo[half:] ** 2) / 2),
                        out=Fz[:, 0])
        else:
            vz, q = v[cols[:dK]].reshape(d, K), 8 * v[heads[:K]] ** 2
            gv = np.einsum("mjk,jk->mk", Gd, vz)
            ci = q / (np.sqrt(1 + q * np.sum(vz * vz, axis=0)) + 1)
            np.multiply(np.multiply(gv, ci, out=gv)[:, None], vz, out=Fz)
            np.add(Fz, Gd, out=Fz)
            np.multiply(Fz, beta[:K], out=Fz)
        if nb:
            vb, bb = v[-nb:], beta[-1]
            Ft[m, :dK] = 0.0
            np.outer(vb[perm], vb, out=Ft[:, dK:])
            np.multiply(Ft[:, dK:], 2 * bb, out=Ft[:, dK:])
            Ft[rb, bcols] -= bb * bsign
        # dtrtrs reads only the upper triangle; Fortran order spares copies.
        # Ft Ft^T = F^T F is symmetric: its transpose is in Fortran order.
        if not qr:
            R, info = dpotrf((Ft @ Ft.T).T, overwrite_a=1)
            r = R.diagonal()
            qr = info != 0 or not (_amax(r) / _amin(r)) ** 2 <= CHOL_SPREAD
        if qr:
            R = np.asfortranarray(dgeqrf(Ft.T, lwork=lwork, overwrite_a=1)[0]
                                  [:len(h)])

    bv2 = bj = lam = jlam = ilam0 = lnorm = lb = jlb = lb1 = R = None
    qr = False                       # once set, every later step takes QR
    # Start from the least-norm solutions of the two equality systems,
    # shifted into the cone (W = I).
    wo = lo = np.ones(no)
    v, beta, ll = el, np.ones(nl), el
    setup()
    zero = np.zeros(n)
    x = mul(newton(h, zero, zero)[0])        # rd = 0, so W rd = 0
    _, _, y, gy = newton(np.zeros_like(h), mul(c), zero)
    x, s = (u + max(0.0, 1.0 + violation(u)) * e for u in (x, c - gy))
    while True:
        xs = float(x @ s)
        yield x, y, xs
        if not xs > 1e-14 * max(1.0, c @ x):     # also stops on NaN
            return
        if no:
            xo, so = x[:no], s[:no]
            wo, lo = np.sqrt(xo / so), np.sqrt(xo * so)
        if nl:
            v, beta, ll = scaling(x[no:], s[no:])
        setup()
        rp, rd, l2 = h - gmul(x), c - gtmul(y) - s, prod(lam, lam)
        wrd = mul(rd)
        wx, ws = newton(rp, wrd, -l2)[:2]         # predictor
        sigma = (1.0 - min(1.0, step(wx), step(ws))) ** 3
        dx, dy, ds, wdx, wds = solve(rp, rd, sigma * xs / nu * cen - l2
                                     - prod(wx, ws), wrd)
        alpha = min(1.0, 0.99 * step(wdx), 0.99 * step(wds))
        if not alpha >= 1e-8:
            return
        x, y, s = x + alpha * dx, y + alpha * dy, s + alpha * ds


def solve_weighted_l1(p: SamplingProblem, mode: str = "equality",
                      max_iter: int = MAX_ITER) -> SolveResult:
    """Minimize sum_i w_i |z_i| over the selected constraint set.

    equality:   A z = y (eta ignored), exactly unless y is off the range.
    inequality: ||A z - y|| <= eta; eta = 0 gives the equality problem.

    Status is infeasible_detected, after 0 iterations, when y lies farther
    than eta from the range of A; converged as soon as the certificate
    below passes, checked at the start and after every Newton step;
    max_iter otherwise, after max_iter Newton steps or when a step can no
    longer make progress.  The certificate recomputes, from the iterate's
    z and its dual vector v mapped to data space and scaled so that
    max_i |(A^H v)_i| / w_i <= 1, the residual max(||A z - y|| - eta, 0)
    and the duality gap sum w|z| - Re<y, v> + max(eta, ||A z - y||) ||v||;
    it passes when the residual is at most TOL_FEAS ||y|| and the gap at
    most TOL_GAP max(1, objective), both read at call time.  The gap is
    that of the constraint z satisfies, radius max(eta, ||A z - y||), so
    by weak duality it is nonnegative for every status, up to rounding.
    When y lies off the range of A by off_range, more than TOL_FEAS ||y||
    beyond eta, the certificate takes off_range in place of eta in the
    residual and the gap: the solve then minimizes over the projected
    data, and feasibility_residual, always measured against eta, stays
    above TOL_FEAS ||y|| for a converged status.
    """
    if mode not in MODES:
        raise ValueError("unknown mode %r" % (mode,))
    A = p.A.entries
    y = np.asarray(p.y)
    w = np.asarray(p.w.w, dtype=float)
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
    keep = S > (S[0] * SVD_RTOL if S[0] > 0 else 0)
    U, S, Vh = U[:, keep], S[keep], Vh[keep]
    Uy = U.conj().T @ y
    y_off = y - U @ Uy
    y_off -= U @ (U.conj().T @ y_off)    # once leaves eps ||y|| in range(A)
    off = la.norm(y_off)
    eta_r = np.sqrt(max(eta ** 2 - off ** 2, 0.0))
    feas_abs = TOL_FEAS * ynorm
    # The certificate's radius: off where no z can come within feas_abs
    # of eta.
    eta_c = off if off - eta > feas_abs else eta
    AH = A.conj().T

    def dual_gap(obj, res, mu):      # the certificate's gap at dual mu
        nu = U @ mu
        if eta_r > 0:
            nu = nu + y_off * (_norm(mu) / eta_r)
        scale = _amax(abs(AH @ nu) / w)
        if scale > 1.0:              # nu / max(1, scale), skipping nu / 1
            nu = nu / scale
        return (obj - float(np.vdot(y, nu).real)
                + max(eta_c, res) * _norm(nu))

    if off > eta + 10 * feas_abs:
        z = Vh.conj().T @ (Uy / S) / w
        res = _norm(A @ z - y)
        return SolveResult(z=z, objective=l1_objective(z, w),
                           feasibility_residual=max(res - eta, 0.0),
                           duality_gap=np.inf, iterations=0,
                           status=STATUS_INFEASIBLE, off_range=float(off))
    # One cone program in the scaled variable zt = w z, with the rows of
    # A / w replaced by S Vh: A z = y becomes S Vh zt = U^H y, and
    # ||A z - y|| <= eta becomes ||U^H y - S Vh zt|| <= eta_r.  Each
    # coefficient has a cone |zt_i| <= t_i, zt_i in d = 1 real coordinate
    # or d = 2 (Re, Im; the rows then hold real parts, then imaginary
    # parts).
    # The data enter divided by ||y||, so that the starting point, at unit
    # distance from the cone boundary, matches their scale.
    B, h = S[:, None] * Vh, Uy / ynorm
    cols = [B]
    if np.iscomplexobj(B) or np.iscomplexobj(y):
        cols = [np.vstack([B.real, B.imag]), np.vstack([-B.imag, B.real])]
        h = np.concatenate([h.real, h.imag])
    d, m = len(cols), len(h)
    G = np.hstack(cols)
    status, hist = STATUS_MAX_ITER, []
    for its, (x, yd, xs) in enumerate(_ipm(G, h, d, eta_r / ynorm)):
        hist.append(ynorm * xs)
        # zt and the dual mu from x and yd: for real data from the orthant
        # block (p, q), for complex data as views of the cones (t_i, zt_i),
        # but for mu, whose Re and Im parts lie m / 2 apart.
        if d == 1:                   # zt = (p - q) / sqrt(2)
            zt, mu = (x[:K] - x[K:2 * K]) * math.sqrt(0.5), yd[:m]
        else:
            zt = x[:3 * K].reshape(K, 3)[:, 1:].view(complex)[:, 0]
            mu = yd[:m].reshape(2, -1).T.copy().view(complex)[:, 0]
        z = ynorm * zt / w
        res = _norm(A @ z - y)
        obj = l1_objective(z, w)
        gap = dual_gap(obj, res, mu)
        if res - eta_c <= feas_abs and gap <= TOL_GAP * max(1.0, obj):
            status = STATUS_CONVERGED
            break
        if its >= max_iter:
            break
    return SolveResult(z=z, objective=obj,
                       feasibility_residual=max(res - eta, 0.0),
                       duality_gap=float(gap), iterations=its, status=status,
                       gap_history=tuple(hist), off_range=float(off))


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


_GRID_BLOCK_BYTES = 1 << 20  # table bytes per block of the oracle's sweep


def oracle_least_squares(A: SamplingMatrix, y, f_true, resolution: int = 10000):
    """Best least-squares truncation size in hindsight.

    Fits M = 1 ... L, L = min(N, K), by solve_least_squares and measures
    each fit's sup error against the true function on
    chebyshev_extrema(resolution).  Returns (best M, its coefficients):
    the first M of strictly smallest error, never one of non-finite error,
    and (None, None) if no error is finite.  Needs the truth, so this is an
    expository tool, not a practical method.

    The fits are the rows of one (L, L) matrix, row M - 1 holding the
    M-term fit on its leading storage positions and zeros elsewhere.
    The grid is swept in blocks of rows of eval_table(basis, L, grid) of
    at most _GRID_BLOCK_BYTES each (at least one row), one matrix product
    per block, so memory stays at one block, its product and the L^2
    coefficients.  The table's entries are computed point by point, so
    each block holds the rows of the full table, but a product over all
    L columns rounds differently from a product over each fit's M, and
    errors may differ from that per-M sum at rounding level.
    """
    n, K = A.shape
    L = min(n, K)
    fits = [solve_least_squares(A, y, M) for M in range(1, L + 1)]
    Z = np.zeros((L, L), np.result_type(*fits))
    for M, z in enumerate(fits, 1):
        Z[M - 1, leading_indices(A.basis, L, M)] = z
    grid = chebyshev_extrema(resolution)
    fg = np.broadcast_to(np.asarray(f_true(grid)), grid.shape)
    err = np.zeros(L)
    row_bytes = L * (16 if A.basis.is_complex else 8)
    step = max(1, _GRID_BLOCK_BYTES // row_bytes)
    for r0 in range(0, grid.size, step):
        rows = slice(r0, r0 + step)
        # Row M - 1 of approx holds the M-term fit on the block's points.
        approx = Z @ eval_table(A.basis, L, grid[rows]).T
        approx -= fg[rows]
        np.maximum(err, np.max(np.abs(approx), axis=1), out=err)
    finite = np.isfinite(err)
    if not finite.any():
        return None, None
    M = int(np.argmin(np.where(finite, err, np.inf))) + 1
    return M, fits[M - 1]


def _dct1(x, n: int) -> np.ndarray:
    """The DCT-I along axis 0 of x zero-padded to n >= len(x) rows,
    y_k = x_0 + (-1)^k x_{n-1} + 2 sum_{0<j<n-1} x_j cos(pi j k / (n - 1)),
    k = 0 ... n - 1, as the FFT of the even extension of the padded x."""
    K = len(x)
    y = np.zeros((2 * n - 2,) + x.shape[1:], x.dtype)
    y[:K] = x
    y[2 * n - 1 - K:] = x[:0:-1]
    if np.iscomplexobj(y):
        return np.fft.fft(y, axis=0)[:n]
    return np.fft.rfft(y, axis=0).real


_COLUMN_BLOCK = 32   # columns per FFT while building a Chebyshev matrix


@lru_cache(maxsize=8)
def _chebyshev_matrix(basis: BasisSpec, K: int) -> np.ndarray:
    """Read-only (K, K) matrix C of a Jacobi basis, 1 < K: for n > K,
    _dct1(C @ z, n) is sum_i z_i phi_i on cos(pi k / (n - 1)),
    k = 0 ... n - 1.  Row j of C @ z is the Chebyshev coefficient of
    degree j of that expansion, halved but for j = 0: a DCT-I of
    eval_table at the K Chebyshev extrema, taken in place, a block of
    columns at a time, so that no transform of the whole table is held."""
    T = eval_table(basis, K, np.cos(np.pi * np.arange(K) / (K - 1)))
    for j in range(0, K, _COLUMN_BLOCK):
        T[:, j:j + _COLUMN_BLOCK] = _dct1(T[:, j:j + _COLUMN_BLOCK], K)
    T /= 2 * (K - 1)
    T[-1] /= 2
    T.setflags(write=False)
    return T


def sup_error(f_true, z, basis: BasisSpec, resolution: int = 10000) -> float:
    """Max pointwise error of the synthesized approximant on a dense grid.

    The grid, chebyshev_extrema(resolution), clusters near the ends, where
    polynomial approximants misbehave first.  A Jacobi expansion of
    1 < K < n terms, K = len(z), n = resolution, is mapped to its
    Chebyshev coefficients by one product with the cached (K, K) matrix
    of _chebyshev_matrix; one DCT-I of size n, zero-padded, gives its
    values on the grid.  The exponentials, K = 1 and K >= n take
    synthesize, which sums the table's row blocks (Jacobi) or runs
    Horner's rule (exponentials).  No (n, K) table is built.  The
    approximant agrees with eval_table(basis, K, grid) @ z within
    16 K eps sum_i |z_i| ||phi_i||_inf (tested up to K = 320), and the
    reported error carries that rounding.  At n = 10000 the DCT-I is an
    FFT of length 19998 = 2 * 3^2 * 11 * 101, about half of a Jacobi
    call; a faster length moves the grid, and so every reported error.
    """
    z = np.asarray(z)
    grid = chebyshev_extrema(resolution)
    n, K = len(grid), len(z)
    if basis.is_complex or not 1 < K < n:
        approx = synthesize(z, basis, grid)
    else:
        approx = _dct1(_chebyshev_matrix(basis, K) @ z, n)[::-1]
    return float(np.max(np.abs(approx - np.asarray(f_true(grid)))))


def lp_oracle(A, y, w):
    """Exact equality-mode objective via linear programming (real data only).

    Splits z into positive and negative parts and hands the result to
    HiGHS's interior point at primal and dual feasibility tolerances of
    LP_TOL.  Where the interior point stops without a solution it raises
    RuntimeError.  It does not fall back to the simplex: on 200 instances
    with uniform random points, jacobi(1, 0), K = 2N, N = 40 ... 80
    (cond(A) near 1e9), the interior point stopped with status 4 on 30,
    and the simplex, even at LP_TOL, then answered below the optimum on
    all 30, by a median 2.6e-6 relative and at most 5.4e-4.  Only for
    small, well-conditioned cross-check instances.
    """
    from scipy.optimize import linprog

    entries = A.entries if isinstance(A, SamplingMatrix) else np.asarray(A)
    if np.iscomplexobj(entries) or np.iscomplexobj(np.asarray(y)):
        raise ValueError("the LP reformulation needs real data")
    n, K = entries.shape
    w = np.asarray(w, dtype=float)
    cost = np.concatenate([w, w])
    Aeq = np.hstack([entries, -entries])
    res = linprog(cost, A_eq=Aeq, b_eq=np.asarray(y), method="highs-ipm",
                  bounds=(0, None),
                  options={"primal_feasibility_tolerance": LP_TOL,
                           "dual_feasibility_tolerance": LP_TOL})
    if not res.success:
        raise RuntimeError("LP oracle failed: %s" % (res.message,))
    return res.x[:K] - res.x[K:], float(res.fun)


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
