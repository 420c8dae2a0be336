"""Error-analysis diagnostics for the sampling operator.

Quantifies how far the discrete setup is from the ideal orthonormal one:
deviation of the discrete Gram matrix from the identity (spectral and
max-row-sum), weighted coherence between high-order rows and the leading
columns, a dual-certificate check for support recovery, and computable
upper bounds on the error committed by truncating the expansion.

The infinite operator is approximated by a finite surrogate with K_diag
columns; quantities involving a tail are reported together with the
surrogate size so the analytic tail estimates can take over beyond it.
"""

from __future__ import annotations

import numpy as np
import numpy.linalg as la
from dataclasses import dataclass, fields

from .basis import BasisSpec, leading_indices, nested_rank
from .grid import PointSet, build_pointset, generate
from .sampling import (
    SamplingMatrix,
    WeightVector,
    build_matrix,
    default_weights,
    smallest_nonzero_singular_value,
)


@dataclass(frozen=True)
class CertificateResult:
    alpha: float
    theta: float
    satisfied: bool


@dataclass(frozen=True)
class DiagnosticsReport:
    """One diagnostics row; field order matches the CSV column order.

    Rows produced by partial studies may carry nan in the certificate or
    truncation columns; fully populated rows are finite and nonnegative
    throughout.
    """

    h: float
    xi: float
    N: int
    M: int
    R: int
    K: int
    E2: float
    Einf: float
    F: float
    sigma_min: float
    alpha: float
    theta: float
    trunc_w: float
    trunc_wtilde: float


REPORT_COLUMNS = tuple(f.name for f in fields(DiagnosticsReport))


def _weight_array(W, K: int) -> np.ndarray:
    w = W.w if isinstance(W, WeightVector) else np.asarray(W, dtype=float)
    if len(w) != K:
        raise ValueError("weight length %d does not match K=%d" % (len(w), K))
    return w


def compute_E(U: SamplingMatrix, M: int):
    """Gram deviation of the leading M block: spectral and max-row-sum."""
    B = U.leading(M)
    D = np.eye(M) - B.conj().T @ B
    E2 = float(la.norm(D, 2))
    Einf = float(np.max(np.sum(np.abs(D), axis=1)))
    return E2, Einf


def compute_F(U: SamplingMatrix, W, M: int, R: int) -> float:
    """Weighted coherence of tail rows against the leading M columns.

    Rows are the elements outside the leading R, columns the leading M, of
    the inverse-weighted discrete Gram.  R ranges over the storage of U, so
    the caller controls the surrogate size through K.
    """
    K = U.n_columns
    if not 1 <= M <= R:
        raise ValueError("need 1 <= M <= R")
    if R >= K:
        raise ValueError("tail block is empty: need R < K")
    w = _weight_array(W, K)
    C = U.entries.conj().T @ U.leading(M)
    rows = np.sum(np.abs(C), axis=1) / w
    tail = np.ones(K, bool)
    tail[leading_indices(U.basis, K, R)] = False
    return float(np.max(rows[tail]))


def check_dual_certificate(U: SamplingMatrix, W, delta, signs=None,
                           ) -> CertificateResult:
    """Check the support-recovery certificate for a candidate support.

    alpha measures invertibility of the Gram restricted to the support;
    theta the worst off-support correlation of the certificate vector built
    from the sign pattern.  Both below 1 means minimizers are essentially
    confined to the support.
    """
    K = U.n_columns
    delta = np.asarray(delta, dtype=int)
    if delta.size == 0:
        raise ValueError("support set is empty")
    if len(np.unique(delta)) != len(delta):
        raise ValueError("support indices repeat")
    if delta.min() < 0 or delta.max() >= K:
        raise ValueError("support index out of range")
    w = _weight_array(W, K)
    if signs is None:
        signs = np.ones(len(delta))
    else:
        signs = np.asarray(signs)
        if signs.shape != (len(delta),) \
                or not np.allclose(np.abs(signs), 1.0, atol=1e-12):
            raise ValueError("signs must be unit-modulus, one per index")

    B = U.entries[:, delta]
    G = B.conj().T @ B
    alpha = float(la.norm(G - np.eye(len(delta)), 2))
    if alpha >= 1.0:
        return CertificateResult(alpha=alpha, theta=np.inf, satisfied=False)
    try:
        inner = la.solve(G, w[delta] * signs)
    except la.LinAlgError:
        return CertificateResult(alpha=alpha, theta=np.inf, satisfied=False)
    u = (U.entries.conj().T @ (B @ inner)) / w
    off = np.ones(K, bool)
    off[delta] = False
    theta = float(np.max(np.abs(u[off]))) if off.any() else 0.0
    return CertificateResult(alpha=alpha, theta=theta,
                             satisfied=alpha < 1.0 and theta < 1.0)


def truncation_bound(U: SamplingMatrix, weights_ext, coeffs_ext,
                     sigma: float):
    """Upper bounds (plain, wtilde) on the extra error from truncating at K.

    coeffs_ext and weights_ext describe the function in a storage longer
    than K; everything outside the leading K counts as tail.  sigma is the
    smallest nonzero singular value of U.  The plain bound multiplies the
    weighted tail norm by 1 + ||leading weights|| / sigma; the wtilde bound
    instead reweights the tail by sqrt(position) * w^2, which is sharper
    when the weights grow.
    """
    K = U.n_columns
    x = np.asarray(coeffs_ext)
    L = len(x)
    if L < K:
        raise ValueError("extended coefficients shorter than the truncation")
    w = _weight_array(weights_ext, L)
    lead = leading_indices(U.basis, L, K)
    tail = np.ones(L, bool)
    tail[lead] = False
    if not tail.any():
        return 0.0, 0.0
    tail_l1w = float(w[tail] @ np.abs(x[tail]))
    wt = np.sqrt(nested_rank(U.basis, L)) * w ** 2
    return (tail_l1w * (1.0 + float(la.norm(w[lead])) / sigma),
            tail_l1w + float(wt[tail] @ np.abs(x[tail])) / sigma)


def surrogate_quantities(basis: BasisSpec, ps: PointSet, M: int,
                         gamma: float):
    """Gram deviations, coherence and certificate on the finite surrogate.

    The surrogate has K = 4M columns, the coherence tail starts after the
    leading R = 2M, the weights are default_weights(basis, K, gamma), and
    the certificate is checked on the leading M.  Returns the surrogate
    matrix and the DiagnosticsReport fields R, E2, Einf, F, alpha, theta.
    """
    R = 2 * M
    K = 2 * R
    U = build_matrix(basis, ps, K)
    W = default_weights(basis, K, gamma)
    E2, Einf = compute_E(U, M)
    F = compute_F(U, W, M, R)
    cert = check_dual_certificate(U, W, leading_indices(basis, K, M))
    return U, dict(R=R, E2=E2, Einf=Einf, F=F, alpha=cert.alpha,
                   theta=cert.theta)


def _admissible(basis: BasisSpec, h: float, M: int) -> bool:
    # Mesh-width regimes under which the decay laws are stated.
    if basis.is_complex:
        return h * M <= 1.0
    return h * M * M <= 1.0


def _fit_loglog(hs, vals):
    hs = np.asarray(hs, dtype=float)
    vals = np.asarray(vals, dtype=float)
    keep = vals > 0
    if keep.sum() < 2:
        return float("nan")
    slope = np.polyfit(np.log(hs[keep]), np.log(vals[keep]), 1)[0]
    return float(slope)


def scaling_study(basis: BasisSpec, grid_kind: str, M: int,
                  n_levels: int = 7, N0: int | None = None, seed: int = 0,
                  weight_gamma: float = 1.0, amplitude: float = 0.75):
    """Measure how the Gram deviations decay under grid refinement.

    Runs n_levels grids with N doubling from N0, keeps the levels in the
    admissible mesh regime, and fits log-log slopes of E2, Einf and F
    against the fill distance.  Returns (rows, slopes) where slopes maps
    quantity name to fitted decay exponent.

    Jittered grids draw fresh points per level from a seed sequence, so the
    study is reproducible for a fixed seed.
    """
    if n_levels < 5:
        raise ValueError("need at least 5 refinement levels")
    if N0 is None:
        N0 = 33 if basis.is_complex else 65
    children = np.random.SeedSequence(seed).spawn(n_levels)
    rows = []
    for lvl in range(n_levels):
        n = N0 * 2 ** lvl
        pts = generate(grid_kind, n, seed=children[lvl], amplitude=amplitude)
        ps = build_pointset(pts, basis)
        if not _admissible(basis, ps.h, M):
            continue
        U, fields = surrogate_quantities(basis, ps, M, weight_gamma)
        rows.append(DiagnosticsReport(
            h=ps.h, xi=ps.xi, N=n, M=M, K=U.n_columns,
            sigma_min=smallest_nonzero_singular_value(U),
            trunc_w=float("nan"), trunc_wtilde=float("nan"), **fields))
    if len(rows) < 5:
        raise ValueError(
            "only %d levels admissible; start from a finer grid" % len(rows))
    hs = [r.h for r in rows]
    slopes = {
        "E2": _fit_loglog(hs, [r.E2 for r in rows]),
        "Einf": _fit_loglog(hs, [r.Einf for r in rows]),
        "F": _fit_loglog(hs, [r.F for r in rows]),
    }
    return rows, slopes
