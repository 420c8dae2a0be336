"""Orthonormal function systems on [-1, 1].

Two families are supported, both orthonormal with respect to a probability
measure on [-1, 1]:

* Jacobi polynomials with parameters (alpha, beta), alpha, beta > -1, under
  the normalized weight c * (1-t)^alpha * (1+t)^beta.  Legendre corresponds
  to (0, 0) and Chebyshev to (-1/2, -1/2).
* Complex exponentials exp(i j pi t) for integer frequencies j, under the
  uniform probability measure 1/2.

Functions are addressed by a 1-based storage index.  For Jacobi, index i
holds degree i - 1.  For the exponentials, a truncation size K holds the K
frequencies -floor(K/2), ..., ceil(K/2) - 1 in ascending order, so that any
stored frequency j satisfies |j| <= ceil(K/2).
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import beta as beta_function, betaln, binom, \
    eval_legendre, gammaln, roots_jacobi

JACOBI = "jacobi"
FOURIER = "fourier"

_LOG2 = np.log(2.0)


@dataclass(frozen=True)
class BasisSpec:
    """Identifies one of the supported orthonormal systems."""

    kind: str
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in (JACOBI, FOURIER):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError("basis parameter %s must be finite, got %r"
                                 % (name, value))
        if self.kind == JACOBI and (self.alpha <= -1.0 or self.beta <= -1.0):
            raise ValueError("Jacobi parameters must satisfy alpha, beta > -1")

    @property
    def is_complex(self) -> bool:
        return self.kind == FOURIER

    def label(self) -> str:
        if self.kind == FOURIER:
            return "fourier"
        return f"jacobi:{self.alpha:g},{self.beta:g}"


def jacobi(alpha: float, beta: float) -> BasisSpec:
    return BasisSpec(JACOBI, float(alpha), float(beta))


def legendre() -> BasisSpec:
    return BasisSpec(JACOBI, 0.0, 0.0)


def chebyshev() -> BasisSpec:
    return BasisSpec(JACOBI, -0.5, -0.5)


def fourier() -> BasisSpec:
    return BasisSpec(FOURIER)


def frequencies(K: int) -> np.ndarray:
    """Stored frequencies for a size-K exponential basis, ascending."""
    if K < 1:
        raise ValueError("K must be >= 1")
    half = K // 2
    return np.arange(-half, K - half)


def leading_indices(spec: BasisSpec, K: int, M: int) -> np.ndarray:
    """0-based storage positions of the M lowest-order basis functions.

    Jacobi: the first M degrees.  Exponentials: the M frequencies centered
    on zero, which form a contiguous slice of the storage order.
    """
    if not 1 <= M <= K:
        raise ValueError("need 1 <= M <= K")
    if spec.kind == JACOBI:
        return np.arange(M)
    lo = K // 2 - M // 2
    return np.arange(lo, lo + M)


def nested_rank(spec: BasisSpec, K: int) -> np.ndarray:
    """Per storage position, the smallest truncation size containing it.

    For Jacobi this is just the 1-based index.  For the exponentials,
    frequency j first appears at size 2j+1 (j >= 0) or -2j (j < 0).
    """
    if spec.kind == JACOBI:
        return np.arange(1, K + 1)
    j = frequencies(K)
    return np.where(j >= 0, 2 * j + 1, -2 * j)


def _check_domain(t: np.ndarray):
    if not np.all(np.abs(t) <= 1.0 + 1e-12):
        raise ValueError("evaluation points must lie in [-1, 1]")


def log_weight_mass(alpha: float, beta: float) -> float:
    """log of int_{-1}^{1} (1-t)^alpha (1+t)^beta dt."""
    return (alpha + beta + 1.0) * _LOG2 + betaln(alpha + 1.0, beta + 1.0)


def kappa(alpha: float, beta: float, j) -> np.ndarray:
    """Squared norm of the degree-j Jacobi polynomial under the raw weight
    (1-t)^alpha (1+t)^beta.  Evaluated in log space; j may be an array."""
    j = np.asarray(j, dtype=float)
    if np.any(j < 0):
        raise ValueError("degree must be >= 0")
    ab = alpha + beta
    # j = 0 needs care: (ab+1)*Gamma(ab+1) = Gamma(ab+2) stays finite as
    # ab -> -1 even though the two factors do not.
    with np.errstate(divide="ignore", invalid="ignore"):
        general = (
            (ab + 1.0) * _LOG2
            - np.log(2.0 * j + ab + 1.0)
            + gammaln(j + alpha + 1.0)
            + gammaln(j + beta + 1.0)
            - gammaln(j + 1.0)
            - gammaln(j + ab + 1.0)
        )
    at_zero = (
        (ab + 1.0) * _LOG2
        + gammaln(alpha + 1.0)
        + gammaln(beta + 1.0)
        - gammaln(ab + 2.0)
    )
    out = np.exp(np.where(j == 0, at_zero, general))
    return out if out.ndim else float(out)


def _log_phi_scale(alpha: float, beta: float, j) -> np.ndarray:
    """log of the factor turning P_j^(alpha,beta) into a unit-norm function
    under the probability measure."""
    j = np.asarray(j, dtype=float)
    logk = np.log(kappa(alpha, beta, j))
    return -0.5 * (logk - log_weight_mass(alpha, beta))


@lru_cache(maxsize=128)
def _phi_scale(alpha: float, beta: float, K: int) -> np.ndarray:
    """exp(_log_phi_scale) for degrees 0 ... K - 1, as one read-only array
    shared by every call with the same (alpha, beta, K)."""
    scale = np.exp(_log_phi_scale(alpha, beta, np.arange(K)))
    scale.setflags(write=False)
    return scale


@lru_cache(maxsize=128)
def _jacobi_coeffs(alpha: float, beta: float, n_max: int):
    """Coefficients of the three-term recurrence
    c1_j P_j = (c2_j + c3_j t) P_{j-1} - c4_j P_{j-2}, j = 2 ... n_max,
    as four read-only arrays indexed by j, shared by every call with the
    same (alpha, beta, n_max).  Entries 0 and 1 are unused; c1 is 1 there,
    so that ratios by c1 stay finite."""
    ab = alpha + beta
    j = np.arange(n_max + 1, dtype=float)
    c1 = 2.0 * j * (j + ab) * (2.0 * j + ab - 2.0)
    c1[:2] = 1.0
    c2 = (2.0 * j + ab - 1.0) * (alpha**2 - beta**2)
    c3 = (2.0 * j + ab - 2.0) * (2.0 * j + ab - 1.0) * (2.0 * j + ab)
    c4 = 2.0 * (j + alpha - 1.0) * (j + beta - 1.0) * (2.0 * j + ab)
    for c in (c1, c2, c3, c4):
        c.setflags(write=False)
    return c1, c2, c3, c4


def _jacobi_row_blocks(alpha: float, beta: float, t: np.ndarray, bounds):
    """Classical (unnormalized) Jacobi polynomials at t via the three-term
    recurrence, yielded as one block P per (j0, j1) of `bounds`, which
    must run from 0 in consecutive ranges: P holds P_j0 ... P_{j1 - 1}, one
    contiguous row per degree.  Every P is a view of one buffer, which the
    next block overwrites.  The two rows before P carry the last two
    degrees of the block into the next one, so the caller may change P in
    place.  Each value takes the same operations whatever the blocks."""
    t = np.asarray(t, dtype=float)
    c1, c2, c3, c4 = _jacobi_coeffs(alpha, beta, bounds[-1][1] - 1)
    B = np.empty((max(j1 - j0 for j0, j1 in bounds) + 2, t.size))
    tmp = np.empty(t.size)
    for j0, j1 in bounds:
        n = j1 - j0
        for r in range(2, n + 2):
            j, row = j0 + r - 2, B[r]
            if j == 0:
                row[:] = 1.0
            elif j == 1:
                row[:] = (alpha + 1.0) + (alpha + beta + 2.0) * (t - 1.0) / 2.0
            else:
                # ((c2 + c3 t) P_{j-1} - c4 P_{j-2}) / c1, in this order
                np.multiply(t, c3[j], out=row)
                row += c2[j]
                row *= B[r - 1]
                np.multiply(B[r - 2], c4[j], out=tmp)
                row -= tmp
                row /= c1[j]
        B[:2] = B[n:n + 2]
        yield B[2:n + 2]


def _table_rows(spec: BasisSpec, K: int, t: np.ndarray, block: int = 0):
    """The rows of eval_table(spec, K, t).T for a Jacobi spec, as one pair
    (j0, P) per block of `block` degrees (_TABLE_BLOCK if 0; the last
    block holds the rest): P holds rows j0 ... j0 + len(P) - 1, the
    recurrence's block of _jacobi_row_blocks scaled in place, and the
    next block overwrites it."""
    block = block or _TABLE_BLOCK
    bounds = [(j0, min(j0 + block, K)) for j0 in range(0, K, block)]
    phi = _phi_scale(spec.alpha, spec.beta, K)
    for (j0, j1), P in zip(bounds, _jacobi_row_blocks(spec.alpha, spec.beta,
                                                      t, bounds)):
        P *= phi[j0:j1, None]
        yield j0, P


def _unit_phasor(t: np.ndarray) -> np.ndarray:
    """exp(i pi t) as cos(pi t) + i sin(pi t), of the unfolded angle."""
    angle = np.pi * t
    w = np.empty(t.size, dtype=complex)
    np.cos(angle, out=w.real)
    np.sin(angle, out=w.imag)
    return w


def _fourier_horner(z: np.ndarray, t: np.ndarray, w=None) -> np.ndarray:
    """sum_i z_i exp(i pi j_i t) over the stored frequencies j_i of a
    size-len(z) system, by Horner's rule: in w = exp(i pi t) over the
    frequencies 0 ... K - h - 1, and in conj(w) over -1 ... -h, where
    h = floor(K / 2).  Each pass costs one complex multiply-add per
    frequency and point; no phase is folded and no cosine is taken.

    w, if given, is that phasor, cos(pi t) + i sin(pi t), as a caller
    caches it for a fixed grid; it is only read, never written, and its
    conjugate is a new array."""
    K = len(z)
    h = K // 2
    if w is None:
        w = _unit_phasor(t)
    out = np.full(t.size, z[K - 1], dtype=complex)
    for i in range(K - 2, h - 1, -1):       # frequencies K - h - 2 ... 0
        out *= w
        out += z[i]
    if h:
        w = np.conjugate(w)
        neg = np.full(t.size, z[0], dtype=complex)
        for i in range(1, h):                # frequencies -h + 1 ... -1
            neg *= w
            neg += z[i]
        neg *= w
        out += neg
    return out


def eval_table(spec: BasisSpec, K: int, t) -> np.ndarray:
    """Evaluate the first K basis functions at the points t.

    Parameters
    ----------
    spec : BasisSpec
    K : int
        Number of functions (storage order).
    t : array_like
        Points in [-1, 1].

    Returns
    -------
    ndarray of shape (len(t), K), real for Jacobi, complex for the
    exponential system.  The Jacobi table comes from the recurrence
    (_table_rows) as one block of K degrees, one contiguous row per
    degree; it is the transpose of that (K, len(t)) array, so
    Fortran-ordered.  The exponential table is C-ordered and built from
    its non-negative half: _phasors folds and evaluates only
    |j| = 0 ... floor(K/2), and the column of frequency -j is the exact
    conjugate of the column of +j.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    _check_domain(t)
    if K < 1:
        raise ValueError("K must be >= 1")
    if spec.kind == FOURIER:
        half = K // 2
        P = np.empty((t.size, half + 1), dtype=complex)
        _phasors(t, np.arange(half + 1), half, P)
        return np.concatenate([P[:, half:0:-1].conj(), P[:, :K - half]], 1)
    return next(_table_rows(spec, K, t, K))[1].T


def synthesize(z, basis: BasisSpec, t):
    """Evaluate sum_i z_i phi_i at t (scalar or array), i = 1 ... len(z).

    No (len(t), K) table is held, K = len(z).  A Jacobi sum adds
    z[j0:j1] @ P over the row blocks P of eval_table(basis, K, t).T, which
    _table_rows builds _TABLE_BLOCK degrees at a time; the exponentials
    take Horner's rule in exp(i pi t) (and its conjugate, for the
    negative frequencies).  The result agrees with eval_table(basis, K, t)
    @ z to within K eps sum_i |z_i| |phi_i(t)| at each point for Jacobi
    (tested up to K = 320, real and complex z), and to within
    16 K eps sum_i |z_i| for the exponentials, where the difference stays
    near 0.1 K eps sum_i |z_i|.
    """
    z = np.asarray(z)
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    _check_domain(tt)
    if len(z) < 1:
        raise ValueError("K must be >= 1")
    if basis.kind == FOURIER:
        vals = _fourier_horner(z, tt)
    else:
        vals = np.zeros(tt.size, np.result_type(z, tt))
        for j0, P in _table_rows(basis, len(z), tt):
            vals += z[j0:j0 + len(P)] @ P
    return vals[0] if np.ndim(t) == 0 else vals


def _reduced_phase(t: np.ndarray, freqs, bits=None) -> np.ndarray:
    # t * j folded into [0, 2), entry by entry.  The plain product t * j
    # has absolute error growing like |j| * eps, and aliased frequency
    # pairs would drift apart.  Instead t is split (Dekker) as
    # t_hi + t_lo, with t_hi rounded to 53 - bits fractional bits, where
    # 2^bits > max|j|: then t_hi * j is exact, and so is its fold
    # x - 2 floor(x / 2).  Then t_lo * j is added, with
    # |t_lo| <= 2^(bits-54): for |j| < 2^26 that term is below 1/4 and its
    # rounding lies far below one ulp, so the phase is within one ulp of the
    # correctly rounded exact fold.  It may land just outside [0, 2).
    # bits defaults to the bit length of max|freqs|; a table folded a few
    # frequencies at a time passes the bits of the whole table, so that its
    # entries are those of one fold of all its frequencies.
    freqs = np.asarray(freqs)
    if bits is None:
        bits = int(np.max(np.abs(freqs), initial=0)).bit_length()
    scale = 2.0 ** (53 - bits)
    t_hi = np.rint(t * scale) / scale
    x = np.multiply.outer(t_hi, freqs.astype(float))
    k = np.multiply(x, 0.5)
    np.floor(k, out=k)
    k *= 2.0
    x -= k
    np.multiply.outer(t - t_hi, freqs, out=k)
    x += k
    return x


def _phasors(t: np.ndarray, freqs, half: int, out: np.ndarray) -> None:
    """Write exp(i pi |j| t) into the complex (len(t), len(freqs)) array
    out, one column per j of freqs, by a cosine and a sine of each folded
    phase.  The phases are folded with the split width of a table whose
    largest |j| is half, so that any part of that table holds the entries
    of one fold of all of it.  _fourier_projection takes only the columns
    k < _TABLE_BLOCK and one per block start from here, and forms the
    rest by angle addition."""
    angle = _reduced_phase(t, np.abs(freqs), int(half).bit_length())
    angle *= np.pi
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)


def eval_basis(spec: BasisSpec, i: int, t) -> np.ndarray:
    """Evaluate a single basis function at the points t.

    For Jacobi, `i` is the 1-based storage index (degree i - 1).  For the
    exponential system, `i` is the frequency itself (any integer).
    """
    return eval_deriv(spec, i, t, order=0)


def eval_deriv(spec: BasisSpec, i: int, t, order: int = 1) -> np.ndarray:
    """Derivative of order 0, 1 or 2 of one basis function at points t.

    Jacobi derivatives use the parameter-shift identity
    d/dt P_j^(a,b) = (j + a + b + 1) / 2 * P_{j-1}^(a+1,b+1) (DLMF 18.9.15),
    whose factor is exact to one rounding.  For the exponential system `i`
    is the frequency and the derivative is (i*pi*j)^k times the function.
    """
    if order not in (0, 1, 2):
        raise ValueError("derivative order must be 0, 1 or 2")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    _check_domain(t)
    if spec.kind == FOURIER:
        phase = _reduced_phase(t, np.array([i]))[:, 0]
        return (1j * np.pi * i) ** order * np.exp(1j * np.pi * phase)
    if i < 1:
        raise ValueError("storage index must be >= 1")
    j = i - 1
    if j < order:
        return np.zeros(t.size)
    factor = np.exp(_log_phi_scale(spec.alpha, spec.beta, j))
    a, b, jj = spec.alpha, spec.beta, j
    for _ in range(order):
        factor *= (jj + a + b + 1.0) / 2.0
        a, b, jj = a + 1.0, b + 1.0, jj - 1
    return factor * next(_jacobi_row_blocks(a, b, t, [(0, jj + 1)]))[jj]


def _log_binom(x, k):
    return gammaln(x + 1.0) - gammaln(k + 1.0) - gammaln(x - k + 1.0)


@lru_cache(maxsize=8)
def chebyshev_extrema(n: int) -> np.ndarray:
    """The n Chebyshev extrema cos(pi k / (n - 1)) in ascending order, as
    a read-only array shared by every call with the same n."""
    if n < 2:
        raise ValueError("resolution must be at least 2")
    grid = np.ascontiguousarray(np.cos(np.pi * np.arange(n) / (n - 1))[::-1])
    grid.setflags(write=False)
    return grid


def has_closed_form_norms(spec: BasisSpec) -> bool:
    """Whether linf_norms(spec, K) is closed form: for the exponentials
    (all 1) and for Jacobi with max(alpha, beta) >= -1/2, whose maxima
    sit at an endpoint.  Other Jacobi norms take an interior search."""
    return spec.is_complex or max(spec.alpha, spec.beta) >= -0.5


def linf_norms(spec: BasisSpec, K: int) -> np.ndarray:
    """Sup norms over [-1, 1] of the first K basis functions (storage order).

    Jacobi norms are computed once per (spec, K) (_jacobi_sup_norms), and
    every call with the same pair returns that one read-only array.
    """
    if spec.kind == FOURIER:
        return np.ones(K)
    return _jacobi_sup_norms(spec, K)


@lru_cache(maxsize=128)
def _jacobi_sup_norms(spec: BasisSpec, K: int) -> np.ndarray:
    """Sup norms over [-1, 1] of the first K functions of a Jacobi spec, as
    one read-only array shared by every call with the same (spec, K).

    When max(alpha, beta) >= -1/2 the maximum of a Jacobi polynomial sits
    at an endpoint, where closed forms exist.  Otherwise the maximum is
    interior: a Chebyshev grid of 4096 points, swept a block of degrees at
    a time, brackets each function's maximum, and one golden-section
    search refines all K brackets at once.  Each step evaluates degree i
    at its own new point x_i: it runs the blocks of _table_rows over all K
    points and keeps the diagonal of each block, so it holds one block of
    _TABLE_BLOCK + 2 rows of K points and no (K, K) table.
    """
    a, b = spec.alpha, spec.beta
    if has_closed_form_norms(spec):
        j = np.arange(K, dtype=float)  # at +1 or -1, whichever is larger
        norms = np.exp(_log_phi_scale(a, b, j) + np.maximum(
            _log_binom(j + a, j), _log_binom(j + b, j)))
        norms.setflags(write=False)
        return norms
    grid = chebyshev_extrema(4096)
    # The argmax of each column of |eval_table(spec, K, grid)|, taken on
    # its row blocks, so that no (4096, K) table is held.
    best = np.empty(K, dtype=np.intp)
    for j0, P in _table_rows(spec, K, grid):
        best[j0:j0 + len(P)] = np.argmax(np.abs(P), axis=1)
    lo = grid[np.maximum(best - 1, 0)]
    hi = grid[np.minimum(best + 1, grid.size - 1)]

    def fn(x):  # |phi_i(x_i)| for every column i, i.e. at degree i
        diag = np.empty(K)
        for j0, P in _table_rows(spec, K, x):
            diag[j0:j0 + len(P)] = P.diagonal(j0)
        return np.abs(diag)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    active = hi - lo > 1e-10
    while active.any():
        up = active & (f1 < f2)
        down = active & ~up
        lo[up], x1[up], f1[up] = x1[up], x2[up], f2[up]
        hi[down], x2[down], f2[down] = x2[down], x1[down], f1[down]
        x = np.where(up, lo + invphi * (hi - lo), hi - invphi * (hi - lo))
        fx = fn(x)
        x2[up], f2[up] = x[up], fx[up]
        x1[down], f1[down] = x[down], fx[down]
        active = hi - lo > 1e-10
    norms = np.maximum(f1, f2)
    norms.setflags(write=False)
    return norms


class ProjectionResult(NamedTuple):
    coeffs: np.ndarray
    converged: bool
    nodes: int


def _jacobi_values(n: int, alpha: float, beta: float,
                   x: np.ndarray) -> np.ndarray:
    """P_n^(alpha,beta)(x) for integer n >= 2, with the bits of scipy's
    eval_jacobi at integer n: the same forward recurrence on the
    differences of p_k = P_k / binom(k + alpha, k), op for op and in the
    same order, run over all nodes at once instead of one node at a time,
    then the same final binom factor."""
    xm1 = x - 1
    d = (alpha + beta + 2) * xm1 / (2 * (alpha + 1))
    p = d + 1
    tmp = np.empty_like(x)
    for kk in range(n - 1):
        k = kk + 1.0
        t = 2 * k + alpha + beta
        # d = (t (t+1) (t+2) (x-1) p + 2 k (k+beta) (t+2) d)
        #     / (2 (k+alpha+1) (k+alpha+beta+1) t)
        np.multiply(xm1, t * (t + 1) * (t + 2), out=tmp)
        tmp *= p
        d *= 2 * k * (k + beta) * (t + 2)
        d += tmp
        d /= 2 * (k + alpha + 1) * (k + alpha + beta + 1) * t
        p += d
    return binom(n + alpha, n) * p


def _legendre_values(n: int, x: np.ndarray):
    """(P_n(x), P_{n-1}(x)) for integer n >= 2, with the bits of scipy's
    eval_legendre at integer n: the same recurrence on differences, op
    for op, over all nodes at once.  P_{n-1}
    is the value one step before the end, as a run to n - 1 would leave
    it.  Nodes with |x| < 1e-5 take scipy's own values, since scipy sums
    a power series there."""
    xm1 = x - 1
    d = xm1.copy()
    p = x.copy()
    tmp = np.empty_like(x)
    for kk in range(n - 1):
        if kk == n - 2:
            prev = p.copy()
        k = kk + 1.0
        # d = ((2k+1)/(k+1)) (x-1) p + (k/(k+1)) d
        np.multiply(xm1, (2 * k + 1) / (k + 1), out=tmp)
        tmp *= p
        d *= k / (k + 1)
        d += tmp
        p += d
    small = np.abs(x) < 1e-5
    if small.any():
        p[small] = eval_legendre(n, x[small])
        prev[small] = eval_legendre(n - 1, x[small])
    return p, prev


def _gauss_jacobi(n: int, alpha: float, beta: float):
    """scipy's roots_jacobi(n, alpha, beta) for Legendre and alpha != beta,
    bit for bit: the Golub-Welsch band matrix and its eigvals_banded
    nodes, one Newton step, log-normalized weights, symmetrized for
    Legendre, and the same scaling to the raw weight's mass.  Only the
    polynomial values differ in how they are computed: scipy evaluates
    them one node at a time, here each runs the same recurrence once over
    all nodes (_jacobi_values, _legendre_values).  Each step keeps scipy's
    arithmetic order, since a reordered op moves last bits of the rule and
    with them every recorded projection.

    The copy of scipy's rounding is temporary.  It only keeps scipy's
    weights, which lose accuracy at high orders, until the weight formula
    is swapped and the diagnostics are re-recorded (ROADMAP item 2); then
    _legendre_values, the power-series branch and the log normalization
    need no longer follow scipy."""
    from scipy import linalg  # imported here: it costs start-up time

    a, b = alpha, beta
    legendre = a == 0.0 and b == 0.0
    k = np.arange(n, dtype='d')
    c = np.zeros((2, n))
    if legendre:
        mu0 = 2.0
        c[0, 1:] = k[1:] * np.sqrt(1.0 / (4 * k[1:] * k[1:] - 1))
        c[1, :] = 0.0 * k
    else:
        if a + b <= 1000:
            mu0 = 2.0 ** (a + b + 1) * beta_function(a + 1, b + 1)
        else:
            mu0 = np.exp((a + b + 1) * np.log(2.0) + betaln(a + 1, b + 1))
        j = k[1:]
        c[0, 1:] = (2.0 / (2.0 * j + a + b)
                    * np.sqrt((j + a) * (j + b) / (2 * j + a + b + 1))
                    * np.where(j == 1, 1.0,
                               np.sqrt(j * (j + a + b) / (2.0 * j + a + b - 1))))
        if a + b == 0.0:
            c[1, :] = np.where(k == 0, (b - a) / (2 + a + b), 0.0)
        else:
            c[1, :] = np.where(
                k == 0, (b - a) / (2 + a + b),
                (b * b - a * a) / ((2.0 * k + a + b) * (2.0 * k + a + b + 2)))
    x = linalg.eigvals_banded(c, overwrite_a_band=True)

    if legendre:
        y, p_prev = _legendre_values(n, x)
        dy = (-n * x * y + n * p_prev) / (1 - x ** 2)
    else:
        y = _jacobi_values(n, a, b, x)
        dy = 0.5 * (n + a + b + 1) * _jacobi_values(n - 1, a + 1, b + 1, x)
    x -= y / dy
    fm = _legendre_values(n - 1, x)[0] if legendre \
        else _jacobi_values(n - 1, a, b, x)
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.)
    w = 1.0 / (fm * dy)
    if legendre:
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2
    w *= mu0 / w.sum()
    return x, w


@lru_cache(maxsize=64)
def _jacobi_rule(Q: int, alpha: float, beta: float):
    """Q-point Gauss rule for the normalized Jacobi weight, as read-only
    nodes and weights shared by every projection in the process.

    Legendre and every alpha != beta take _gauss_jacobi, which gives
    scipy's roots_jacobi bit for bit in less time; the recorded
    diagnostics pin those bits.  alpha = beta != 0 stays on
    roots_jacobi, whose Gegenbauer path is closed form for Chebyshev.
    The weights are scipy's formula either way, and so is their loss of
    accuracy at high orders."""
    if alpha == beta != 0.0:
        x, w = roots_jacobi(Q, alpha, beta)
    else:
        x, w = _gauss_jacobi(Q, alpha, beta)
    w = w * np.exp(-log_weight_mass(alpha, beta))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# Degrees per row block of _table_rows: of the Jacobi sums of
# project_coefficients and synthesize, and of the passes of linf_norms.
_TABLE_BLOCK = 32


def _projection(spec: BasisSpec, M: int, x: np.ndarray,
                v: np.ndarray) -> np.ndarray:
    """eval_table(spec, M, x).T @ v for a Jacobi spec, for v of len(x)
    values or len(x) rows, one block of _TABLE_BLOCK rows at a time (the
    last block holds the rest), as _table_rows yields them; each block is
    copied into one reused (len(x), rows) buffer, whose transpose is
    multiplied by v, one gemv per block."""
    buf = np.empty((x.size, min(_TABLE_BLOCK, M)))
    out = np.empty((M,) + np.shape(v)[1:], dtype=np.result_type(buf, v))
    for r0, P in _table_rows(spec, M, x):
        block = buf[:, :len(P)]
        block[:] = P.T
        out[r0:r0 + len(P)] = block.T @ v
    return out


def _fourier_projection(M: int, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """conj(eval_table(fourier(), M, x)).T @ v, for v of len(x) values or
    len(x) rows, on nodes x of even count with x == -x[::-1] exactly; any
    other node set raises ValueError, since the fold below would be wrong
    for it.

    The sum runs over the positive nodes p only, against the even and odd
    parts E = v(p) + v(-p) and O = v(p) - v(-p).  For m = |j| it takes
    one cosine sum C_m = sum_p E cos(pi m p) and one sine sum
    S_m = sum_p O sin(pi m p), which give both coefficients:
    C_m - i S_m for j = m and C_m + i S_m for j = -m.  The phasors
    exp(i pi m p) come in blocks of _TABLE_BLOCK consecutive m, by angle
    addition: one complex multiply exp(i pi m0 p) exp(i pi k p) per entry,
    from a set for k = 0 ... _TABLE_BLOCK - 1 folded once per call and
    one column for m0 per block, both by _phasors.  A block, viewed as
    real (cos, sin) column pairs, is multiplied once by the real and
    imaginary parts of E and O, so no complex copy of a real block is
    made.  Both factors of an entry carry the error of one folded phase
    and one cosine and sine, as eval_table's entries do, and the product
    adds about 2 eps: entries stay within 16 eps of eval_table's (tested;
    at most 7.5 measured)."""
    n = x.size // 2
    xp = x[n:]
    if x.size % 2 or not np.array_equal(x[:n], -xp[::-1]):
        raise ValueError("the folded Fourier sums need nodes with "
                         "x == -x[::-1] exactly, of even count")
    half = M // 2  # the sums run over m = 0 ... half
    v2 = np.reshape(v, (x.size, -1))
    vp, vm = v2[n:], v2[n - 1::-1]
    data = np.concatenate([vp + vm, vp - vm], axis=1)  # E | O
    complex_data = np.iscomplexobj(data)
    if complex_data:
        data = data.view(float)
    h = data.shape[1] // 2
    steps = np.empty((n, min(_TABLE_BLOCK, half + 1)), dtype=complex)
    _phasors(xp, np.arange(steps.shape[1]), half, steps)
    base, buf = np.empty((n, 1), dtype=complex), np.empty_like(steps)
    cs = np.empty((half + 1, 2, h))  # C_m and S_m, real or (re, im) pairs
    for m0 in range(0, half + 1, _TABLE_BLOCK):
        b = min(_TABLE_BLOCK, half + 1 - m0)
        _phasors(xp, [m0], half, base)
        block = np.multiply(steps[:, :b], base, out=buf[:, :b])
        R = block.view(float).T @ data  # rows cos m0, sin m0, cos m0+1, ...
        cs[m0:m0 + b, 0] = R[0::2, :h]
        cs[m0:m0 + b, 1] = R[1::2, h:]
    if complex_data:
        cs = cs.view(complex)
    C, iS = cs[:, 0], 1j * cs[:, 1]
    out = np.empty((M, v2.shape[1]), dtype=complex)
    out[half:] = (C - iS)[:M - half]
    out[:half] = (C + iS)[half:0:-1]
    return out.reshape((M,) + np.shape(v)[1:])


# Relative agreement of consecutive refinements that ends a projection.
PROJECTION_TOL = 1e-12
# Doubling stops, converged or not, at the first quadrature order >= this,
# which can come near twice it (10240 nodes for M = 80).
STOP_DOUBLING_AT_ORDER = 8192


def project_coefficients(f: Callable, spec: BasisSpec, M: int) -> ProjectionResult:
    """First M generalized coefficients of f by Gauss quadrature.

    The quadrature order doubles from max(64, 2M) until two consecutive
    refinements agree to PROJECTION_TOL (relative, sup over coefficients)
    or it reaches STOP_DOUBLING_AT_ORDER or more, which is reported through
    the `converged` flag, not an exception.  The exponentials use the
    Legendre rule, the Jacobi rule with alpha = beta = 0.  Each rule is
    built once per process (_jacobi_rule): by the package for Legendre and
    alpha != beta, with scipy's roots_jacobi's bits, and by roots_jacobi
    for alpha = beta != 0.  Keeping those bits keeps every coefficient of
    the recorded diagnostics.  The package's rules run their O(Q^2)
    polynomial passes over all nodes at once, so the eigenvalue solve
    (LAPACK's dsterf) is most of their cost.

    Each refinement with Q nodes sums conj(T).T @ (w * f(x)), where T is
    the (Q, M) table eval_table(spec, M, x), without building T.  Jacobi
    sums run over row blocks of T.T, _TABLE_BLOCK rows each, filled by
    the recurrence that builds eval_table, so they hold its entries
    (_projection).  The exponentials fold the Legendre rule, which is
    symmetric bit for bit: one cosine and one sine sum per |j| over the
    Q/2 positive nodes give both of +-j, from phasors built by angle
    addition (_fourier_projection).  The peak memory of a refinement is a
    few blocks of Q values per row (at M = 520, Q = 2080: 0.14 times the
    table for Jacobi, 0.08 for the exponentials), not the table.

    The coefficients are accurate to rounding, not tied to one summation
    order: where the rule is accurate, the projection of an expansion
    sum_k z_k phi_k gives z back within 256 eps sum_k |z_k| ||phi_k||_inf,
    and that of exp(i pi a t) its exact coefficients within 1024 eps
    (tested up to M = 520).  The angle addition moves an exponential
    coefficient by at most 16 eps sum_q w_q |f(x_q)| beyond the rounding
    of the sum; for a real f, c_-j = conj(c_j) exactly.  The last bits
    can depend on the BLAS.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    ab = (spec.alpha, spec.beta) if spec.kind == JACOBI else (0.0, 0.0)

    def coeffs_at(Q: int) -> np.ndarray:
        x, w = _jacobi_rule(Q, *ab)
        v = w * np.asarray(f(x))
        if spec.is_complex:
            return _fourier_projection(M, x, v)
        return _projection(spec, M, x, v)

    Q = max(64, 2 * M)
    prev = coeffs_at(Q)
    while True:
        Q *= 2
        cur = coeffs_at(Q)
        if np.max(np.abs(cur - prev)) \
                <= PROJECTION_TOL * max(1.0, float(np.max(np.abs(cur)))):
            return ProjectionResult(cur, True, Q)
        if Q >= STOP_DOUBLING_AT_ORDER:
            return ProjectionResult(cur, False, Q)
        prev = cur
