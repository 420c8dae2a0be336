"""Sampling-operator assembly, weight vectors, and truncation-degree selection.

The discrete sampling operator takes a coefficient vector of length K to the
weighted point values of the synthesized function: entry (n, i) equals
sqrt(tau_n) * phi_i(t_n).  Rows are scaled so that the Euclidean norm on data
space matches the discrete inner product induced by the cell measures.

Degree selection depends on the point set alone, not on the sampled
function: K doubles from N until the numerical rank of the matrix stops
growing and its smallest nonzero singular value clears the requested
threshold.  Once the N x K matrix has full row rank N, the rank cannot
grow; where the basis has closed-form sup norms, they bound the largest
singular value at 2K, and the search stops without building that matrix
(choose_K).  One rank count, _numerical_rank(s, rtol), serves two cutoffs
relative to the largest singular value: RANK_RTOL for degree selection and
the smaller solver.SVD_RTOL for the weighted-l1 solve.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .basis import (
    BasisSpec,
    eval_table,
    frequencies,
    has_closed_form_norms,
    leading_indices,
    linf_norms,
    nested_rank,
)
from .grid import PointSet

# Relative cutoff below which degree selection counts singular values as
# zero.
RANK_RTOL = 1e-10

# Hard cap for the doubling search; larger requests are treated as divergent.
MAX_TRUNCATION = 2 ** 16

WEIGHT_SCHEMES = ("poly_gamma", "fourier_gamma", "unit", "custom")


class TruncationSearchError(RuntimeError):
    """Degree selection exceeded the hard cap without meeting its target."""


@dataclass(frozen=True)
class SamplingMatrix:
    """Dense N x K sampling matrix with its provenance."""

    entries: np.ndarray
    basis: BasisSpec
    pointset: PointSet

    @property
    def shape(self):
        return self.entries.shape

    def column_labels(self) -> np.ndarray:
        """Degree (Jacobi) or frequency (Fourier) of each stored column."""
        K = self.shape[1]
        if self.basis.is_complex:
            return frequencies(K)
        return np.arange(K)

    def leading(self, M: int) -> np.ndarray:
        """The N x M block spanning the first M elements of the system.

        For Jacobi this is the first M columns; for Fourier it is the
        centered contiguous slice holding the M lowest frequencies.
        """
        idx = leading_indices(self.basis, self.shape[1], M)
        return self.entries[:, idx[0]:idx[-1] + 1]


@dataclass(frozen=True)
class WeightVector:
    """Positive weights for the weighted l1 objective.

    w is read-only.  violates_growth marks vectors that dip below the sup
    norm of the corresponding basis function somewhere.  Such weights fall
    outside the guarantees and are only produced on request.
    """

    w: np.ndarray
    violates_growth: bool = False

    def __len__(self) -> int:
        return len(self.w)


def build_matrix(basis: BasisSpec, ps: PointSet, K: int) -> SamplingMatrix:
    """Assemble the N x K matrix with entries sqrt(tau_n) * phi_i(t_n)."""
    if K < 1:
        raise ValueError("K must be at least 1")
    if ps.basis.label() != basis.label():
        raise ValueError(
            "point set was built for measure %s, not %s"
            % (ps.basis.label(), basis.label()))
    table = eval_table(basis, K, ps.points)
    # C order keeps the summation order of every product and solve on A.
    entries = np.ascontiguousarray(np.sqrt(ps.tau)[:, None] * table)
    entries.setflags(write=False)
    return SamplingMatrix(entries=entries, basis=basis, pointset=ps)


def _entries(A) -> np.ndarray:
    if isinstance(A, SamplingMatrix):
        return A.entries
    return np.asarray(A)


def _singular_values(entries: np.ndarray) -> np.ndarray:
    if entries.size == 0:
        raise ValueError("empty matrix has no singular values")
    try:
        return np.linalg.svd(entries, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "SVD failed on a %s matrix: %s" % (entries.shape, exc))


def _numerical_rank(s: np.ndarray, rtol: float = RANK_RTOL) -> int:
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def smallest_nonzero_singular_value(A) -> float:
    """Smallest singular value above the numerical-rank cutoff."""
    s = _singular_values(_entries(A))
    r = _numerical_rank(s)
    if r == 0:
        raise ValueError("zero matrix has no nonzero singular values")
    return float(s[r - 1])


def make_weights(basis: BasisSpec, K: int, scheme: str = "unit",
                 gamma: float = 0.0, relax: bool = False,
                 custom=None) -> WeightVector:
    """Build a weight vector of length K under the named scheme.

    poly_gamma:    w at nested rank i (basis.nested_rank) is i**gamma times
                   the sup norm.  With relax=True the sup-norm factor is
                   dropped, giving the literal i**gamma.
    fourier_gamma: w at frequency j is 1 + |j|**gamma.
    unit:          w equals the sup norm of each function (the smallest
                   admissible choice).
    custom:        caller-supplied positive vector, validated only.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if scheme not in WEIGHT_SCHEMES:
        raise ValueError("unknown weight scheme %r" % (scheme,))
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")

    sup = linf_norms(basis, K)
    if scheme == "custom":
        if custom is None:
            raise ValueError("custom scheme requires a weight array")
        w = np.asarray(custom, dtype=float).copy()
        if len(w) != K:
            raise ValueError("custom weights must have length K")
    elif scheme == "fourier_gamma":
        if not basis.is_complex:
            raise ValueError("fourier_gamma weights need the Fourier system")
        w = 1.0 + np.abs(frequencies(K)) ** float(gamma)
    elif scheme == "unit":
        w = sup.copy()
    else:
        w = nested_rank(basis, K).astype(float) ** float(gamma)
        if not relax:
            w = w * sup

    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValueError("weights must be positive and finite")
    violates = bool(np.any(w < sup * (1.0 - 1e-12)))
    w.setflags(write=False)
    return WeightVector(w=w, violates_growth=violates)


def default_weights(basis: BasisSpec, K: int, gamma: float,
                    relax: bool = False) -> WeightVector:
    """The growth-gamma weights of the basis family.

    fourier_gamma for the exponentials, poly_gamma for Jacobi systems;
    relax only affects the latter.
    """
    scheme = "fourier_gamma" if basis.is_complex else "poly_gamma"
    return make_weights(basis, K, scheme, gamma=gamma, relax=relax)


def choose_K(basis: BasisSpec, ps: PointSet, epsilon: float) -> int:
    """Pick the truncation degree K from the point set alone.

    Doubles K from N upward and stops once the numerical rank of the
    sampling matrix matches that at 2K and the smallest nonzero singular
    value exceeds 1 - epsilon.  Raises TruncationSearchError when 2K
    would pass MAX_TRUNCATION first.

    The N x 2K matrix is built only when its rank is in doubt.  If the
    N x K one has full row rank N, with sigma_N > 1 - epsilon, adding
    columns cannot lower sigma_N (Weyl), and its largest singular value
    is at most its Frobenius norm, at most ||linf_norms(basis, 2K)||_2,
    since the cell measures tau sum to 1.  So where
    RANK_RTOL ||linf_norms(basis, 2K)||_2 < sigma_N / 2 the rank at 2K
    is N as well, and K is returned without the 2K matrix; the factor 2
    leaves room for the rounding of both SVDs.  This needs norms in
    closed form (basis.has_closed_form_norms): an interior search would
    cost more than the matrix it saves.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")

    K = max(1, ps.n)
    s = _singular_values(build_matrix(basis, ps, K).entries)
    while True:
        if 2 * K > MAX_TRUNCATION:
            raise TruncationSearchError(
                "no K below the cap %d reached the singular-value target"
                % (MAX_TRUNCATION,))
        rank = _numerical_rank(s)
        qualifies = rank > 0 and s[rank - 1] > 1.0 - epsilon
        if qualifies and rank == ps.n and has_closed_form_norms(basis) \
                and RANK_RTOL * np.linalg.norm(linf_norms(basis, 2 * K)) \
                < s[rank - 1] / 2:
            return K
        s2 = _singular_values(build_matrix(basis, ps, 2 * K).entries)
        if qualifies and rank == _numerical_rank(s2):
            return K
        K, s = 2 * K, s2
