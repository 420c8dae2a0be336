"""Scattered point sets on [-1, 1] and their geometric quantities.

A point set carries the measure of each node's Voronoi cell under the
basis's probability measure (quadrature weights tau), the fill distance
h, and the half minimal separation xi.  The separation includes ghost
points reflecting the interval endpoints; the reflection rule follows the
basis family and is not selectable.
"""

import hashlib
import io
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .basis import BasisSpec, FOURIER


POINT_FAMILIES = ("equispaced", "jittered", "uniform_random", "chebyshev")


class DegenerateGridError(ValueError):
    """Raised for point sets that violate the strict-ordering requirements."""


@dataclass(frozen=True)
class PointSet:
    """Sorted nodes plus their cell measures and density metrics.

    Fields
    ------
    points : ndarray, strictly increasing, inside [-1, 1]
    tau : ndarray, probability measure of each node's Voronoi cell in
        [-1, 1]; sums to 1
    h : float, fill distance
    xi : float, half minimal separation including ghost points; 0 when a
        point touches an endpoint under the reflect rule, which is allowed
    basis : BasisSpec whose measure gives tau and whose family picks the
        ghost-point rule
    """

    points: np.ndarray
    tau: np.ndarray
    h: float
    xi: float
    basis: BasisSpec

    @property
    def n(self) -> int:
        return self.points.size


def _validate_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float).ravel()
    if pts.size == 0:
        raise DegenerateGridError("empty point set")
    if not np.all(np.abs(pts) <= 1.0):
        raise ValueError("points must lie in [-1, 1]")
    if pts.size > 1:
        gaps = np.diff(pts)
        if np.any(gaps < 0):
            raise DegenerateGridError("points must be sorted ascending")
        if np.any(gaps == 0):
            raise DegenerateGridError("duplicate points")
    return pts


def cell_measures(basis: BasisSpec, edges: np.ndarray) -> np.ndarray:
    """Measure of each cell [edges[n], edges[n+1]] under the basis measure."""
    x = np.asarray(edges)
    if basis.kind == FOURIER:
        return np.diff((x + 1.0) / 2.0)
    # Jacobi measure c*(1-t)^a*(1+t)^b maps to a Beta distribution under
    # u = (1+t)/2, which betainc evaluates with full endpoint accuracy.
    u = np.clip((x + 1.0) / 2.0, 0.0, 1.0)
    return np.diff(betainc(basis.beta + 1.0, basis.alpha + 1.0, u))


def build_pointset(points, basis: BasisSpec) -> PointSet:
    """Assemble a PointSet with cells, weights and density metrics.

    Parameters
    ----------
    points : array_like
        Strictly increasing values in [-1, 1].
    basis : BasisSpec
        Determines the measure for the quadrature weights and the ghost
        points: t_0 = -1, t_{N+1} = 1 for the exponential system (endpoint
        rule), t_0 = -t_1 - 2, t_{N+1} = 2 - t_N otherwise (reflect rule).
    """
    pts = _validate_points(points)

    mids = (pts[1:] + pts[:-1]) / 2.0
    edges = np.concatenate([[-1.0], mids, [1.0]])
    tau = cell_measures(basis, edges)

    gaps = np.diff(pts)
    h = max(pts[0] + 1.0, 1.0 - pts[-1], gaps.max() / 2.0 if gaps.size else 0.0)
    if basis.kind == FOURIER:
        ghost_gaps = [(pts[0] + 1.0) / 2.0, (1.0 - pts[-1]) / 2.0]
    else:
        ghost_gaps = [pts[0] + 1.0, 1.0 - pts[-1]]  # t_1 - t_0 over 2 etc.
    xi = min(list(gaps / 2.0) + ghost_gaps)
    return PointSet(points=pts, tau=tau, h=float(h), xi=float(xi),
                    basis=basis)


def generate(kind: str, N: int, seed: int | None = None,
             amplitude: float = 1.0) -> np.ndarray:
    """Generate an N-point set of the named family.

    kinds: "equispaced" (endpoints included), "jittered" (equispaced plus
    uniform perturbations of at most amplitude/2 times the spacing),
    "uniform_random", "chebyshev" (Gauss nodes, sorted ascending).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if kind == "equispaced":
        if N == 1:
            return np.array([0.0])
        # One exact-integer division per point gives correctly rounded
        # coordinates; resolution-critical identities between frequencies
        # on rational grids survive at the last ulp this way.
        return (2.0 * np.arange(N) - (N - 1)) / float(N - 1)
    if kind == "jittered":
        base = generate("equispaced", N)
        spacing = 2.0 / (N - 1) if N > 1 else 2.0
        rng = np.random.default_rng(seed)
        pts = base + rng.uniform(-amplitude * spacing / 2.0,
                                 amplitude * spacing / 2.0, N)
        return np.sort(np.clip(pts, -1.0, 1.0))
    if kind == "uniform_random":
        rng = np.random.default_rng(seed)
        return np.sort(rng.uniform(-1.0, 1.0, N))
    if kind == "chebyshev":
        return np.cos((2.0 * np.arange(N, 0, -1) - 1.0) * np.pi / (2.0 * N))
    raise ValueError(f"unknown point family {kind!r}")


def load_points(path, columns: int = 1) -> tuple[np.ndarray, str]:
    """(points, digest): one abscissa per line, or with columns=2 the
    (n, 2) array of a samples file's (t, y) lines; '#' starts a comment.
    The file is read once, and digest is the SHA-256 hex of the bytes
    that were parsed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    with warnings.catch_warnings():  # an empty file is reported below
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(io.BytesIO(raw), ndmin=2)
    if not data.size:
        raise DegenerateGridError(f"no points found in {path}")
    if data.shape[1] != columns:
        what = ("one point per line" if columns == 1
                else "two columns, point and value,")
        raise ValueError(f"expected {what} in {path}")
    points = data[:, 0] if columns == 1 else data
    return points, hashlib.sha256(raw).hexdigest()
