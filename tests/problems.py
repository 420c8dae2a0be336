"""The one builder of the tests' sampling problems."""

import numpy as np

from wl1approx.grid import build_pointset, generate
from wl1approx.sampling import build_matrix, default_weights, make_weights
from wl1approx.solver import make_problem


def runge(c):
    """1 / (1 + c t^2)."""
    return lambda t: 1.0 / (1.0 + c * t ** 2)


def problem(spec, points, K, samples=runge(50), weights=None, gamma=1.0,
            relax=False, eta=0.0):
    """The sampling problem of one fit on spec's first K functions.

    points: the sample points, or N for N equispaced ones.  samples: the
    values at the points, or a function of t.  weights: a scheme name for
    make_weights, a positive array or a WeightVector; by default the
    family's growth-gamma weights, default_weights(spec, K, gamma, relax).
    A test that needs only the matrix or the weights reads p.A or p.w.
    """
    pts = generate("equispaced", points) if np.ndim(points) == 0 else points
    ps = build_pointset(pts, spec)
    A = build_matrix(spec, ps, K)
    if weights is None:
        weights = default_weights(spec, K, gamma, relax)
    elif isinstance(weights, str):
        weights = make_weights(spec, K, weights, gamma=gamma, relax=relax)
    if callable(samples):
        samples = samples(ps.points)
    return make_problem(A, samples, weights, eta=eta)
