"""Point-set geometry: cells, measures, density metrics, generators.

The hand-checkable fixtures are tiny symmetric point sets whose cell
measures and separation values follow from the midpoint construction
directly.  Measure computations are cross-checked against closed forms
for the uniform measure and against scipy's regularized incomplete beta
for the polynomial measures.
"""

import hashlib

import numpy as np
import pytest
from scipy.special import betainc

from wl1approx.basis import chebyshev, eval_basis, fourier, jacobi, legendre
from wl1approx.grid import (DegenerateGridError, PointSet, build_pointset,
                            cell_measures, generate, load_points)


def test_two_point_symmetric_cells():
    # The cells are [-1, 0] and [0, 1].
    ps = build_pointset([-0.5, 0.5], legendre())
    np.testing.assert_allclose(ps.tau, [0.5, 0.5], rtol=1e-15)
    assert ps.h == 0.5
    assert ps.xi == 0.5
    assert ps.n == 2


def test_three_point_separation():
    ps = build_pointset([-0.5, 0.0, 0.5], legendre())
    assert ps.h == 0.5
    assert ps.xi == 0.25
    # The largest gap is the left boundary's, t_1 + 1, then an interior
    # one; the exponentials' ghost gaps are half the boundary gaps.
    assert build_pointset([0.5, 0.6, 0.9], legendre()).h == 1.5
    assert build_pointset([-0.9, -0.8, 0.8, 0.9], legendre()).h == 0.8
    assert build_pointset([-0.5, 0.9], fourier()).xi == pytest.approx(0.05)


def test_endpoint_touch_is_degenerate_not_fatal():
    # xi == 0 marks the degenerate set; building it raises nothing.
    ps = build_pointset([-1.0, 0.0, 1.0], legendre())
    assert ps.xi == 0.0
    assert ps.h == 0.5
    assert abs(ps.tau.sum() - 1.0) < 1e-15


def test_validation_errors():
    with pytest.raises(DegenerateGridError):
        build_pointset([], legendre())
    with pytest.raises(DegenerateGridError):
        build_pointset([0.5, -0.5], legendre())
    with pytest.raises(DegenerateGridError):
        build_pointset([0.1, 0.1, 0.2], legendre())
    with pytest.raises(ValueError):
        build_pointset([-1.2, 0.0], legendre())
    # NaN compares False against any bound, so it must not pass as inside.
    for pts in ([0.0, np.nan], [np.nan, 0.0], [np.nan]):
        with pytest.raises(ValueError, match=r"points must lie in \[-1, 1\]"):
            build_pointset(pts, legendre())


def test_ghost_rule_follows_basis_family():
    pts = [-0.5, 0.5]
    # Endpoint ghosts (exponentials) halve the boundary gaps:
    # min(1/2, 1/4) = 1/4; reflected ghosts (Jacobi) keep them at 1/2.
    assert build_pointset(pts, fourier()).xi == 0.25
    assert build_pointset(pts, chebyshev()).xi == 0.5
    assert build_pointset(pts, legendre()).xi == 0.5


def test_tau_is_probability_vector():
    rng = np.random.default_rng(3)
    for spec in (legendre(), chebyshev(), fourier(), jacobi(1.0, 0.5)):
        for _ in range(5):
            pts = np.sort(rng.uniform(-0.999, 0.999, 12))
            ps = build_pointset(pts, spec)
            assert abs(ps.tau.sum() - 1.0) < 1e-14
            assert np.all(ps.tau > 0)


def test_uniform_measure_cells_are_half_lengths():
    edges = np.array([-1.0, -0.2, 0.4, 1.0])
    np.testing.assert_allclose(cell_measures(fourier(), edges),
                               np.diff(edges) / 2.0, rtol=1e-15)


def test_polynomial_measure_matches_beta_cdf():
    a, b = 0.5, 1.5
    edges = np.array([-1.0, -0.3, 0.2, 0.9, 1.0])
    got = cell_measures(jacobi(a, b), edges)
    u = (edges + 1.0) / 2.0
    expect = np.diff(betainc(b + 1.0, a + 1.0, u))
    np.testing.assert_allclose(got, expect, rtol=1e-13)


def test_equispaced_generator():
    np.testing.assert_array_equal(generate("equispaced", 3), [-1.0, 0.0, 1.0])
    np.testing.assert_array_equal(generate("equispaced", 1), [0.0])
    pts = generate("equispaced", 11)
    ps = build_pointset(pts, legendre())
    assert abs(ps.h - 0.1) < 1e-15
    # exact rational coordinates: 5*t is integral for every node
    assert np.all(5.0 * pts == np.round(5.0 * pts))


def test_jittered_amplitude_zero_is_equispaced():
    np.testing.assert_array_equal(generate("jittered", 9, seed=0,
                                           amplitude=0.0),
                                  generate("equispaced", 9))


def test_jittered_stays_in_domain_and_is_seeded():
    a = generate("jittered", 40, seed=5, amplitude=1.0)
    b = generate("jittered", 40, seed=5, amplitude=1.0)
    c = generate("jittered", 40, seed=6, amplitude=1.0)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.abs(a) <= 1.0)
    assert np.all(np.diff(a) >= 0)


def test_seed_sequence_accepted():
    ss = np.random.SeedSequence([4, 1, 2])
    a = generate("uniform_random", 8, seed=ss)
    b = generate("uniform_random", 8, seed=np.random.SeedSequence([4, 1, 2]))
    np.testing.assert_array_equal(a, b)


def test_chebyshev_generator():
    pts = generate("chebyshev", 7)
    expect = np.sort(np.cos((2 * np.arange(1, 8) - 1) * np.pi / 14))
    np.testing.assert_allclose(pts, expect, rtol=1e-15)
    assert np.all(np.abs(pts) < 1.0)


def test_generator_errors():
    with pytest.raises(ValueError):
        generate("equispaced", 0)
    with pytest.raises(ValueError):
        generate("halton", 5)


def test_inner_product_two_point_example():
    # phi_2 for the uniform measure is sqrt(3) t; its discrete square on
    # +-1/2 with half-half cells is 2 * (1/2 * 3/4) = 3/4.
    ps = build_pointset([-0.5, 0.5], legendre())
    vals = eval_basis(legendre(), 2, ps.points)
    got = np.sum(ps.tau * vals * np.conj(vals))
    assert abs(got - 0.75) < 1e-15


def test_discrete_gram_approaches_identity():
    # Refining an equispaced grid drives the discrete products of the first
    # basis functions toward delta_ij, with roughly factor-2 progress per
    # doubling allowed to wobble.
    devs = []
    for N in (20, 40, 80, 160):
        ps = build_pointset(generate("equispaced", N), legendre())
        worst = 0.0
        for i in range(1, 6):
            fi = eval_basis(legendre(), i, ps.points)
            for j in range(1, 6):
                fj = eval_basis(legendre(), j, ps.points)
                got = np.sum(ps.tau * fi * np.conj(fj))
                worst = max(worst, abs(got - (1.0 if i == j else 0.0)))
        devs.append(worst)
    assert devs[-1] < 0.02
    for a, b in zip(devs, devs[1:]):
        assert b < 2.0 * a


def test_load_points_reads_17_digit_values(tmp_path):
    pts = generate("uniform_random", 23, seed=9)
    path = tmp_path / "pts.txt"
    lines = ["# abscissae, one per line", ""]
    lines += ["%.17g" % p for p in pts[:10]] + ["   ", "# more"]
    lines += ["  %.17g  " % p for p in pts[10:]] + [""]
    path.write_text("\n".join(lines))
    got, digest = load_points(path)
    np.testing.assert_array_equal(got, pts)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    only_comments = tmp_path / "empty.txt"
    only_comments.write_text("# no points\n\n# here either\n")
    with pytest.raises(DegenerateGridError):
        load_points(only_comments)

    # A (t, y) samples file is not a points file, even with one line.
    for text in ("0.1 0.2\n", "0.1 0.2\n0.3 0.4\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="one point per line"):
            load_points(path)


def test_load_points_reads_a_samples_file(tmp_path):
    data = np.column_stack([generate("uniform_random", 7, seed=3),
                            np.linspace(-2.0, 2.0, 7)])
    path = tmp_path / "samples.txt"
    lines = ["# t y", ""] + ["%.17g %.17g" % tuple(row) for row in data]
    path.write_text("\n".join(lines) + "\n")
    got, digest = load_points(path, columns=2)
    assert got.shape == (7, 2)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    np.testing.assert_array_equal(got, data)

    for text in ("-0.5\n0.5\n", "-0.5 1 2\n0.5 3 4\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="two columns"):
            load_points(path, columns=2)


def test_pointset_carries_basis():
    ps = build_pointset([-0.25, 0.75], chebyshev())
    assert isinstance(ps, PointSet)
    assert ps.basis == chebyshev()
