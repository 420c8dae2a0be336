"""Sampling-operator assembly, weight schemes, truncation selection.

Matrix entries are checked against directly computed sqrt(tau)*phi values,
singular-value conventions against hand-built matrices, and the truncation
search against its own advertised postcondition plus small frozen cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from problems import problem
from wl1approx import sampling
from wl1approx.basis import (chebyshev, eval_basis, eval_table, fourier,
                             frequencies, jacobi, legendre, linf_norms,
                             nested_rank)
from wl1approx.grid import POINT_FAMILIES, build_pointset, generate
from wl1approx.sampling import (MAX_TRUNCATION, SamplingMatrix,
                                TruncationSearchError, WeightVector,
                                build_matrix, choose_K, default_weights,
                                make_weights, smallest_nonzero_singular_value)


def test_single_point_row():
    A = problem(legendre(), [0.0], 2).A
    assert A.shape == (1, 2)
    np.testing.assert_allclose(A.entries, [[1.0, 0.0]], atol=1e-15)


def test_entries_are_scaled_evaluations():
    ps = build_pointset(generate("uniform_random", 9, seed=2), legendre())
    A = build_matrix(legendre(), ps, 6)
    expect = np.sqrt(ps.tau)[:, None] * eval_table(legendre(), 6, ps.points)
    np.testing.assert_array_equal(A.entries, expect)
    assert A.shape == (9, 6)
    assert not A.entries.flags.writeable
    assert A.entries.flags.c_contiguous


def test_matrix_rejects_mismatched_measure():
    ps = build_pointset([-0.5, 0.5], legendre())
    with pytest.raises(ValueError):
        build_matrix(fourier(), ps, 4)
    with pytest.raises(ValueError):
        build_matrix(legendre(), ps, 0)


def test_column_labels():
    A = problem(fourier(), [-0.5, 0.5], 5).A
    np.testing.assert_array_equal(A.column_labels(), [-2, -1, 0, 1, 2])
    # polynomial columns are labelled by degree
    np.testing.assert_array_equal(
        problem(legendre(), [-0.5, 0.5], 3).A.column_labels(), [0, 1, 2])


def test_leading_block_is_centered_slice():
    A = problem(fourier(), 8, 9).A
    lead = A.leading(5)
    np.testing.assert_array_equal(lead, A.entries[:, 2:7])


def test_column_norm_bound():
    # ||column i||_2 = ||phi_i||_h <= ||phi_i||_inf on any point set.
    rng = np.random.default_rng(12)
    for spec in (legendre(), fourier()):
        sup = linf_norms(spec, 12)
        for trial in range(20):
            A = problem(spec, np.sort(rng.uniform(-1, 1, 15)), 12).A
            norms = np.linalg.norm(A.entries, axis=0)
            assert np.all(norms <= sup * (1 + 1e-12))


def test_aliased_fourier_columns_identical():
    # On the 11-point endpoint grid every t is a multiple of 1/5, so the
    # frequency pairs (0, +-10) collapse to the same sampled column.
    A = problem(fourier(), 11, 21).A
    fr = frequencies(21)
    c0 = A.entries[:, fr == 0].ravel()
    for j in (10, -10):
        cj = A.entries[:, fr == j].ravel()
        assert np.max(np.abs(cj - c0)) <= 1e-15


def test_smallest_nonzero_singular_value():
    A = np.diag([3.0, 2.0, 0.0])
    assert abs(smallest_nonzero_singular_value(A) - 2.0) < 1e-14
    wide = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert abs(smallest_nonzero_singular_value(wide) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        smallest_nonzero_singular_value(np.zeros((2, 2)))


def test_equispaced_legendre_sigma_comfortable():
    A = problem(legendre(), 20, 80).A
    assert smallest_nonzero_singular_value(A) >= 0.5


def test_weight_scheme_values():
    wf = make_weights(fourier(), 9, scheme="fourier_gamma", gamma=0.5)
    fr = frequencies(9)
    assert wf.w[fr == 4][0] == 3.0
    assert wf.w[fr == 0][0] == 1.0
    assert not wf.violates_growth
    assert len(wf) == 9

    wu = make_weights(legendre(), 4, scheme="unit")
    assert abs(wu.w[1] - np.sqrt(3)) < 1e-14
    assert wu.w[0] == 1.0
    assert not wu.violates_growth

    wp = make_weights(legendre(), 4, scheme="poly_gamma", gamma=1.0)
    assert wp.w[0] == 1.0
    np.testing.assert_allclose(wp.w, np.arange(1, 5)
                               * np.sqrt(2 * np.arange(1, 5) - 1),
                               rtol=1e-14)
    assert not wp.violates_growth

    # default_weights picks the family's growth scheme and passes relax on
    df = default_weights(fourier(), 9, 0.5)
    np.testing.assert_array_equal(df.w, wf.w)
    dp = default_weights(legendre(), 4, 1.0)
    np.testing.assert_array_equal(dp.w, wp.w)
    dr = default_weights(legendre(), 4, 1.0, relax=True)
    np.testing.assert_array_equal(dr.w, np.arange(1.0, 5.0))


@pytest.mark.parametrize("spec,scheme,gamma", [
    (jacobi(-0.75, -0.75), "poly_gamma", 1.0),
    (legendre(), "unit", 0.0),
    (fourier(), "fourier_gamma", 0.5),
])
def test_make_weights_computes_sup_norms_once(monkeypatch, spec, scheme,
                                              gamma):
    calls = []

    def counting(basis, K):
        calls.append(K)
        return linf_norms(basis, K)

    monkeypatch.setattr(sampling, "linf_norms", counting)
    make_weights(spec, 12, scheme, gamma=gamma)
    assert calls == [12]


def test_relaxed_weights_flagged():
    # literal i**gamma drops below the sup norms, which the vector reports
    wr = make_weights(legendre(), 6, scheme="poly_gamma", gamma=0.5,
                      relax=True)
    np.testing.assert_allclose(wr.w, np.sqrt(np.arange(1, 7)), rtol=1e-14)
    assert wr.violates_growth
    # gamma=1 relaxed still dominates sqrt(2i-1)
    w1 = make_weights(legendre(), 6, scheme="poly_gamma", gamma=1.0,
                      relax=True)
    assert not w1.violates_growth


def test_poly_gamma_takes_the_nested_rank():
    for K in range(1, 42):
        # On the exponentials, relaxed poly_gamma at gamma = 1/2 is the
        # square root of the nested rank that the comparison runs use, bit
        # for bit.
        wf = make_weights(fourier(), K, scheme="poly_gamma", gamma=0.5,
                          relax=True)
        np.testing.assert_array_equal(wf.w,
                                      np.sqrt(nested_rank(fourier(), K)))
        assert not wf.violates_growth
        # On Jacobi systems the nested rank is the 1-based position, and
        # the values are the position power's, bit for bit.
        pos = np.arange(1, K + 1, dtype=float)
        for spec, gamma in ((legendre(), 1.0), (chebyshev(), 0.5),
                            (jacobi(-0.75, -0.75), 0.75)):
            sup = linf_norms(spec, K)
            for relax, want in ((True, pos ** gamma),
                                (False, pos ** gamma * sup)):
                w = make_weights(spec, K, scheme="poly_gamma", gamma=gamma,
                                 relax=relax).w
                np.testing.assert_array_equal(w, want)


def test_weight_validation():
    with pytest.raises(ValueError):
        make_weights(legendre(), 5, scheme="fourier_gamma", gamma=1.0)
    with pytest.raises(ValueError):
        make_weights(legendre(), 5, scheme="ramp")
    with pytest.raises(ValueError):
        make_weights(legendre(), 5, scheme="poly_gamma", gamma=-0.5)
    with pytest.raises(ValueError):
        make_weights(legendre(), 3, scheme="custom", custom=[1.0, 2.0])
    with pytest.raises(ValueError):
        make_weights(legendre(), 3, scheme="custom", custom=[1.0, -2.0, 1.0])
    with pytest.raises(ValueError):
        make_weights(legendre(), 3, scheme="custom")
    wc = make_weights(fourier(), 3, scheme="custom",
                      custom=np.sqrt(nested_rank(fourier(), 3)))
    assert isinstance(wc, WeightVector)
    assert not wc.violates_growth


def test_choose_k_single_point():
    ps = build_pointset([0.0], legendre())
    assert choose_K(legendre(), ps, 0.5) == 1


def test_choose_k_postcondition_and_growth():
    ks = {}
    for N in (10, 20, 40):
        ps = build_pointset(generate("equispaced", N), legendre())
        K = choose_K(legendre(), ps, 0.5)
        ks[N] = K
        A = build_matrix(legendre(), ps, K)
        assert smallest_nonzero_singular_value(A) > 0.5
        assert K <= 4 * N
    # The search doubles K from N, so 10 points give 20 (16 from K = 1).
    assert ks[10] == 20
    # at most superlinear growth between grid doublings
    assert ks[40] <= ks[20] * 2 ** 1.5


def _doubling_rule(basis, ps, epsilon):
    # choose_K before it stopped at full row rank: it always built the
    # N x 2K matrix to compare numerical ranks.
    K = max(1, ps.n)
    s = np.linalg.svd(build_matrix(basis, ps, K).entries, compute_uv=False)
    while True:
        if 2 * K > MAX_TRUNCATION:
            raise TruncationSearchError("cap")
        s2 = np.linalg.svd(build_matrix(basis, ps, 2 * K).entries,
                           compute_uv=False)
        rank = sampling._numerical_rank(s)
        if rank > 0 and rank == sampling._numerical_rank(s2) \
                and s[rank - 1] > 1.0 - epsilon:
            return K
        K, s = 2 * K, s2


@pytest.mark.parametrize("spec, points, sizes", [
    (legendre(), generate("jittered", 40, seed=0), [40, 80, 160]),
    # t = -1 and t = 1 give one exponential row: rank N - 1 < N.
    (fourier(), generate("equispaced", 40), [40, 80]),
    # Interior-search sup norms: the 2K matrix is cheaper.
    (jacobi(-0.75, -0.75), generate("jittered", 40, seed=0),
     [40, 80, 160, 320]),
    # max(alpha, beta) >= -1/2: the norms are closed form.
    (jacobi(-0.75, 1.0), generate("jittered", 40, seed=0), [40, 80, 160])],
    ids=["legendre", "fourier-ends", "jacobi-interior", "jacobi-endpoint"])
def test_choose_k_stops_at_full_row_rank(monkeypatch, spec, points, sizes):
    # With full row rank and closed-form sup norms the search returns K
    # without the N x 2K matrix; otherwise it builds 2K to compare ranks.
    ps = build_pointset(points, spec)
    built, build = [], sampling.build_matrix
    monkeypatch.setattr(sampling, "build_matrix",
                        lambda b, p, K: built.append(K) or build(b, p, K))
    K = choose_K(spec, ps, 0.5)
    assert built == sizes
    assert K == _doubling_rule(spec, ps, 0.5)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.sampled_from(POINT_FAMILIES),
       st.sampled_from([legendre(), chebyshev(), jacobi(1.0, 0.0),
                        jacobi(-0.75, -0.75), fourier()]),
       st.integers(1, 80), st.sampled_from([0.1, 0.5, 0.9]),
       st.integers(0, 9))
def test_property_choose_k_matches_the_doubling_rule(kind, spec, N, epsilon,
                                                     seed):
    ps = build_pointset(generate(kind, N, seed=seed), spec)
    assert choose_K(spec, ps, epsilon) == _doubling_rule(spec, ps, epsilon)


def test_choose_k_validation():
    ps = build_pointset([0.0], legendre())
    with pytest.raises(ValueError):
        choose_K(legendre(), ps, 0.0)
    with pytest.raises(ValueError):
        choose_K(legendre(), ps, 1.0)


def test_choose_k_cap(monkeypatch):
    assert MAX_TRUNCATION == 2 ** 16
    # The cap is read when the search runs.
    monkeypatch.setattr(sampling, "MAX_TRUNCATION", 16)
    ps = build_pointset(generate("equispaced", 20), legendre())
    with pytest.raises(TruncationSearchError, match="cap 16"):
        choose_K(legendre(), ps, 0.5)


def test_sampling_matrix_is_frozen():
    A = problem(legendre(), [0.0], 2).A
    assert isinstance(A, SamplingMatrix)
    with pytest.raises(AttributeError):
        A.entries = np.zeros((1, 2))
