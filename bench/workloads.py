"""Workload definitions: seeded instance lists and the ops that run them.

An instance is a small JSON-able dict. Everything an op feeds to the
package (points, noise, weights, sizes) is derived from it, so the
instance list alone fixes the inputs, and its hash proves that two
checkouts ran the same inputs.

Each workload has a fixed op set that depends only on the op count: the
number of ops in every stratum (basis x points x N, or fit kind x N), and
each op's function, weight exponent, noise level or block size, jitter,
noise draw and ls_diag variant. The seed draws the order of the ops.
The jitter and noise decide which fits stall at the iteration cap, so
seeded draws of them would move run time with the seed; with a fixed op
set it varies only with the host and with which op pays a cold cache.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from wl1approx import experiments, grid, sampling, solver

WORKLOADS = ("interp_real", "noisy_ball", "ls_diag")

# Iteration cap passed to every weighted-l1 solve: one twentieth of the
# package default. A capped op costs 0.2-0.5 s on one core instead of
# 3-15 s, which is what lets a run hold 100+ ops. A solve that needs more
# iterations ends in max_iter and counts as failed.
MAX_ITER = 10_000

# Fixes the op set of every workload; the --seed draws only the order.
DESIGN_SEED = 20150309

# A run has at least this many ops, so that ten samples lie beyond p90.
MIN_OPS = 100

# Nominal ops per second of the package when the benchmark was defined
# (2-vCPU Xeon, one BLAS thread). The op count is max(MIN_OPS, rate *
# seconds), so the work in a run is fixed by --seconds and identical on
# every commit.
NOMINAL_RATE = {"interp_real": 7.5, "noisy_ball": 5.0, "ls_diag": 2.5}

# interp_real: the weight-sweep / compare fit cell on exact data.
INTERP_BASES = ("chebyshev", "legendre")
INTERP_POINTS = ("equispaced", "jittered")
# Most ops are small, so that the median op sits among the N <= 20 cells;
# the N = 80 share (~13%) holds p90 inside the N = 80 cells.
INTERP_N_WEIGHT = {10: 6, 20: 6, 40: 1, 80: 2}

# noisy_ball: noisy data on jittered points, eta matched to the noise.
#   legendre_ball  real data, mode="inequality"
#   fourier_ball   complex data, mode="inequality"
#   fourier_exact  complex data, mode="equality", as in the aliasing runs
# Two thirds of the ops are fourier_exact fits, half of them at N = 10, so
# that the median op sits among the N = 10-20 equality fits, a dense band
# of op times, not in the sparse gap between the converged and the capped
# fits, where it would jump as the host's load shuffles the ranks.
NOISY_FIT_WEIGHT = {"legendre_ball": 1, "fourier_ball": 1, "fourier_exact": 4}
NOISY_N_WEIGHT = {10: 3, 20: 2, 40: 1}
NOISE_LEVELS = (1e-2, 1e-3)
LEGENDRE_GAMMAS = (0.5, 1.0)
FOURIER_GAMMAS = (0.1, 0.5)

# ls_diag: one run_diagnostics cell, then two least-squares cells, in turn.
# Each of p50 and p90 must fall inside a band of similar op times, not on
# the edge between two bands, or it jumps between them as the host's load
# shuffles the ranks. With one cell of each kind, the median would sit on
# the edge between the fast least-squares and the slow diagnostics cells.
# Instances come from a finite catalog (VARIANTS jitter draws per cell), so
# that every output can be checked against values recorded once.
DIAG_BASES = ("legendre", "chebyshev", "jacobi:1,0", "fourier")
# The top tenth of the op times must lie inside one band of cells, or p90
# jumps between bands as the host's load shuffles the ranks. Here 14 of
# every 100 ops are diag cells at N = 260 (1.2-1.5 s each), so p90 falls
# among them. Fourier diag cells at N = 260 are left out: one costs 6 s,
# as much as four of the others, and would push a 100-op run past a
# minute.
DIAG_N_WEIGHT = {65: 6, 130: 2, 260: 7}
DIAG_SKIP = (("fourier", 260),)
DIAG_M = (4, 8)
LS_BASES = ("legendre", "chebyshev", "fourier")
# Op times climb by basis and N: non-Fourier ls cells at N <= 40 and Fourier
# ones at N = 10 (10-60 ms), then non-Fourier diag cells at N = 65 and
# Fourier ls cells at N = 20 (80-110 ms), then non-Fourier ls cells at
# N = 80 (~150 ms). These weights put 40 of every 100 ops in the first
# group and 19 in the second, so the median falls in the middle of it.
LS_N_WEIGHT = {10: 1, 20: 2, 40: 2, 80: 1}
LS_EPSILON = 0.5
VARIANTS = 3


def op_count(workload: str, seconds: float) -> int:
    return max(MIN_OPS, int(round(NOMINAL_RATE[workload] * seconds)))


def _allocate(weights: dict, n: int) -> dict:
    """Split n ops over strata in proportion to weights (largest remainder)."""
    total = sum(weights.values())
    exact = {k: n * v / total for k, v in weights.items()}
    counts = {k: int(x) for k, x in exact.items()}
    by_remainder = sorted(weights, key=lambda k: (counts[k] - exact[k], str(k)))
    for k in by_remainder[:n - sum(counts.values())]:
        counts[k] += 1
    return counts


def _cycle(rng, values, count):
    """count picks that sweep values evenly, in a seeded order."""
    out = []
    while len(out) < count:
        out.extend(values[i] for i in rng.permutation(len(values)))
    return out[:count]


def _draw_seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31))


def _interp_instances(design, draws, order, n):
    weights = {(b, p, N): w for b in INTERP_BASES for p in INTERP_POINTS
               for N, w in INTERP_N_WEIGHT.items()}
    sweep = [f.id for f in experiments.functions_with_tag("sweep")]
    out = []
    for (b, p, N), count in _allocate(weights, n).items():
        gammas = _cycle(design, experiments.SWEEP_GAMMAS, count)
        funcs = _cycle(design, sweep, count)
        for g, fid in zip(gammas, funcs):
            out.append({"kind": "interp", "basis": b, "points": p, "N": N,
                        "function": fid, "gamma": g,
                        "pt_seed": _draw_seed(draws)})
    return [out[i] for i in order.permutation(len(out))]


def _noisy_instances(design, draws, order, n):
    weights = {(fit, N): wf * wn for fit, wf in NOISY_FIT_WEIGHT.items()
               for N, wn in NOISY_N_WEIGHT.items()}
    smooth = [f.id for f in experiments.functions_with_tag("sweep")]
    periodic = [f.id for f in experiments.functions_with_tag("periodic")]
    out = []
    for (fit, N), count in _allocate(weights, n).items():
        real = fit == "legendre_ball"
        funcs = _cycle(design, smooth if real else periodic, count)
        gammas = _cycle(design, LEGENDRE_GAMMAS if real else FOURIER_GAMMAS,
                        count)
        noises = _cycle(design, NOISE_LEVELS, count)
        for fid, g, delta in zip(funcs, gammas, noises):
            out.append({"kind": "noisy", "fit": fit,
                        "basis": "legendre" if real else "fourier",
                        "points": "jittered", "N": N, "function": fid,
                        "gamma": g, "noise": delta,
                        "pt_seed": _draw_seed(draws),
                        "noise_seed": _draw_seed(draws)})
    return [out[i] for i in order.permutation(len(out))]


def _ls_functions(basis_label):
    tag = "trig_compare" if basis_label == "fourier" else "poly_compare"
    return [f.id for f in experiments.functions_with_tag(tag)]


def _ls_diag_instances(design, draws, order, n):
    n_diag = (n + 2) // 3
    diag_weights = {(b, N): w for b in DIAG_BASES
                    for N, w in DIAG_N_WEIGHT.items()
                    if (b, N) not in DIAG_SKIP}
    diag = []
    for (b, N), count in _allocate(diag_weights, n_diag).items():
        for M in _cycle(design, DIAG_M, count):
            diag.append({"kind": "diag", "basis": b, "N": N, "M": M,
                         "variant": int(draws.integers(VARIANTS))})
    ls = []
    ls_weights = {(b, N): w for b in LS_BASES for N, w in LS_N_WEIGHT.items()}
    for (b, N), count in _allocate(ls_weights, n - n_diag).items():
        for fid in _cycle(design, _ls_functions(b), count):
            ls.append({"kind": "ls", "basis": b, "N": N, "function": fid,
                       "variant": int(draws.integers(VARIANTS))})
    diag = [diag[i] for i in order.permutation(len(diag))]
    ls = [ls[i] for i in order.permutation(len(ls))]
    out, ls_iter = [], iter(ls)
    for i in range(n):
        out.append(diag[i // 3] if i % 3 == 0 else next(ls_iter))
    return out


_GENERATORS = {"interp_real": _interp_instances,
               "noisy_ball": _noisy_instances,
               "ls_diag": _ls_diag_instances}


def instances(workload: str, seed: int, n: int) -> list:
    """The op list of a run: the fixed op set for n ops, in the order
    drawn from the seed."""
    index = WORKLOADS.index(workload)

    def stream(*key):
        return np.random.default_rng(np.random.SeedSequence(list(key)))

    return _GENERATORS[workload](stream(DESIGN_SEED, index),
                                 stream(DESIGN_SEED, index, 1),
                                 stream(seed, index), n)


def instance_hash(insts) -> str:
    blob = json.dumps(insts, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def ls_diag_catalog() -> list:
    """Every instance an ls_diag run can draw, for recording reference values."""
    out = []
    for b in DIAG_BASES:
        for N in DIAG_N_WEIGHT:
            for M in DIAG_M:
                for v in range(VARIANTS):
                    out.append({"kind": "diag", "basis": b, "N": N, "M": M,
                                "variant": v})
    for b in LS_BASES:
        for N in LS_N_WEIGHT:
            for fid in _ls_functions(b):
                for v in range(VARIANTS):
                    out.append({"kind": "ls", "basis": b, "N": N,
                                "function": fid, "variant": v})
    return out


def catalog_key(inst) -> str:
    return json.dumps(inst, sort_keys=True)


# ---------------------------------------------------------------- ops

def _points(basis, kind, N, seed):
    if basis.is_complex:
        # Sample [-1, 1) periodically. The jittered family can pin a node at
        # t = 1, whose exponential row repeats the one at t = -1 and makes
        # noisy data unreachable; dropping the top node avoids that.
        return grid.generate(kind, N + 1, seed=seed)[:-1]
    return grid.generate(kind, N, seed=seed)


def prepare(inst):
    """Build the weighted-l1 problem of an interp or noisy instance.

    Returns (basis, test function, problem, mode). Ops call it inside the
    timed region; the checks call it again afterwards to recompute
    residuals from the returned coefficients.
    """
    basis = experiments.resolve_basis(inst["basis"])
    f = experiments.get_function(inst["function"])
    pts = _points(basis, inst["points"], inst["N"], inst["pt_seed"])
    ps = grid.build_pointset(pts, basis)
    K = 4 * ps.n
    A = sampling.build_matrix(basis, ps, K)
    samples = f(ps.points)
    if inst["kind"] == "interp":
        w = sampling.make_weights(basis, K, "poly_gamma", gamma=inst["gamma"],
                                  relax=True)
        return basis, f, solver.make_problem(A, samples, w), "equality"
    rng = np.random.default_rng(inst["noise_seed"])
    samples = samples + rng.uniform(-inst["noise"], inst["noise"], ps.n)
    if basis.is_complex:
        w = sampling.make_weights(basis, K, "fourier_gamma",
                                  gamma=inst["gamma"])
    else:
        w = sampling.make_weights(basis, K, "poly_gamma", gamma=inst["gamma"],
                                  relax=True)
    if inst["fit"] == "fourier_exact":
        return basis, f, solver.make_problem(A, samples, w), "equality"
    # sum(tau) = 1, so uniform noise of size delta has discrete norm <= delta.
    prob = solver.make_problem(A, samples, w, eta=inst["noise"])
    return basis, f, prob, "inequality"


def _run_fit(inst, out_dir):
    basis, f, prob, mode = prepare(inst)
    res = solver.solve_weighted_l1(prob, mode, max_iter=MAX_ITER)
    return {"status": res.status, "iterations": int(res.iterations),
            "objective": float(res.objective),
            "duality_gap": float(res.duality_gap), "z": res.z,
            "sup_error": solver.sup_error(f, res.z, basis)}


def _run_diag(inst, out_dir):
    cfg = experiments.ExperimentConfig(
        "diagnostics", basis=inst["basis"], points="jittered",
        n_list=(inst["N"],), m_list=(inst["M"],), seed=inst["variant"],
        out_dir=out_dir)
    return {"files": experiments.run_diagnostics(cfg)}


def _run_ls(inst, out_dir):
    basis = experiments.resolve_basis(inst["basis"])
    f = experiments.get_function(inst["function"])
    ps = grid.build_pointset(
        _points(basis, "jittered", inst["N"], inst["variant"]), basis)
    K = sampling.choose_K(basis, ps, LS_EPSILON)
    A = sampling.build_matrix(basis, ps, K)
    y = solver.make_problem(A, f(ps.points),
                            sampling.make_weights(basis, K, "unit")).y
    c_grid = (experiments.TRIG_C_GRID if basis.is_complex
              else experiments.POLY_C_GRID)
    errors = []
    for c in c_grid:
        M = int(round(c * (ps.n if basis.is_complex else np.sqrt(ps.n))))
        M = max(1, min(M, ps.n, K))
        z = solver.solve_least_squares(A, y, M)
        errors.append(solver.sup_error(f, z, basis))
    M_best, z_best = solver.oracle_least_squares(A, y, f)
    return {"K": int(K), "errors": errors, "oracle_M": int(M_best),
            "oracle_error": solver.sup_error(f, z_best, basis)}


_OPS = {"interp": _run_fit, "noisy": _run_fit, "diag": _run_diag,
        "ls": _run_ls}


def run_op(inst, out_dir):
    """Run one op; out_dir is a fresh directory for ops that write files."""
    return _OPS[inst["kind"]](inst, out_dir)


def op_dir(root, index) -> str:
    return os.path.join(root, "op%04d" % index)
