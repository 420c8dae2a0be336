"""Reproducible desk-scale experiment runs with CSV output.

Four canned studies: an aliasing demonstration on coarse exponential
interpolation, a weight-exponent sweep on Chebyshev approximation, a
method comparison (weighted l1 against fixed-size and oracle least
squares), and a diagnostics table over a grid of configurations.  A fifth
entry point approximates user-supplied samples from a file.

Every run writes a sidecar metadata file recording the configuration hash,
solver tolerances, truncation sizes, and seed; `approximate` adds the
SHA-256 of its samples file, which the hash leaves out.  Given identical
configuration and seed the CSV output is bit-identical: randomness flows
through a seed sequence keyed by (seed, function, N) and runs execute
serially.  The run grid is embarrassingly parallel if throughput ever
matters more than reproducibility.
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np
from dataclasses import asdict, astuple, dataclass

from . import basis as _basis
from . import solver as _solver
from .basis import BasisSpec, nested_rank, project_coefficients
from .grid import build_pointset, generate, load_points
from .sampling import build_matrix, choose_K, default_weights, make_weights, \
    smallest_nonzero_singular_value
from .diagnostics import REPORT_COLUMNS, SCALING_AMPLITUDE, SCALING_GAMMA, \
    DiagnosticsReport, scaling_study, surrogate_quantities, truncation_bound
from .solver import make_problem, oracle_least_squares, save_result, \
    solve_least_squares, solve_weighted_l1, sup_error, synthesize

# Least-squares size grids for the comparison runs: M = c*sqrt(N) on the
# polynomial side, M = c*N on the trigonometric side.
POLY_C_GRID = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
TRIG_C_GRID = (1 / 6, 1 / 4, 1 / 2, 2 / 3, 3 / 4, 5 / 6)

SWEEP_GAMMAS = (0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5)


@dataclass(frozen=True)
class TestFunction:
    id: str
    fn: object
    tags: tuple

    def __call__(self, t):
        return self.fn(t)


def _odd_log(t):
    t = np.asarray(t, dtype=float)
    safe = np.where(t == 0.0, 1.0, t)
    return np.where(t == 0.0, 0.0, t ** 5 * np.log(safe ** 2))


_REGISTRY = [
    TestFunction("cospi_expsin",
                 lambda t: np.cos(np.pi * t) * np.exp(np.sin(np.pi * t)),
                 ("aliasing_demo", "periodic", "analytic")),
    TestFunction("runge25", lambda t: 1.0 / (1.0 + 25.0 * t ** 2),
                 ("sweep", "analytic")),
    TestFunction("pole_offright", lambda t: 1.0 / (35.0 - 34.0 * t),
                 ("sweep", "analytic")),
    TestFunction("osc_cos30", lambda t: np.cos(30.0 * t),
                 ("sweep", "entire")),
    TestFunction("boundary_layer30",
                 lambda t: np.cosh(30.0 * t ** 2) / np.cosh(30.0),
                 ("sweep", "entire")),
    TestFunction("sqrt_edge", lambda t: np.sqrt(1.01 + t),
                 ("sweep", "singular")),
    TestFunction("odd_log", _odd_log, ("sweep", "singular")),
    TestFunction("near_pole_sin",
                 lambda t: 1.0 / (50.0 / 49.0 - np.sin(np.pi * t)),
                 ("poly_compare", "analytic")),
    TestFunction("chirp", lambda t: np.sin(50.0 * t ** 2),
                 ("poly_compare", "entire")),
    TestFunction("runge50", lambda t: 1.0 / (1.0 + 50.0 * t ** 2),
                 ("poly_compare", "analytic")),
    TestFunction("boundary_layer100",
                 lambda t: np.cosh(100.0 * t ** 2) / np.cosh(100.0),
                 ("poly_compare", "entire")),
    TestFunction("abs_cubed", lambda t: np.abs(t) ** 3,
                 ("poly_compare", "kink")),
    TestFunction("osc_sin80", lambda t: np.sin(80.0 * t),
                 ("poly_compare", "entire")),
    TestFunction("peaks500",
                 lambda t: 1.0 / (1.0 + 500.0 * np.cos(np.pi * t) ** 2),
                 ("trig_compare", "periodic", "analytic")),
    TestFunction("mod_exp40",
                 lambda t: np.cos(4 * np.pi * t) * np.exp(np.sin(40 * np.pi * t)),
                 ("trig_compare", "periodic", "entire")),
    TestFunction("near_pole_sin10",
                 lambda t: 1.0 / (20.0 / 19.0 - np.sin(10 * np.pi * t)),
                 ("trig_compare", "periodic", "analytic")),
]

TEST_FUNCTIONS = {tf.id: tf for tf in _REGISTRY}


def get_function(fid: str) -> TestFunction:
    try:
        return TEST_FUNCTIONS[fid]
    except KeyError:
        raise KeyError("unknown test function %r; available: %s"
                       % (fid, ", ".join(sorted(TEST_FUNCTIONS))))


def functions_with_tag(tag: str):
    return [tf for tf in _REGISTRY if tag in tf.tags]


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    basis: str = "legendre"
    points: str = "equispaced"
    points_file: str | None = None
    n_list: tuple = (10, 20, 40, 80)
    m_list: tuple = (5, 8)
    gamma_list: tuple = SWEEP_GAMMAS
    gamma: float = 0.5
    k_rule: str = "4n"
    epsilon: float = 0.5
    eta: float = 0.0
    noise: float = 0.0
    seed: int = 0
    out_dir: str = "."
    eval_resolution: int = 10000
    relax_weights: bool = False
    amplitude: float = 1.0
    functions: tuple | None = None

    def __post_init__(self):
        if not self.n_list:
            raise ValueError("n_list must be nonempty")
        if not self.m_list:
            raise ValueError("m_list must be nonempty")
        if self.eval_resolution < 100:
            raise ValueError("eval_resolution must be at least 100")
        for name in ("eta", "noise", "amplitude"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError("%s must be finite and nonnegative, got %r"
                                 % (name, value))
        for name in ("gamma", "gamma_list", "epsilon"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError("%s must be finite, got %r" % (name, value))


def config_hash(cfg: ExperimentConfig) -> str:
    """First 16 hex digits of the SHA-256 of the config's fields.  out_dir
    is hashed as its default, so that the same run written to two
    directories records one hash."""
    fields = asdict(cfg)
    fields["out_dir"] = ExperimentConfig.out_dir
    blob = repr(sorted(fields.items())).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def resolve_basis(label: str) -> BasisSpec:
    label = label.strip().lower()
    if label == "legendre":
        return _basis.legendre()
    if label == "chebyshev":
        return _basis.chebyshev()
    if label == "fourier":
        return _basis.fourier()
    if label.startswith("jacobi:"):
        parts = label.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ValueError("expected jacobi:alpha,beta")
        return _basis.jacobi(float(parts[0]), float(parts[1]))
    raise ValueError("unknown basis %r" % (label,))


def _file_points(cfg: ExperimentConfig) -> np.ndarray:
    if not cfg.points_file:
        raise ValueError("points=file needs points_file")
    return load_points(cfg.points_file)


def _sizes(cfg: ExperimentConfig) -> tuple:
    """The values of N a runner loops over.  A points file fixes N at its
    point count, so its point set is fitted once and n_list is not read."""
    if cfg.points == "file":
        return (_file_points(cfg).size,)
    return cfg.n_list


def _points_for(cfg: ExperimentConfig, N: int, seed) -> np.ndarray:
    if cfg.points == "file":
        return _file_points(cfg)
    return generate(cfg.points, N, seed=seed, amplitude=cfg.amplitude)


def parse_k_rule(text):
    """A truncation rule: "4n", "choose" or an integer K."""
    rule = str(text).lower()
    if rule in ("4n", "choose"):
        return rule
    try:
        return int(rule)
    except ValueError:
        raise ValueError("expected 4n, choose or an integer, got %r"
                         % text) from None


def _k_for(cfg: ExperimentConfig, basis, ps) -> int:
    rule = parse_k_rule(cfg.k_rule)
    if rule == "4n":
        return 4 * ps.n
    if rule == "choose":
        return choose_K(basis, ps, cfg.epsilon)
    return rule


def _fmt(val) -> str:
    if isinstance(val, str):
        return val
    if isinstance(val, (int, np.integer)):
        return "%d" % val
    return "%.17g" % val


def _write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_meta(path, cfg: ExperimentConfig, extra: dict) -> None:
    with open(path, "w") as fh:
        fh.write("config_hash %s\n" % config_hash(cfg))
        fh.write("seed %d\n" % cfg.seed)
        fh.write("tol_feas %.17g\n" % _solver.TOL_FEAS)
        fh.write("tol_gap %.17g\n" % _solver.TOL_GAP)
        fh.write("max_iter %d\n" % _solver.MAX_ITER)
        for key in sorted(extra):
            fh.write("%s %s\n" % (key, extra[key]))


def _out(cfg: ExperimentConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _interp_residual(basis, z, pts, samples) -> float:
    at_nodes = synthesize(z, basis, pts)
    return float(np.max(np.abs(at_nodes - samples)))


def run_aliasing(cfg: ExperimentConfig) -> dict:
    """Aliasing demonstration on the exponential basis.

    First with f = 1 on coarse equispaced grids, where a high frequency
    matches the constant at every sample and flat weights cannot tell them
    apart.  Then the smooth-function recovery at N = 20 under three weight
    growth rates, in both equality and noise-ball modes.
    """
    basis = resolve_basis(cfg.basis)
    if not basis.is_complex:
        raise ValueError("the aliasing study needs the Fourier basis")
    rows = []
    header = ("section", "function", "N", "K", "weights", "mode", "eta",
              "value_kind", "value")

    for N in (11, 21):
        pts = generate("equispaced", N)
        ps = build_pointset(pts, basis)
        K = 4 * N + 1  # odd, so the frequency range is symmetric
        U = build_matrix(basis, ps, K)
        alias = N - 1  # the first frequency indistinguishable from 0
        freqs = U.column_labels()
        col0 = U.entries[:, freqs == 0][:, 0]
        for j in (alias, -alias):
            colj = U.entries[:, freqs == j][:, 0]
            rows.append(("alias_columns", "const_one", N, K, "unit",
                         "equality", 0.0, "col_diff_%d" % j,
                         float(np.max(np.abs(col0 - colj)))))
        ones = np.ones(N)
        wunit = make_weights(basis, K, "unit")
        prob = make_problem(U, ones, wunit)
        res = solve_weighted_l1(prob, "equality")
        rows.append(("alias_solve", "const_one", N, K, "unit", "equality",
                     0.0, "objective", res.objective))
        wgrow = make_weights(basis, K, "fourier_gamma", gamma=0.5)
        res2 = solve_weighted_l1(make_problem(U, ones, wgrow), "equality")
        dom = int(freqs[np.argmax(np.abs(res2.z))])
        rows.append(("alias_solve", "const_one", N, K, "fourier_gamma:0.5",
                     "equality", 0.0, "dominant_frequency", dom))

    f = get_function("cospi_expsin")
    N = 20
    pts = generate("equispaced", N)
    ps = build_pointset(pts, basis)
    K = 4 * N
    U = build_matrix(basis, ps, K)
    samples = f(pts)
    eta = cfg.eta if cfg.eta > 0 else 1e-2
    schemes = [("unit", make_weights(basis, K, "unit")),
               ("fourier_gamma:0.1",
                make_weights(basis, K, "fourier_gamma", gamma=0.1)),
               ("fourier_gamma:0.5",
                make_weights(basis, K, "fourier_gamma", gamma=0.5))]
    curves = [np.linspace(-1.0, 1.0, 2001)]
    curve_names = ["t"]
    curves.append(f(curves[0]))
    curve_names.append("f")
    for name, wv in schemes:
        for mode, eta_run in (("equality", 0.0), ("inequality", eta)):
            prob = make_problem(U, samples, wv, eta=eta_run)
            res = solve_weighted_l1(prob, mode)
            err = sup_error(f, res.z, basis, cfg.eval_resolution)
            rows.append(("recovery", f.id, N, K, name, mode, eta_run,
                         "sup_error", err))
            rows.append(("recovery", f.id, N, K, name, mode, eta_run,
                         "objective", res.objective))
            if mode == "equality":
                rows.append(("recovery", f.id, N, K, name, mode, eta_run,
                             "interp_residual",
                             _interp_residual(basis, res.z, pts, samples)))
                curves.append(np.real(synthesize(res.z, basis, curves[0])))
                curve_names.append("approx_" + name.replace(":", ""))

    csv_path = _out(cfg, "aliasing.csv")
    _write_csv(csv_path, header, rows)
    curves_path = _out(cfg, "aliasing_curves.csv")
    _write_csv(curves_path, curve_names, zip(*curves))
    meta_path = _out(cfg, "aliasing_meta.txt")
    _write_meta(meta_path, cfg, {"eta": _fmt(eta), "K_recovery": _fmt(K)})
    return {"csv": csv_path, "curves": curves_path, "meta": meta_path}


def run_weight_sweep(cfg: ExperimentConfig) -> dict:
    """Error against N for a grid of weight exponents.

    Reproduces the literal position-power weights, which dip below the
    admissible floor for small exponents on Chebyshev; the flag column
    records that.  One row per (function, gamma, N); failures become nan
    rows rather than aborting the sweep.
    """
    basis = resolve_basis(cfg.basis)
    if basis.is_complex:
        raise ValueError("the weight sweep runs on Jacobi systems")
    funcs = ([get_function(fid) for fid in cfg.functions]
             if cfg.functions else functions_with_tag("sweep"))
    header = ("function", "gamma", "N", "K", "error", "objective",
              "iterations", "status", "violates_growth")
    # The points and the matrix depend on N only, the weights on (gamma,
    # N) only: each is built once, not once per function.
    mats = {}
    for N in cfg.n_list:
        pts = generate("equispaced", N)
        ps = build_pointset(pts, basis)
        mats[N] = pts, build_matrix(basis, ps, _k_for(cfg, basis, ps))
    weights = {(gamma, N): make_weights(basis, U.shape[1], "poly_gamma",
                                        gamma=gamma, relax=True)
               for gamma in cfg.gamma_list for N, (_, U) in mats.items()}
    rows = []
    for f in funcs:
        for gamma in cfg.gamma_list:
            for N in cfg.n_list:
                (pts, U), wv = mats[N], weights[gamma, N]
                K = U.shape[1]
                try:
                    res = solve_weighted_l1(
                        make_problem(U, f(pts), wv), "equality")
                    err = sup_error(f, res.z, basis, cfg.eval_resolution)
                    rows.append((f.id, gamma, N, K, err, res.objective,
                                 res.iterations, res.status,
                                 int(wv.violates_growth)))
                except (ValueError, RuntimeError, np.linalg.LinAlgError):
                    rows.append((f.id, gamma, N, K, float("nan"),
                                 float("nan"), 0, "error",
                                 int(wv.violates_growth)))
    csv_path = _out(cfg, "weight_sweep.csv")
    _write_csv(csv_path, header, rows)
    meta_path = _out(cfg, "weight_sweep_meta.txt")
    _write_meta(meta_path, cfg, {"k_rule": cfg.k_rule})
    return {"csv": csv_path, "meta": meta_path}


def _comparison_weights(basis, K):
    if basis.is_complex:
        # Square root of the nested position; admissible since sup norms
        # are all 1.
        return make_weights(basis, K, "custom",
                            custom=np.sqrt(nested_rank(basis, K)))
    return make_weights(basis, K, "poly_gamma", gamma=1.0, relax=True)


def run_comparison(cfg: ExperimentConfig) -> dict:
    """Weighted l1 versus least squares (fixed sizes and oracle).

    Per function and N: one weighted-l1 solve at K = 4N, least-squares fits
    across the size grid, and the oracle fit.  Uniform noise of the
    configured magnitude perturbs every sample.
    """
    basis = resolve_basis(cfg.basis)
    if cfg.functions:
        funcs = [get_function(fid) for fid in cfg.functions]
    else:
        tag = "trig_compare" if basis.is_complex else "poly_compare"
        funcs = functions_with_tag(tag)
    c_grid = TRIG_C_GRID if basis.is_complex else POLY_C_GRID
    header = ("function", "method", "N", "K", "M", "error", "objective",
              "iterations", "status", "interp_residual")
    rows = []
    for fi, f in enumerate(funcs):
        for N in _sizes(cfg):
            ss = np.random.SeedSequence([cfg.seed, fi, N])
            pt_seed, noise_seed = ss.spawn(2)
            pts = _points_for(cfg, N, pt_seed)
            ps = build_pointset(pts, basis)
            K = _k_for(cfg, basis, ps)
            U = build_matrix(basis, ps, K)
            rng = np.random.default_rng(noise_seed)
            samples = f(ps.points)
            if cfg.noise > 0:
                samples = samples + rng.uniform(-cfg.noise, cfg.noise,
                                                ps.n)
            wv = _comparison_weights(basis, K)
            prob = make_problem(U, samples, wv, eta=cfg.eta)
            mode = "inequality" if cfg.eta > 0 else "equality"
            res = solve_weighted_l1(prob, mode)
            err = sup_error(f, res.z, basis, cfg.eval_resolution)
            interp = (_interp_residual(basis, res.z, ps.points, samples)
                      if mode == "equality" else float("nan"))
            rows.append((f.id, "wl1", ps.n, K, 0, err, res.objective,
                         res.iterations, res.status, interp))
            for c in c_grid:
                M = int(round(c * (ps.n if basis.is_complex
                                   else np.sqrt(ps.n))))
                M = max(1, min(M, min(ps.n, K)))
                z = solve_least_squares(U, prob.y, M)
                err = sup_error(f, z, basis, cfg.eval_resolution)
                rows.append((f.id, "ls_c%g" % c, ps.n, K, M, err,
                             float("nan"), 0, "direct", float("nan")))
            M_best, z_best = oracle_least_squares(
                U, prob.y, f, cfg.eval_resolution)
            err = sup_error(f, z_best, basis, cfg.eval_resolution)
            rows.append((f.id, "oracle_ls", ps.n, K, M_best, err,
                         float("nan"), 0, "direct", float("nan")))
    csv_path = _out(cfg, "compare.csv")
    _write_csv(csv_path, header, rows)
    meta_path = _out(cfg, "compare_meta.txt")
    _write_meta(meta_path, cfg, {
        "c_grid": " ".join("%g" % c for c in c_grid),
        "noise": _fmt(cfg.noise),
        "k_rule": cfg.k_rule,
    })
    return {"csv": csv_path, "meta": meta_path}


def run_diagnostics(cfg: ExperimentConfig) -> dict:
    """Diagnostics table over the (N, M) grid plus a refinement study.

    Per row: Gram deviations and coherence on a 4M-column surrogate, the
    smallest nonzero singular value at the configured truncation, the
    leading-support certificate, and truncation bounds fed by quadrature
    coefficients of the reference function.
    """
    basis = resolve_basis(cfg.basis)
    f = (get_function(cfg.functions[0]) if cfg.functions
         else get_function("runge25" if not basis.is_complex
                           else "peaks500"))
    reports = []
    # L = 2K repeats across M; a prefix of a larger-L projection would
    # change the quadrature order, so each L is projected on its own.
    projections = {}
    for N in _sizes(cfg):
        for M in cfg.m_list:
            ss = np.random.SeedSequence([cfg.seed, N, M])
            pts = _points_for(cfg, N, ss)
            ps = build_pointset(pts, basis)
            _, fields = surrogate_quantities(basis, ps, M, cfg.gamma)
            K = _k_for(cfg, basis, ps)
            U_K = build_matrix(basis, ps, K)
            sigma = smallest_nonzero_singular_value(U_K)
            L = 2 * K
            w_ext = default_weights(basis, L, cfg.gamma)
            if L not in projections:
                projections[L] = project_coefficients(f, basis, L)
            trunc_w, trunc_wtilde = truncation_bound(
                U_K, w_ext, projections[L].coeffs, sigma)
            reports.append(DiagnosticsReport(
                h=ps.h, xi=ps.xi, N=ps.n, M=M, K=K, sigma_min=sigma,
                trunc_w=trunc_w, trunc_wtilde=trunc_wtilde, **fields))
    csv_path = _out(cfg, "diagnostics.csv")
    _write_csv(csv_path, REPORT_COLUMNS, map(astuple, reports))

    scaling_kind = cfg.points if cfg.points != "file" else "equispaced"
    if basis.is_complex and scaling_kind == "equispaced":
        # Equispaced exponentials integrate exactly, so the deviations sit
        # at machine precision and carry no slope information.
        scaling_kind = "jittered"
    srows, slopes = scaling_study(basis, scaling_kind, M=cfg.m_list[-1],
                                  seed=cfg.seed)
    scaling_path = _out(cfg, "scaling.csv")
    _write_csv(scaling_path, REPORT_COLUMNS, map(astuple, srows))
    # An unconverged projection still feeds trunc_w and trunc_wtilde with
    # its finest refinement; the meta file and stderr say how many there were.
    unconverged = sum(not p.converged for p in projections.values())
    if unconverged:
        print("warning: %d of %d coefficient projections of %s did not "
              "converge; trunc_w and trunc_wtilde use their finest "
              "refinement" % (unconverged, len(projections), f.id),
              file=sys.stderr)
    # scaling.csv uses the study's own weight exponent and jitter, not
    # --gamma and --amplitude; the meta file records both.
    meta_path = _out(cfg, "diagnostics_meta.txt")
    _write_meta(meta_path, cfg, {
        "projections_unconverged": _fmt(unconverged),
        "reference_function": f.id,
        "scaling_amplitude": _fmt(SCALING_AMPLITUDE),
        "scaling_gamma": _fmt(SCALING_GAMMA),
        "scaling_grid": scaling_kind,
        "slope_E2": _fmt(slopes["E2"]),
        "slope_Einf": _fmt(slopes["Einf"]),
        "slope_F": _fmt(slopes["F"]),
    })
    return {"csv": csv_path, "scaling": scaling_path, "meta": meta_path}


def run_approximate(cfg: ExperimentConfig, sample_path) -> dict:
    """Fit coefficients to samples from a two-column (t, y) file.  The
    meta file records the SHA-256 of the file's bytes."""
    with open(sample_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    data = np.loadtxt(sample_path)
    if data.ndim == 1:
        data = data[None, :]
    if data.shape[1] != 2:
        raise ValueError("expected two columns: point and value")
    order = np.argsort(data[:, 0])
    pts, samples = data[order, 0], data[order, 1]
    basis = resolve_basis(cfg.basis)
    ps = build_pointset(pts, basis)
    K = _k_for(cfg, basis, ps)
    U = build_matrix(basis, ps, K)
    wv = default_weights(basis, K, cfg.gamma, relax=cfg.relax_weights)
    prob = make_problem(U, samples, wv, eta=cfg.eta)
    mode = "inequality" if cfg.eta > 0 else "equality"
    res = solve_weighted_l1(prob, mode)
    coeff_path = _out(cfg, "approx_coefficients.txt")
    save_result(coeff_path, res)
    grid = np.linspace(-1.0, 1.0, cfg.eval_resolution)
    vals = synthesize(res.z, basis, grid)
    curve_path = _out(cfg, "approx_curve.csv")
    if np.iscomplexobj(vals):
        _write_csv(curve_path, ("t", "value_re", "value_im"),
                   zip(grid, vals.real, vals.imag))
    else:
        _write_csv(curve_path, ("t", "value"), zip(grid, vals))
    meta_path = _out(cfg, "approx_meta.txt")
    _write_meta(meta_path, cfg, {
        "K": _fmt(K), "mode": mode, "status": res.status,
        "objective": _fmt(res.objective),
        "duality_gap": _fmt(res.duality_gap),
        "samples": _fmt(ps.n), "samples_sha256": digest,
    })
    return {"coefficients": coeff_path, "curve": curve_path,
            "meta": meta_path}


RUNNERS = {
    "aliasing": run_aliasing,
    "weight_sweep": run_weight_sweep,
    "compare": run_comparison,
    "diagnostics": run_diagnostics,
}
