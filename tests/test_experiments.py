"""Experiment harness: registry, runners, CSV artifacts, CLI, determinism.

Runner tests use deliberately tiny configurations; the point here is the
plumbing (row counts, column layout, reproducibility, flag handling), not
the numerics, which the dedicated module tests already pin down.
"""

import argparse
import dataclasses
import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from problems import problem
from wl1approx import basis, cli, experiments
from wl1approx.diagnostics import REPORT_COLUMNS, CertificateResult
from wl1approx.experiments import (POLY_C_GRID, SWEEP_GAMMAS, TRIG_C_GRID,
                                   ExperimentConfig, TEST_FUNCTIONS,
                                   config_hash, functions_with_tag,
                                   get_function, resolve_basis, run_aliasing,
                                   run_approximate, run_comparison,
                                   run_diagnostics, run_weight_sweep)
from wl1approx.solver import solve_weighted_l1, synthesize

KNOWN_TAGS = {"aliasing_demo", "sweep", "poly_compare", "trig_compare",
              "periodic", "analytic", "entire", "singular", "kink"}


def test_registry_contents():
    assert len(TEST_FUNCTIONS) == 16
    grid = np.linspace(-1, 1, 401)
    for tf in TEST_FUNCTIONS.values():
        assert tf.tags, tf.id
        assert set(tf.tags) <= KNOWN_TAGS, tf.id
        vals = tf(grid)
        assert vals.shape == grid.shape
        assert np.all(np.isfinite(vals)), tf.id


def test_registry_hand_values():
    assert abs(get_function("runge25")(np.array([0.0]))[0] - 1.0) < 1e-15
    assert abs(get_function("runge25")(np.array([0.2]))[0] - 0.5) < 1e-15
    assert abs(get_function("runge50")(np.array([1.0]))[0] - 1 / 51) < 1e-15
    ce = get_function("cospi_expsin")
    assert abs(ce(np.array([0.0]))[0] - 1.0) < 1e-14
    assert abs(ce(np.array([1.0]))[0] + 1.0) < 1e-14
    assert get_function("odd_log")(np.array([0.0]))[0] == 0.0
    assert get_function("near_pole_sin")(np.array([0.0]))[0] == 0.98
    assert get_function("pole_offright")(np.array([1.0]))[0] == 1.0


def test_registry_lookup():
    with pytest.raises(KeyError):
        get_function("does_not_exist")
    sweep = functions_with_tag("sweep")
    assert sweep and all("sweep" in f.tags for f in sweep)
    assert functions_with_tag("no_such_tag") == []


def test_resolve_basis():
    assert resolve_basis("legendre").label() == "jacobi:0,0"
    assert resolve_basis("chebyshev").label() == "jacobi:-0.5,-0.5"
    assert resolve_basis("fourier").is_complex
    jb = resolve_basis("jacobi:1,0.5")
    assert jb.alpha == 1.0 and jb.beta == 0.5
    with pytest.raises(ValueError):
        resolve_basis("laguerre")
    with pytest.raises(ValueError):
        resolve_basis("jacobi:1")


def test_config_validation_and_hash():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="compare", n_list=())
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="diagnostics", m_list=())
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="compare", eval_resolution=10)
    a = ExperimentConfig(experiment="compare", n_list=(10,))
    b = ExperimentConfig(experiment="compare", n_list=(10,))
    c = ExperimentConfig(experiment="compare", n_list=(10,), seed=1)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 16
    assert int(config_hash(a), 16) >= 0
    assert experiments.parse_k_rule("1") == 1


@pytest.mark.parametrize("field, value", [("eta", np.nan), ("eta", np.inf),
                                          ("eta", -1.0), ("noise", np.nan),
                                          ("noise", -1.0),
                                          ("amplitude", np.nan),
                                          ("gamma", np.nan),
                                          ("gamma_list", (1.0, np.inf)),
                                          ("epsilon", np.nan)])
def test_config_rejects_non_finite_or_negative_values(field, value):
    with pytest.raises(ValueError, match="%s must be finite" % field):
        ExperimentConfig(experiment="compare", **{field: value})


def test_config_hash_ignores_out_dir(tmp_path):
    # The same run written to two directories records one hash, and so
    # writes byte-identical files; any other field still changes the hash.
    a = ExperimentConfig(experiment="diagnostics", n_list=(10,), m_list=(2,),
                         out_dir=str(tmp_path / "a"))
    b = replace(a, out_dir=str(tmp_path / "b"))
    c = replace(a, seed=1)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    outs = run_diagnostics(a), run_diagnostics(b)
    assert sorted(outs[0]) == sorted(outs[1])
    for key in outs[0]:
        assert open(outs[0][key]).read() == open(outs[1][key]).read(), key


def test_grid_constants():
    assert POLY_C_GRID == (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    assert len(TRIG_C_GRID) == 6 and max(TRIG_C_GRID) < 1
    assert SWEEP_GAMMAS[0] == 0.0 and len(SWEEP_GAMMAS) == 10


def test_comparison_runner_rows_and_determinism(tmp_path):
    cfg = ExperimentConfig(experiment="compare", n_list=(10,),
                           functions=("runge25",), noise=0.0,
                           out_dir=str(tmp_path / "a"),
                           eval_resolution=2000)
    out = run_comparison(cfg)
    text = open(out["csv"]).read()
    lines = text.splitlines()
    assert lines[0] == ("function,method,N,K,M,error,objective,iterations,"
                       "status,interp_residual")
    assert len(lines) == 1 + 1 + len(POLY_C_GRID) + 1
    wl1 = lines[1].split(",")
    assert wl1[1] == "wl1" and wl1[2] == "10" and wl1[3] == "40"
    assert float(wl1[9]) <= 1e-6  # noiseless equality interpolates
    # M = max(1, min(round(c sqrt(N)), N, K)) for each c of the grid.
    ls = [line.split(",") for line in lines[2:-1]]
    assert [(row[1], int(row[4])) for row in ls] == [
        ("ls_c%g" % c, M) for c, M in zip(POLY_C_GRID, (2, 3, 5, 6, 8, 9))]
    assert lines[-1].split(",")[1] == "oracle_ls"

    out2 = run_comparison(replace(cfg, out_dir=str(tmp_path / "b")))
    assert open(out2["csv"]).read() == text

    meta = open(out["meta"]).read()
    assert "config_hash" in meta
    for banned in ("date", "time", "stamp"):
        assert banned not in meta.lower()


def test_comparison_cell_evaluates_the_truth_once_on_the_grid(
        tmp_path, monkeypatch):
    # Seven sup_error calls and the oracle read one cached truth: f is
    # called on the 10 samples and once on the 2000-point grid.
    sizes, runge25 = [], get_function("runge25")
    counted = experiments.TestFunction(
        "runge25", lambda t: sizes.append(np.size(t)) or runge25(t), ())
    monkeypatch.setattr(experiments, "get_function", lambda fid: counted)
    run_comparison(ExperimentConfig(
        experiment="compare", n_list=(10,), functions=("runge25",),
        out_dir=str(tmp_path), eval_resolution=2000))
    assert sizes == [10, 2000]


def test_records_are_frozen():
    p = problem(basis.legendre(), [-0.5, 0.5], 2, np.ones(2), np.ones(2))
    records = [(get_function("runge25"), "id"),
               (ExperimentConfig(experiment="compare"), "seed"),
               (p.A.pointset, "h"), (p, "eta"),
               (CertificateResult(0.0, 0.0, True), "alpha")]
    for record, field in records:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(record, field))


def test_comparison_noise_changes_rows(tmp_path):
    base = dict(experiment="compare", n_list=(10,), functions=("runge25",),
                eval_resolution=2000)
    quiet = run_comparison(ExperimentConfig(
        out_dir=str(tmp_path / "q"), noise=0.0, **base))
    cfg = ExperimentConfig(out_dir=str(tmp_path / "n"), noise=1e-4, **base)
    noisy = run_comparison(cfg)
    rq = open(quiet["csv"]).read().splitlines()[1].split(",")
    rn = open(noisy["csv"]).read().splitlines()[1].split(",")
    assert float(rq[5]) != float(rn[5])
    # The noisy wl1 fit from its cell's seeded draw and relaxed weights.
    seed = np.random.SeedSequence([cfg.seed, 0, 10]).spawn(2)[1]
    noise = np.random.default_rng(seed).uniform(-1e-4, 1e-4, 10)
    p = problem(basis.legendre(), 10, 40,
                lambda t: get_function("runge25")(t) + noise, relax=True)
    assert float(rn[6]) == solve_weighted_l1(p).objective


def test_weight_sweep_runner(tmp_path):
    cfg = ExperimentConfig(experiment="weight_sweep", basis="chebyshev",
                           gamma_list=(0.0, 1.0), n_list=(10,),
                           functions=("runge25",),
                           out_dir=str(tmp_path), eval_resolution=2000)
    out = run_weight_sweep(cfg)
    lines = open(out["csv"]).read().splitlines()
    assert len(lines) == 3
    flat = lines[1].split(",")
    grown = lines[2].split(",")
    assert flat[1] == "0" and flat[8] == "1"   # literal weights dip below 1
    assert grown[1] == "1" and grown[8] == "0"
    with pytest.raises(ValueError):
        run_weight_sweep(ExperimentConfig(experiment="weight_sweep",
                                          basis="fourier",
                                          out_dir=str(tmp_path)))


def test_weight_sweep_builds_each_matrix_and_weight_once(tmp_path,
                                                         monkeypatch):
    # The matrix depends on N only and the weights on (gamma, N) only, so
    # two functions share them; rows still run function, gamma, N.
    calls = {"build_matrix": 0, "default_weights": 0}
    for name in calls:
        def counting(*args, _name=name, _f=getattr(experiments, name),
                     **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counting)
    cfg = ExperimentConfig(experiment="weight_sweep", basis="chebyshev",
                           gamma_list=(0.5, 1.0), n_list=(10, 12),
                           functions=("runge25", "osc_cos30"),
                           out_dir=str(tmp_path), eval_resolution=2000)
    rows = open(run_weight_sweep(cfg)["csv"]).read().splitlines()[1:]
    assert calls == {"build_matrix": 2, "default_weights": 4}
    assert [r.split(",")[:3] for r in rows] == [
        [f, g, n] for f in ("runge25", "osc_cos30") for g in ("0.5", "1")
        for n in ("10", "12")]


@pytest.mark.parametrize("argv,builds", [
    # equispaced points: one point set per N, shared by the functions
    (["compare", "--functions", "runge25,chirp", "--resolution", "2000"], 4),
    # jittered points: each function draws its own point set per N
    (["compare", "--points", "jittered", "--n", "10",
      "--functions", "runge25,chirp"], 2),
])
def test_comparison_builds_once_per_point_set(tmp_path, monkeypatch, argv,
                                              builds):
    calls = []

    def counting(basis, ps, K):
        calls.append(ps.points.tobytes())
        return build_matrix(basis, ps, K)

    build_matrix = experiments.build_matrix
    monkeypatch.setattr(experiments, "build_matrix", counting)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert len(calls) == len(set(calls)) == builds


def test_aliasing_runner(tmp_path):
    cfg = ExperimentConfig(experiment="aliasing", basis="fourier",
                           out_dir=str(tmp_path), eval_resolution=2000)
    out = run_aliasing(cfg)
    lines = open(out["csv"]).read().splitlines()
    by_kind = {}
    for ln in lines[1:]:
        cells = ln.split(",")
        by_kind.setdefault((cells[0], cells[2], cells[7]), []).append(cells)
    # duplicated columns agree to the last few ulps on both coarse grids
    for N in ("11", "21"):
        a = int(N) - 1
        for kind in ("col_diff_%d" % a, "col_diff_%d" % -a):
            row = by_kind[("alias_columns", N, kind)][0]
            assert float(row[8]) <= 1e-15
        obj = by_kind[("alias_solve", N, "objective")][0]
        assert abs(float(obj[8]) - 1.0) <= 1e-8
        dom = by_kind[("alias_solve", N, "dominant_frequency")][0]
        assert dom[8] == "0"
    # The recovery half: each weight scheme's equality fit at N = 20,
    # solved again, gives its residual at the nodes and its curve on t.
    header, *body = (tmp_path / "aliasing_curves.csv").read_text().splitlines()
    curves = dict(zip(header.split(","), np.array(
        [line.split(",") for line in body], dtype=float).T))
    t = curves.pop("t")
    np.testing.assert_array_equal(t, np.linspace(-1, 1, 2001))
    spec, f = basis.fourier(), get_function("cospi_expsin")
    rows = by_kind[("recovery", "20", "interp_residual")]
    assert list(curves) == ["f"] + ["approx_" + r[4].replace(":", "")
                                    for r in rows]
    for row, (scheme, gamma) in zip(rows, [("unit", 0.0),
                                           ("fourier_gamma", 0.1),
                                           ("fourier_gamma", 0.5)]):
        assert row[5] == "equality"
        p = problem(spec, 20, 80, f, scheme, gamma=gamma)
        z, pts = solve_weighted_l1(p).z, p.A.pointset.points
        assert float(row[8]) == np.max(np.abs(synthesize(z, spec, pts)
                                              - f(pts)))
        np.testing.assert_array_equal(
            curves["approx_" + row[4].replace(":", "")],
            synthesize(z, spec, t).real)
    with pytest.raises(ValueError):
        run_aliasing(ExperimentConfig(experiment="aliasing",
                                      basis="legendre",
                                      out_dir=str(tmp_path)))


def test_diagnostics_runner(tmp_path):
    cfg = ExperimentConfig(experiment="diagnostics", n_list=(20,),
                           m_list=(4,), out_dir=str(tmp_path),
                           eval_resolution=2000)
    out = run_diagnostics(cfg)
    lines = open(out["csv"]).read().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 2
    vals = dict(zip(REPORT_COLUMNS, lines[1].split(",")))
    assert vals["N"] == "20" and vals["M"] == "4" and vals["R"] == "8"
    for col in ("E2", "Einf", "F", "sigma_min", "trunc_w", "trunc_wtilde"):
        assert np.isfinite(float(vals[col])), col
    assert float(vals["sigma_min"]) > 0.5
    scaling = open(str(tmp_path / "scaling.csv")).read().splitlines()
    assert scaling[0] == ",".join(REPORT_COLUMNS)
    assert len(scaling) >= 6
    meta = open(out["meta"]).read()
    assert "slope_E2" in meta


def test_diagnostics_projects_once_per_length(tmp_path, monkeypatch):
    # L = 2K depends on N only under the default K = 4N, so two values of M
    # share each N's projection.
    lengths = []
    project = experiments.project_coefficients

    def counting(f, spec, L):
        lengths.append(L)
        return project(f, spec, L)

    monkeypatch.setattr(experiments, "project_coefficients", counting)
    cfg = ExperimentConfig(experiment="diagnostics", n_list=(10, 20),
                           m_list=(3, 4), out_dir=str(tmp_path),
                           eval_resolution=2000)
    run_diagnostics(cfg)
    assert lengths == [80, 160]


def test_diagnostics_meta_records_scaling_weights(tmp_path):
    # scaling.csv keeps the study's fixed weight exponent and jitter
    # whatever --gamma and --amplitude say; the meta file must say which.
    cfg = ExperimentConfig(experiment="diagnostics", n_list=(10,),
                           m_list=(2,), gamma=0.5, amplitude=1.0,
                           out_dir=str(tmp_path), eval_resolution=2000)
    meta = open(run_diagnostics(cfg)["meta"]).read().splitlines()
    assert "scaling_gamma 1" in meta
    assert "scaling_amplitude 0.75" in meta


@pytest.mark.parametrize("function, unconverged",
                         [("abs_cubed", 1), ("runge25", 0)])
def test_diagnostics_counts_unconverged_projections(tmp_path, capsys,
                                                    monkeypatch, function,
                                                    unconverged):
    # |t|^3 has slowly decaying coefficients, so its projection never meets
    # the quadrature tolerance; runge25 at N = 10 does.  With the ladder cut
    # at 320 nodes, |t|^3 stops after one doubling and runge25 still
    # converges there.
    monkeypatch.setattr(basis, "STOP_DOUBLING_AT_ORDER", 320)
    cfg = ExperimentConfig(experiment="diagnostics", n_list=(10,),
                           m_list=(2,), functions=(function,),
                           out_dir=str(tmp_path), eval_resolution=2000)
    out = run_diagnostics(cfg)
    meta = open(out["meta"]).read().splitlines()
    assert "projections_unconverged %d" % unconverged in meta
    err = capsys.readouterr().err
    if unconverged:
        assert "1 of 1 coefficient projections of abs_cubed" in err
    else:
        assert err == ""


def test_diagnostics_rejects_a_large_m_before_any_file(tmp_path,
                                                      monkeypatch):
    # Equispaced Legendre points admit five refinement levels of the
    # scaling study only up to M = 16; M = 17 fails before any projection
    # and leaves no output directory.
    projected = []
    monkeypatch.setattr(experiments, "project_coefficients",
                        lambda *args: projected.append(args))
    out = tmp_path / "out"
    cfg = ExperimentConfig(experiment="diagnostics", n_list=(10,),
                           m_list=(17,), out_dir=str(out))
    with pytest.raises(ValueError, match="levels admissible"):
        run_diagnostics(cfg)
    assert projected == []
    assert not out.exists()


def _write_samples(path, t, vals):
    with open(path, "w") as fh:
        for a, b in zip(t, vals):
            fh.write("%.17g %.17g\n" % (a, b))


def test_approximate_runner(tmp_path):
    t = np.linspace(-1, 1, 30)
    samples = tmp_path / "samples.txt"
    _write_samples(samples, t, np.tanh(3 * t))
    cfg = ExperimentConfig(experiment="approximate", n_list=(30,),
                           k_rule="choose", out_dir=str(tmp_path),
                           eval_resolution=2000)
    out = run_approximate(cfg, str(samples))
    meta = open(out["meta"]).read().splitlines()
    assert any(line.startswith("status ") for line in meta)
    K = int(next(line.split()[1] for line in meta if line.startswith("K ")))
    table = open(out["coefficients"]).read().splitlines()
    assert table[0] == "degree,value"
    assert len(table) == 1 + K
    curve = open(out["curve"]).read().splitlines()
    assert curve[0] == "t,value"
    assert len(curve) > 100
    # Two lines of one value each are two points without values, not one
    # sample (t, y).
    one_column = tmp_path / "one_column.txt"
    one_column.write_text("-0.5\n0.5\n")
    with pytest.raises(ValueError, match="two columns"):
        run_approximate(cfg, str(one_column))


def test_approximate_meta_names_its_samples(tmp_path):
    # The config hash leaves the samples file out; its digest tells two
    # files apart, and a rerun on one file writes the same meta file.
    t = np.linspace(-1, 1, 5)
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    _write_samples(first, t, 1 - t ** 2)
    _write_samples(second, t, np.abs(t))
    metas = []
    for name, path in (("a", first), ("b", second), ("c", first)):
        cfg = ExperimentConfig(experiment="approximate",
                               out_dir=str(tmp_path / name),
                               eval_resolution=2000)
        metas.append(open(run_approximate(cfg, str(path))["meta"]).read())
    digests = [[ln for ln in meta.splitlines()
                if ln.startswith("samples_sha256 ")] for meta in metas]
    assert digests[0] == ["samples_sha256 %s"
                          % hashlib.sha256(first.read_bytes()).hexdigest()]
    assert digests[1] != digests[0]
    assert metas[2] == metas[0]


def test_approximate_runner_fourier_writes_complex_lines(tmp_path):
    t = np.linspace(-1, 1, 10)
    samples = tmp_path / "samples.txt"
    _write_samples(samples, t, np.cos(np.pi * t))
    cfg = ExperimentConfig(experiment="approximate", basis="fourier",
                           out_dir=str(tmp_path), eval_resolution=2000)
    out = run_approximate(cfg, str(samples))
    curve = open(out["curve"]).read().splitlines()
    assert curve[0] == "t,value_re,value_im"
    assert len(curve) == 1 + 2000
    assert np.all(np.isfinite(np.loadtxt(curve[1:], delimiter=",")))
    assert "status converged" in open(out["meta"]).read().splitlines()
    lines = open(out["coefficients"]).read().splitlines()
    assert lines[0] == "frequency,value_re,value_im"
    coeffs = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    assert coeffs.shape == (40, 3) and np.all(np.isfinite(coeffs))


def test_approximate_digest_names_the_fitted_bytes(tmp_path, monkeypatch):
    # The samples file changes just before the run reads it: the digest in
    # the meta file must be that of the bytes that were fitted.
    samples = tmp_path / "samples.txt"
    _write_samples(samples, np.linspace(-1, 1, 5), np.linspace(0, 1, 5))
    load = experiments.load_points

    def rewriting(path, *args, **kwargs):
        t = np.linspace(-1, 1, 7)
        _write_samples(samples, t, 1 - t ** 2)
        return load(path, *args, **kwargs)

    monkeypatch.setattr(experiments, "load_points", rewriting)
    cfg = ExperimentConfig(experiment="approximate", out_dir=str(tmp_path),
                           eval_resolution=2000)
    meta = open(run_approximate(cfg, str(samples))["meta"]).read()
    assert "samples 7" in meta.splitlines()
    assert "samples_sha256 %s" % hashlib.sha256(
        samples.read_bytes()).hexdigest() in meta.splitlines()


@pytest.mark.parametrize("label,header", [
    ("legendre", "degree,value"),
    ("fourier", "frequency,value_re,value_im"),
])
def test_approximate_coefficient_table_round_trips(tmp_path, label, header):
    # approx_coefficients.csv parses back to the solver's z bit for bit,
    # labelled by degree or frequency; the meta file holds the solve's
    # scalars in the same 17-digit format.
    t = np.linspace(-1, 1, 10)
    y = np.cos(np.pi * t) + 0.25 * t
    samples = tmp_path / "samples.txt"
    _write_samples(samples, t, y)
    cfg = ExperimentConfig(experiment="approximate", basis=label,
                           out_dir=str(tmp_path), eval_resolution=2000)
    out = run_approximate(cfg, str(samples))

    p = problem(resolve_basis(label), t, 4 * t.size, y, gamma=cfg.gamma,
                relax=cfg.relax_weights)
    res = solve_weighted_l1(p, "equality")
    lines = open(out["coefficients"]).read().splitlines()
    assert lines[0] == header
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    np.testing.assert_array_equal(table[:, 0], p.A.column_labels())
    parts = (np.column_stack([res.z.real, res.z.imag])
             if np.iscomplexobj(res.z) else res.z[:, None])
    assert table[:, 1:].shape == parts.shape
    assert table[:, 1:].tobytes() == parts.tobytes()
    meta = open(out["meta"]).read().splitlines()
    for key in ("status", "objective", "feasibility_residual",
                "duality_gap", "iterations"):
        assert "%s %s" % (key, experiments._fmt(getattr(res, key))) in meta


def test_comparison_runner_fourier_weights(tmp_path):
    cfg = ExperimentConfig(experiment="compare", basis="fourier",
                           n_list=(10,), functions=("peaks500",),
                           out_dir=str(tmp_path), eval_resolution=2000)
    lines = open(run_comparison(cfg)["csv"]).read().splitlines()
    assert lines[0] == ("function,method,N,K,M,error,objective,iterations,"
                        "status,interp_residual")
    assert len(lines) == 1 + 1 + len(TRIG_C_GRID) + 1
    wl1 = lines[1].split(",")
    assert wl1[1] == "wl1" and wl1[3] == "40"
    for row in lines[1:]:
        assert np.isfinite(float(row.split(",")[5])), row


def test_diagnostics_fourier_scaling_on_jittered_points(tmp_path):
    # Equispaced exponentials integrate exactly, so the scaling study
    # switches to jittered points.
    cfg = ExperimentConfig(experiment="diagnostics", basis="fourier",
                           n_list=(10,), m_list=(2,), out_dir=str(tmp_path),
                           eval_resolution=2000)
    out = run_diagnostics(cfg)
    lines = open(out["csv"]).read().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS) and len(lines) == 2
    vals = dict(zip(REPORT_COLUMNS, lines[1].split(",")))
    for col in ("E2", "Einf", "F", "sigma_min", "trunc_w", "trunc_wtilde"):
        assert np.isfinite(float(vals[col])), col
    scaling = open(out["scaling"]).read().splitlines()
    assert scaling[0] == ",".join(REPORT_COLUMNS) and len(scaling) >= 6
    meta = open(out["meta"]).read().splitlines()
    assert "scaling_grid jittered" in meta


def test_cli_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n = 12,24\nfunctions = runge25\nnoise = 0\n"
                       "resolution = 2000\n")
    rc = cli.main(["compare", "--config", str(cfgfile), "--n", "12",
                   "--out", str(tmp_path)])
    assert rc == 0
    rows = open(tmp_path / "compare.csv").read().splitlines()[1:]
    ns = {r.split(",")[2] for r in rows}
    assert ns == {"12"}   # explicit flag wins over the file value


@pytest.mark.parametrize("text", ["", "# no samples\n\n# here either\n"],
                         ids=["empty", "comments"])
def test_cli_approximate_rejects_a_file_without_samples(tmp_path, capsys,
                                                        text):
    samples = tmp_path / "samples.txt"
    samples.write_text(text)
    err = _rejected(tmp_path, capsys, ["approximate", str(samples)])
    assert "no points found in %s" % samples in err


@pytest.mark.parametrize("argv", [
    ["aliasing", "--resolution", "2000"],
    ["weight-sweep", "--n", "10", "--gammas", "0.5", "--functions",
     "runge25", "--resolution", "2000"],
    ["compare", "--n", "10", "--functions", "runge25", "--resolution",
     "2000"],
    ["diagnostics", "--n", "10", "--m", "2"],
    ["approximate", "SAMPLES", "--resolution", "2000"],
], ids=lambda argv: argv[0])
def test_cli_prints_every_file_it_writes(tmp_path, capsys, argv):
    samples = tmp_path / "samples.txt"
    _write_samples(samples, np.linspace(-1, 1, 5), np.linspace(0, 1, 5))
    argv = [str(samples) if a == "SAMPLES" else a for a in argv]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    printed = [line.split(" ", 1)
               for line in capsys.readouterr().out.splitlines()]
    assert len({name for name, _ in printed}) == len(printed)
    assert sorted(path for _, path in printed) \
        == sorted(str(p) for p in out.iterdir())


def test_cli_points_file_is_fitted_once(tmp_path):
    # A points file fixes N at its 12 points: compare fits it once per
    # function and diagnostics once per M.
    points = tmp_path / "points.txt"
    np.savetxt(points, np.linspace(-0.95, 0.95, 12))
    for argv, name, n_rows in (
            (["compare", "--functions", "runge50", "--noise", "0.01",
              "--resolution", "2000"], "compare.csv", len(POLY_C_GRID) + 2),
            (["diagnostics", "--m", "2,3"], "diagnostics.csv", 2)):
        out = tmp_path / argv[0]
        assert cli.main(argv + ["--points", "file:%s" % points,
                                "--out", str(out)]) == 0
        rows = (out / name).read_text().splitlines()[1:]
        assert len(rows) == n_rows, name
        assert {row.split(",")[2] for row in rows} == {"12"}


def test_comparison_least_squares_rows_on_five_points(tmp_path):
    # At N = 5, round(c sqrt(N)) exceeds N for c = 2.5 and 3, so those
    # fits take all N terms, and no size exceeds N.  The direct fits
    # leave the solver columns at their placeholders.
    points = tmp_path / "points.txt"
    np.savetxt(points, [-1, -0.5, 0, 0.5, 1])
    assert cli.main(["compare", "--functions", "runge25", "--resolution",
                     "2000", "--points", "file:%s" % points,
                     "--out", str(tmp_path / "out")]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "out" / "compare.csv").read_text().splitlines()[2:]]
    assert [row[1] for row in rows] \
        == ["ls_c%g" % c for c in POLY_C_GRID] + ["oracle_ls"]
    assert [int(row[4]) for row in rows[:-1]] == [1, 2, 3, 4, 5, 5]
    assert 1 <= int(rows[-1][4]) <= 5
    assert {tuple(row[6:]) for row in rows} == {("nan", "0", "direct", "nan")}


@pytest.mark.parametrize("argv", [
    ["compare", "--resolution", "2000"],  # six functions
    ["diagnostics", "--m", "1,2"],
], ids=["compare", "diagnostics"])
def test_points_file_is_read_once_per_run(tmp_path, monkeypatch, argv):
    # Every cell takes its points from one read, however many functions or
    # values of M the run loops over.
    points = tmp_path / "points.txt"
    np.savetxt(points, np.linspace(-0.95, 0.95, 12))
    reads = []
    load = experiments.load_points

    def counting(path, *args, **kwargs):
        reads.append(path)
        return load(path, *args, **kwargs)

    monkeypatch.setattr(experiments, "load_points", counting)
    assert cli.main(argv + ["--points", "file:%s" % points,
                            "--out", str(tmp_path / "out")]) == 0
    assert reads == [str(points)]


@pytest.mark.parametrize("command", ["compare", "diagnostics"])
@pytest.mark.parametrize("n_from", ["flag", "config"])
def test_cli_points_file_rejects_n(tmp_path, capsys, command, n_from):
    # The file fixes N, so --n, from a flag or a config file, is an
    # option the runner does not read.
    points = tmp_path / "points.txt"
    np.savetxt(points, np.linspace(-0.95, 0.95, 12))
    argv = [command, "--points", "file:%s" % points]
    if n_from == "flag":
        assert "--n" in _rejected(tmp_path, capsys, argv + ["--n", "10,20"])
    else:
        assert "--n" in _rejected(tmp_path, capsys, argv, "n = 10,20")


# Options each subcommand registers: exactly the ones its runner reads,
# plus --config and --out.
CLI_OPTIONS = {
    "aliasing": {"--config", "--out", "--eta", "--resolution"},
    "weight-sweep": {"--config", "--out", "--basis", "--n", "--k",
                     "--epsilon", "--gammas", "--functions", "--resolution"},
    "compare": {"--config", "--out", "--basis", "--points", "--n", "--k",
                "--epsilon", "--eta", "--noise", "--seed", "--amplitude",
                "--resolution", "--functions"},
    "diagnostics": {"--config", "--out", "--basis", "--points", "--n",
                    "--m", "--k", "--epsilon", "--gamma", "--seed",
                    "--amplitude", "--functions"},
    "approximate": {"--config", "--out", "--basis", "--k", "--epsilon",
                    "--gamma", "--eta", "--relax-weights", "--resolution"},
}


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _rejected(tmp_path, capsys, argv, line=None):
    """stderr of argv run with --out and, given a line, a config file that
    holds it.  The run must exit 2, warn nothing and create no output
    directory."""
    if line is not None:
        (tmp_path / "run.cfg").write_text(line + "\n")
        argv = argv + ["--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _exit_code(argv + ["--out", str(out)]) == 2
    assert [str(w.message) for w in caught] == []
    assert not out.exists()
    return capsys.readouterr().err


def test_cli_without_a_command_prints_usage(capsys):
    assert _exit_code([]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: wl1approx")
    assert "the following arguments are required: command" in err


def test_cli_option_sets():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {command: {flag for action in sp._actions
                     for flag in action.option_strings
                     if flag not in ("-h", "--help")}
           for command, sp in sub.choices.items()}
    assert got == CLI_OPTIONS
    assert sum(len(flags) for flags in got.values()) == 47


@pytest.mark.parametrize("argv, offending", [
    (["weight-sweep", "--n", "10", "--gammas", "1", "--functions",
      "runge25", "--resolution", "2000", "--points", "jittered"],
     "--points"),
    (["aliasing", "--resolution", "2000", "--n", "40"], "--n"),
    (["compare", "--n", "10", "--functions", "runge25", "--resolution",
      "2000", "--gamma", "2"], "--gamma"),
    (["approximate", "SAMPLES", "--resolution", "2000", "--seed", "1"],
     "--seed"),
    (["compare", "--n", "12", "--functions", "runge25", "--resolution",
      "2000", "--points", "file", "--points-file", "SAMPLES"],
     "--points-file"),
    (["diagnostics", "--n", "10", "--m", "2",
      "--functions", "runge25,abs_cubed"], "runge25,abs_cubed"),
], ids=["weight-sweep-points", "aliasing-n", "compare-gamma",
        "approximate-seed", "compare-points-file", "diagnostics-functions"])
def test_cli_rejects_options_the_runner_ignores(tmp_path, capsys, argv,
                                                offending):
    samples = tmp_path / "samples.txt"
    t = np.linspace(-1, 1, 12)
    np.savetxt(samples, np.column_stack([t, np.tanh(3 * t)]))
    argv = [str(samples) if a == "SAMPLES" else a for a in argv]
    assert offending in _rejected(tmp_path, capsys, argv)


def test_cli_aliasing_help_names_its_eta_default(capsys):
    # run_aliasing solves its noise-ball runs at 1e-2 when --eta is 0.
    assert _exit_code(["aliasing", "--help"]) == 0
    assert "0 means 1e-2" in " ".join(capsys.readouterr().out.split())


def test_cli_points_file_without_path_names_the_flag(tmp_path, capsys):
    # Without --n, whose own message names the flag too.
    for points in ("file", "file:"):
        err = _rejected(tmp_path, capsys, ["compare", "--functions",
                                           "runge25", "--points", points])
        assert "--points file:PATH" in err and "points_file" not in err, \
            points


@pytest.mark.parametrize("flags, name", [
    (["--eta", "nan"], "eta"), (["--eta", "inf"], "eta"),
    (["--noise", "-1"], "noise"), (["--basis", "jacobi:nan,0"], "alpha"),
    (["--points", "jittered", "--amplitude", "nan"], "amplitude")])
def test_cli_rejects_non_finite_values(tmp_path, capsys, flags, name):
    # Each of these used to run: --eta nan as the equality problem, --noise
    # -1 without noise, jacobi:nan,0 until a NaN reached an SVD, and
    # --amplitude nan into a traceback from the jitter draw.
    argv = ["compare", "--n", "10", "--functions", "runge25"] + flags
    assert name in _rejected(tmp_path, capsys, argv)


@pytest.mark.parametrize("argv, line, key", [
    (["compare", "--n", "10", "--functions", "runge25"], "gama = 3",
     "gama"),
    (["weight-sweep", "--n", "10", "--gammas", "1", "--functions",
      "runge25"], "seed = 1", "seed"),
    (["compare", "--n", "10", "--functions", "runge25"],
     "points-file = pts.txt", "points_file"),
], ids=["compare-gama", "weight-sweep-seed", "compare-points_file"])
def test_cli_config_rejects_keys_that_are_not_options(tmp_path, capsys,
                                                      argv, line, key):
    err = _rejected(tmp_path, capsys, argv, "resolution = 2000\n" + line)
    assert repr(key) in err


@pytest.mark.parametrize("argv, digest", [
    (["aliasing"], "ea4594b8038965fd"),
    (["weight-sweep"], "430f78ce7db0f72b"),
    (["compare"], "e3e438b2f365bef1"),
    (["diagnostics"], "5cf85bb6eddf89b6"),
    (["approximate", "s.txt"], "402c8bc41f8a4d32"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_cli_default_config_hash_unchanged(argv, digest):
    # Fields a subcommand has no option for keep the values the runs
    # always recorded, so every default meta file keeps its hash.
    args = cli.build_parser().parse_args(argv)
    assert config_hash(cli._config_from_args(args)) == digest


@pytest.mark.parametrize("source, relax", [
    (["--relax-weights"], True), ("relax-weights = true", True),
    ("relax-weights = false", False), ("relax-weights = off", False),
    ("relax-weights = 1", True), ("relax-weights = no", False)],
    ids=["flag", "true", "false", "off", "1", "no"])
def test_cli_relax_weights_from_flag_or_config(tmp_path, source, relax):
    argv = ["approximate", "s.txt"]
    if isinstance(source, list):
        argv += source
    else:
        (tmp_path / "run.cfg").write_text(source + "\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    cfg = cli._config_from_args(cli.build_parser().parse_args(argv))
    assert cfg.relax_weights is relax
    assert (config_hash(cfg) != "402c8bc41f8a4d32") is relax


@pytest.mark.parametrize("argv, line, message", [
    (["approximate", "s.txt"], "relax-weights = ture",
     "config key 'relax_weights': expected one of"),
    (["approximate", "s.txt"], "relax-weights =",
     "config key 'relax_weights': expected one of"),
    (["compare", "--seed", "1.5"], None,
     "--seed: invalid literal for int()"),
    (["compare", "--n", "10,x"], None, "--n: invalid literal for int()"),
    (["compare"], "seed = 1.5", "config key 'seed': invalid literal"),
    (["compare", "--eta", "0.o1"], None, "--eta: could not convert"),
    (["compare", "--n", "10", "--k", "4x"], None,
     "--k: expected 4n, choose or an integer, got '4x'"),
    (["compare", "--n", "10"], "k = 4x", "config key 'k': expected 4n"),
    (["compare", "--n", "10", "--basis", "jacobi:x,0"], None,
     "--basis: could not convert string to float: 'x'"),
    (["compare", "--n", "10"], "basis = jacobi:x,0",
     "config key 'basis': could not convert"),
    (["diagnostics", "--m", ","], None,
     "--m: expected a comma-separated list, got ','"),
    (["weight-sweep"], "gammas = ,", "config key 'gammas': expected a"),
    (["compare", "--resolution", "50"], None,
     "--resolution: eval_resolution must be at least 100, got 50"),
    (["compare"], "resolution = 50", "config key 'resolution': eval_"),
    (["weight-sweep", "--gammas", "nan"], None,
     "--gammas: gamma_list must be finite, got (nan,)"),
    (["weight-sweep", "--gammas", "1,-1"], None,
     "--gammas: gamma_list must be nonnegative"),
    (["diagnostics", "--gamma", "-1"], None,
     "--gamma: gamma must be nonnegative, got -1.0"),
    (["compare", "--n", "10", "--k", "-5"], None,
     "--k: K must be at least 1, got -5"),
    (["compare", "--n", "10"], "k = 0",
     "config key 'k': K must be at least 1, got 0"),
    (["compare", "--n", "0"], None, "--n: n_list must be a nonempty list"),
    (["diagnostics", "--n", "10", "--m", "0"], None,
     "--m: m_list must be a nonempty list of sizes >= 1, got (0,)"),
    (["compare", "--n", "10", "--points", "bogus"], None,
     "--points: points must be file or one of equispaced"),
    (["diagnostics", "--n", "10"], "points = bogus",
     "config key 'points': points must be"),
    (["diagnostics", "--n", "10", "--m", "3", "--k", "choose", "--epsilon",
      "2"], None, "--epsilon: epsilon must be in (0, 1), got 2.0"),
    (["compare", "--n", "10", "--functions", "nope"], None,
     "error: --functions: functions must be ids among abs_cubed"),
    (["compare", "--n", "10"], "functions = runge25,nope",
     "config key 'functions': functions must be ids among"),
    (["weight-sweep", "--functions", ","], None,
     "--functions: expected a comma-separated list, got ','"),
    (["weight-sweep"], "functions =",
     "config key 'functions': expected a comma-separated list, got ''"),
    (["diagnostics", "--n", "10", "--functions", "runge25,abs_cubed"], None,
     "--functions: diagnostics uses one reference function"),
    (["compare", "--n", "10", "--seed", "-1"], None,
     "--seed: seed must be nonnegative, got -1"),
    (["weight-sweep", "--basis", "fourier"], None,
     "--basis: basis must be a Jacobi basis, got 'fourier'"),
    (["weight-sweep"], "basis = fourier", "config key 'basis': basis must"),
    (["not_an_experiment"], None, "invalid choice: 'not_an_experiment'"),
    (["diagnostics", "--n", "10", "--m", "2", "--gamma", "nan"], None,
     "--gamma: gamma must be finite, got nan"),
    (["approximate", "{tmp}/nan_samples.txt"], None,
     "error: points must lie in [-1, 1]"),
    (["compare", "--points", "file:{tmp}/nan_points.txt"], None,
     "error: points must lie in [-1, 1]"),
], ids=["bool-typo", "bool-empty", "seed-flag", "n-flag", "seed-key",
        "eta-flag", "k-flag", "k-key", "basis-flag", "basis-key", "m-flag",
        "gammas-key", "resolution-flag", "resolution-key", "gammas-nan",
        "gammas-negative", "gamma-negative", "k-negative", "k-zero-key",
        "n-zero", "m-zero", "points-flag", "points-key", "epsilon-flag",
        "functions-flag", "functions-key", "functions-empty-flag",
        "functions-empty-key", "functions-two", "seed-negative",
        "weight-sweep-fourier-flag", "weight-sweep-fourier-key",
        "unknown-command", "gamma-nan", "nan-sample", "nan-point"])
def test_cli_parse_errors_name_the_option(tmp_path, capsys, argv, line,
                                          message):
    # A config boolean outside the true and false spellings used to read
    # as false, and a value that does not parse used to reach the user as
    # int()'s or float()'s message alone, without the flag or key.  --k
    # and --basis used to be parsed only by the runners, and an empty
    # list only failed in ExperimentConfig, which names fields, not
    # options.  Values that parse but are out of range used to fail in
    # ExperimentConfig or in a runner without the flag or key (an unknown
    # function id as a quoted KeyError, a NaN gamma as "weights must be
    # positive and finite").  A NaN abscissa is rejected as a point, not
    # later as bad data.
    (tmp_path / "nan_samples.txt").write_text("-0.5 1.0\nnan 2.0\n0.5 3.0\n")
    (tmp_path / "nan_points.txt").write_text("-0.5\nnan\n0.5\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert message in _rejected(tmp_path, capsys, argv, line)
