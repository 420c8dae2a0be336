"""Experiment harness: registry, runners, CSV artifacts, CLI, determinism.

Runner tests use deliberately tiny configurations; the point here is the
plumbing (row counts, column layout, reproducibility, flag handling), not
the numerics, which the dedicated module tests already pin down.
"""

import argparse
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from wl1approx import basis, cli, experiments
from wl1approx.diagnostics import REPORT_COLUMNS
from wl1approx.experiments import (POLY_C_GRID, SWEEP_GAMMAS, TRIG_C_GRID,
                                   ExperimentConfig, TEST_FUNCTIONS,
                                   config_hash, functions_with_tag,
                                   get_function, resolve_basis, run_aliasing,
                                   run_approximate, run_comparison,
                                   run_diagnostics, run_weight_sweep)

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
    assert lines[-1].split(",")[1] == "oracle_ls"

    cfg2 = ExperimentConfig(experiment="compare", n_list=(10,),
                            functions=("runge25",), noise=0.0,
                            out_dir=str(tmp_path / "b"),
                            eval_resolution=2000)
    out2 = run_comparison(cfg2)
    assert open(out2["csv"]).read() == text

    meta = open(out["meta"]).read()
    assert "config_hash" in meta
    for banned in ("date", "time", "stamp"):
        assert banned not in meta.lower()


def test_comparison_noise_changes_rows(tmp_path):
    base = dict(experiment="compare", n_list=(10,), functions=("runge25",),
                eval_resolution=2000)
    quiet = run_comparison(ExperimentConfig(
        out_dir=str(tmp_path / "q"), noise=0.0, **base))
    noisy = run_comparison(ExperimentConfig(
        out_dir=str(tmp_path / "n"), noise=1e-4, **base))
    rq = open(quiet["csv"]).read().splitlines()[1].split(",")
    rn = open(noisy["csv"]).read().splitlines()[1].split(",")
    assert float(rq[5]) != float(rn[5])


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
    calls = {"build_matrix": 0, "make_weights": 0}
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
    assert calls == {"build_matrix": 2, "make_weights": 4}
    assert [r.split(",")[:3] for r in rows] == [
        [f, g, n] for f in ("runge25", "osc_cos30") for g in ("0.5", "1")
        for n in ("10", "12")]


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
    assert (tmp_path / "aliasing_curves.csv").exists()
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


def test_approximate_runner(tmp_path):
    t = np.linspace(-1, 1, 30)
    vals = np.tanh(3 * t)
    samples = tmp_path / "samples.txt"
    with open(samples, "w") as fh:
        for a, b in zip(t, vals):
            fh.write("%.17g %.17g\n" % (a, b))
    cfg = ExperimentConfig(experiment="approximate", n_list=(30,),
                           k_rule="choose", out_dir=str(tmp_path),
                           eval_resolution=2000)
    out = run_approximate(cfg, str(samples))
    txt = open(out["coefficients"]).read().splitlines()
    assert txt[0].startswith("status ")
    curve = open(out["curve"]).read().splitlines()
    assert curve[0] == "t,value"
    assert len(curve) > 100


def _write_samples(path, t, vals):
    with open(path, "w") as fh:
        for a, b in zip(t, vals):
            fh.write("%.17g %.17g\n" % (a, b))


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
    lines = open(out["coefficients"]).read().splitlines()
    assert lines[0].startswith("status ")
    coeffs = np.loadtxt(lines[5:], ndmin=2)
    assert coeffs.shape == (40, 2) and np.all(np.isfinite(coeffs))


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


def test_cli_end_to_end(tmp_path):
    rc = cli.main(["compare", "--n", "10", "--functions", "runge25",
                   "--noise", "0", "--resolution", "2000",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "compare.csv").exists()
    assert (tmp_path / "compare_meta.txt").exists()


def test_cli_uses_subcommand_defaults(tmp_path):
    rc = cli.main(["aliasing", "--resolution", "2000",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "aliasing.csv").exists()


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


def test_cli_failure_paths(tmp_path):
    assert cli.main(["compare", "--n", "0", "--out", str(tmp_path)]) == 2
    assert cli.main(["compare", "--functions", "missing_fn",
                     "--out", str(tmp_path)]) == 2
    assert cli.main(["diagnostics", "--m", ",", "--n", "20",
                     "--out", str(tmp_path)]) == 2
    with pytest.raises(SystemExit):
        cli.main(["not_an_experiment"])


def test_cli_names_nan_points(tmp_path, capsys):
    # A NaN abscissa must be rejected as a point, not later as bad data.
    samples = tmp_path / "samples.txt"
    samples.write_text("-0.5 1.0\nnan 2.0\n0.5 3.0\n")
    points = tmp_path / "points.txt"
    points.write_text("-0.5\nnan\n0.5\n")
    for argv in (["approximate", str(samples)],
                 ["compare", "--points", "file:%s" % points]):
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "points must lie in [-1, 1]" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["compare", "diagnostics"])
@pytest.mark.parametrize("n_from", ["flag", "config"])
def test_cli_points_file_rejects_n(tmp_path, capsys, command, n_from):
    # The file fixes N, so --n, from a flag or a config file, is an
    # option the runner does not read.
    points = tmp_path / "points.txt"
    np.savetxt(points, np.linspace(-0.95, 0.95, 12))
    argv = [command, "--points", "file:%s" % points]
    if n_from == "flag":
        argv += ["--n", "10,20"]
    else:
        (tmp_path / "cfg.txt").write_text("n = 10,20\n")
        argv += ["--config", str(tmp_path / "cfg.txt")]
    assert _exit_code(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "--n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    assert _exit_code(argv + ["--out", str(tmp_path / "out")]) == 2
    assert offending in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_aliasing_help_names_its_eta_default(capsys):
    # run_aliasing solves its noise-ball runs at 1e-2 when --eta is 0.
    assert _exit_code(["aliasing", "--help"]) == 0
    assert "0 means 1e-2" in " ".join(capsys.readouterr().out.split())


def test_cli_points_file_without_path_names_the_flag(tmp_path, capsys):
    # Without --n, whose own message names the flag too.
    for points in ("file", "file:"):
        argv = ["compare", "--functions", "runge25", "--points", points,
                "--out", str(tmp_path / "out")]
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "--points file:PATH" in err and "points_file" not in err, \
            points
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, name", [
    (["--eta", "nan"], "eta"), (["--eta", "inf"], "eta"),
    (["--noise", "-1"], "noise"), (["--basis", "jacobi:nan,0"], "alpha"),
    (["--points", "jittered", "--amplitude", "nan"], "amplitude")])
def test_cli_rejects_non_finite_values(tmp_path, capsys, flags, name):
    # Each of these used to run: --eta nan as the equality problem, --noise
    # -1 without noise, jacobi:nan,0 until a NaN reached an SVD, and
    # --amplitude nan into a traceback from the jitter draw.
    argv = ["compare", "--n", "10", "--functions", "runge25"] + flags
    assert _exit_code(argv + ["--out", str(tmp_path / "out")]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_names_a_non_finite_gamma(tmp_path, capsys):
    # This used to exit 2 with "weights must be positive and finite", which
    # names neither the option nor its value.
    argv = ["diagnostics", "--n", "10", "--m", "2", "--gamma", "nan",
            "--out", str(tmp_path / "out")]
    assert _exit_code(argv) == 2
    assert "gamma must be finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("resolution = 2000\n%s\n" % line)
    argv = argv + ["--config", str(cfgfile), "--out", str(tmp_path / "out")]
    assert _exit_code(argv) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    ("relax-weights = false", False)], ids=["flag", "true", "false"])
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
], ids=["bool-typo", "bool-empty", "seed-flag", "n-flag", "seed-key",
        "eta-flag", "k-flag", "k-key", "basis-flag", "basis-key", "m-flag",
        "gammas-key"])
def test_cli_parse_errors_name_the_option(tmp_path, capsys, argv, line,
                                          message):
    # A config boolean outside the true and false spellings used to read
    # as false, and a value that does not parse used to reach the user as
    # int()'s or float()'s message alone, without the flag or key.  --k
    # and --basis used to be parsed only by the runners, and an empty
    # list only failed in ExperimentConfig, which names fields, not
    # options.
    if line is not None:
        (tmp_path / "run.cfg").write_text(line + "\n")
        argv = argv + ["--config", str(tmp_path / "run.cfg")]
    assert _exit_code(argv + ["--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
