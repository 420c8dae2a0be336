"""Self-tests of the benchmark.  Run with: python3 -m pytest bench

Tiny runs of each workload check the output contract; direct calls check
that the failure rule catches a perturbed z and a non-converged status,
and that a seed fixes the instance list.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (fixes the BLAS threads before numpy loads)

sys.path.insert(0, run.SRC)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(cwd, *args, timeout=300):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}
    for m in declared:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_unit(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "1", "--trace", "0", "--ops", "4")
    _assert_metrics(_result(proc), SPEC["end_to_end"])
    assert any(line.startswith("env ") for line in proc.stdout.splitlines())


def test_tiny_traced_run_prints_every_layer_metric():
    proc = _run(ROOT, "--workload", "interp_real", "--seed", "3",
                "--seconds", "1", "--trace", "1", "--ops", "4")
    result = _result(proc)
    _assert_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["solver.solve_weighted_l1.calls"]["value"] == 4


def test_fails_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(str(tmp_path), "--workload", "interp_real", "--seed", "1",
                "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _solved(kind):
    inst = {"interp": {"kind": "interp", "basis": "legendre",
                       "points": "jittered", "N": 10, "function": "runge25",
                       "gamma": 1.0, "pt_seed": 7},
            "noisy": {"kind": "noisy", "fit": "fourier_exact",
                      "basis": "fourier", "points": "jittered", "N": 10,
                      "function": "cospi_expsin", "gamma": 0.5,
                      "noise": 1e-3, "pt_seed": 7, "noise_seed": 8}}[kind]
    return inst, workloads.run_op(inst, None)


@pytest.mark.parametrize("kind", ["interp", "noisy"])
def test_failure_rule_catches_perturbed_z_and_status(kind):
    inst, rec = _solved(kind)
    assert rec["status"] == "converged"
    assert checks.check_fit(inst, rec)["failed"] == []

    bad_z = copy.copy(rec)
    bad_z["z"] = rec["z"].copy()
    bad_z["z"][0] += 1e-3
    assert "residual" in checks.check_fit(inst, bad_z)["failed"]
    quality, correct = run.check_all([inst], [bad_z])
    assert quality[0]["failed"] and not correct

    stalled = dict(rec, status="max_iter")
    assert checks.check_fit(inst, stalled)["failed"] == ["status"]
    quality, correct = run.check_all([inst], [stalled])
    assert quality[0]["failed"] == ["status"] and correct


def test_failure_rule_catches_negative_gap_and_objective_excess():
    inst, rec = _solved("interp")
    assert "gap" in checks.check_fit(inst, dict(rec, duality_gap=-1e-3))["failed"]
    # Scaling z up keeps its sign pattern but leaves both the constraint
    # and the optimum: residual and objective checks fire together.
    reasons = checks.check_fit(inst, dict(rec, z=rec["z"] * 1.01))["failed"]
    assert {"residual", "objective"} <= set(reasons)


def test_lp_reference_survives_a_stalled_simplex():
    # At 1e-10 tolerances HiGHS's dual simplex stops without a status on
    # this cell; the reference must still come back.
    inst = {"kind": "interp", "basis": "chebyshev", "points": "jittered",
            "N": 80, "function": "pole_offright", "gamma": 2.5,
            "pt_seed": 1776891010}
    _, _, prob, _ = workloads.prepare(inst)
    ref = checks.lp_reference(prob.A.entries, prob.y, prob.w.w)
    assert abs(ref - 83.8910) < 1e-3


def test_ls_diag_check_catches_changed_output():
    inst = {"kind": "ls", "basis": "legendre", "N": 10,
            "function": "runge50", "variant": 0}
    rec = workloads.run_op(inst, None)
    expected = checks.load_expected()
    assert checks.check_ls_diag(inst, rec, expected)["failed"] == []
    changed = dict(rec, oracle_error=rec["oracle_error"] * (1 + 1e-4))
    assert checks.check_ls_diag(inst, changed, expected)["failed"] == ["mismatch"]
    nan = dict(rec, errors=[float("nan")] + rec["errors"][1:])
    assert "nonfinite" in checks.check_ls_diag(inst, nan, expected)["failed"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_instances_and_draws_only_the_order(workload):
    a = workloads.instances(workload, 5, 120)
    b = workloads.instances(workload, 5, 120)
    c = workloads.instances(workload, 6, 120)
    assert workloads.instance_hash(a) == workloads.instance_hash(b)
    assert workloads.instance_hash(a) != workloads.instance_hash(c)

    # Every seed runs the same op set, in its own order.
    def op_set(insts):
        return sorted(json.dumps(i, sort_keys=True) for i in insts)
    assert op_set(a) == op_set(c)


def test_host_slowdown_weights_probes_by_the_op_time_they_cover():
    host = hostspeed.HostSpeed()
    nominal = hostspeed.NOMINAL_PROBE_S
    # Three probes; 3 s of ops ran between the first two, 1 s after.
    host.probes = [nominal, nominal, 2 * nominal]
    host.covered = [3.0, 1.0]
    assert host.slowdown() == pytest.approx((3.0 * 1.0 + 1.0 * 1.5) / 4.0)
    # Times are scaled by it: a host twice as slow reads the same.
    op_s = [0.1, 0.2, 0.3]
    fast = run.end_to_end(op_s, 1.0, 0, 1.0, 1024)
    slow = run.end_to_end([2 * t for t in op_s], 2.0, 0, 1.0, 1024)
    assert slow == pytest.approx(fast)


def test_catalog_covers_every_ls_diag_draw():
    catalog = {workloads.catalog_key(i) for i in workloads.ls_diag_catalog()}
    assert set(checks.load_expected()) == catalog
    for seed in range(5):
        for inst in workloads.instances("ls_diag", seed, 200):
            assert workloads.catalog_key(inst) in catalog
