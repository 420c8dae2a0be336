"""Output checks: the failure rule, the LP reference and recorded values.

Every check works from quantities the benchmark recomputes itself. The
program's own feasibility_residual is never read: it subtracts eta twice
in ball mode. Only status and duality_gap are taken from the result.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import workloads

TOL_FEAS = 1e-9   # residual slack, relative to ||y||
TOL_GAP = 1e-8    # most negative duality gap allowed, relative to max(1, obj)
# Objective excess over the LP reference, relative to max(1, reference).
# On ill-conditioned cells the objective moves by a few 1e-6 for 1e-10 of
# residual, and HiGHS's simplex and interior-point answers differ by as
# much (see README); the bound sits a decade above that.
TOL_OBJ = 1e-5
# ls_diag outputs against the recorded values: |got - ref| <= RTOL*|ref| + ATOL.
# The values are errors and Gram defects of unit-scale functions; ATOL
# covers those that sit at rounding level (tail bounds, tiny errors).
LS_RTOL = 1e-6
LS_ATOL = 1e-9

LP_TOL = 1e-10

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected_ls_diag.json")


def lp_reference(A, y, w) -> float:
    """Optimal objective of min w.|z| s.t. Az = y, as an LP in (z+, z-).

    HiGHS's default (dual simplex) occasionally stops without a status at
    these tolerances on ill-conditioned cells (jittered N=80, gamma=2.5);
    its interior-point method then takes over.
    """
    from scipy.optimize import linprog

    for method in ("highs", "highs-ipm"):
        res = linprog(np.concatenate([w, w]), A_eq=np.hstack([A, -A]), b_eq=y,
                      bounds=(0, None), method=method,
                      options={"primal_feasibility_tolerance": LP_TOL,
                               "dual_feasibility_tolerance": LP_TOL})
        if res.status == 0:
            return float(res.fun)
    raise RuntimeError("reference LP failed: %s" % res.message)


def check_fit(inst, rec) -> dict:
    """Failure rule for a weighted-l1 op. Returns the per-op quality fields.

    An op fails if its status is not converged, if the residual recomputed
    from z exceeds eta + TOL_FEAS*||y||, if the reported gap is below
    -TOL_GAP*max(1, objective), or, for real exact fits, if the objective
    recomputed from z exceeds the LP reference by more than TOL_OBJ.
    """
    basis, f, prob, mode = workloads.prepare(inst)
    A, y, w = prob.A.entries, np.asarray(prob.y), prob.w.w
    z = np.asarray(rec["z"])
    ynorm = float(np.linalg.norm(y))
    reasons = []
    if rec["status"] != "converged":
        reasons.append("status")
    if not np.all(np.isfinite(z)):
        return {"failed": reasons + ["nonfinite"], "residual": None,
                "obj_excess": None}
    residual = float(np.linalg.norm(A @ z - y))
    if residual > prob.eta + TOL_FEAS * ynorm:
        reasons.append("residual")
    objective = float(w @ np.abs(z))
    gap = rec["duality_gap"]
    if not gap >= -TOL_GAP * max(1.0, objective):
        reasons.append("gap")
    excess = None
    if mode == "equality" and not basis.is_complex:
        ref = lp_reference(A, y, w)
        excess = (objective - ref) / max(1.0, abs(ref))
        if excess > TOL_OBJ:
            reasons.append("objective")
    return {"failed": reasons,
            "residual": (residual - prob.eta) / max(ynorm, 1e-300),
            "obj_excess": excess}


def load_expected(path=EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_diag(files) -> list:
    """The numbers a diagnostics op wrote: its table row and the slopes."""
    with open(files["csv"]) as fh:
        lines = fh.read().splitlines()
    if len(lines) != 2:
        raise ValueError("expected one diagnostics row, got %d" % (len(lines) - 1))
    values = [float(x) for x in lines[1].split(",")]
    slopes = {}
    with open(files["meta"]) as fh:
        for line in fh:
            key, _, val = line.partition(" ")
            if key.startswith("slope_"):
                slopes[key] = float(val)
    return values + [slopes[k] for k in ("slope_E2", "slope_Einf", "slope_F")]


def output_values(inst, rec) -> dict:
    """Recorded form of an ls_diag op's output."""
    if inst["kind"] == "diag":
        return {"values": read_diag(rec["files"])}
    return {"K": rec["K"], "values": rec["errors"] + [rec["oracle_error"]]}


def _close(got, ref) -> bool:
    if math.isinf(ref) or math.isinf(got):
        return got == ref
    return abs(got - ref) <= LS_RTOL * abs(ref) + LS_ATOL


def check_ls_diag(inst, rec, expected) -> dict:
    """An ls_diag op fails on non-finite output or a mismatch with the
    values recorded for its instance."""
    ref = expected.get(workloads.catalog_key(inst))
    got = output_values(inst, rec)
    reasons = []
    if not all(math.isfinite(v) for v in got["values"]):
        reasons.append("nonfinite")
    if ref is None:
        reasons.append("no_reference")
    elif got.get("K") != ref.get("K") or len(got["values"]) != len(ref["values"]) \
            or not all(_close(g, r) for g, r in zip(got["values"], ref["values"])):
        reasons.append("mismatch")
    return {"failed": reasons}
