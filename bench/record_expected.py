"""Record the reference outputs of every ls_diag instance.

    python3 bench/record_expected.py

Runs each instance of workloads.ls_diag_catalog() once and writes its
outputs to bench/expected_ls_diag.json, which the ls_diag checks compare
against. Re-record only when a change is meant to alter these numbers,
and say so in the change.
"""

import os
import sys

import run  # noqa: F401  (fixes the BLAS threads before numpy loads)

sys.path.insert(0, run.SRC)

import json
import shutil
import tempfile

import checks
import workloads


def main() -> int:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    out_root = tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR)
    expected = {}
    try:
        for i, inst in enumerate(workloads.ls_diag_catalog()):
            rec = workloads.run_op(inst, workloads.op_dir(out_root, i))
            expected[workloads.catalog_key(inst)] = checks.output_values(inst, rec)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    with open(checks.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("recorded %d instances to %s" % (len(expected), checks.EXPECTED_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
