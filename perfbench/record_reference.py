"""Record the correctness-gate reference from the program as it is now.

    python3 perfbench/record_reference.py

Runs every figure of the figure workloads once at seed 0 and writes
`reference/closed_form_columns.npz` (the deterministic columns of
`gate.DETERMINISTIC_COLUMNS`) and `reference/expected_checks.json` (the
pass/fail of every embedded check; "statistical" for those in
`gate.STATISTICAL`). Re-record only when a change alters these outputs on
purpose, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import envinfo

ROOT = Path(__file__).resolve().parent.parent


def main():
    envinfo.cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import gate
    import workloads
    from aoa_pla import experiments

    columns, checks = {}, {}
    run_dir = ROOT / ".perfbench-run"
    run_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run_dir) as out:
        for make in workloads.WORKLOADS.values():
            for fig, overrides in getattr(make(), "figures", ()):
                table, results, _, _ = experiments.reproduce(
                    experiments.ExperimentConfig(fig, seed=0, overrides=overrides, output_dir=out)
                )
                for name in gate.DETERMINISTIC_COLUMNS[fig]:
                    columns[f"{fig}/{name}"] = gate.column(table, name)
                checks[fig] = {
                    c.name: "statistical" if (fig, c.name) in gate.STATISTICAL else bool(c.passed) for c in results
                }
                print(fig, checks[fig])
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    np.savez_compressed(gate.COLUMNS_FILE, **columns)
    gate.CHECKS_FILE.write_text(json.dumps(checks, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
