"""Record the frozen outputs that checks.py compares against.

    python3 perfbench/record_reference.py

Run once at the baseline commit.  It writes the canonical peak mass of
the period sweep and the D2048 distributions of the default-seed
dihedral_simulate family (seed 0) to perfbench/reference/.  These are
the package's own outputs at that commit, frozen so that later commits
must reproduce them to 1e-12.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from hspsim.config import config_from_dict  # noqa: E402
from hspsim.experiments import run_experiment  # noqa: E402

DEFAULT_SEED = 0


def main() -> None:
    out = HERE.parent / ".perfbench_out" / "record"
    s = workloads.SWEEP
    sweep = run_experiment(config_from_dict(
        {"experiment": "sweep-transversal", **s, "seeds": 1, "seed": 0}), out)
    frozen = {f"N={s['N']},a={s['a']},Q={s['Q']}": sweep["peak_mass_shor"]}
    (checks.REFERENCE_DIR / "period_sweep.json").write_text(json.dumps(frozen, indent=1) + "\n")

    recorded = {}
    for step in workloads.dihedral_simulate(DEFAULT_SEED, out):
        report = run_experiment(config_from_dict(step.config), out / step.name)
        cfg = step.config
        key = f"{cfg['group']}:{json.dumps(cfg['hidden_generators'])}"
        recorded[key] = {
            "labels_sha256": checks.labels_digest([label for label, _ in report["distribution"]]),
            "probs": [p for _, p in report["distribution"]],
        }
    (checks.REFERENCE_DIR / "dihedral_simulate.json").write_text(json.dumps(recorded) + "\n")


if __name__ == "__main__":
    main()
