"""Criterion 3's accuracy study at seeds 20-29, one JSON line per seed.

Each line holds the seed, the infeasible case count, the five averaged
% errors and, per output, whether it lies within criterion 3's band.
The script reports and does not gate: it exits 0 whatever the bands say,
and fails only if the study itself raises. pytest does not collect it.

Run from the repository root::

    PYTHONPATH=src python tests/seed_sweep.py
"""

import json

from test_acceptance import CRITERION_3_LIMITS, criterion_3_study

SEEDS = range(20, 30)


def main() -> None:
    for seed in SEEDS:
        report = criterion_3_study(seed)
        errors = report.averaged_errors_pct
        line = {
            "seed": seed,
            "infeasible": report.infeasible_count,
            "errors_pct": errors,
            "within_band": {name: errors[name] <= lim for name, lim in CRITERION_3_LIMITS.items()},
        }
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
