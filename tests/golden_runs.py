"""The CLI runs whose outputs are pinned under ``tests/golden/``.

Each run is one `sparechain.cli.main` call on the bundled config at
``--seed 1``, writing into its own directory ``tests/golden/<run>/``.
``events.csv`` is too large to commit, so its SHA-256 is pinned instead,
as ``events.csv.sha256``. ``tests/test_golden.py`` reruns every call and
compares every file byte for byte.

Run as a script to rewrite the golden files from the current code::

    PYTHONPATH=src python tests/golden_runs.py

Rewrite them only for a change that moves numbers on purpose, and
explain every moved cell with that change.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
SEED = 1

# Run directory name -> CLI arguments before --seed and --out.
RUNS = {
    "evaluate": ["evaluate"],
    "evaluate-inplane": ["evaluate", "--inplane-only"],
    "optimize": ["optimize"],
    "optimize-inplane": ["optimize", "--inplane-only"],
    "sensitivity": ["sensitivity", "--rates", "0.01,0.1"],
    "simulate": ["simulate", "--event-log"],
    "validate": ["validate", "--n-cases", "16", "--reps", "10"],
    "fit-launch-data": ["fit-launch-data"],
}

# Output files pinned by their SHA-256 only.
HASHED = {"events.csv"}


def run_all(root: Path) -> dict[str, int]:
    """Run every call into ``root/<run>/``; the exit status of each run."""
    from sparechain.cli import main

    return {
        name: main([*args, "--seed", str(SEED), "--out", str(root / name)])
        for name, args in RUNS.items()
    }


def pinned(root: Path) -> dict[str, bytes]:
    """The pinned content of every file under ``root``, by relative path.

    A file named in HASHED is pinned as ``<name>.sha256``, holding its hex
    digest and a newline.
    """
    files = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel, data = path.relative_to(root).as_posix(), path.read_bytes()
        if path.name in HASHED:
            rel, data = f"{rel}.sha256", f"{hashlib.sha256(data).hexdigest()}\n".encode()
        files[rel] = data
    return files


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        statuses = run_all(Path(tmp))
        if any(statuses.values()):
            print(f"a run failed: {statuses}", file=sys.stderr)
            return 1
        files = pinned(Path(tmp))
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for rel, data in files.items():
        path = GOLDEN / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    print(f"wrote {len(files)} files, {sum(map(len, files.values()))} bytes, under {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
