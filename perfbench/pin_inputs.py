"""Record the sha256 of every workload's inputs for seeds 1-10.

    python3 perfbench/pin_inputs.py

run.py compares each run's inputs with these digests and prints a warning
when they differ, so a change to a generator (or to mtix.synth) that moves
a workload cannot pass unnoticed. Re-run this only for a deliberate change,
and say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs src/ on the path)

SEEDS = range(1, 11)


def main() -> int:
    pinned = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name in workloads.WORKLOADS:
            pinned[name] = {str(seed): workloads.generate(name, seed, Path(tmp)).digests() for seed in SEEDS}
    (HERE / "pinned_inputs.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
