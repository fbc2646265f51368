"""Regenerate the stored correctness references in reference/.

Runs every workload at seed 0 and at seed 1, requires the two endpoint sign
profiles to agree within the benchmark's tolerance on the resolved band,
and stores the seed-0 profile on that band.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

from runner import M_TOLERANCE_FRACTION, REFERENCE_DIR, Runner, m_gap
from workloads import WORKLOADS

SEEDS = (0, 1)


def main() -> int:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    workdir = os.path.join(os.path.dirname(REFERENCE_DIR), "out", "reference")
    try:
        for name, w in WORKLOADS.items():
            profiles, thresholds = [], []
            for seed in SEEDS:
                runner = Runner(w, seed, os.path.join(workdir, f"{name}-{seed}"))
                outcome = runner.run()
                profiles.append(runner.m_profile(outcome))
                thresholds.append(runner.threshold(outcome))
            band = np.flatnonzero(runner.resolved_band())
            ref = {
                "workload": name,
                "seed": SEEDS[0],
                "grid_n": w.grid_n,
                "threshold": thresholds[0],
                "band_index": band.tolist(),
                "m_band": profiles[0][band].tolist(),
            }
            gap = m_gap(profiles[1], ref)
            tol = M_TOLERANCE_FRACTION * ref["threshold"]
            print(f"{name}: {band.size} band points, seed gap {gap:.3e}, tolerance {tol:.3e}")
            if not gap <= tol:
                print(f"{name}: seeds {SEEDS} disagree beyond the tolerance", file=sys.stderr)
                return 1
            with open(os.path.join(REFERENCE_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
                json.dump(ref, fh)
                fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
