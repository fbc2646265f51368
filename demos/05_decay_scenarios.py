"""Decay versus non-decay: the three built-in scenarios.

Scenario A separates the components in frequency (carriers +2 and -2), so
each dominates near its own carrier and both scattering states keep mass.
Scenario B dominates the second component everywhere; its amplitude norm
decays toward extinction while the first survives.  The symmetric scenario
is the degenerate case: the sign profile vanishes identically and both
components lose their scattering content.
"""

import numpy as np

import nlslab as nl
from nlslab.config import RunConfig

# moderate box/horizon so the demo runs in seconds
base = RunConfig(grid_n=2048, grid_length=512.0, t_final=100.0)
reports = nl.corollary_scenarios(base)

for name in ("A", "B", "symmetric"):
    rep = reports[name]
    case = rep.case  # the run itself: amplitude, schedule, per-snapshot monitors
    print(f"scenario {name}: eps = {case.epsilon}, T = {case.schedule.t_final}")
    print(f"  tags present: {', '.join(rep.tags_present)}")
    print(f"  dominant-band amplitude retention: "
          f"{rep.band_norm_ratio1:.3f} / {rep.band_norm_ratio2:.3f}")
    print(f"  mass history (component 2): "
          f"{case.mass2_seq[0]:.6f} -> {case.mass2_seq[-1]:.6f}")
    late = case.schedule.times >= 10.0
    print(f"  |alpha2| strictly decreasing after t = 10: "
          f"{bool(np.all(np.diff(case.alpha2_norm_seq[late]) < 0))}")
    print(f"  orthogonality defect: {case.orth_defect_seq[0]:.3e} -> {case.orth_defect_seq[-1]:.3e}")
    print(f"  min m on the populated band: {rep.m_min_strong_band:.3e} "
          f"(threshold {case.threshold:.3e})")
    print()

case_b = reports["B"].case
print("scenario B, second-component amplitude norm along the run:")
for t, a in zip(case_b.schedule.times[::4], case_b.alpha2_norm_seq[::4]):
    print(f"  T = {t:7.2f}: |alpha2| = {a:.8f}")
