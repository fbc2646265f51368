import numpy as np
import pytest

import nlslab
from workloads import MAX_SHIFT_CELLS, WORKLOADS, config_text, seed_transform

SEEDS = (0, 1, 7, 12345)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_only_phases_and_a_whole_cell_shift(name):
    w = WORKLOADS[name]
    base = nlslab.parse_config(config_text(w, 0, "out"))
    dx = w.grid_length / w.grid_n
    for seed in SEEDS[1:]:
        cfg = nlslab.parse_config(config_text(w, seed, "out"))
        for field in ("grid_n", "grid_length", "dt", "t_final", "snapshot_ratio",
                      "grow_after", "growth_cap", "epsilons", "output_dir", "tables"):
            assert getattr(cfg, field) == getattr(base, field), field
        assert cfg.psi1.center == cfg.psi2.center
        cells = cfg.psi1.center / dx
        assert cells == round(cells) and abs(cells) <= MAX_SHIFT_CELLS
        for p, q in ((cfg.psi1, base.psi1), (cfg.psi2, base.psi2)):
            assert (p.kind, p.width, p.wavenumber) == (q.kind, q.width, q.wavenumber)
            assert abs(p.amplitude) == pytest.approx(abs(q.amplitude), rel=1e-15)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_config(name):
    w = WORKLOADS[name]
    assert config_text(w, 5, "out") == config_text(w, 5, "out")
    assert config_text(w, 5, "out") != config_text(w, 6, "out")


def test_seeded_data_is_a_cyclic_shift_times_a_phase():
    w = WORKLOADS["profile-dense"]
    grid = nlslab.make_grid(w.grid_n, w.grid_length)
    base = nlslab.parse_config(config_text(w, 0, "out"))
    cfg = nlslab.parse_config(config_text(w, 3, "out"))
    shift = seed_transform(3)[2] - seed_transform(0)[2]
    a = nlslab.build_profile(grid, base.psi1).values
    b = nlslab.build_profile(grid, cfg.psi1).values
    rolled = np.roll(a, shift)
    k = np.argmax(np.abs(rolled))
    phase = b[k] / rolled[k]
    assert abs(phase) == pytest.approx(1.0, rel=1e-14)
    assert np.max(np.abs(b - phase * rolled)) < 1e-13
