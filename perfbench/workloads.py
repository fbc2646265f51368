"""Workload definitions and seeded config generation (standard library only).

Each workload is one closed-loop, single-process run of the package through
its public API.  The seed only sets a global phase on each component's
amplitude and a shift of both Gaussian centres by a whole number of grid
cells.  The coupling depends on |u|^2 alone and a cyclic shift commutes with
every substep, so the work is identical for every seed and the sign profile,
tags and masses agree across seeds up to round-off.  The program receives
only the generated config text.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Largest centre shift, in grid cells.  Unit-width packets sit hundreds of
# length units from the box edge, so the shifted data stays cyclic-exact.
MAX_SHIFT_CELLS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "case" -> nlslab.run_case, else the CLI command name
    grid_n: int
    grid_length: float
    t_final: float
    epsilon: float
    psi1: tuple[float, float, float]  # amplitude, width, wavenumber
    psi2: tuple[float, float, float]
    snapshot_ratio: float | None = None
    why: str = ""

    @property
    def field_bytes(self) -> int:
        """Working set of one complex128 field on the grid."""
        return 16 * self.grid_n


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "case-bigbox",
            "case",
            16384,
            2048.0,
            400.0,
            0.1,
            (1.0, 1.0, 0.0),
            (0.5, 1.0, 0.0),
            why="fused evolve path (FFT pair, decay kernel, mass guard) dominates; "
            "little analysis and no table I/O",
        ),
        Workload(
            "cli-evolve",
            "evolve",
            4096,
            256.0,
            400.0,
            0.1,
            (1.0, 1.0, 0.0),
            (0.5, 1.0, 0.0),
            why="observer path with J-norms and per-substep fields plus table writes; "
            "small arrays, fused path bypassed",
        ),
        Workload(
            "profile-dense",
            "mprofile",
            8192,
            512.0,
            50.0,
            0.1,
            (1.0, 1.0, 2.0),
            (1.0, 1.0, -2.0),
            snapshot_ratio=1.02,
            why="dense snapshot ladder makes the scattering analysis dominate; "
            "largest memory footprint",
        ),
    )
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}j"


def seed_transform(seed: int) -> tuple[float, float, int]:
    """(phase1, phase2, shift in cells) drawn from the workload seed."""
    rng = random.Random(seed)
    return (
        rng.uniform(0.0, 2.0 * math.pi),
        rng.uniform(0.0, 2.0 * math.pi),
        rng.randint(-MAX_SHIFT_CELLS, MAX_SHIFT_CELLS),
    )


def config_text(w: Workload, seed: int, output_dir: str) -> str:
    """The key = value config the program receives for this workload and seed."""
    phase1, phase2, shift = seed_transform(seed)
    center = shift * (w.grid_length / w.grid_n)

    def profile(spec, phase):
        amp, width, k = spec
        a = complex(amp * math.cos(phase), amp * math.sin(phase))
        return f"gaussian({_fmt_complex(a)}, {_fmt(width)}, {_fmt(center)}, {_fmt(k)})"

    lines = [
        f"grid.n = {w.grid_n}",
        f"grid.length = {_fmt(w.grid_length)}",
        f"time.t_final = {_fmt(w.t_final)}",
        f"data.psi1 = {profile(w.psi1, phase1)}",
        f"data.psi2 = {profile(w.psi2, phase2)}",
        f"epsilon = {_fmt(w.epsilon)}",
        f"outputs.directory = {output_dir}",
    ]
    if w.snapshot_ratio is not None:
        lines.append(f"time.snapshot_ratio = {_fmt(w.snapshot_ratio)}")
    return "\n".join(lines) + "\n"
