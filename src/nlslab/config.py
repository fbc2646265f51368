"""Line-oriented `key = value` run configuration.

The format is deliberately flat: one dotted key per line, `#` comments and
blank lines ignored, unknown keys rejected with their line number.  All
numeric output uses 17 significant digits so a serialize/parse round trip
reproduces every float bitwise.  time.t_final must be a whole number of
time.dt steps, and mprofile, sweep and scenario need a time.dt whose steps
k * dt hit the t = 2 anchor (dt = 0.07 does not: 2.03 is nearest).

Recognized keys (defaults in parentheses):

    grid.n              (4096)    power of two >= 16
    grid.length         (256)     positive box length
    time.dt             (0.02)    base step
    time.t_final        (400)     end time
    time.snapshot_ratio (2^0.25)  geometric snapshot spacing, > 1
    time.grow_after     (2)       time after which steps may grow (the t = 2
                                  anchor); inf = never
    time.growth_cap     (0.05)    step ceiling as a fraction of t
    data.psi1           (gaussian(1, 1, 0, 0))    profile: gaussian(A, w, c, k) | zero,
                                                  A, c, k finite and w positive
    data.psi2           (gaussian(0.5, 1, 0, 0))
    epsilon             (unset)   single amplitude or comma list
    outputs.directory   (out)
    outputs.tables      (all)     comma subset of the known table names
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import re

import numpy as np

from .dynamics import DEFAULT_DT, DEFAULT_GROW_AFTER, DEFAULT_GROWTH_CAP, DEFAULT_SNAPSHOT_RATIO, DEFAULT_T_FINAL
from .spectral import _is_power_of_two
from .tables import _fmt

__all__ = [
    "ConfigError",
    "ProfileSpec",
    "RunConfig",
    "parse_config",
    "serialize_config",
    "DEFAULT_SWEEP_EPSILONS",
    "SCENARIO_A",
    "SCENARIO_B",
    "SCENARIO_SYMMETRIC",
]

KNOWN_TABLES = (
    "observers",
    "snapshots",
    "mprofile",
    "classification",
    "sweep",
    "orderfit",
)

DEFAULT_SWEEP_EPSILONS = (0.05, 0.05 * 2.0**0.5, 0.1, 0.1 * 2.0**0.5, 0.2)


class ConfigError(ValueError):
    """Configuration rejected; carries the offending line number if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class ProfileSpec:
    """Initial-data profile for one component: a modulated Gaussian or zero."""

    kind: str = "gaussian"
    amplitude: complex = 1.0
    width: float = 1.0
    center: float = 0.0
    wavenumber: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "zero"):
            raise ConfigError(f"unknown profile kind {self.kind!r}")
        if self.kind == "gaussian" and not (np.isfinite(self.width) and self.width > 0):
            raise ConfigError(f"gaussian width must be positive, got {self.width}")
        for name in ("amplitude", "center", "wavenumber"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kind == "zero":  # every zero profile is one value, so it survives the text form `zero`
            for name, value in (("amplitude", 0.0), ("width", 1.0), ("center", 0.0), ("wavenumber", 0.0)):
                object.__setattr__(self, name, value)


ZERO_PROFILE = ProfileSpec(kind="zero")


@dataclass(frozen=True)
class RunConfig:
    grid_n: int = 4096
    grid_length: float = 256.0
    dt: float = DEFAULT_DT
    t_final: float = DEFAULT_T_FINAL
    snapshot_ratio: float = DEFAULT_SNAPSHOT_RATIO
    grow_after: float = DEFAULT_GROW_AFTER
    growth_cap: float = DEFAULT_GROWTH_CAP
    psi1: ProfileSpec = field(default_factory=ProfileSpec)
    psi2: ProfileSpec = field(default_factory=lambda: ProfileSpec(amplitude=0.5))
    epsilons: tuple[float, ...] | None = None
    output_dir: str = "out"
    tables: tuple[str, ...] = KNOWN_TABLES

    def epsilon_single(self) -> float:
        """The run amplitude for single-run commands (default 0.1)."""
        if self.epsilons is None:
            return 0.1
        if len(self.epsilons) != 1:
            raise ConfigError("this command needs a single epsilon, got a list")
        return self.epsilons[0]

    def epsilon_sweep(self) -> tuple[float, ...]:
        """The amplitude ladder for sweeps (default geometric, ratio sqrt 2)."""
        if self.epsilons is None:
            return DEFAULT_SWEEP_EPSILONS
        return self.epsilons


def _parse_number(text: str, line: int, kind=float) -> float:
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"malformed number {text!r}", line) from None


# The numeric keys in file order: key -> (RunConfig field, int or float,
# validity test, requirement named in the error).  Comparisons against inf
# are false for nan, so each test also rejects nan.
_NUMBER_KEYS = {
    "grid.n": ("grid_n", int, lambda n: n >= 16 and _is_power_of_two(n), "be a power of two >= 16"),
    "grid.length": ("grid_length", float, lambda v: 0 < v < np.inf, "be positive"),
    "time.dt": ("dt", float, lambda v: 0 < v < np.inf, "be positive"),
    "time.t_final": ("t_final", float, lambda v: 0 <= v < np.inf, "be finite and >= 0"),
    "time.snapshot_ratio": ("snapshot_ratio", float, lambda v: 1 < v < np.inf, "exceed 1"),
    "time.grow_after": ("grow_after", float, lambda v: v >= 0, "be >= 0 (inf allowed)"),
    "time.growth_cap": ("growth_cap", float, lambda v: 0 < v <= 1, "lie in (0, 1]"),
}


_GAUSSIAN_RE = re.compile(r"^gaussian\s*\((.*)\)$")


def _parse_profile(key: str, text: str, line: int) -> ProfileSpec:
    text = text.strip()
    if text == "zero":
        return ZERO_PROFILE
    match = _GAUSSIAN_RE.match(text)
    if not match:
        raise ConfigError(
            f"profile must be 'zero' or 'gaussian(A, width, center, wavenumber)', got {text!r}",
            line,
        )
    parts = [p.strip() for p in match.group(1).split(",")]
    if len(parts) != 4:
        raise ConfigError(f"gaussian(...) takes 4 arguments, got {len(parts)}", line)
    try:
        amplitude = complex(parts[0])
    except ValueError:
        raise ConfigError(f"malformed amplitude {parts[0]!r}", line) from None
    width, center, wavenumber = (_parse_number(p, line) for p in parts[1:])
    try:
        return ProfileSpec("gaussian", amplitude, width, center, wavenumber)
    except ConfigError as err:
        raise ConfigError(f"{key} must hold a valid profile: {err}", line) from None


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration; defaults fill absent keys."""
    cfg = RunConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        seen.add(key)

        if key in _NUMBER_KEYS:
            name, kind, valid, requirement = _NUMBER_KEYS[key]
            v = _parse_number(value, lineno, kind)
            if not valid(v):
                raise ConfigError(f"{key} must {requirement}, got {v}", lineno)
            cfg = replace(cfg, **{name: v})
        elif key == "data.psi1":
            cfg = replace(cfg, psi1=_parse_profile(key, value, lineno))
        elif key == "data.psi2":
            cfg = replace(cfg, psi2=_parse_profile(key, value, lineno))
        elif key == "epsilon":
            parts = [p.strip() for p in value.split(",") if p.strip()]
            if not parts:
                raise ConfigError("epsilon needs at least one value", lineno)
            eps = tuple(_parse_number(p, lineno) for p in parts)
            if any(not np.isfinite(e) or e < 0 for e in eps):
                raise ConfigError("epsilon values must be finite and >= 0", lineno)
            cfg = replace(cfg, epsilons=eps)
        elif key == "outputs.directory":
            if not value:
                raise ConfigError("outputs.directory must not be empty", lineno)
            cfg = replace(cfg, output_dir=value)
        elif key == "outputs.tables":
            names = tuple(p.strip() for p in value.split(",") if p.strip())
            unknown = [n for n in names if n not in KNOWN_TABLES]
            if unknown:
                raise ConfigError(
                    f"unknown table(s) {unknown}; known: {', '.join(KNOWN_TABLES)}", lineno
                )
            cfg = replace(cfg, tables=names)
        else:
            raise ConfigError(f"unknown key {key!r}", lineno)
    return cfg


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}j"


def _fmt_profile(p: ProfileSpec) -> str:
    if p.kind == "zero":
        return "zero"
    return (
        f"gaussian({_fmt_complex(p.amplitude)}, {_fmt(p.width)}, "
        f"{_fmt(p.center)}, {_fmt(p.wavenumber)})"
    )


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    lines = [
        f"{key} = {(_fmt if kind is float else str)(getattr(cfg, name))}"
        for key, (name, kind, _, _) in _NUMBER_KEYS.items()
    ]
    lines.append(f"data.psi1 = {_fmt_profile(cfg.psi1)}")
    lines.append(f"data.psi2 = {_fmt_profile(cfg.psi2)}")
    if cfg.epsilons is not None:
        lines.append("epsilon = " + ", ".join(_fmt(e) for e in cfg.epsilons))
    lines.append(f"outputs.directory = {cfg.output_dir}")
    lines.append("outputs.tables = " + ", ".join(cfg.tables))
    return "\n".join(lines) + "\n"


# Built-in corollary scenarios.  A: frequency-separated packets so each
# component dominates around its own carrier; B: everywhere-dominated second
# component; symmetric: identical components, the all-cancelling case.
SCENARIO_A = RunConfig(
    psi1=ProfileSpec("gaussian", 1.0, 1.0, 0.0, 2.0),
    psi2=ProfileSpec("gaussian", 1.0, 1.0, 0.0, -2.0),
    epsilons=(0.1,),
)
SCENARIO_B = RunConfig(
    psi1=ProfileSpec("gaussian", 1.0, 1.0, 0.0, 0.0),
    psi2=ProfileSpec("gaussian", 0.5, 1.0, 0.0, 0.0),
    epsilons=(0.2,),
)
SCENARIO_SYMMETRIC = RunConfig(
    psi1=ProfileSpec("gaussian", 1.0, 1.0, 0.0, 0.0),
    psi2=ProfileSpec("gaussian", 1.0, 1.0, 0.0, 0.0),
    epsilons=(0.2,),
)
