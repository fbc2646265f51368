"""One workload run through the package's public API, and its correctness checks.

Checks use tolerances against a reference stored in `reference/`, never a
bitwise comparison across commits, so a legitimate kernel rewrite still
passes.  The reference was made at seed 0 and every seed is checked against
it, so two seeds that pass give the same sign profile within the tolerance.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stdout

import numpy as np

import nlslab
import nlslab.cli

from workloads import Workload, config_text

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# m may move by at most half the classification threshold of the reference
# run, the accuracy the program itself claims for m.  Workloads without the
# scattering analysis use the threshold's floor 1e-6 * eps^2.
M_TOLERANCE_FRACTION = 0.5
THRESHOLD_FLOOR = 1e-6
# Per-component masses may rise by FFT round-off only; the program's own
# abort guard sits at 1e-10 of the initial total.
MASS_RISE_TOLERANCE = 1e-12
# The observer ledger is a trapezoid over the step times; past t = 10 steps
# grow to 5% of t and its quadrature error reaches 3.9e-4 on the stock run.
LEDGER_TOLERANCE = 1e-3
C_QUAD_LIMIT = 1e-4
STRONG_BAND_FRACTION = 1e-3


class Runner:
    """Runs one workload repeatedly in this process and checks each run.

    The CLI workloads write their tables under `workdir`.  To check the
    program's own outputs, `run` captures the observer rows handed to
    `write_table` and the `CaseResult` returned by `run_case` inside the
    CLI; the capture keeps a reference and copies nothing.
    """

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.w = workload
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.text = config_text(workload, seed, workdir)
        self.config_path = os.path.join(workdir, "run.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(self.text)
        self.captured: dict = {}

    def setup(self) -> None:
        """What precedes a fresh process's first run: grid, profiles, one transform."""
        cfg = nlslab.parse_config(self.text)
        grid = nlslab.make_grid(cfg.grid_n, cfg.grid_length)
        psi1 = nlslab.build_profile(grid, cfg.psi1)
        nlslab.build_profile(grid, cfg.psi2)
        nlslab.forward_ft(psi1)

    def run(self):
        """One workload run; returns the CaseResult or the CLI exit code."""
        self.captured = {}
        if self.w.kind == "case":
            return nlslab.run_case(nlslab.parse_config(self.text))
        cli = nlslab.cli
        write_table, run_case = cli.write_table, cli.run_case

        def capturing_write_table(path, header, rows):
            if os.path.basename(path) == "observers.tsv":
                rows = rows if isinstance(rows, list) else list(rows)
                self.captured["observers"] = rows
            return write_table(path, header, rows)

        def capturing_run_case(*args, **kwargs):
            self.captured["case"] = result = run_case(*args, **kwargs)
            return result

        cli.write_table, cli.run_case = capturing_write_table, capturing_run_case
        try:
            with redirect_stdout(io.StringIO()):
                return cli.main([self.w.kind, self.config_path])
        finally:
            cli.write_table, cli.run_case = write_table, run_case

    def check(self, outcome) -> tuple[list[str], dict]:
        """Correctness checks for one run: (failures, observations)."""
        obs: dict = {}
        if self.w.kind != "case" and outcome != 0:
            return [f"CLI exited with code {outcome}"], obs
        ref = load_reference(self.w.name)
        failures: list[str] = []
        if self.w.kind == "evolve":
            masses = self._check_observers(failures)
        else:
            case = self.case_result(outcome)
            masses = [(nlslab.mass(s.u1), nlslab.mass(s.u2)) for s in case.states]
            obs["c_quad"] = case.record.c_quad
            if self.w.kind == "case":
                failures += check_bigbox(case)
            else:
                failures += self._check_profile_tables(case)
        gap = m_gap(self.m_profile(outcome), ref)
        obs["m_ref_gap"] = gap
        tol = M_TOLERANCE_FRACTION * ref["threshold"]
        if not gap <= tol:
            failures.append(f"m differs from reference by {gap:.3e} > {tol:.1e}")
        failures += check_masses(masses)
        return failures, obs

    def case_result(self, outcome):
        """The CaseResult of a run_case or mprofile run."""
        if self.w.kind == "case":
            return outcome
        if "case" not in self.captured:
            raise RuntimeError("the CLI did not call run_case by its imported name")
        return self.captured["case"]

    def m_profile(self, outcome) -> np.ndarray:
        """The endpoint sign profile m the run produced."""
        if self.w.kind == "evolve":
            return self._final_snapshot_m()
        return self.case_result(outcome).m_end.m_values

    def threshold(self, outcome) -> float:
        """The classification threshold of the run, or its floor without analysis."""
        if self.w.kind == "evolve":
            return THRESHOLD_FLOOR * self.w.epsilon**2
        return self.case_result(outcome).record.threshold

    def resolved_band(self) -> np.ndarray:
        """Frequencies carrying data, as the package defines them."""
        cfg = nlslab.parse_config(self.text)
        grid = nlslab.make_grid(cfg.grid_n, cfg.grid_length)
        psi1_hat = nlslab.forward_ft(nlslab.build_profile(grid, cfg.psi1))
        psi2_hat = nlslab.forward_ft(nlslab.build_profile(grid, cfg.psi2))
        return nlslab.resolved_band(psi1_hat, psi2_hat)

    def _check_observers(self, failures: list[str]):
        header, data = nlslab.read_table(os.path.join(self.workdir, "observers.tsv"))
        written = self.captured.get("observers")
        if written is None:
            failures.append("observers.tsv was not written through write_table")
        elif not bitwise_equal(data, written):
            failures.append("observers.tsv does not read back bitwise")
        col = {name: data[:, i] for i, name in enumerate(header)}
        total = col["mass1"] + col["mass2"]
        ledger = total[-1] + np.trapezoid(col["dissipation_rate"], col["t"]) - total[0]
        closure = abs(ledger) / total[0]
        if not closure < LEDGER_TOLERANCE:
            failures.append(f"mass ledger closure {closure:.3e} >= {LEDGER_TOLERANCE}")
        return np.stack([col["mass1"], col["mass2"]], axis=1)

    def _final_snapshot_m(self) -> np.ndarray:
        """m_endpoint of the last snapshot block of snapshots.tsv."""
        n = self.w.grid_n
        with open(os.path.join(self.workdir, "snapshots.tsv"), "rb") as fh:
            lines = fh.read().splitlines()[-n:]
        block = np.array([line.split(b"\t") for line in lines], dtype=np.float64)
        grid = nlslab.make_grid(n, self.w.grid_length)
        u1 = nlslab.ComplexField(grid, block[:, 2] + 1j * block[:, 3])
        u2 = nlslab.ComplexField(grid, block[:, 4] + 1j * block[:, 5])
        state = nlslab.SystemState(float(block[0, 0]), u1, u2)
        return nlslab.m_endpoint(nlslab.modified_amplitudes(state)).m_values

    def _check_profile_tables(self, case) -> list[str]:
        failures = []
        _, prof = nlslab.read_table(os.path.join(self.workdir, "mprofile.tsv"))
        if not np.array_equal(prof[:, 1], case.m_end.m_values):
            failures.append("mprofile.tsv m_endpoint differs from the computed profile")
        _, cls = nlslab.read_table(os.path.join(self.workdir, "classification.tsv"))
        first = int(np.count_nonzero(cls[:, 2] == nlslab.FIRST_SURVIVES))
        second = int(np.count_nonzero(cls[:, 2] == nlslab.SECOND_SURVIVES))
        if first != second or first == 0:
            failures.append(f"first/second-survives counts {first}/{second}: want equal, nonzero")
        return failures


def check_bigbox(case) -> list[str]:
    """Scenario B: every populated-band tag is first-survives, c_quad small."""
    failures = []
    amp1 = np.abs(case.psi1_hat.values)
    strong = amp1**2 > STRONG_BAND_FRACTION * np.max(amp1) ** 2
    bad = int(np.count_nonzero(case.tags()[strong] != nlslab.FIRST_SURVIVES))
    if bad:
        failures.append(f"{bad} populated-band tags are not first-survives")
    if not case.record.c_quad < C_QUAD_LIMIT:
        failures.append(f"c_quad {case.record.c_quad:.3e} >= {C_QUAD_LIMIT}")
    return failures


def bitwise_equal(data: np.ndarray, rows) -> bool:
    written = np.asarray(rows, dtype=np.float64)
    return written.shape == data.shape and bool(
        np.array_equal(written.view(np.uint64), data.view(np.uint64))
    )


def m_gap(m_values, ref: dict) -> float:
    """Largest deviation of m from the reference on its resolved band."""
    m_values = np.asarray(m_values)
    if m_values.shape != (ref["grid_n"],):
        return float("inf")
    band = np.asarray(ref["band_index"], dtype=np.intp)
    return float(np.max(np.abs(m_values[band] - np.asarray(ref["m_band"]))))


def check_masses(masses) -> list[str]:
    """Each component's mass never rises by more than round-off."""
    arr = np.asarray(masses, dtype=np.float64)
    rise = float(np.max(np.diff(arr, axis=0), initial=0.0)) / float(arr[0].sum())
    if rise > MASS_RISE_TOLERANCE:
        return [f"component mass rose by {rise:.3e} of the initial total"]
    return []


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)
