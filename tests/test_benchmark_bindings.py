"""The names the benchmark's tracer and runner bind must resolve in the package.

`perfbench/tracing.py` wraps the functions and methods it lists by module
and attribute name, and the benchmark runner patches `run_case` and
`write_table` on `nlslab.cli` by name.  A refactor that renames or moves one
of them would break the traced benchmark without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import nlslab.cli
import nlslab.experiments
import nlslab.tables

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_methods_resolve():
    tracing = _load_tracing()
    assert tracing.FUNCTIONS and tracing.METHODS
    for span, module, attr in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), span
    for span, module, cls, method in tracing.METHODS:
        owner = getattr(importlib.import_module(module), cls, None)
        assert callable(getattr(owner, method, None)), span


def test_cli_binds_the_package_functions_the_runner_patches():
    assert nlslab.cli.run_case is nlslab.experiments.run_case
    assert nlslab.cli.write_table is nlslab.tables.write_table
