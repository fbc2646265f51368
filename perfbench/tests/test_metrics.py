import json
import os

from metrics import END_TO_END, NAME_RE, PER_LAYER
from run import upper_quartile
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNIT_RE = r"^[A-Za-z0-9_/%.-]{1,16}$"


def load_benchmark():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_valid_and_unique():
    names = [name for name, _, _ in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert all(NAME_RE.match(name) for name in names), names
    assert len(names) == len(set(names))


def test_units_and_directions_are_valid():
    import re

    for _, unit, better in END_TO_END + PER_LAYER:
        assert re.match(UNIT_RE, unit)
        assert better in ("lower", "higher")


def test_benchmark_json_lists_the_printed_metrics():
    bench = load_benchmark()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_upper_quartile_of_run_walls():
    assert upper_quartile([5.0, 1.0, 3.0, 2.0, 4.0]) == 4.0
    assert upper_quartile([2.5]) == 2.5
