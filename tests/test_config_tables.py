import os

import numpy as np
import pytest

from nlslab import (
    ConfigError,
    ProfileSpec,
    RunConfig,
    SCENARIO_A,
    SCENARIO_B,
    parse_config,
    read_table,
    serialize_config,
    write_table,
)
import nlslab.tables
from nlslab.config import ZERO_PROFILE
from nlslab.tables import block_formatter, open_table

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()
        assert parse_config("\n# only a comment\n\n") == RunConfig()

    def test_default_epsilon_behavior(self):
        cfg = parse_config("")
        assert cfg.epsilons is None
        assert cfg.epsilon_single() == 0.1
        assert len(cfg.epsilon_sweep()) == 5

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError) as err:
            parse_config("grid.n = 1000")
        assert err.value.line == 1

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("grid.n = 64\nbogus.key = 3\n")
        assert err.value.line == 2
        assert "unknown key" in str(err.value)

    def test_malformed_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("time.dt = fast")
        assert "malformed number" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("grid.n = 64\ngrid.n = 128\n")

    def test_range_validation(self):
        for bad in (
            "grid.length = 0",
            "time.dt = -0.1",
            "time.snapshot_ratio = 1.0",
            "time.growth_cap = 0",
            "time.t_final = -5",
            "epsilon = -0.1",
        ):
            with pytest.raises(ConfigError):
                parse_config(bad)

    @pytest.mark.parametrize(
        "line",
        [
            "grid.length = inf",
            "time.dt = nan",
            "time.t_final = inf",
            "time.snapshot_ratio = nan",
            "time.grow_after = nan",
            "time.growth_cap = nan",
            "data.psi1 = gaussian(nan, 1, 0, 0)",
            "data.psi1 = gaussian(1, 1, inf, 0)",
            "data.psi2 = gaussian(1, 1, nan, 0)",
            "data.psi2 = gaussian(1, 1, 0, inf)",
        ],
    )
    def test_non_finite_values_rejected(self, line):
        with pytest.raises(ConfigError) as err:
            parse_config(line)
        assert err.value.line == 1
        assert line.split(" = ")[0] + " must" in str(err.value)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("epsilon = ,", "epsilon needs at least one value"),
            ("outputs.directory =", "outputs.directory must not be empty"),
            ("data.psi1 = gaussian(1+, 1, 0, 0)", "malformed amplitude '1+'"),
        ],
        ids=["epsilon", "directory", "amplitude"],
    )
    def test_empty_or_malformed_value_rejected(self, line, message):
        with pytest.raises(ConfigError) as err:
            parse_config(line)
        assert err.value.line == 1
        assert message in str(err.value)

    def test_unknown_profile_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown profile kind 'box'"):
            ProfileSpec(kind="box")

    def test_profile_parsing(self):
        cfg = parse_config("data.psi1 = gaussian(0.5+0.5j, 2, -1, 3)\ndata.psi2 = zero\n")
        assert cfg.psi1 == ProfileSpec("gaussian", 0.5 + 0.5j, 2.0, -1.0, 3.0)
        assert cfg.psi2.kind == "zero"

    def test_profile_errors(self):
        with pytest.raises(ConfigError):
            parse_config("data.psi1 = gaussian(1, 1)")
        with pytest.raises(ConfigError):
            parse_config("data.psi1 = gaussian(1, -1, 0, 0)")
        with pytest.raises(ConfigError):
            parse_config("data.psi1 = lorentzian(1, 1, 0, 0)")

    def test_epsilon_list(self):
        cfg = parse_config("epsilon = 0.05, 0.1, 0.2")
        assert cfg.epsilons == (0.05, 0.1, 0.2)
        with pytest.raises(ConfigError):
            cfg.epsilon_single()

    def test_tables_subset(self):
        cfg = parse_config("outputs.tables = mprofile, classification")
        assert cfg.tables == ("mprofile", "classification")
        with pytest.raises(ConfigError):
            parse_config("outputs.tables = mprofile, plots")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError) as err:
            parse_config("grid.n 64")
        assert err.value.line == 1

    def test_grow_after_accepts_inf(self):
        cfg = parse_config("time.grow_after = inf")
        assert np.isinf(cfg.grow_after)

    def test_scenario_b_fixture_matches_constant(self):
        with open(os.path.join(DATA_DIR, "scenario_b.cfg")) as fh:
            cfg = parse_config(fh.read())
        assert cfg == SCENARIO_B


class TestSerializeConfig:
    def test_default_round_trip(self):
        cfg = RunConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_exotic_round_trip(self):
        cfg = RunConfig(
            grid_n=128,
            grid_length=17.25,
            dt=0.0043,
            t_final=123.456,
            snapshot_ratio=1.37,
            grow_after=float("inf"),
            growth_cap=0.021,
            psi1=ProfileSpec("gaussian", 0.3 - 0.7j, 2.5, -3.0, 1.5),
            psi2=ProfileSpec(kind="zero", amplitude=0.0),
            epsilons=(0.05, 0.1 * np.sqrt(2.0)),
            output_dir="results/run1",
            tables=("mprofile",),
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_zero_profile_round_trip(self):
        # a zero profile's other fields are not written, so every zero profile is one value
        cfg = RunConfig(psi2=ProfileSpec(kind="zero"))
        assert parse_config(serialize_config(cfg)) == cfg
        assert ProfileSpec("zero", 2.0, 3.0, -1.0, 4.0) == cfg.psi2 == ZERO_PROFILE

    def test_scenario_a_text_is_pinned(self):
        assert serialize_config(SCENARIO_A) == (
            "grid.n = 4096\n"
            "grid.length = 256\n"
            "time.dt = 0.02\n"
            "time.t_final = 400\n"
            "time.snapshot_ratio = 1.189207115002721\n"
            "time.grow_after = 2\n"
            "time.growth_cap = 0.050000000000000003\n"
            "data.psi1 = gaussian(1, 1, 0, 2)\n"
            "data.psi2 = gaussian(1, 1, 0, -2)\n"
            "epsilon = 0.10000000000000001\n"
            "outputs.directory = out\n"
            "outputs.tables = observers, snapshots, mprofile, classification, sweep, orderfit\n"
        )

    def test_unbounded_growth_text_is_pinned(self):
        assert serialize_config(RunConfig(grow_after=float("inf"))) == (
            "grid.n = 4096\n"
            "grid.length = 256\n"
            "time.dt = 0.02\n"
            "time.t_final = 400\n"
            "time.snapshot_ratio = 1.189207115002721\n"
            "time.grow_after = inf\n"
            "time.growth_cap = 0.050000000000000003\n"
            "data.psi1 = gaussian(1, 1, 0, 0)\n"
            "data.psi2 = gaussian(0.5, 1, 0, 0)\n"
            "outputs.directory = out\n"
            "outputs.tables = observers, snapshots, mprofile, classification, sweep, orderfit\n"
        )

    def test_seventeen_digit_floats_survive(self):
        cfg = RunConfig(dt=0.1 / 3.0, snapshot_ratio=2.0**0.25)
        back = parse_config(serialize_config(cfg))
        assert back.dt == cfg.dt
        assert back.snapshot_ratio == cfg.snapshot_ratio


class TestTables:
    def test_round_trip_random_doubles_bitwise(self, tmp_path, rng):
        vals = rng.standard_normal(60).reshape(12, 5)
        vals[0, 0] = 1.0 / 3.0
        vals[1, 1] = np.pi * 1e-300
        vals[2, 2] = -np.pi * 1e300
        path = str(tmp_path / "table.tsv")
        write_table(path, ["a", "b", "c", "d", "e"], vals)
        header, back = read_table(path)
        assert header == ["a", "b", "c", "d", "e"]
        assert np.array_equal(back, vals)

    def test_empty_rows_header_only(self, tmp_path):
        path = str(tmp_path / "empty.tsv")
        write_table(path, ["x", "y"], [])
        with open(path) as fh:
            content = fh.read()
        assert content == "# x\ty\n"
        header, rows = read_table(path)
        assert header == ["x", "y"]
        assert rows.shape == (0, 2)

    @pytest.mark.parametrize("row", [(1.0, 2.0, 3.0), (1.0,)])
    def test_ragged_row_rejected_on_write(self, tmp_path, row):
        path = str(tmp_path / "ragged.tsv")
        with pytest.raises(TypeError):
            write_table(path, ["a", "b"], [(0.5, 0.25), row])
        # the row before the ragged one is not left behind
        assert not os.path.exists(path)

    def test_write_onto_a_full_disk_leaves_no_file(self, tmp_path, full_disk):
        full_disk(nlslab.tables)
        path = str(tmp_path / "full.tsv")
        with pytest.raises(OSError, match="cannot write table .*No space left on device"):
            write_table(path, ["a", "b"], [(0.5, 0.25)] * 3)
        assert os.listdir(tmp_path) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_header_write_leaves_no_file(self, tmp_path, monkeypatch):
        def open_on_a_full_disk(*args, **kwargs):
            fh = open(*args, **kwargs)
            full = os.open("/dev/full", os.O_WRONLY)
            os.dup2(full, fh.fileno())
            os.close(full)
            return fh

        monkeypatch.setattr(nlslab.tables, "open", open_on_a_full_disk, raising=False)
        with pytest.raises(OSError, match="cannot write table .*No space left on device"):
            write_table(str(tmp_path / "header.tsv"), ["a"], [])
        assert os.listdir(tmp_path) == []

    def test_block_formatter_matches_write_table(self, tmp_path, rng):
        # reference: write_table's row-at-a-time format over the full six columns
        x = rng.standard_normal(7)
        x[0] = -0.0
        blocks = [(1.0 / 3.0, rng.standard_normal(28)), (np.pi * 1e300, rng.standard_normal(28))]
        blocks[1][1][:5] = [np.inf, -np.inf, np.nan, 5e-324, -0.0]
        path = str(tmp_path / "rows.tsv")
        rows = [(t, x[k], *v[4 * k : 4 * k + 4]) for t, v in blocks for k in range(len(x))]
        write_table(path, ["t", "x", "a", "b", "c", "d"], rows)
        format_block = block_formatter(x)
        with open(path) as fh:
            assert fh.read() == "# t\tx\ta\tb\tc\td\n" + "".join(format_block(t, v) for t, v in blocks)

    def test_open_table_writes_the_header_before_any_row(self, tmp_path):
        path = str(tmp_path / "blocks.tsv")
        with open_table(path, ["t", "x"]) as fh:
            with open(path) as reader:
                assert reader.read() == "# t\tx\n"
        with pytest.raises(OSError, match="cannot write table"):
            with open_table(str(tmp_path), ["t"]):
                pass

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.tsv"
        path.write_text("# a\tb\n1\t2\n\n  \n3\t4\n")
        header, rows = read_table(str(path))
        assert header == ["a", "b"]
        assert np.array_equal(rows, [[1.0, 2.0], [3.0, 4.0]])

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t2\n")
        with pytest.raises(ValueError):
            read_table(str(path))

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "ragged.tsv"
        path.write_text("# a\tb\n1\t2\t3\n")
        with pytest.raises(ValueError) as err:
            read_table(str(path))
        assert "ragged.tsv:2" in str(err.value)

    def test_malformed_value_has_path_context(self, tmp_path):
        path = tmp_path / "words.tsv"
        path.write_text("# a\nhello\n")
        with pytest.raises(ValueError) as err:
            read_table(str(path))
        assert "words.tsv" in str(err.value)

    def test_read_error_has_path_context(self, tmp_path):
        with pytest.raises(OSError) as err:
            read_table(str(tmp_path / "absent.tsv"))
        assert "absent.tsv" in str(err.value)
