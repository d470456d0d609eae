"""System/adjacency JSON and trajectory CSV round trips."""

from fractions import Fraction

import numpy as np
import pytest

from localspec import CoupledCellSystem, LinearSystem, coupled_cell_fixture, generate_sbm
from localspec.io import (
    EXAMPLE1_NAMES,
    example1_path,
    example1_system,
    load_adjacency,
    load_system,
    load_trajectory,
    parse_entry,
    save_adjacency,
    save_system,
    save_trajectory,
)


class TestEntryParsing:
    def test_plain_numbers(self):
        assert parse_entry(0.25) == 0.25
        assert parse_entry(3) == 3.0

    def test_rational_strings_parse_exactly(self):
        assert parse_entry("3/5") == float(Fraction(3, 5))
        assert parse_entry("-1/2") == -0.5
        assert parse_entry("-5/6") == float(Fraction(-5, 6))

    def test_garbage_rejected(self):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_entry("1/0")
        with pytest.raises(ValueError):
            parse_entry(None)


class TestSystemFiles:
    def test_linear_round_trip(self, tmp_path):
        sys = LinearSystem(np.random.default_rng(0).standard_normal((4, 4)))
        path = tmp_path / "sys.json"
        save_system(path, sys)
        loaded = load_system(path)
        assert isinstance(loaded, LinearSystem)
        assert np.array_equal(loaded.a, sys.a)

    def test_coupled_round_trip(self, tmp_path):
        sys = coupled_cell_fixture(0)
        path = tmp_path / "coupled.json"
        save_system(path, sys)
        loaded = load_system(path)
        assert isinstance(loaded, CoupledCellSystem)
        assert np.array_equal(loaded.alpha, sys.alpha)
        assert np.array_equal(loaded.coupling, sys.coupling)
        assert loaded.epsilon == sys.epsilon

    def test_dimension_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "A": [[1.0, 0.0], [0.0, 1.0]]}')
        with pytest.raises(ValueError, match="declared n"):
            load_system(path)

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"A"', "null"])
    def test_top_level_not_an_object_rejected(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="expected a JSON object"):
            load_system(path)


class TestExample1Fixtures:
    @pytest.mark.parametrize("which", EXAMPLE1_NAMES)
    def test_files_exist_and_parse(self, which):
        assert example1_path(which).exists()
        sys = example1_system(which)
        assert sys.n == 3

    def test_exact_rational_values(self):
        left = example1_system("left").a
        expected = np.array(
            [
                [float(Fraction(3, 5)), -0.5, 0.0],
                [-0.5, float(Fraction(-3, 5)), 0.0],
                [-1.0, 0.5, -0.5],
            ]
        )
        assert np.array_equal(left, expected)
        middle = example1_system("middle").a
        assert middle[0, 0] == 0.5
        assert middle[0, 1] == float(Fraction(-2, 5))
        right = example1_system("right").a
        assert right[1, 1] == float(Fraction(-1, 3))
        assert right[2, 1] == float(Fraction(-5, 6))
        assert right[2, 2] == -1.5


class TestAdjacencyFiles:
    def test_round_trip(self, tmp_path):
        w = generate_sbm([3, 3], 0.8, 0.2, 1.0, 0.4, seed=1)
        path = tmp_path / "adj.json"
        save_adjacency(path, w)
        assert np.array_equal(load_adjacency(path), w)

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"W"', "null"])
    def test_top_level_not_an_object_rejected(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="expected a JSON object"):
            load_adjacency(path)


class TestTrajectoryCsv:
    def test_header_and_round_trip(self, tmp_path):
        states = np.random.default_rng(2).standard_normal((7, 3))
        path = tmp_path / "traj.csv"
        save_trajectory(path, states)
        header = path.read_text().splitlines()[0]
        assert header == "k,x1,x2,x3"
        assert np.array_equal(load_trajectory(path), states)

    def test_seventeen_digit_fidelity(self, tmp_path):
        # values with no short decimal representation survive bit-exactly
        states = np.array([[np.pi, 1.0 / 3.0], [np.e, 2.0 / 7.0]])
        path = tmp_path / "traj.csv"
        save_trajectory(path, states)
        assert np.array_equal(load_trajectory(path), states)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match="header"):
            load_trajectory(path)

    def test_header_without_state_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k\n0\n1\n")
        with pytest.raises(ValueError, match="header"):
            load_trajectory(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            load_trajectory(path)

    @pytest.mark.parametrize("row", ["2,5.0", "2,5.0,6.0,7.0", ""])
    def test_ragged_row_rejected_naming_the_line(self, tmp_path, row):
        path = tmp_path / "ragged.csv"
        path.write_text(f"k,x1,x2\n0,1.0,2.0\n1,3.0,4.0\n{row}\n3,7.0,8.0\n")
        with pytest.raises(ValueError, match="line 4 holds"):
            load_trajectory(path)

    @pytest.mark.parametrize(
        "row, what",
        [("1,3.0", "1 values, the header names 2"), ("1,3.0,nan", "a non-finite value")],
        ids=["ragged", "nan"],
    )
    def test_line_counted_after_a_multi_line_field(self, tmp_path, row, what):
        # the quoted field spans lines 2-3, so the faulty row sits on line 4
        path = tmp_path / "multiline.csv"
        path.write_text(f'k,x1,x2\n0,"1.0\n",2\n{row}\n')
        with pytest.raises(ValueError, match=f"line 4 holds {what}"):
            load_trajectory(path)

    def test_rows_all_narrower_than_header_rejected(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("k,x1,x2,x3\n0,1.0,2.0\n1,3.0,4.0\n")
        with pytest.raises(ValueError, match="line 2 holds 2 values, the header names 3"):
            load_trajectory(path)

    @pytest.mark.parametrize(
        "value, what",
        [("nan", "a non-finite value"), ("inf", "a non-finite value"),
         ("-inf", "a non-finite value"), ("abc", "a value that is not a number .*'abc'")],
        ids=["nan", "inf", "-inf", "abc"],
    )
    def test_non_finite_value_rejected_naming_the_line(self, tmp_path, value, what):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"k,x1,x2\n0,1.0,2.0\n1,3.0,{value}\n2,{value},6.0\n")
        with pytest.raises(ValueError, match=f"line 3 holds {what}"):
            load_trajectory(path)
