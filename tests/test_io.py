"""System/adjacency JSON and trajectory CSV round trips."""

import csv
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from localspec import (CoupledCellSystem, LinearSystem, Trajectory, coupled_cell_fixture,
                       generate_sbm, io)
from localspec.io import (
    EXAMPLE1_NAMES,
    example1_path,
    example1_system,
    load_adjacency,
    load_system,
    _parse_matrix,
    load_trajectory,
    parse_entry,
    save_adjacency,
    save_system,
    save_trajectory,
    write_json,
    write_table,
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


class TestMatrixParsing:
    @pytest.mark.parametrize("rows, row, what", [
        ([[1, 2], [3]], 2, "not a list of 2 entries"),
        ([1, 2], 1, "not a list of entries"),
        ([[1, "1/0"]], 1, "zero denominator"),
        ([[1.0, True]], 1, "got True"),
    ])
    def test_bad_row_named(self, rows, row, what):
        with pytest.raises(ValueError, match=f"'A' row {row}.*{what}"):
            _parse_matrix(rows, "A")

    def test_matrix_that_is_not_a_list_rejected(self):
        with pytest.raises(ValueError, match="'A' must be a list of rows, got 3"):
            _parse_matrix(3, "A")

    @pytest.mark.parametrize("value, what", [(True, "got True"), ("1/0", "zero denominator")])
    def test_entry_rejected(self, value, what):
        with pytest.raises(ValueError, match=what):
            parse_entry(value)

    @pytest.mark.parametrize("key, loader", [("A", load_system), ("W", load_adjacency)])
    def test_ragged_file_rejected_naming_the_row(self, tmp_path, key, loader):
        path = tmp_path / "ragged.json"
        path.write_text(f'{{"{key}": [[1, 2], [3]]}}')
        with pytest.raises(ValueError, match=f"'{key}' row 2 is \\[3\\]"):
            loader(path)


# JSON integer text beyond the largest double, about 1.8e308
HUGE = "1" + "0" * 400


class TestEntriesOutsideTheFloatRange:
    @pytest.mark.parametrize("value", [int(HUGE), -int(HUGE), f"{HUGE}/3", f"-{HUGE}/3"],
                             ids=["integer", "negative", "rational", "negative-rational"])
    def test_parse_entry_rejects(self, value):
        with pytest.raises(ValueError, match="value is outside the float range"):
            parse_entry(value)

    @pytest.mark.parametrize("entry", [HUGE, f'"{HUGE}/3"'], ids=["integer", "rational"])
    @pytest.mark.parametrize("key, loader", [("A", load_system), ("W", load_adjacency)])
    def test_file_rejected_naming_the_entry(self, tmp_path, key, loader, entry):
        path = tmp_path / "huge.json"
        path.write_text(f'{{"{key}": [[1, 0], [{entry}, 1]]}}')
        with pytest.raises(ValueError,
                           match=f"'{key}' row 2 entry 1: value is outside the float range"):
            loader(path)

    def test_coupled_field_rejected_naming_the_key(self, tmp_path):
        path = tmp_path / "coupled.json"
        payload = json.dumps(_coupled_payload(tmp_path, epsilon="EPSILON"))
        path.write_text(payload.replace('"EPSILON"', HUGE))
        with pytest.raises(ValueError, match="'epsilon': value is outside the float range"):
            load_system(path)


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


def _coupled_payload(tmp_path, **changes):
    """A saved coupled_cell_fixture(0) as a JSON object, with ``changes`` applied."""
    save_system(tmp_path / "fixture.json", coupled_cell_fixture(0))
    return {**json.loads((tmp_path / "fixture.json").read_text()), **changes}


class TestCoupledFields:
    """Per-cell vectors and epsilon go through parse_entry, naming key and entry."""

    def test_rational_strings_parse_exactly(self, tmp_path):
        d = coupled_cell_fixture(0).d
        path = tmp_path / "coupled.json"
        payload = _coupled_payload(tmp_path, alpha=["1/3"] * d, epsilon="1/10")
        path.write_text(json.dumps(payload))
        loaded = load_system(path)
        assert np.array_equal(loaded.alpha, np.full(d, float(Fraction(1, 3))))
        assert loaded.epsilon == float(Fraction(1, 10))

    @pytest.mark.parametrize("key, value, what", [
        ("alpha", True, "'alpha' entry 2: .*got True"),
        ("beta", [1, 2], r"'beta' entry 2: .*got \[1, 2\]"),
        ("gamma", "1/0", "'gamma' entry 2: .*zero denominator"),
        ("alpha", "x", "'alpha' entry 2: .*'x'"),
    ])
    def test_bad_entry_named(self, tmp_path, key, value, what):
        entries = _coupled_payload(tmp_path)[key]
        entries[1] = value
        path = tmp_path / "coupled.json"
        path.write_text(json.dumps(_coupled_payload(tmp_path, **{key: entries})))
        with pytest.raises(ValueError, match=what):
            load_system(path)

    @pytest.mark.parametrize("value, what", [
        (True, "got True"), (None, "got None"), ("1/0", "zero denominator"), ([0.1], "got"),
    ])
    def test_bad_epsilon_named(self, tmp_path, value, what):
        path = tmp_path / "coupled.json"
        path.write_text(json.dumps(_coupled_payload(tmp_path, epsilon=value)))
        with pytest.raises(ValueError, match=f"'epsilon': .*{what}"):
            load_system(path)

    def test_vector_that_is_not_a_list_rejected(self, tmp_path):
        path = tmp_path / "coupled.json"
        path.write_text(json.dumps(_coupled_payload(tmp_path, gamma=0.5)))
        with pytest.raises(ValueError, match="'gamma' must be a list of entries, got 0.5"):
            load_system(path)

    @pytest.mark.parametrize("absent", [["S"], ["epsilon"], ["alpha", "S", "epsilon"]],
                             ids=["S", "epsilon", "three"])
    def test_missing_keys_named(self, tmp_path, absent):
        payload = _coupled_payload(tmp_path)
        for key in absent:
            del payload[key]
        path = tmp_path / "coupled.json"
        path.write_text(json.dumps(payload))
        named = ", ".join(map(repr, absent))
        with pytest.raises(ValueError, match=re.escape(f"key(s) {named} missing")):
            load_system(path)


class TestDeclaredN:
    @pytest.mark.parametrize("key, loader", [("A", load_system), ("W", load_adjacency)])
    @pytest.mark.parametrize("n", [2.7, 2.0, "x", "2", True, None])
    def test_non_integer_n_rejected(self, tmp_path, key, loader, n):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": n, key: [[1.0, 0.0], [0.0, 1.0]]}))
        with pytest.raises(ValueError, match="'n' must be an integer, got"):
            loader(path)

    @pytest.mark.parametrize("key, loader", [("A", load_system), ("W", load_adjacency)])
    def test_integer_n_checked_against_the_matrix(self, tmp_path, key, loader):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, key: [[1.0, 0.0], [0.0, 1.0]]}))
        loader(path)
        path.write_text(json.dumps({"n": 3, key: [[1.0, 0.0], [0.0, 1.0]]}))
        with pytest.raises(ValueError, match=f"declared n = 3 but {key} is 2x2"):
            loader(path)


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
        assert np.array_equal(load_trajectory(path).states, states)

    def test_seventeen_digit_fidelity(self, tmp_path):
        # values with no short decimal representation survive bit-exactly
        states = np.array([[np.pi, 1.0 / 3.0], [np.e, 2.0 / 7.0]])
        path = tmp_path / "traj.csv"
        save_trajectory(path, states)
        assert np.array_equal(load_trajectory(path).states, states)

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

    def test_field_beyond_the_csv_reader_limit_rejected_naming_the_line(self, tmp_path):
        # the quote sends the file to the csv reader, which caps a field at 131072 characters
        path = tmp_path / "long.csv"
        path.write_text(f'k,x1\n0,1.0\n1,"{"0" * 140_000}1"\n')
        with pytest.raises(ValueError, match="trajectory CSV line 3: field larger than field limit"):
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

    @pytest.mark.parametrize("quoted", [False, True], ids=["saved", "quoted"])
    def test_loads_a_read_only_trajectory_on_both_parser_paths(self, tmp_path, monkeypatch,
                                                               quoted):
        # numpy's reader parses a saved file; quoted numbers only the csv reader accepts
        states = np.array([[np.pi, -1.0 / 3.0, 2.5], [np.e, 0.0, -7e-300]])
        path = tmp_path / "traj.csv"
        save_trajectory(path, states)
        if quoted:
            path.write_text(re.sub(r",([^,\n]+)", r',"\1"', path.read_text()))
        read_by_csv, csv_reader = [], io._read_trajectory_csv
        monkeypatch.setattr(io, "_read_trajectory_csv",
                            lambda p: read_by_csv.append(p) or csv_reader(p))
        traj = load_trajectory(path)
        assert read_by_csv == ([path] if quoted else [])
        assert isinstance(traj, Trajectory)
        assert not traj.states.flags.writeable
        assert traj.states.view(np.int64).tobytes() == states.view(np.int64).tobytes()
        for v in range(1, 4):
            assert traj.local(v).tobytes() == states[:, v - 1].tobytes()


def _oracle_table(path, header, keys, values):
    """The earlier writer: csv.writer with format(x, ".17g") per value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for key, row in zip(keys, values):
            writer.writerow([key] + [format(float(v), ".17g") for v in row])


EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]
doubles = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(EDGE_DOUBLES))


@st.composite
def tables(draw):
    """(rows, columns) float tables of small size, with edge doubles mixed in."""
    rows, columns = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = draw(st.lists(doubles, min_size=rows * columns, max_size=rows * columns))
    return np.array(cells, dtype=float).reshape(rows, columns)


class TestWriteTable:
    @pytest.mark.parametrize("header, keys, values, what", [
        (["k", "x1"], range(3), np.zeros(3), r"must be 2-D, got shape \(3,\)"),
        (["k", "x1"], range(2), np.zeros((3, 1)), "needs 2 header names and 3 keys, got 2 and 2"),
        (["k", "x1", "x2"], range(3), np.zeros((3, 1)),
         "needs 2 header names and 3 keys, got 3 and 3"),
    ], ids=["1-D", "short keys", "wide header"])
    def test_shape_mismatch_rejected(self, tmp_path, header, keys, values, what):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=what):
            write_table(path, header, keys, values)
        assert not path.exists()

    def test_complex_table_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="must be real"):
            write_table(path, ["k", "x1"], [0], np.array([[1 + 2j]]))
        assert not path.exists()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=tables(), numpy_keys=st.booleans(), data=st.data())
    def test_bytes_match_the_csv_writer(self, tmp_path, values, numpy_keys, data):
        keys = data.draw(st.lists(st.integers(-2**63, 2**63 - 1),
                                  min_size=len(values), max_size=len(values)))
        if numpy_keys:
            keys = np.array(keys, dtype=np.int64)
        header = ["k"] + data.draw(st.lists(st.text('ab,"\n ', max_size=3),
                                            min_size=values.shape[1],
                                            max_size=values.shape[1]))
        write_table(tmp_path / "new.csv", header, keys, values)
        _oracle_table(tmp_path / "old.csv", header, keys, values)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(states=tables())
    def test_trajectory_round_trip_is_bit_exact(self, tmp_path, states):
        path = tmp_path / "traj.csv"
        save_trajectory(path, states)
        assert np.array_equal(load_trajectory(path).states.view(np.int64), states.view(np.int64))


def _oracle_load_trajectory(path) -> np.ndarray:
    """The earlier loader: csv.reader with one float() per value."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # [] for an empty file
        if len(header) < 2 or header[0] != "k":
            raise ValueError("trajectory CSV must start with a 'k,x1,...' header")
        width = len(header) - 1
        rows, lines = [], []  # lines[i]: the CSV line on which rows[i] ends
        for row in reader:
            values = row[1:]
            if len(values) != width:
                raise ValueError(f"trajectory CSV line {reader.line_num} holds "
                                 f"{len(values)} values, the header names {width}")
            try:
                rows.append([float(v) for v in values])
            except ValueError as exc:  # float() names the value, the reader the line
                raise ValueError(
                    f"trajectory CSV line {reader.line_num} holds a value that is not a "
                    f"number ({exc})"
                ) from None
            lines.append(reader.line_num)
    if not rows:
        raise ValueError("trajectory CSV holds no states")
    states = np.array(rows, dtype=float)
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        line = lines[int(np.argmin(finite))]
        raise ValueError(f"trajectory CSV line {line} holds a non-finite value")
    return states


def _load_outcome(load, path):
    """What ``load`` gives for ``path``: the states' shape and bits, or the error."""
    try:
        states = load(path)
    except Exception as exc:  # csv.Error and UnicodeDecodeError must match as well
        return type(exc), str(exc)
    return states.shape, states.view(np.int64).tobytes()


def _assert_loads_as_the_oracle(path):
    loaded = _load_outcome(lambda p: load_trajectory(p).states, path)
    assert loaded == _load_outcome(_oracle_load_trajectory, path)


# The characters of trajectory files and of their usual faults, and control
# and non-ASCII characters that float() and np.loadtxt strip differently.
CSV_ALPHABET = '0123456789.,-+enaifkx_"\r\n \t\x0b\x0c\x1c\x00\xe9\ufeff'
# Rows of numbers, faulty numbers and blank lines, so that drawn texts are
# often tables and often fail in one place only.
csv_fields = st.one_of(st.sampled_from(["0", "-1.5", "2e-3", "+4", "1e308"]),
                       st.sampled_from(["1_0", " 5", "6\t", "7\x1c", "\x0c8", "nan", "-inf", "1e999",
                                        '"9"', "k", "\ufeff1", "1\x00", ""]))
csv_rows = st.one_of(
    st.tuples(st.lists(csv_fields, min_size=2, max_size=3).map(",".join),
              st.sampled_from(["\n", "\r\n", "\r", ""])).map("".join),
    st.sampled_from(["\n", "\r\n", " \n", "\r"]))


class TestTrajectoryLoaderMatchesTheCsvReader:
    """load_trajectory gives the csv reader's bits or the csv reader's error."""

    @pytest.mark.parametrize("text, expected", [
        ("k,x1\r\n0,1\r\n\r\n1,2\r\n", "line 3 holds 0 values, the header names 1"),
        ("k,x1\n0,1\n  \n1,2\n", "line 3 holds 0 values, the header names 1"),
        ("k,x1\n0,1\n\r", "line 3 holds 0 values, the header names 1"),
        ('k,x1,x2\n0,"1.0\n",2\n1,3,4\n', [[1.0, 2.0], [3.0, 4.0]]),
        ("k,x1\nzero,1\none,2\n", [[1.0], [2.0]]),
        ("k,x1\n0,1_000\n", [[1000.0]]),
        ("k,x1\n0,1\x1c\n", "line 2 holds a value that is not a number"),
        ("k,x1,x2\r\n0,1,2\r\n1,3,4", [[1.0, 2.0], [3.0, 4.0]]),
        ("k,x1,x2\n0,1,2\n1,3,4", [[1.0, 2.0], [3.0, 4.0]]),
        ("k,x1\r0,1\r1,2\r", [[1.0], [2.0]]),
        ("k,x1\n0,1\n1,1e999\n", "line 3 holds a non-finite value"),
        ("k,x1,x2\r\n", "holds no states"),
        ("k,x1,x2", "holds no states"),
        ("\ufeffk,x1\n0,1\n", "must start with a 'k,x1,...' header"),
        ("k,x1\r0,1\n1,2\n", [[1.0], [2.0]]),
        ('k,"x1\n0,1\n', "holds no states"),
        ('k,"x\n1",x2\n0,1,2\n', [[1.0, 2.0]]),
        (b"k," + b"x" * 9000 + b"\xff\n0,1\n", "can't decode byte 0xff"),
    ], ids=["blank line", "whitespace line", "carriage-return line", "multi-line field",
            "non-numeric k", "underscore", "file separator", "CRLF, no last newline",
            "LF, no last newline", "bare CR", "overflow", "header only",
            "header only, no newline", "BOM", "CR in header", "unclosed quote in header",
            "multi-line header", "long non-UTF-8 header"])
    def test_pinned_case(self, tmp_path, text, expected):
        path = tmp_path / "t.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        _assert_loads_as_the_oracle(path)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=re.escape(expected)):
                load_trajectory(path)
        else:
            assert np.array_equal(load_trajectory(path).states, expected)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(header=st.sampled_from(["", "k,x1\n", "k,x1,x2\r\n", "k,x1,x2\n"]),
           text=st.one_of(st.text(CSV_ALPHABET, max_size=40),
                          st.lists(csv_rows, max_size=4).map("".join)))
    def test_drawn_text(self, tmp_path, header, text):
        path = tmp_path / "t.csv"
        path.write_bytes((header + text).encode())
        _assert_loads_as_the_oracle(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(states=tables(), data=st.data())
    def test_mutated_saved_file(self, tmp_path, states, data):
        path = tmp_path / "t.csv"
        save_trajectory(path, states)
        text = path.read_bytes().decode()
        for _ in range(data.draw(st.integers(1, 3))):
            # a field's edges, where float() and np.loadtxt strip what they strip
            edges = [i + side for i, c in enumerate(text) if c in ",\r\n" for side in (0, 1)]
            at = data.draw(st.one_of(st.integers(0, len(text)), st.sampled_from(edges)))
            edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
            char = data.draw(st.sampled_from(CSV_ALPHABET))
            text = text[:at] + (char if edit != "delete" else "") + text[at + (edit != "insert"):]
        path.write_bytes(text.encode())
        _assert_loads_as_the_oracle(path)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(states=tables())
    def test_saved_files_never_reach_the_csv_reader(self, tmp_path, monkeypatch, states):
        def fail(path):
            raise AssertionError(f"{path} went to the csv reader")

        monkeypatch.setattr("localspec.io._read_trajectory_csv", fail)
        path = tmp_path / "t.csv"
        save_trajectory(path, states)
        loaded = load_trajectory(path).states
        assert loaded.flags.c_contiguous
        assert np.array_equal(loaded.view(np.int64), states.view(np.int64))


class TestWriteJson:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_without_a_file(self, tmp_path, bad):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            write_json(path, {"singular_values": [1.0, float(bad)]})
        assert not path.exists()

    def test_returns_the_text_it_wrote(self, tmp_path):
        path = tmp_path / "report.json"
        payload = {"eigenvalues": [0.5, -1.0 / 3.0], "localizable": True}
        text = write_json(path, payload)
        assert text == path.read_text() == json.dumps(payload, indent=2) + "\n"
