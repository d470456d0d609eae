"""File formats: system/adjacency JSON, trajectory CSV, reports and tables.

Every file the package writes goes through :func:`write_json` (indent-2 JSON
with a trailing newline) or :func:`write_table` (CSV with an integer key
column). JSON matrix entries and coupled-system fields may be plain doubles
or exact-rational strings like "3/5"; rationals are parsed via fractions and
rounded once to the nearest double, so shipped fixtures are unambiguous. CSV
doubles are printed with 17 significant digits for bit-exact round trips, and
:func:`load_trajectory` reads them back as a :class:`~localspec.dynsys.Trajectory`.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from importlib import resources
from io import BytesIO
from pathlib import Path

import numpy as np

from .dynsys import CoupledCellSystem, LinearSystem, Trajectory

EXAMPLE1_NAMES = ("left", "middle", "right")


def parse_entry(value) -> float:
    """A JSON entry: a number (not a boolean), or a "p/q" rational string.

    An integer or rational beyond the largest double is a ValueError.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = value
    elif isinstance(value, str):
        try:
            number = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"entry {value!r} has a zero denominator") from None
    else:
        raise ValueError(f"entries must be numbers or 'p/q' strings, got {value!r}")
    try:
        return float(number)
    except OverflowError:
        raise ValueError("value is outside the float range") from None


def _parse_field(value, where, entry=None) -> float:
    """:func:`parse_entry`; an error names ``where`` and the 1-based ``entry``."""
    try:
        return parse_entry(value)
    except ValueError as exc:
        at = where if entry is None else f"{where} entry {entry}"
        raise ValueError(f"{at}: {exc}") from None


def _parse_entries(values, where) -> list[float]:
    if not isinstance(values, list):
        raise ValueError(f"{where} must be a list of entries, got {values!r}")
    return [_parse_field(v, where, i) for i, v in enumerate(values, start=1)]


def _parse_matrix(rows, key) -> np.ndarray:
    """The matrix under ``key``: a list of equal-length lists of entries."""
    if not isinstance(rows, list):
        raise ValueError(f"{key!r} must be a list of rows, got {rows!r}")
    parsed = []
    for i, row in enumerate(rows, start=1):
        if not isinstance(row, list) or (parsed and len(row) != len(parsed[0])):
            width = f"{len(parsed[0])} " if parsed else ""
            raise ValueError(f"{key!r} row {i} is {row!r}, not a list of {width}entries")
        parsed.append(_parse_entries(row, f"{key!r} row {i}"))
    return np.array(parsed, dtype=float)


def _load_matrix(data, key) -> np.ndarray:
    """The matrix under ``key``, checked against a declared integer ``n``."""
    m = _parse_matrix(data[key], key)
    n = data.get("n", m.shape[0])
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"'n' must be an integer, got {n!r}")
    if n != m.shape[0]:
        raise ValueError(f"declared n = {n} but {key} is {m.shape[0]}x{m.shape[1]}")
    return m


def json_text(payload) -> str:
    """The text of a JSON file or stdout report: indent 2, trailing newline.

    NaN and infinities are not JSON, so a payload holding one is a ValueError.
    """
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def write_json(path, payload) -> str:
    """Write :func:`json_text` of ``payload`` to ``path``; return that text."""
    Path(path).write_text(text := json_text(payload))  # the text exists before the file
    return text


def write_table(path, header, keys, values) -> None:
    """CSV of ``header``, then one CRLF-ended row per key: the integer key, then
    that row of the 2-D table ``values``, each float printed as ``%.17g``.
    A complex table is rejected: the caller splits it into real columns."""
    values, keys = np.asarray(values), list(keys)
    if np.iscomplexobj(values):
        raise ValueError("table values must be real, got a complex table")
    values = values.astype(float)
    if values.ndim != 2:
        raise ValueError(f"table values must be 2-D, got shape {values.shape}")
    rows, columns = values.shape
    if len(header) != 1 + columns or len(keys) != rows:
        raise ValueError(f"a {rows}x{columns} table needs {1 + columns} header names and "
                         f"{rows} keys, got {len(header)} and {len(keys)}")
    line = "%d" + ",%.17g" * columns + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(line % (key, *row.tolist()) for key, row in zip(keys, values))


def save_system(path, system: LinearSystem | CoupledCellSystem) -> None:
    if isinstance(system, LinearSystem):
        payload = {"kind": "linear", "n": system.n, "A": system.a.tolist()}
    elif isinstance(system, CoupledCellSystem):
        payload = {
            "kind": "coupled", "d": system.d,
            "alpha": system.alpha.tolist(),
            "beta": system.beta.tolist(),
            "gamma": system.gamma.tolist(),
            "S": system.coupling.tolist(),
            "epsilon": float(system.epsilon),
        }
    else:
        raise TypeError(f"cannot serialize {type(system).__name__}")
    write_json(path, payload)


def _load_object(path) -> dict:
    """The top-level JSON object of a system or adjacency file."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def load_system(path) -> LinearSystem | CoupledCellSystem:
    data = _load_object(path)
    kind = data.get("kind", "linear")
    if kind == "coupled":
        missing = [key for key in ("alpha", "beta", "gamma", "S", "epsilon") if key not in data]
        if missing:
            raise ValueError(f"coupled system file: key(s) {', '.join(map(repr, missing))} missing")
        return CoupledCellSystem(
            **{key: _parse_entries(data[key], repr(key)) for key in ("alpha", "beta", "gamma")},
            coupling=_parse_matrix(data["S"], "S"),
            epsilon=_parse_field(data["epsilon"], "'epsilon'"),
        )
    if kind == "linear":
        if "A" not in data:
            raise ValueError("not a system file: key 'A' missing (adjacency files use 'W')")
        return LinearSystem(_load_matrix(data, "A"))
    raise ValueError(f"unknown system kind {kind!r}")


def save_adjacency(path, w: np.ndarray) -> None:
    w = np.asarray(w, dtype=float)
    write_json(path, {"n": w.shape[0], "W": w.tolist()})


def load_adjacency(path) -> np.ndarray:
    data = _load_object(path)
    if "W" not in data:
        raise ValueError("not an adjacency file: key 'W' missing (system files use 'A')")
    return _load_matrix(data, "W")


def save_trajectory(path, states: np.ndarray) -> None:
    """CSV with header k,x1,...,xn and one row per time step."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    header = ["k"] + [f"x{i}" for i in range(1, states.shape[1] + 1)]
    write_table(path, header, range(states.shape[0]), states)


def load_trajectory(path) -> Trajectory:
    """The :class:`Trajectory` of a trajectory CSV, one state per time step.

    Rejects, naming the 1-based CSV line the row ends on, a row whose value
    count differs from the header's and a value that is not a number, NaN or
    infinite.

    The file is read once. Files laid out as :func:`save_trajectory` writes
    them are parsed by numpy's C reader (:func:`_parse_saved_table`); any
    other file, and every file that is rejected, goes through the csv reader,
    so both give the same states and the same messages.
    """
    with open(path, "rb") as fh:
        states = _parse_saved_table(fh.read())
    return Trajectory(_read_trajectory_csv(path) if states is None else states)


# The bytes below the header of a file save_trajectory writes: integer keys,
# %.17g doubles, commas and CRLF line ends. On these bytes numpy's parser and
# float() accept the same numbers and round them alike, which is not so for
# other bytes (np.loadtxt takes "1\x1c", float() does not).
_TABLE_BYTES = b"0123456789+-.e,\r\n"


def _parse_saved_table(data: bytes) -> np.ndarray | None:
    """The states of trajectory CSV bytes, or None where the csv reader must decide.

    The header line must be ASCII, with neither '"' nor a bare carriage
    return, so that it is the csv reader's first record; the rest must be
    :data:`_TABLE_BYTES` and start with a value, so np.loadtxt finds data.
    np.loadtxt rejects a carriage return inside a line and skips empty lines,
    which the csv reader reports; so a table with as many rows as the rest
    has lines, as wide as the header, holds every csv record. Its states are
    returned only when all are finite.
    """
    head, _, body = data.partition(b"\n")
    head = head.removesuffix(b"\r")
    if (not head.isascii() or b'"' in head or b"\r" in head
            or body[:1] in (b"", b"\r", b"\n") or body.translate(None, _TABLE_BYTES)):
        return None
    header = next(csv.reader([head.decode()]), [])
    if len(header) < 2 or header[0] != "k":
        return None
    try:
        table = np.loadtxt(BytesIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    lines = body.count(b"\n") + (not body.endswith(b"\n"))
    states = table[:, 1:]
    if table.shape != (lines, len(header)) or not np.isfinite(states).all():
        return None
    return states


def _records(reader):
    """The records of a csv reader; its csv.Error becomes a ValueError naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"trajectory CSV line {reader.line_num}: {exc}") from None


def _read_trajectory_csv(path) -> np.ndarray:
    """:func:`load_trajectory` by the csv reader: one float() per value."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        records = _records(reader)
        header = next(records, [])  # [] for an empty file
        if len(header) < 2 or header[0] != "k":
            raise ValueError("trajectory CSV must start with a 'k,x1,...' header")
        width = len(header) - 1
        rows, lines = [], []  # lines[i]: the CSV line on which rows[i] ends
        for row in records:
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


def example1_path(which: str) -> Path:
    """Path of one of the shipped 3x3 non-localizable benchmark systems."""
    if which not in EXAMPLE1_NAMES:
        raise ValueError(f"which must be one of {EXAMPLE1_NAMES}")
    return Path(str(resources.files("localspec").joinpath(f"fixtures/example1_{which}.json")))


def example1_system(which: str) -> LinearSystem:
    return load_system(example1_path(which))
