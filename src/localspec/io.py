"""File formats: system/adjacency JSON, trajectory CSV, reports and tables.

Every file the package writes goes through :func:`write_json` (indent-2 JSON
with a trailing newline) or :func:`write_table` (CSV with an integer key
column). Matrix entries in JSON may be plain doubles or exact-rational
strings like "3/5"; rationals are parsed via fractions and rounded once to
the nearest double, so shipped fixtures are unambiguous. CSV doubles are
printed with 17 significant digits for bit-exact round trips.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from .dynsys import CoupledCellSystem, LinearSystem

EXAMPLE1_NAMES = ("left", "middle", "right")


def parse_entry(value) -> float:
    """A JSON matrix entry: a number (not a boolean), or a "p/q" rational string."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except ZeroDivisionError:
            raise ValueError(f"matrix entry {value!r} has a zero denominator") from None
    raise ValueError(f"matrix entries must be numbers or 'p/q' strings, got {value!r}")


def _parse_matrix(rows, key) -> np.ndarray:
    """The matrix under ``key``: a list of equal-length lists of entries."""
    if not isinstance(rows, list):
        raise ValueError(f"{key!r} must be a list of rows, got {rows!r}")
    parsed = []
    for i, row in enumerate(rows, start=1):
        if not isinstance(row, list) or (parsed and len(row) != len(parsed[0])):
            width = f"{len(parsed[0])} " if parsed else ""
            raise ValueError(f"{key!r} row {i} is {row!r}, not a list of {width}entries")
        try:
            parsed.append([parse_entry(v) for v in row])
        except ValueError as exc:
            raise ValueError(f"{key!r} row {i}: {exc}") from None
    return np.array(parsed, dtype=float)


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def json_text(payload) -> str:
    """The text of a JSON file or stdout report: indent 2, trailing newline."""
    return json.dumps(payload, indent=2) + "\n"


def write_json(path, payload) -> None:
    Path(path).write_text(json_text(payload))


def write_table(path, header, keys, values) -> None:
    """CSV of ``header``, then one row per key: the integer key, then that
    row of ``values`` printed by :func:`format_float`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for key, row in zip(keys, values):
            writer.writerow([key] + [format_float(v) for v in row])


def _matrix_payload(a: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in a]


def save_system(path, system: LinearSystem | CoupledCellSystem) -> None:
    if isinstance(system, LinearSystem):
        payload = {"kind": "linear", "n": system.n, "A": _matrix_payload(system.a)}
    elif isinstance(system, CoupledCellSystem):
        payload = {
            "kind": "coupled",
            "d": system.d,
            "alpha": [float(v) for v in system.alpha],
            "beta": [float(v) for v in system.beta],
            "gamma": [float(v) for v in system.gamma],
            "S": _matrix_payload(system.coupling),
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
        return CoupledCellSystem(
            alpha=np.array(data["alpha"], dtype=float),
            beta=np.array(data["beta"], dtype=float),
            gamma=np.array(data["gamma"], dtype=float),
            coupling=_parse_matrix(data["S"], "S"),
            epsilon=float(data["epsilon"]),
        )
    if kind == "linear":
        if "A" not in data:
            raise ValueError(
                "not a system file: key 'A' missing (adjacency files use 'W')"
            )
        a = _parse_matrix(data["A"], "A")
        if "n" in data and int(data["n"]) != a.shape[0]:
            raise ValueError(f"declared n = {data['n']} but A is {a.shape[0]}x{a.shape[1]}")
        return LinearSystem(a)
    raise ValueError(f"unknown system kind {kind!r}")


def save_adjacency(path, w: np.ndarray) -> None:
    w = np.asarray(w, dtype=float)
    write_json(path, {"n": w.shape[0], "W": _matrix_payload(w)})


def load_adjacency(path) -> np.ndarray:
    data = _load_object(path)
    if "W" not in data:
        raise ValueError("not an adjacency file: key 'W' missing (system files use 'A')")
    w = _parse_matrix(data["W"], "W")
    if "n" in data and int(data["n"]) != w.shape[0]:
        raise ValueError(f"declared n = {data['n']} but W is {w.shape[0]}x{w.shape[1]}")
    return w


def save_trajectory(path, states: np.ndarray) -> None:
    """CSV with header k,x1,...,xn and one row per time step."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    header = ["k"] + [f"x{i}" for i in range(1, states.shape[1] + 1)]
    write_table(path, header, range(states.shape[0]), states)


def load_trajectory(path) -> np.ndarray:
    """States of a trajectory CSV, one row per time step.

    Rejects, naming the 1-based CSV line the row ends on, a row whose value
    count differs from the header's and a value that is not a number, NaN or
    infinite.
    """
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


def example1_path(which: str) -> Path:
    """Path of one of the shipped 3x3 non-localizable benchmark systems."""
    if which not in EXAMPLE1_NAMES:
        raise ValueError(f"which must be one of {EXAMPLE1_NAMES}")
    return Path(str(resources.files("localspec").joinpath(f"fixtures/example1_{which}.json")))


def example1_system(which: str) -> LinearSystem:
    return load_system(example1_path(which))
