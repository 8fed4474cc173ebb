"""JSON and CSV interchange formats.

Matrices travel as ``{"dim": d, "entries": [[[re, im], ...], ...]}`` with
row-major entries and complex cells as ``[re, im]`` pairs; coordinate
vectors as ``{"dim": d, "components": [...]}``; measurements as
``{"dim": d, "kraus": [...]}`` or ``{"dim": d, "effects": [...]}`` whose
elements are entries arrays (or full matrix objects).  Non-finite numbers
are rejected on input.  All numeric output carries 12 significant digits.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .measurement import GeneralizedMeasurement, Povm
from .tradeoff import ClosedFormTable

__all__ = [
    "InputFormatError",
    "load_json",
    "dump_json",
    "dump_matrix_json",
    "matrix_to_obj",
    "matrix_from_obj",
    "vector_to_obj",
    "vector_from_obj",
    "measurement_from_obj",
    "write_sweep_csv",
    "read_sweep_csv",
]


class InputFormatError(ValueError):
    """Malformed, non-finite, or structurally invalid input data."""


def _sig12(x: float) -> float:
    # Rounding to 12 significant digits keeps text output compact while
    # round-tripping well inside the 1e-11 relative contract.
    return float(f"{x:.11e}")


def _reject_constant(token: str):
    raise InputFormatError(f"non-finite number in input: {token}")


def load_json(text: str):
    """Parse JSON, refusing NaN/Infinity tokens."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise InputFormatError(
            f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


def dump_matrix_json(dim: int, M: np.ndarray) -> str:
    """``dump_json({"dim": dim, "matrix": M.tolist()})`` byte for byte, from one row template
    of ``float.__repr__`` values, not ``json``'s slow ``indent`` encoder; non-finite ``M`` raises.
    """
    if not np.isfinite(M).all():
        return dump_json({"dim": dim, "matrix": M.tolist()})
    row = "    [\n      " + ",\n      ".join(["%r"] * M.shape[1]) + "\n    ]"
    body = ",\n".join([row] * len(M)) % tuple(M.ravel().tolist())
    return '{\n  "dim": %d,\n  "matrix": [\n%s\n  ]\n}' % (dim, body)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputFormatError(message)


def _require_dim(obj) -> int:
    _require(isinstance(obj, dict), "expected a JSON object")
    _require("dim" in obj, 'missing "dim" field')
    d = obj["dim"]
    _require(isinstance(d, int) and d >= 2, f'"dim" must be an integer >= 2, got {d!r}')
    return d


def matrix_to_obj(A: np.ndarray) -> dict:
    A = np.asarray(A, dtype=complex)
    entries = [
        [[_sig12(cell.real), _sig12(cell.imag)] for cell in row] for row in A
    ]
    return {"dim": A.shape[0], "entries": entries}


def _entries_to_matrix(entries, d: int) -> np.ndarray:
    _require(isinstance(entries, list) and len(entries) == d, f"expected {d} rows")
    A = np.empty((d, d), dtype=complex)
    for i, row in enumerate(entries):
        _require(isinstance(row, list) and len(row) == d, f"row {i} must have {d} cells")
        for j, cell in enumerate(row):
            _require(
                isinstance(cell, list)
                and len(cell) == 2
                and all(isinstance(x, (int, float)) for x in cell),
                f"cell ({i},{j}) must be a [re, im] pair",
            )
            _require(
                all(math.isfinite(x) for x in cell),
                f"cell ({i},{j}) is not finite",
            )
            A[i, j] = complex(cell[0], cell[1])
    return A


def matrix_from_obj(obj) -> np.ndarray:
    d = _require_dim(obj)
    _require("entries" in obj, 'missing "entries" field')
    return _entries_to_matrix(obj["entries"], d)


def vector_to_obj(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=float)
    d = math.isqrt(len(v))
    return {"dim": d, "components": [_sig12(x) for x in v]}


def vector_from_obj(obj) -> np.ndarray:
    d = _require_dim(obj)
    _require("components" in obj, 'missing "components" field')
    comps = obj["components"]
    _require(
        isinstance(comps, list) and len(comps) == d * d,
        f"expected {d * d} components",
    )
    _require(
        all(isinstance(x, (int, float)) and math.isfinite(x) for x in comps),
        "components must be finite numbers",
    )
    return np.asarray(comps, dtype=float)


def measurement_from_obj(obj) -> GeneralizedMeasurement | Povm:
    """Build a measurement from a ``"kraus"`` or ``"effects"`` object."""
    d = _require_dim(obj)
    has_kraus = "kraus" in obj
    has_effects = "effects" in obj
    _require(
        has_kraus != has_effects,
        'measurement needs exactly one of "kraus" or "effects"',
    )
    raw = obj["kraus"] if has_kraus else obj["effects"]
    _require(isinstance(raw, list) and raw, "operator list must be non-empty")
    ops = []
    for element in raw:
        if isinstance(element, dict):
            ops.append(matrix_from_obj(element))
        else:
            ops.append(_entries_to_matrix(element, d))
    if has_kraus:
        return GeneralizedMeasurement(dim=d, kraus=tuple(ops))
    return Povm(dim=d, effects=tuple(ops))


_BASE_FIELDS = ["c", "beta", "I_bits", "D"]
_EXTENDED_FIELDS = _BASE_FIELDS + [
    "p0", "q0", "omega0", "delta0",
    "p1", "q1", "omega1", "delta1",
]


def write_sweep_csv(table: ClosedFormTable, f, extended: bool = False) -> None:
    """Write a closed-form table as CSV, one row per point.

    Every value is written as ``%.11e`` (12 significant digits) and every
    line ends in ``\\r\\n``; under ``extended`` each row adds
    ``p, q, omega, delta`` of outcome 0, then of outcome 1.
    """
    columns = [table.c, table.beta, table.info_bits, table.disturbance]
    if extended:
        for m in (0, 1):
            columns += [table.p[:, m], table.q[:, m], table.omega[:, m], table.delta[:, m]]
    fields = _EXTENDED_FIELDS if extended else _BASE_FIELDS
    row = ",".join(["%.11e"] * len(fields)) + "\r\n"
    values = tuple(np.column_stack(columns).ravel().tolist())
    f.write(",".join(fields) + "\r\n" + (row * len(table.c)) % values)


def read_sweep_csv(f) -> list[dict[str, float]]:
    """Read a sweep CSV back into a list of column dicts."""
    reader = csv.DictReader(f)
    return [{k: float(v) for k, v in row.items()} for row in reader]
