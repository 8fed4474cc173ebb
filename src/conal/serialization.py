"""JSON and CSV interchange formats.

Matrices travel as ``{"dim": d, "entries": [[[re, im], ...], ...]}`` with
row-major entries and complex cells as ``[re, im]`` pairs; coordinate
vectors as ``{"dim": d, "components": [...]}``; measurements as
``{"dim": d, "kraus": [...]}`` or ``{"dim": d, "effects": [...]}`` whose
elements are entries arrays (or full matrix objects).  Non-finite numbers,
and integers too large for a float, are rejected on input.  Matrix and
vector objects carry 12 significant digits; ``dump_matrix_json`` (the
``psi`` output) writes the shortest ``repr`` of every value.

Well-formed input is read with one ``np.array`` conversion per matrix or
vector; only input that fails it is walked cell by cell, to word the error.
Output values are rounded in one ``%.11e`` pass, and lists of floats are
written with one join.  The sweep CSV's ``%.11e`` text comes from an array
kernel, byte for byte Python's; Python formats only the values next to a
rounding tie or outside the kernel's power-of-ten table.
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


def _round12(a: np.ndarray) -> list[float]:
    """The values of ``a`` as Python floats rounded to 12 significant digits.

    Equal bit for bit to ``float(f"{x:.11e}")`` of each value: the text output
    stays compact and round-trips well inside the 1e-11 relative contract.
    """
    values = np.ravel(a).tolist()
    return list(map(float, ("%.11e " * len(values) % tuple(values)).split()))


def _reject_constant(token: str):
    raise InputFormatError(f"non-finite number in input: {token}")


def load_json(text: str):
    """Parse JSON, refusing NaN/Infinity tokens and nesting too deep to decode."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise InputFormatError(
            f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except RecursionError as err:
        raise InputFormatError("invalid JSON: nested too deeply") from err


def dump_json(obj) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)`` byte for byte; non-finite floats raise."""
    return _dump(obj, "\n")


def _dump(obj, newline: str) -> str:
    # ``newline`` is the line break plus the indent of the line ``obj`` starts on.
    # Dicts with str keys and non-empty lists are written here, a list of finite
    # floats with one join of ``float.__repr__``; everything else is json's own
    # rendering, re-indented (JSON strings hold no raw line breaks).
    inner = newline + "  "
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        items = (json.dumps(k) + ": " + _dump(v, inner) for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if type(obj) is list and obj:
        # A finite sum means finite values; an overflowing sum only costs the slow path.
        if all(type(x) is float for x in obj) and math.isfinite(sum(obj)):
            items = map(float.__repr__, obj)
        else:
            items = (_dump(x, inner) for x in obj)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(obj, indent=2, allow_nan=False).replace("\n", newline)


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


def _finite(x) -> bool:
    # An int too large for a float counts as not finite, as it would overflow.
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _float_array(obj, d: int, shape: tuple[int, ...], check) -> np.ndarray:
    """``obj`` as a float array of ``shape``, every bit kept (the sign of zero too).

    Finite ints and floats of that shape take one ``np.array`` conversion.
    Anything else first goes to ``check(obj, d)``, a value-by-value walk whose
    job is to word the error; of JSON-decoded input it lets through only
    all-bool lists and integers beyond ``uint64``, as it always has.
    """
    try:
        a = np.array(obj)
    except ValueError:  # ragged, or nested deeper than numpy's 64 dimensions
        pass
    else:
        if a.dtype.kind in "fi" and a.shape == shape and np.isfinite(a).all():
            return np.ascontiguousarray(a, float)
    check(obj, d)
    return np.array(obj, dtype=float)


def matrix_to_obj(A: np.ndarray) -> dict:
    A = np.ascontiguousarray(A, dtype=complex)
    cells = np.reshape(_round12(A.view(float)), (*A.shape, 2))
    return {"dim": A.shape[0], "entries": cells.tolist()}


def _entries_to_matrix(entries, d: int) -> np.ndarray:
    return _float_array(entries, d, (d, d, 2), _check_entries).view(complex)[..., 0]


def _check_entries(entries, d: int) -> None:
    _require(isinstance(entries, list) and len(entries) == d, f"expected {d} rows")
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
                all(_finite(x) for x in cell),
                f"cell ({i},{j}) is not finite",
            )


def matrix_from_obj(obj) -> np.ndarray:
    d = _require_dim(obj)
    _require("entries" in obj, 'missing "entries" field')
    return _entries_to_matrix(obj["entries"], d)


def vector_to_obj(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=float)
    d = math.isqrt(len(v))
    return {"dim": d, "components": _round12(v)}


def vector_from_obj(obj) -> np.ndarray:
    d = _require_dim(obj)
    _require("components" in obj, 'missing "components" field')
    return _float_array(obj["components"], d, (d * d,), _check_components)


def _check_components(comps, d: int) -> None:
    _require(
        isinstance(comps, list) and len(comps) == d * d,
        f"expected {d * d} components",
    )
    _require(
        all(isinstance(x, (int, float)) and _finite(x) for x in comps),
        "components must be finite numbers",
    )


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


#: Rows formatted per block, so a huge grid holds no whole-grid integer temporaries.
_BLOCK_ROWS = 16384

_U8 = np.dtype("<u8")

#: ASCII of 0..999 as three digits, packed little-endian into the low bytes.
_D3 = ((np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0")) << [0, 8, 16]).sum(1).astype(_U8)

#: ``d.dd`` of 100..999: the leading digit, the point, two digits.
_LEAD = (_D3 & 0xFF) | ord(".") << 8 | (_D3 & 0xFFFF00) << 8

#: An exponent's digits: two below 100, with a zero byte in place of the third.
_EXP = np.where(np.arange(1000) < 100, _D3 & 0xFFFF00, _D3).astype(_U8)

#: ``e`` and the exponent's sign, in the top two bytes of the second word.
_E_PLUS = np.array(ord("e") << 48 | ord("+") << 56, _U8)
_E_MINUS = np.array(ord("e") << 48 | ord("-") << 56, _U8)

#: ``10.0**k`` correctly rounded, for ``k`` in -297..308, from exact integers.
_POW10 = np.array([1 / 10**-k if k < 0 else float(10**k) for k in range(-297, 309)])


def _sci12_lines(block: np.ndarray) -> str:
    """The rows of ``block`` as ``%.11e`` values joined by ``,``, each row ending in ``\\r\\n``.

    Byte for byte what ``"%.11e" % x`` writes.  Each value becomes a mantissa
    ``m = round(|x| 10^(11 - e))`` in ``[1e11, 1e12)`` and an exponent ``e``,
    scaled by one multiply by a correctly rounded power of ten: two roundings,
    under 2.3e-4 in ``m``.  Python formats each value whose scaled form lies
    within 1e-3 of a rounding tie, and each nonzero value the table cannot
    scale (non-finite, subnormal, or below 1e-297).

    A value's text is built in three little-endian 64-bit words, zero bytes
    standing for an absent ``-`` or third exponent digit and for padding:
    ``[-]d.ddddd``, ``dddddde±`` and ``[d]dd`` plus the separator.  The zero
    bytes are deleted at the end.
    """
    rows, cols = block.shape
    x = np.asarray(block, dtype=float).ravel()
    a = np.abs(x)
    exact = np.isfinite(x) & (a >= np.finfo(float).tiny)
    a = np.where(exact, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    s = _scale(a, e)
    # log10 can be one off next to a power of ten; the unrounded s shows it.
    fix = (s >= 1e12).astype(np.int64) - (s < 1e11)
    if np.count_nonzero(fix):
        e += fix
        s = _scale(a, e)
    whole = np.floor(s)
    frac = s - whole
    exact &= (np.abs(frac - 0.5) > 1e-3) & (e >= -297)  # not near a tie, 10^(11 - e) in the table
    m = (whole + (frac > 0.5)).astype(np.int64)
    carry = m == 10**12  # rounded up to the next power of ten
    m[carry] = 10**11
    e += carry
    zero = x == 0.0
    m[zero] = 0
    e[zero] = 0

    high = m // 1_000_000
    low = m - high * 1_000_000
    words = np.empty((rows * cols, 3), _U8)
    words[:, 0] = (
        np.signbit(x).astype(_U8) * ord("-") | _LEAD[high // 1000] << 8 | _D3[_mod1000(high)] << 40
    )
    words[:, 1] = _D3[low // 1000] | _D3[_mod1000(low)] << 24 | np.where(e < 0, _E_MINUS, _E_PLUS)
    separators = np.full(cols, ord(","), _U8)
    separators[-1] = ord("\r") | ord("\n") << 8
    words[:, 2] = (_EXP[np.abs(e)].reshape(rows, cols) | separators << 24).ravel()
    text = words.view(np.uint8)
    slow = np.flatnonzero(~(exact | zero))
    if len(slow):
        python = "".join(["%-19.11e" % v for v in x[slow].tolist()]).replace(" ", "\0")
        text[slow, :19] = np.frombuffer(python.encode("ascii"), np.uint8).reshape(-1, 19)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _mod1000(n: np.ndarray) -> np.ndarray:
    # numpy's ``%`` on int64 is several times slower than its ``//``.
    return n - n // 1000 * 1000


def _scale(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``a * 10^(11 - e)`` by a table power of ten, the exponent clipped to the table."""
    return a * _POW10[np.minimum(11 - e, 308) + 297]


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
    f.write(",".join(fields) + "\r\n")
    for start in range(0, len(table.c), _BLOCK_ROWS):
        block = np.column_stack([col[start:start + _BLOCK_ROWS] for col in columns])
        f.write(_sci12_lines(block))


def read_sweep_csv(f) -> list[dict[str, float]]:
    """Read a sweep CSV back into a list of column dicts."""
    reader = csv.DictReader(f)
    return [{k: float(v) for k, v in row.items()} for row in reader]
