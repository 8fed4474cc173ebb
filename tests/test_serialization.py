import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conal import cli, serialization

from conal.measurement import GeneralizedMeasurement, Povm, effects_of
from conal.sampling import random_hermitian
from conal.serialization import (
    InputFormatError,
    dump_json,
    dump_matrix_json,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
    measurement_from_obj,
    read_sweep_csv,
    vector_from_obj,
    vector_to_obj,
    write_sweep_csv,
)
from conal.tradeoff import ClosedFormTable, closed_form_point, closed_form_table


def test_dump_matrix_json_equals_dump_json(rng):
    special = np.array(
        [[-0.0, 5e-324, 1e300], [-1e300, 3.0, -2.0], [0.0, 2.2250738585072014e-308, 1e16]]
    )
    for M in (special, rng.standard_normal((4, 4)), rng.standard_normal((1, 3)), np.eye(9)):
        assert dump_matrix_json(7, M) == dump_json({"dim": 7, "matrix": M.tolist()})


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_dump_matrix_json_rejects_non_finite(bad):
    M = np.eye(4)
    M[1, 2] = bad
    with pytest.raises(ValueError) as want:
        dump_json({"dim": 2, "matrix": M.tolist()})
    with pytest.raises(ValueError) as got:
        dump_matrix_json(2, M)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("Out of range float values are not JSON compliant")


def test_matrix_round_trip(rng):
    for d in (2, 3, 5):
        for _ in range(20):
            A = random_hermitian(rng, d)
            B = matrix_from_obj(matrix_to_obj(A))
            assert np.max(np.abs(A - B)) <= 1e-11 * max(1.0, np.max(np.abs(A)))


def test_vector_round_trip(rng):
    v = rng.standard_normal(9) * 100
    w = vector_from_obj(vector_to_obj(v))
    assert np.max(np.abs(v - w)) <= 1e-9  # 12 significant digits at scale 100


def test_load_json_rejects_nan_tokens():
    with pytest.raises(InputFormatError):
        load_json('{"dim": 2, "components": [NaN, 0, 0, 0]}')
    with pytest.raises(InputFormatError):
        load_json('{"dim": 2, "components": [Infinity, 0, 0, 0]}')


def test_load_json_reports_position():
    with pytest.raises(InputFormatError, match="line 2"):
        load_json('{"dim": 2,\n "entries": }')


def test_matrix_from_obj_validates_shape():
    with pytest.raises(InputFormatError):
        matrix_from_obj({"dim": 2, "entries": [[[1, 0]]]})
    with pytest.raises(InputFormatError):
        matrix_from_obj({"dim": 2, "entries": [[[1, 0], [0]], [[0, 0], [1, 0]]]})
    with pytest.raises(InputFormatError):
        matrix_from_obj({"entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]})
    with pytest.raises(InputFormatError):
        matrix_from_obj({"dim": 1, "entries": [[[1, 0]]]})


def test_matrix_from_obj_rejects_non_finite_values():
    bad = {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [float("inf"), 0]]]}
    with pytest.raises(InputFormatError, match="not finite"):
        matrix_from_obj(bad)


def test_vector_from_obj_validates():
    with pytest.raises(InputFormatError):
        vector_from_obj({"dim": 2, "components": [1, 0, 0]})
    with pytest.raises(InputFormatError):
        vector_from_obj({"dim": 2})


def test_measurement_from_obj_kraus_entries():
    obj = {
        "dim": 2,
        "kraus": [
            [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
            [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
        ],
    }
    meas = measurement_from_obj(obj)
    assert isinstance(meas, GeneralizedMeasurement)
    assert len(meas.kraus) == 2
    assert np.allclose(meas.kraus[0], [[1, 0], [0, 0]])


def test_measurement_from_obj_effects_full_objects():
    half = {"dim": 2, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}
    meas = measurement_from_obj({"dim": 2, "effects": [half, half]})
    assert isinstance(meas, Povm)
    assert np.allclose(effects_of(meas)[0], np.eye(2) / 2)


def test_measurement_from_obj_requires_exactly_one_kind():
    with pytest.raises(InputFormatError):
        measurement_from_obj({"dim": 2})
    with pytest.raises(InputFormatError):
        measurement_from_obj({"dim": 2, "kraus": [], "effects": []})


def test_sweep_csv_round_trip():
    betas = np.linspace(0.0, 1.0, 7)
    points = [closed_form_point(0.7, b) for b in betas]
    buf = io.StringIO()
    write_sweep_csv(closed_form_table(0.7, betas), buf)
    buf.seek(0)
    rows = read_sweep_csv(buf)
    assert [r["beta"] for r in rows] == pytest.approx(
        [pt.beta for pt in points], abs=1e-11
    )
    for row, pt in zip(rows, points):
        assert abs(row["I_bits"] - pt.info_bits) <= 1e-11 * max(1.0, abs(pt.info_bits))
        assert abs(row["D"] - pt.disturbance) <= 1e-11 * max(1.0, abs(pt.disturbance))
        assert row["c"] == pytest.approx(0.7, abs=1e-11)


def test_sweep_csv_extended_columns():
    points = [closed_form_point(0.6, 0.5)]
    buf = io.StringIO()
    write_sweep_csv(closed_form_table(0.6, 0.5), buf, extended=True)
    buf.seek(0)
    rows = read_sweep_csv(buf)
    row = rows[0]
    assert set(row) == {
        "c", "beta", "I_bits", "D",
        "p0", "q0", "omega0", "delta0",
        "p1", "q1", "omega1", "delta1",
    }
    pt = points[0]
    assert row["p0"] == pytest.approx(pt.p[0], abs=1e-11)
    assert row["omega1"] == pytest.approx(pt.omega[1], abs=1e-11)
    assert row["delta0"] == pytest.approx(pt.delta[0], abs=1e-11)


def _csv_module_oracle(table, extended):
    """The sweep CSV as ``csv.writer`` writes ``f"{x:.11e}"`` cells."""
    header = ["c", "beta", "I_bits", "D"]
    if extended:
        header += ["p0", "q0", "omega0", "delta0", "p1", "q1", "omega1", "delta1"]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for i in range(len(table.c)):
        row = [table.c[i], table.beta[i], table.info_bits[i], table.disturbance[i]]
        if extended:
            for m in (0, 1):
                row += [table.p[i, m], table.q[i, m], table.omega[i, m], table.delta[i, m]]
        writer.writerow(f"{x:.11e}" for x in row)
    return buf.getvalue()


@pytest.mark.parametrize("extended", [False, True])
def test_sweep_csv_matches_csv_module_oracle(extended):
    c = np.repeat([0.0, 0.3, 1.0 / np.sqrt(2.0), 1.0], 11)
    table = closed_form_table(c, np.tile(np.linspace(0.0, 1.0, 11), 4))
    # Signed zeros, extreme magnitudes and non-finite values in every column.
    specials = np.array([-0.0, 0.0, 5e-324, -1.5e300, 0.1, -2.5e-7, np.inf, np.nan])

    def extend(x):
        tail = specials.reshape(-1, *[1] * (x.ndim - 1))
        return np.concatenate([x, np.broadcast_to(tail, (len(specials), *x.shape[1:]))])

    table = ClosedFormTable(*map(extend, table))
    buf = io.StringIO()
    write_sweep_csv(table, buf, extended=extended)
    text = buf.getvalue()
    assert text == _csv_module_oracle(table, extended)
    assert text.count("\r\n") == len(table.c) + 1 and text.endswith("\r\n")
    assert "-0.00000000000e+00" in text
    empty = closed_form_table(0.5, [])
    buf = io.StringIO()
    write_sweep_csv(empty, buf, extended=extended)
    assert buf.getvalue() == _csv_module_oracle(empty, extended)


def test_read_sweep_csv_reads_empty_input_and_line_iterables():
    assert read_sweep_csv(io.StringIO("")) == []
    assert read_sweep_csv(io.StringIO("c,beta,I_bits,D\r\n")) == []
    text = "c,beta,I_bits,D\r\n1.0e-01,2.0e-01,3.0e-01,4.0e-01\r\n\r\n"
    row = {"c": 0.1, "beta": 0.2, "I_bits": 0.3, "D": 0.4}
    assert read_sweep_csv(io.StringIO(text)) == [row]
    assert read_sweep_csv(iter(text.splitlines())) == [row]


def test_load_json_rejects_deep_nesting():
    with pytest.raises(InputFormatError, match="nested too deeply"):
        load_json("[" * 100000 + "]" * 100000)


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e300, -1e300, 2.2250738585072014e-308,
                  1.7976931348623157e308, 0.1, 9.999999999995e5, 123456789012.5, -1.5]


def _json_values():
    floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_FLOATS)
    leaves = floats | st.integers() | st.booleans() | st.none() | st.text()
    keys = st.text() | st.sampled_from(["dim", "ünïcödé", "键", "\n\t\"", ""])
    return st.recursive(
        leaves | st.lists(floats),
        lambda inner: st.lists(inner, max_size=5) | st.dictionaries(keys, inner, max_size=5),
        max_leaves=40,
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_json_values())
def test_dump_json_equals_json_dumps(obj):
    assert dump_json(obj) == json.dumps(obj, indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "place",
    [
        lambda x: x,
        lambda x: [1.0, x, 2.0],
        lambda x: {"a": [1.0, 2.0], "b": {"c": [0.5, x]}},
        lambda x: [[1.0], {"k": x}],
    ],
)
def test_dump_json_rejects_non_finite_as_json_does(bad, place):
    with pytest.raises(ValueError) as want:
        json.dumps(place(bad), indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        dump_json(place(bad))
    assert str(got.value) == str(want.value)


def test_dump_json_of_overflowing_float_list():
    # The finiteness check sums the list; a sum that overflows takes the slow path.
    obj = {"v": [1.7976931348623157e308, 1.7976931348623157e308, -0.0]}
    assert dump_json(obj) == json.dumps(obj, indent=2, allow_nan=False)


def _outcome(read, *args):
    try:
        value = read(*args)
    except InputFormatError as err:
        return ("error", str(err))
    return ("ok", value.dtype, value.shape, np.ascontiguousarray(value).view(np.uint8).tobytes())


GOOD_CELLS = [[[1, 0], [0.5, -0.0]], [[-0.0, 2**53 + 1], [1e-300, 3]]]
ENTRIES_CORPUS = [
    GOOD_CELLS,
    [[[-0.0, -0.0], [0, 0]], [[0, 0], [-0.0, 0.0]]],
    [[[2**63, 0], [0, 0]], [[0, 0], [1, 0]]],
    [[[2**64 - 1, 0], [0, 0]], [[0, 0], [-1, 0]]],
    [[[2**70, 0], [0, 0]], [[0, 0], [1, 0]]],
    [[[-(2**70), 0.5], [0, 0]], [[0, 0], [1, 0]]],
    [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]],
    [[[1, 0], [0, 0]], [[0, 0], [1, -(10**400)]]],
    [[[True, False], [0, 0]], [[0, 0], [True, 0]]],
    [[[True, False], [False, False]], [[False, False], [True, False]]],
    [[[1.5, True], [0, 0]], [[0, 0], [1, 0]]],
    [[["1", 0], [0, 0]], [[0, 0], [1, 0]]],
    [[[None, 0], [0, 0]], [[0, 0], [1, 0]]],
    [[[1, 0], [0, 0]], [[0, 0], [{}, 0]]],
    [[[1, 0], [0, 0]], [[0, 0]]],
    [[[1, 0], [0, 0]], [[0, 0], [1]]],
    [[[1, 0], [0, 0]], [[0, 0], [1, 0, 0]]],
    [[[1, 0], [0, 0]]],
    [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],
    [[1, 0], [0, 1]],
    [[[1, 0], [0, 0]], [[0, 0], [np.inf, 0]]],
    [[[1, 0], [np.nan, 0]], [[0, 0], [1, 0]]],
    [[[[1, 0]], [0, 0]], [[0, 0], [1, 0]]],
    [[[1, 0], [0, 0]], [[0, 0], json.loads("[" * 100 + "]" * 100)]],
    [],
    "entries",
    None,
    3.0,
]


def _cell_walk(entries, d):
    """The cell-by-cell reader: check every cell, then build the matrix from ``complex(re, im)``."""
    serialization._check_entries(entries, d)
    return np.array([[complex(re, im) for re, im in row] for row in entries])


def _component_walk(components, d):
    serialization._check_components(components, d)
    return np.asarray(components, dtype=float)


@pytest.mark.parametrize("entries", ENTRIES_CORPUS)
@pytest.mark.parametrize("d", [2, 3])
def test_array_path_and_cell_walk_agree(entries, d):
    got = _outcome(matrix_from_obj, {"dim": d, "entries": entries})
    assert got == _outcome(_cell_walk, entries, d)


COMPONENTS_CORPUS = [
    [1, 0.5, -0.0, 2**53 + 1],
    [2**63, 0, 0, 0],
    [2**64 - 1, -1, 0, 0],
    [2**70, 0, 0, 0],
    [10**400, 0, 0, 0],
    [1, 0, 0, -(10**400)],
    [True, False, 0, 1.5],
    [True, False, False, True],
    ["1", 0, 0, 0],
    [None, 0, 0, 0],
    [1, 0, 0],
    [1, 0, 0, 0, 0],
    [[1], [0], [0], [0]],
    [[1, 0], [0, 1]],
    json.loads("[" * 100 + "]" * 100),
    [np.inf, 0, 0, 0],
    [0, 0, 0, np.nan],
    [],
    "components",
    None,
]


@pytest.mark.parametrize("components", COMPONENTS_CORPUS)
@pytest.mark.parametrize("d", [2, 3])
def test_vector_array_path_and_walk_agree(components, d):
    got = _outcome(vector_from_obj, {"dim": d, "components": components})
    assert got == _outcome(_component_walk, components, d)


def test_well_formed_input_skips_the_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("walked well-formed input")

    monkeypatch.setattr(serialization, "_check_entries", refuse)
    monkeypatch.setattr(serialization, "_check_components", refuse)
    assert matrix_from_obj({"dim": 2, "entries": GOOD_CELLS}).shape == (2, 2)
    assert vector_from_obj({"dim": 2, "components": COMPONENTS_CORPUS[0]}).shape == (4,)


def test_sign_of_zero_is_kept():
    A = matrix_from_obj({"dim": 2, "entries": [[[-0.0, -0.0], [0, 0]], [[0, 0], [1, -0.0]]]})
    assert np.signbit(A.view(float)).ravel().tolist() == [True, True, False, False, False, False, False, True]
    v = vector_from_obj({"dim": 2, "components": [-0.0, 0, 2**53 + 1, -0.0]})
    assert np.signbit(v).tolist() == [True, False, False, True]
    assert v[2] == float(2**53 + 1)


def _sig12(x: float) -> float:
    """The per-value rounding the bulk pass must reproduce."""
    return float(f"{x:.11e}")


def _bits(values) -> list[str]:
    return [np.float64(x).view(np.uint64).tobytes().hex() if not math.isnan(x) else "nan" for x in values]


def test_bulk_rounding_equals_per_value_rounding(rng):
    specials = np.array(SPECIAL_FLOATS + [np.inf, -np.inf, np.nan, 9.9999999999949e-1, 9.99999999999951e-1,
                                          np.nextafter(0.0, 1.0), -np.nextafter(1.0, 0.0)])
    scaled = rng.standard_normal(3000) * 10.0 ** rng.integers(-320, 300, 3000)
    for values in (specials, scaled, rng.standard_normal((7, 9)), np.empty(0)):
        want = [_sig12(x) for x in np.ravel(values).tolist()]
        assert _bits(serialization._round12(values)) == _bits(want)
    v = rng.standard_normal(16) * 1e3
    assert vector_to_obj(v) == {"dim": 4, "components": [_sig12(x) for x in v]}
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A[0, 0] = complex(-0.0, -0.0)
    entries = [[[_sig12(z.real), _sig12(z.imag)] for z in row] for row in A]
    got = matrix_to_obj(A)
    assert got == {"dim": 3, "entries": entries}
    assert _bits(np.ravel(got["entries"])) == _bits(np.ravel(entries))
    assert matrix_to_obj(A.T)["entries"] == [[[_sig12(z.real), _sig12(z.imag)] for z in row] for row in A.T]


def _percent_e_lines(block) -> str:
    """The oracle of ``_sci12_lines``: per-value ``"%.11e" % x``, joined as CSV rows."""
    return "".join(",".join("%.11e" % x for x in row) + "\r\n" for row in np.asarray(block).tolist())


def _first_difference(got: str, want: str):
    """None for equal texts, else the first pair of differing lines.

    pytest's own diff of two long texts takes minutes.
    """
    for pair in zip(got.splitlines(True), want.splitlines(True)):
        if pair[0] != pair[1]:
            return pair
    return None if got == want else (len(got), len(want))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
        elements=st.floats(width=64),
    )
)
def test_sci12_kernel_equals_percent_e_on_any_float(block):
    assert _first_difference(serialization._sci12_lines(block), _percent_e_lines(block)) is None


def test_sci12_kernel_on_exact_rounding_ties(rng):
    # n + 0.5 and its multiples by 10, 100, 1000 have 13 significant digits,
    # the last a 5, and are exact in binary: "%.11e" rounds them half to even.
    # Divided by powers of ten they land within an ulp or so of a tie.
    n = rng.integers(10**11, 10**12, 2000) + 0.5
    ties = np.concatenate([n, n * 10.0, n * 100.0, n * 1000.0, [9.999999999995, 999999999999.5, 100000000000.5]])
    for values in (ties, -ties, ties / 10.0**rng.integers(1, 250, len(ties))):
        block = values[: len(values) // 4 * 4].reshape(-1, 4)
        assert _first_difference(serialization._sci12_lines(block), _percent_e_lines(block)) is None


def test_sci12_kernel_next_to_powers_of_ten_and_rounding_carries():
    # (1 - 5e-13) 10^e is where the 12-digit mantissa rounds up to 10^e.
    powers = np.array([float(f"1e{k}") for k in range(-307, 309)])
    up = down = np.concatenate([powers, powers * (1.0 - 5e-13)])
    near = [up]
    for _ in range(3):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    values = np.concatenate(near)
    block = np.concatenate([values, -values]).reshape(-1, 4)
    assert _first_difference(serialization._sci12_lines(block), _percent_e_lines(block)) is None


@pytest.mark.parametrize("offset", [-1.0, 1.0])
def test_sci12_kernel_corrects_an_exponent_one_off(monkeypatch, rng, offset):
    # log10 may round across an integer next to a power of ten; shift every
    # exponent by one and the scaled value must put it right.
    block = rng.standard_normal((50, 6)) * 10.0 ** rng.integers(-250, 250, (50, 6))
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + offset)
    assert _first_difference(serialization._sci12_lines(block), _percent_e_lines(block)) is None


def test_sci12_kernel_on_long_exponents_subnormals_and_signed_zero():
    row = [1.5e-150, -0.0, 5e-324, -2.5e-310, 1e200, -3.25e-105, 0.0, 1.7976931348623157e308,
           2.2250738585072014e-308, -1e-297, 9.99999999999e-298, np.inf, -np.inf, np.nan, 1e-100]
    for block in (np.array([row]), np.array([row[::-1], row]), np.array(row)[:, None]):
        text = serialization._sci12_lines(block)
        assert _first_difference(text, _percent_e_lines(block)) is None
        assert "-0.00000000000e+00" in text and "e-324" in text and "e+308" in text
    assert serialization._sci12_lines(np.empty((0, 4))) == ""


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("grid", ["0:1:1001", "0:1:101", "0:1:1"])
@pytest.mark.parametrize("c", [0.0, 1e-6, 0.3, 1.0 / math.sqrt(2.0), 0.9, 1.0])
def test_tradeoff_cli_csv_matches_csv_module_oracle(tmp_path, capsys, c, grid, extended):
    start, stop, count = grid.split(":")
    want = _csv_module_oracle(closed_form_table(c, np.linspace(float(start), float(stop), int(count))), extended)
    argv = ["tradeoff", "--c", repr(c), "--beta-grid", grid] + ["--extended"] * extended
    assert cli.main(argv) == 0
    assert _first_difference(capsys.readouterr().out, want) is None
    path = tmp_path / "sweep.csv"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert _first_difference(path.read_bytes().decode("ascii"), want) is None
