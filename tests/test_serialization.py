import csv
import io

import numpy as np
import pytest

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
    assert row["p0"] == pytest.approx(pt.outcomes[0].p, abs=1e-11)
    assert row["omega1"] == pytest.approx(pt.outcomes[1].angles.omega_m, abs=1e-11)
    assert row["delta0"] == pytest.approx(pt.outcomes[0].angles.delta_m, abs=1e-11)


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
