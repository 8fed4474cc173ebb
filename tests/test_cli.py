import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conal import cli, measurement, selftest, tradeoff
from conal.cli import main
from conal.serialization import dump_json, read_sweep_csv

PROJ0 = '{"dim": 2, "entries": [[[1,0],[0,0]],[[0,0],[0,0]]]}'
MIXED = '{"dim": 2, "entries": [[[0.5,0],[0,0]],[[0,0],[0.5,0]]]}'
PROJECTIVE = (
    '{"dim": 2, "kraus": ['
    "[[[1,0],[0,0]],[[0,0],[0,0]]],"
    "[[[0,0],[0,0]],[[0,0],[1,0]]]"
    "]}"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_prints_paulis(capsys):
    code, out, _ = run_cli(capsys, "basis", "--dim", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 2
    mats = [np.array([[complex(re, im) for re, im in row] for row in m]) for m in obj["matrices"]]
    assert len(mats) == 4
    assert np.allclose(mats[0], np.eye(2))
    assert np.allclose(mats[1], [[0, 1], [1, 0]])
    assert np.allclose(mats[2], [[0, -1j], [1j, 0]])
    assert np.allclose(mats[3], [[1, 0], [0, -1]])


def test_embed_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(PROJ0)
    code, out, _ = run_cli(capsys, "embed", "--dim", "2", "--matrix", str(path))
    assert code == 0
    assert json.loads(out)["components"] == [1.0, 0.0, 0.0, 1.0]


def test_embed_dim_mismatch_is_input_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(PROJ0)
    code, _, err = run_cli(capsys, "embed", "--dim", "3", "--matrix", str(path))
    assert code == 2
    assert "does not match" in err


def test_embed_rejects_non_hermitian(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"dim": 2, "entries": [[[0,0],[1,0]],[[0,0],[0,0]]]}')
    code, _, err = run_cli(capsys, "embed", "--dim", "2", "--matrix", str(path))
    assert code == 2
    assert "hermitian" in err


def test_check_outside_cone(tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text('{"dim": 2, "components": [1, 0, 0, 2]}')
    code, out, _ = run_cli(capsys, "check", "--vector", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["in_cone"] is False
    assert report["positive"] is False
    assert report["minkowski_norm"] == pytest.approx(-3.0)


def test_check_pure_state(tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text('{"dim": 2, "components": [1, 0, 0, 1]}')
    code, out, _ = run_cli(capsys, "check", "--vector", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["in_cone"] and report["positive"] and report["generalized_pure"]
    assert report["minkowski_norm"] == pytest.approx(0.0)


def test_psi_of_z(tmp_path, capsys):
    path = tmp_path / "z.json"
    path.write_text('{"dim": 2, "entries": [[[1,0],[0,0]],[[0,0],[-1,0]]]}')
    code, out, _ = run_cli(capsys, "psi", "--matrix", str(path))
    assert code == 0
    M = np.array(json.loads(out)["matrix"])
    assert np.allclose(M, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-12)


def test_psi_output_is_dump_json_layout(tmp_path, capsys):
    path = tmp_path / "a.json"
    A = np.random.default_rng(3).standard_normal((3, 3, 2))
    path.write_text(json.dumps({"dim": 3, "entries": A.tolist()}))
    code, out, _ = run_cli(capsys, "psi", "--matrix", str(path))
    assert code == 0
    assert out == dump_json(json.loads(out)) + "\n"


OVERFLOW = "error: input too large for floating point (overflow encountered in matmul)\n"


@pytest.mark.filterwarnings("error")
def test_psi_overflow_exits_two(tmp_path, capsys):
    # Finite input whose conjugation matrix overflows: one error line, no
    # numpy warnings and no complaint about a non-finite value the user never wrote.
    path = tmp_path / "huge.json"
    path.write_text('{"dim": 2, "entries": [[[1e200,0],[0,0]],[[0,0],[1e200,0]]]}')
    assert run_cli(capsys, "psi", "--matrix", str(path)) == (2, "", OVERFLOW)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, text",
    [
        (("check", "--vector"), '{"dim": 2, "components": [1e308, 1e308, 0, 0]}'),
        (("embed", "--dim", "2", "--matrix"),
         '{"dim": 2, "entries": [[[1e308,0],[1e308,0]],[[1e308,0],[1e308,0]]]}'),
        # Exit 1 (an incomplete measurement) before overflow became an input error.
        (("measure", "--state", "STATE", "--measurement"),
         '{"dim": 2, "kraus": [[[[1e200,0],[0,0]],[[0,0],[0,0]]],[[[0,0],[0,0]],[[0,0],[1,0]]]]}'),
    ],
)
def test_overflow_is_one_error_line(tmp_path, capsys, argv, text):
    state = tmp_path / "state.json"
    state.write_text(MIXED)
    path = tmp_path / "in.json"
    path.write_text(text)
    argv = [str(state) if a == "STATE" else a for a in argv] + [str(path)]
    assert run_cli(capsys, *argv) == (2, "", OVERFLOW)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_check_rejects_nonsense_tolerance(tmp_path, capsys, tol):
    path = tmp_path / "v.json"
    path.write_text('{"dim": 2, "components": [1, 0, 0, 0]}')
    code, out, err = run_cli(capsys, "check", "--tol", tol, "--vector", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: --tol must be a finite number >= 0") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_tradeoff_rejects_nonsense_verify_tolerance(capsys, tol):
    argv = ["tradeoff", "--c", "0.5", "--beta-grid", "0:1:3", "--verify", "--verify-tol", tol]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: --verify-tol must be a finite number >= 0") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [("selftest",), ("basis", "--dim", "12"), ("tradeoff", "--c", "0.5", "--beta-grid", "0:1:20001")],
)
def test_closed_stdout_exits_quietly(argv):
    # The reader closes the pipe before the first write, as a quick ``| head`` can.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "conal.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.BROKEN_PIPE_EXIT
    assert err == b""


def test_measure_projective(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(MIXED)
    meas = tmp_path / "meas.json"
    meas.write_text(PROJECTIVE)
    code, out, _ = run_cli(
        capsys, "measure", "--state", str(state), "--measurement", str(meas)
    )
    assert code == 0
    obj = json.loads(out)
    probs = [o["probability"] for o in obj["outcomes"]]
    assert probs == pytest.approx([0.5, 0.5])
    assert obj["outcomes"][0]["rescaled"]["components"] == [1.0, 0.0, 0.0, 1.0]
    assert obj["outcomes"][0]["unrescaled"]["components"][0] == pytest.approx(0.5)


def test_measure_invalid_measurement_exits_one(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(MIXED)
    meas = tmp_path / "meas.json"
    meas.write_text(
        '{"dim": 2, "kraus": [[[[1,0],[0,0]],[[0,0],[0,0]]],'
        "[[[1,0],[0,0]],[[0,0],[0,0]]]]}"
    )
    code, _, err = run_cli(
        capsys, "measure", "--state", str(state), "--measurement", str(meas)
    )
    assert code == 1
    assert "invalid measurement" in err


def test_measure_validates_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = measurement.validate

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "validate", counting)
    monkeypatch.setattr(measurement, "validate", counting)
    state = tmp_path / "state.json"
    state.write_text(MIXED)
    meas = tmp_path / "meas.json"
    meas.write_text(PROJECTIVE)
    code, out, _ = run_cli(capsys, "measure", "--state", str(state), "--measurement", str(meas))
    assert (code, len(calls)) == (0, 1)
    assert [o["probability"] for o in json.loads(out)["outcomes"]] == pytest.approx([0.5, 0.5])
    meas.write_text('{"dim": 2, "kraus": [[[[1,0],[0,0]],[[0,0],[0,0]]]]}')
    code, out, err = run_cli(capsys, "measure", "--state", str(state), "--measurement", str(meas))
    assert (code, len(calls), out) == (1, 2, "")
    assert err.startswith("invalid measurement:\n  completeness residual")


def test_measure_zero_probability_outcome(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text('{"dim": 2, "entries": [[[0,0],[0,0]],[[0,0],[1,0]]]}')
    meas = tmp_path / "meas.json"
    meas.write_text(PROJECTIVE)
    code, out, _ = run_cli(
        capsys, "measure", "--state", str(state), "--measurement", str(meas)
    )
    assert code == 0
    first = json.loads(out)["outcomes"][0]
    assert first["probability"] == pytest.approx(0.0, abs=1e-15)
    assert first["rescaled"] is None


def test_measure_rejects_non_density_state(tmp_path, capsys):
    meas = tmp_path / "meas.json"
    meas.write_text(PROJECTIVE)
    state = tmp_path / "state.json"
    state.write_text('{"dim": 2, "entries": [[[2,0],[0,0]],[[0,0],[1,0]]]}')
    code, _, err = run_cli(
        capsys, "measure", "--state", str(state), "--measurement", str(meas)
    )
    assert code == 2
    assert "unit trace" in err
    state.write_text('{"dim": 2, "entries": [[[2,0],[0,0]],[[0,0],[-1,0]]]}')
    code, _, err = run_cli(
        capsys, "measure", "--state", str(state), "--measurement", str(meas)
    )
    assert code == 2
    assert "positive semidefinite" in err


def test_malformed_json_exits_two(capsys, monkeypatch, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "entries": oops')
    code, _, err = run_cli(capsys, "embed", "--dim", "2", "--matrix", str(path))
    assert code == 2
    assert "invalid JSON" in err


HUGE = "1" + "0" * 400  # an integer literal beyond the largest float


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (("psi", "--matrix"), '{"dim": 2, "entries": [[[%s,0],[0,0]],[[0,0],[1,0]]]}' % HUGE,
         "cell (0,0) is not finite"),
        (("embed", "--dim", "2", "--matrix"), '{"dim": 2, "entries": [[[1,0],[0,0]],[[0,-%s],[1,0]]]}' % HUGE,
         "cell (1,0) is not finite"),
        (("check", "--vector"), '{"dim": 2, "components": [1, 0, %s, 0]}' % HUGE,
         "components must be finite numbers"),
        (("measure", "--state", "STATE", "--measurement"),
         '{"dim": 2, "kraus": [[[[1,0],[0,0]],[[0,0],[0,0]]],[[[0,0],[0,0]],[[0,0],[%s,0]]]]}' % HUGE,
         "cell (1,1) is not finite"),
    ],
)
def test_huge_integer_literal_exits_two(tmp_path, capsys, argv, text, message):
    state = tmp_path / "state.json"
    state.write_text(MIXED)
    path = tmp_path / "in.json"
    path.write_text(text)
    argv = [str(state) if a == "STATE" else a for a in argv] + [str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, "check", "--vector", str(path))
    assert (code, out, err) == (2, "", "error: invalid JSON: nested too deeply\n")


def test_parser_is_built_once_and_version_still_works(capsys):
    run_cli(capsys, "basis", "--dim", "2")
    parser = cli._build_parser()
    code, out, _ = run_cli(capsys, "basis", "--dim", "3")
    assert code == 0 and json.loads(out)["dim"] == 3
    assert cli._build_parser() is parser
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("conal ")


def test_stdin_input(capsys, monkeypatch):
    import io as _io

    monkeypatch.setattr("sys.stdin", _io.StringIO('{"dim": 2, "components": [1,0,0,0]}'))
    code, out, _ = run_cli(capsys, "check", "--vector", "-")
    assert code == 0
    assert json.loads(out)["positive"] is True


def test_tradeoff_csv_endpoints(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        "tradeoff",
        "--c", "0.7071067811865476",
        "--beta-grid", "0:1:11",
        "--out", str(out_path),
    )
    assert code == 0
    with open(out_path) as f:
        rows = read_sweep_csv(f)
    assert len(rows) == 11
    assert rows[0]["I_bits"] == pytest.approx(0.0, abs=1e-12)
    assert rows[0]["D"] == pytest.approx(0.0, abs=1e-12)
    assert rows[-1]["I_bits"] == pytest.approx(0.3991240, abs=1e-5)
    assert rows[-1]["D"] == pytest.approx(0.0669873, abs=1e-6)


def test_tradeoff_verify_passes(capsys):
    code, out, err = run_cli(
        capsys, "tradeoff", "--c", "0.5", "--beta-grid", "0:1:5", "--verify"
    )
    assert code == 0
    assert "verification passed" in err
    rows = read_sweep_csv(iter(out.splitlines()))
    assert len(rows) == 5


def test_tradeoff_verify_failure_exits_one(capsys):
    code, _, err = run_cli(
        capsys,
        "tradeoff",
        "--c", "0.5",
        "--beta-grid", "0:1:3",
        "--verify",
        "--verify-tol", "1e-30",
    )
    assert code == 1
    assert re.search(r"residual \S+ at c=0\.5 beta=(0|0\.5|1) exceeds", err), err


def test_tradeoff_bad_grid_exits_two(capsys):
    for spec in ("0:1", "0:2:5", "a:b:c", "0:1:0"):
        code, _, err = run_cli(capsys, "tradeoff", "--c", "0.5", "--beta-grid", spec)
        assert code == 2, spec


def test_tradeoff_bad_c_exits_two(capsys):
    code, _, _ = run_cli(capsys, "tradeoff", "--c", "1.5", "--beta-grid", "0:1:3")
    assert code == 2


def test_selftest_seed_reproducible(capsys):
    code1, out1, _ = run_cli(capsys, "selftest", "--seed", "11")
    code2, out2, _ = run_cli(capsys, "selftest", "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "0 failed" in out1


def test_selftest_failure_names_worst_input(capsys, monkeypatch):
    checks = list(selftest.CHECKS)
    name, check = checks[-2]
    checks[-2] = (name, lambda rng: check(rng)._replace(tol=-1.0))
    monkeypatch.setattr(selftest, "CHECKS", checks)
    code, out, _ = run_cli(capsys, "selftest", "--seed", "0")
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 1
    assert len(fails) == 1
    pattern = rf"FAIL {name} +residual \S+ \(tol -1\.0e\+00\) at c=\S+ beta=\S+"
    assert re.fullmatch(pattern, fails[0]), fails[0]
    assert out.splitlines()[-1] == "18 passed, 1 failed"


def _nan_pipeline(monkeypatch):
    """Make the pipeline return a NaN information value for the second point."""
    real = tradeoff._pipeline_arrays

    def broken(c, beta):
        p, q, info, dist, omega = real(c, beta)
        info = info.copy()
        info[1, 0] = np.nan
        return p, q, info, dist, omega

    monkeypatch.setattr(tradeoff, "_pipeline_arrays", broken)


def test_tradeoff_verify_nan_residual_exits_one(capsys, monkeypatch):
    _nan_pipeline(monkeypatch)
    code, _, err = run_cli(
        capsys, "tradeoff", "--c", "0.5", "--beta-grid", "0:1:3", "--verify"
    )
    assert code == 1
    assert "verification FAILED: worst closed-form/pipeline residual nan at c=0.5 beta=0.5" in err
