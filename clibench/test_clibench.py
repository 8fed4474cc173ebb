"""Self-tests of the benchmark: determinism, oracles, and tracing transparency.

    python3 -m pytest clibench
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import conal  # noqa: E402
import conal.cli as cli  # noqa: E402
import harness  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def _snapshot(ops, workdir):
    """argv with the input directory factored out, plus every input file's bytes."""
    argvs = [tuple(a.replace(str(workdir), "<dir>") for a in op.argv) for op in ops]
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as f:
            files[name] = f.read()
    return argvs, files


def _smoke_ops(name, ops):
    # One round of cone_measure (five operations per dimension, one hostile)
    # covers every operation kind; elsewhere two operations do.
    return ops[: 5 * len(workloads.MEASURE_DIMS) + 1 if name == "cone_measure" else 2]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_same_inputs(name, tmp_path):
    runs = []
    for sub in ("a", "b", "c"):
        workdir = tmp_path / sub
        workdir.mkdir()
        seed = 7 if sub != "c" else 8
        runs.append(_snapshot(workloads.make_pool(name, seed, str(workdir)), workdir))
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


def test_reference_basis_follows_the_cli_convention():
    for d in (2, 3, 4, 8):
        assert np.allclose(reference.basis(d), conal.build_basis(d), rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_passes_oracles(name, tmp_path):
    ops = _smoke_ops(name, workloads.make_pool(name, 3, str(tmp_path)))
    tally = harness.Tally()
    harness.warm_up(cli, ops, tally)
    assert tally.unexpected == 0, tally.messages


def test_oracles_reject_wrong_output(tmp_path):
    op = workloads.make_pool("tradeoff_curve", 1, str(tmp_path))[0]
    rc, out, err, _ = harness._call(cli, op.argv)
    assert op.verify(rc, out, err) == []
    lines = out.splitlines()
    cells = lines[5].split(",")
    cells[3] = repr(float(cells[3]) + 1e-8)
    tampered = "\n".join(lines[:5] + [",".join(cells)] + lines[6:])
    assert [p.message for p in op.verify(rc, tampered, err)][0].startswith("D off by")
    assert op.verify(1, out, err)

    check = next(
        o for o in workloads.make_pool("cone_measure", 1, str(tmp_path)) if o.kind == "check-outside-d4"
    )
    rc, out, err, _ = harness._call(cli, check.argv)
    assert check.verify(rc, out, err) == []
    problems = check.verify(rc, out.replace('"in_cone": false', '"in_cone": true'), err)
    assert problems and not problems[0].known_defect


def test_tally_counts_each_operation_once(tmp_path):
    check = next(
        o for o in workloads.make_pool("cone_measure", 1, str(tmp_path)) if o.kind == "check-pure-d4"
    )
    rc, out, err, _ = harness._call(cli, check.argv)
    wrong = out.replace('"in_cone": true', '"in_cone": false')
    tally = harness.Tally()
    for _ in range(3):
        tally.record(check, rc, wrong, err)
    assert (tally.attempted, tally.failed, tally.unexpected) == (1, 1, 0)
    # A repeat that passes where the first call failed is a fault of its own.
    tally.record(check, rc, out, err)
    assert (tally.attempted, tally.failed, tally.unexpected) == (1, 1, 1)


def test_check_vectors_do_not_depend_on_the_seed(tmp_path):
    def check_files(seed):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        workloads.make_pool("cone_measure", seed, str(workdir))
        return _snapshot([], workdir)[1]

    a, b = check_files(1), check_files(2)
    checks = [name for name in a if name.endswith(("-pure.json", "-mixed.json", "-outside.json"))]
    assert checks and all(a[name] == b[name] for name in checks)
    assert a != b


def test_wrapped_functions_return_identical_results(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    tau = conal.build_basis(8)
    plain_psi_matrix = conal.psi_matrix
    plain_psi = conal.psi_matrix(A, tau)
    plain_point = conal.pipeline_point(0.37, 0.61)
    ops = {name: workloads.make_pool(name, 5, str(tmp_path))[0] for name in WORKLOADS}
    plain_outputs = {name: harness._call(cli, op.argv)[:3] for name, op in ops.items()}
    with tracing.Tracer() as tracer:
        assert conal.psi_matrix is not plain_psi_matrix
        traced_psi = conal.psi_matrix(A, tau)
        traced_point = conal.pipeline_point(0.37, 0.61)
        traced_outputs = {name: harness._call(cli, op.argv)[:3] for name, op in ops.items()}
    assert traced_psi.tobytes() == plain_psi.tobytes()
    assert traced_point == plain_point
    assert traced_outputs == plain_outputs
    per_layer = tracer.per_layer(len(ops))
    assert per_layer["cli.main.calls_per_op"] == 1.0
    assert per_layer["cone.psi_matrix.calls_per_op"] > 0


def test_uninstall_restores_every_binding():
    before = (cli.main, conal.build_basis, conal.tradeoff.minimize_periodic, list(conal.selftest.CHECKS))
    with tracing.Tracer():
        assert cli.main is not before[0]
        assert conal.tradeoff.minimize_periodic is not before[2]
    assert (cli.main, conal.build_basis, conal.tradeoff.minimize_periodic, list(conal.selftest.CHECKS)) == before


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(name, tmp_path):
    ops = _smoke_ops(name, workloads.make_pool(name, 11, str(tmp_path)))
    counts = []
    for passes in (1, 2):
        with tracing.Tracer() as tracer:
            for _ in range(passes):
                for op in ops:
                    harness._call(cli, op.argv)
        layers = tracer.per_layer(passes * len(ops))
        counts.append({k: v for k, v in layers.items() if k.endswith("calls_per_op") or k.endswith("evals_per_op")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls_per_op"] == 1.0


def test_benchmark_json_declares_what_the_harness_reports():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)


def test_run_refuses_a_tree_without_sources(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "clibench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "clibench/run.py", "--workload", "cone_psi", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
