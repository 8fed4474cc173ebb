"""Command-line interface.

Subcommands
-----------
basis     print the orthogonal hermitian basis for a dimension
embed     embed a hermitian matrix as a real coordinate vector
check     cone membership / positivity / purity report for a vector
psi       real conjugation matrix of an operator
measure   apply a measurement to a state, one record per outcome
tradeoff  CSV sweep of the information/disturbance curve
selftest  run the seeded property suite

Exit codes: 0 success, 1 validation failure, 2 malformed input, 141 when
stdout is closed before the output is written.
Input files may be given as ``-`` to read from stdin.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
from .basis import build_basis, embed
from .cone import (
    cone_contains,
    is_generalized_pure,
    is_positive_vec,
    minkowski_product,
    psi_matrix,
)
from .linalg import is_positive, require_hermitian
from .measurement import _apply_valid, validate
from .serialization import (
    InputFormatError,
    dump_json,
    dump_matrix_json,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
    measurement_from_obj,
    vector_from_obj,
    vector_to_obj,
    write_sweep_csv,
)
from .tradeoff import VERIFY_TOL, closed_form_table, pipeline_residual
from .selftest import run_selftest

#: Tolerance on the unit trace and the positivity of a density matrix read from input.
STATE_TOL = 1e-9

#: Exit code when stdout is closed early: 128 + SIGPIPE, as the shell reports a
#: tool that the signal ends, and apart from the 0/1/2 verdicts.
BROKEN_PIPE_EXIT = 141


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as err:
        raise InputFormatError(f"cannot read {path}: {err}") from err


def _load_obj(path: str):
    return load_json(_read_text(path))


def _cmd_basis(args) -> int:
    basis = build_basis(args.dim)
    obj = {"dim": args.dim, "matrices": [matrix_to_obj(t)["entries"] for t in basis]}
    print(dump_json(obj))
    return 0


def _overflow_is_input_error(cmd):
    """``cmd`` with floating-point overflow raised as one input error.

    Finite input can overflow inside the arithmetic.  NumPy would warn on
    stderr and carry on with inf or NaN, and the error that follows would
    name a value the user never wrote.
    """

    @functools.wraps(cmd)
    def run(args) -> int:
        try:
            with np.errstate(over="raise", invalid="raise"):
                return cmd(args)
        except FloatingPointError as err:
            raise InputFormatError(f"input too large for floating point ({err})") from err

    return run


@_overflow_is_input_error
def _cmd_embed(args) -> int:
    A = matrix_from_obj(_load_obj(args.matrix))
    if A.shape[0] != args.dim:
        raise InputFormatError(
            f"matrix dimension {A.shape[0]} does not match --dim {args.dim}"
        )
    try:
        require_hermitian(A)
    except ValueError as err:
        raise InputFormatError(str(err)) from err
    print(dump_json(vector_to_obj(embed(A, build_basis(args.dim)))))
    return 0


def _require_tolerance(option: str, tol: float) -> None:
    if not (np.isfinite(tol) and tol >= 0.0):
        raise InputFormatError(f"{option} must be a finite number >= 0, got {tol}")


@_overflow_is_input_error
def _cmd_check(args) -> int:
    _require_tolerance("--tol", args.tol)
    v = vector_from_obj(_load_obj(args.vector))
    basis = build_basis(int(np.sqrt(len(v))))
    report = {
        "dim": basis.shape[1],
        "height": float(v[0]),
        "in_cone": cone_contains(v, args.tol),
        "positive": is_positive_vec(v, basis, args.tol),
        "generalized_pure": is_generalized_pure(v, basis, args.tol),
        "minkowski_norm": minkowski_product(v, v),
    }
    print(dump_json(report))
    return 0


@_overflow_is_input_error
def _cmd_psi(args) -> int:
    A = matrix_from_obj(_load_obj(args.matrix))
    print(dump_matrix_json(A.shape[0], psi_matrix(A, build_basis(A.shape[0]))))
    return 0


@_overflow_is_input_error
def _cmd_measure(args) -> int:
    rho = matrix_from_obj(_load_obj(args.state))
    try:
        require_hermitian(rho)
    except ValueError as err:
        raise InputFormatError(str(err)) from err
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > STATE_TOL:
        raise InputFormatError(f"state must have unit trace, got {trace:.6g}")
    if not is_positive(rho, tol=STATE_TOL):
        raise InputFormatError("state must be positive semidefinite")
    meas = measurement_from_obj(_load_obj(args.measurement))
    if meas.dim != rho.shape[0]:
        raise InputFormatError(
            f"state dimension {rho.shape[0]} does not match measurement dimension {meas.dim}"
        )
    basis = build_basis(meas.dim)
    report = validate(meas, basis=basis)
    if not report.passes:
        print("invalid measurement:", file=sys.stderr)
        for failure in report.failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    records = _apply_valid(meas, rho, basis)
    outcomes = []
    for rec in records:
        outcomes.append(
            {
                "index": rec.index,
                "probability": rec.probability,
                "unrescaled": vector_to_obj(rec.unrescaled),
                "rescaled": vector_to_obj(rec.rescaled) if rec.rescaled_defined else None,
            }
        )
    print(dump_json({"dim": meas.dim, "outcomes": outcomes}))
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise InputFormatError(f"grid must be start:stop:count, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as err:
        raise InputFormatError(f"bad grid {spec!r}: {err}") from err
    if count < 1:
        raise InputFormatError("grid needs at least one point")
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise InputFormatError("grid bounds must be finite")
    if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0):
        raise InputFormatError("grid bounds must lie in [0, 1]")
    return np.linspace(start, stop, count)


def _cmd_tradeoff(args) -> int:
    if not 0.0 <= args.c <= 1.0:
        raise InputFormatError(f"--c must lie in [0, 1], got {args.c}")
    _require_tolerance("--verify-tol", args.verify_tol)
    table = closed_form_table(args.c, _parse_grid(args.beta_grid))
    if args.out == "-":
        write_sweep_csv(table, sys.stdout, extended=args.extended)
    else:
        with open(args.out, "w", newline="", encoding="utf-8") as f:
            write_sweep_csv(table, f, extended=args.extended)
    if args.verify:
        worst, (c, beta) = pipeline_residual(table)
        if not worst <= args.verify_tol:
            print(
                f"verification FAILED: worst closed-form/pipeline residual {worst:.3e} "
                f"at c={c:.12g} beta={beta:.12g} exceeds {args.verify_tol:.1e}",
                file=sys.stderr,
            )
            return 1
        print(f"verification passed: worst residual {worst:.3e}", file=sys.stderr)
    return 0


def _cmd_selftest(args) -> int:
    _, failed = run_selftest(seed=args.seed)
    return 1 if failed else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: ``parse_args`` leaves the parser as it was and
    # returns a fresh namespace, so in-process callers share one parser.
    parser = argparse.ArgumentParser(
        prog="conal",
        description="Cone representation of quantum states and measurements.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="print the hermitian basis as JSON")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("embed", help="embed a hermitian matrix")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--matrix", required=True, help="matrix JSON file, or - for stdin")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("check", help="geometry report for a coordinate vector")
    p.add_argument("--vector", required=True, help="vector JSON file, or - for stdin")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="relative to the vector's scale, so v and k*v agree for k > 0")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("psi", help="real conjugation matrix of an operator")
    p.add_argument("--matrix", required=True, help="matrix JSON file, or - for stdin")
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("measure", help="apply a measurement to a state")
    p.add_argument("--state", required=True, help="density-matrix JSON file")
    p.add_argument("--measurement", required=True, help="kraus/effects JSON file")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("tradeoff", help="information/disturbance CSV sweep")
    p.add_argument("--c", type=float, required=True, help="half-separation in [0, 1]")
    p.add_argument("--beta-grid", required=True, help="start:stop:count")
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p.add_argument("--extended", action="store_true", help="per-outcome columns")
    p.add_argument("--verify", action="store_true", help="cross-check with the pipeline")
    p.add_argument("--verify-tol", type=float, default=VERIFY_TOL)
    p.set_defaults(func=_cmd_tradeoff)

    p = sub.add_parser("selftest", help="run the seeded property suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader has gone (``conal selftest | head -1``).  Later flushes,
        # the interpreter's last one too, go to /dev/null, so no traceback or
        # "Exception ignored" line follows; exit as a tool killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE_EXIT
    except InputFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        # Library-level rejections of CLI-supplied data are input problems.
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
