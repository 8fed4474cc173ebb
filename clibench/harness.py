"""Closed-loop timing of one workload, its set-up cost, and the traced run.

One client, one process: each operation is ``conal.cli.main(argv)`` called
in-process with stdout and stderr captured in memory, and the next starts
when the previous one returns.  Only the call itself is timed; its output is
checked against the workload's oracle between calls, outside the clock.
The pool of operations is always run in whole passes, so every run sees the
same mix of operation kinds.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import tracing
import workloads

#: A run keeps going, in whole passes over the pool, until it has timed at
#: least this many operations, so that op_p90_ms has ten samples beyond it.
MIN_SAMPLES = 100

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 7

#: Median time, in ms, of ``reference_seconds`` on the machine of the first
#: baseline (2 vCPU Intel Xeon, one BLAS thread).  Bounded times are reported
#: at this machine speed; see ``run_pass``.
REFERENCE_MS = 2.4

_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((24, 24))
_REFERENCE_MATRIX += _REFERENCE_MATRIX.T

#: Per-layer metrics written on the result line of a traced run.  Counts
#: repeat exactly for a seed; times are only those every workload exercises.
#: The traced run prints and saves the full table, every function's self and
#: inclusive time included.
PER_LAYER = (
    ("cli.main.self_ms_per_op", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("optimize.objective_evals_per_op", "count"),
) + tuple(
    (f"{name}.calls_per_op", "count")
    for name in (
        "basis.build_basis",
        "basis.embed",
        "basis.unembed",
        "linalg.require_hermitian",
        "linalg.is_positive",
        "linalg.sqrt_psd",
        "linalg.polar_decompose",
        "cone.psi_matrix",
        "cone.cone_contains",
        "cone.is_positive_vec",
        "cone.is_generalized_pure",
        "measurement.validate",
        "measurement.apply_all",
        "measurement.apply_outcome",
        "qubit.sqrt_vec",
        "qubit.sandwich",
        "optimize.minimize_periodic",
        "optimize.golden_section",
        "tradeoff.sweep",
        "tradeoff.closed_form_point",
        "tradeoff.pipeline_point",
        "tradeoff.post_angle",
        "tradeoff.optimal_repair",
        "tradeoff.stationarity_check",
        "serialization.load_json",
        "serialization.dump_json",
        "serialization.matrix_from_obj",
        "serialization.measurement_from_obj",
        "serialization.vector_from_obj",
        "serialization.write_sweep_csv",
        "selftest.run_selftest",
    )
)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); from conal.cli import main; "
    "sys.exit(main(sys.argv[2:]))"
)


class Tally:
    """Latencies of the timed calls, and the oracle's verdict on each distinct operation.

    ``attempted`` and ``failed`` count operations of the pool, not calls:
    the program is deterministic, so a repeat of an input gives the same
    output and the same verdict, and counting calls would make ``failed``
    grow with the run's length.  A repeat whose verdict differs from the
    first call's is itself an unexpected failure.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.messages: list[str] = []
        # Per operation: a digest of its first output and the oracle's
        # verdict on it.  An identical repeat is not parsed again, and no
        # output is kept in memory.
        self._verdicts: dict[int, tuple[bytes, list]] = {}
        self._failing: dict[int, bool] = {}  # failed operation -> unexpected?

    @property
    def attempted(self):
        return len(self._verdicts)

    @property
    def failed(self):
        return len(self._failing)

    @property
    def unexpected(self):
        return sum(self._failing.values())

    def record(self, op, rc, out, err, seconds=None, scaled=None):
        if seconds is not None:
            self.latencies.append(seconds)
            self.scaled.append(scaled)
        digest = hashlib.blake2b(f"{rc}\0{out}\0{err}".encode()).digest()
        first = self._verdicts.get(id(op))
        if first is not None and first[0] == digest:
            return
        try:
            problems = op.verify(rc, out, err)
        except Exception:
            problems = [workloads.Problem("oracle could not read the output:\n" + traceback.format_exc())]
        if first is None:
            self._verdicts[id(op)] = (digest, problems)
        elif bool(first[1]) != bool(problems):
            problems = problems + [workloads.Problem("verdict differs from the first call's on the same input")]
        if problems:
            unexpected = not all(p.known_defect for p in problems)
            self._failing[id(op)] = self._failing.get(id(op), False) or unexpected
            for p in problems:
                message = f"{op.kind} {' '.join(op.argv)}: {p.message}"
                if len(self.messages) < 20 and message not in self.messages:
                    self.messages.append(message)


def _call(cli, argv):
    """Run ``cli.main(argv)``, looked up on each call so that a traced ``main`` is used."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "exception"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def reference_seconds():
    """Wall time of a fixed mix of interpreter and LAPACK work that involves no conal code."""
    start = time.perf_counter()
    total = 0
    for i in range(15000):
        total += i * i
    for _ in range(10):
        np.linalg.eigh(_REFERENCE_MATRIX)
    return time.perf_counter() - start


def at_reference_speed(seconds, before, after):
    """``seconds`` scaled by REFERENCE_MS over the mean reference time around it."""
    return seconds * 2e-3 * REFERENCE_MS / (before + after)


def run_pass(cli, ops, tally):
    """One pass over ``ops``; returns its operation time as measured and at reference speed.

    The host's speed swings by up to a factor of two within seconds (see
    README.md).  The reference kernel runs before each operation and after the
    last one, outside the operation's clock, and each latency is also recorded
    scaled to REFERENCE_MS by the kernel times on either side of it.
    """
    total = scaled_total = 0.0
    before = reference_seconds()
    for op in ops:
        rc, out, err, elapsed = _call(cli, op.argv)
        after = reference_seconds()
        scaled = at_reference_speed(elapsed, before, after)
        tally.record(op, rc, out, err, elapsed, scaled)
        total += elapsed
        scaled_total += scaled
        before = after
    return total, scaled_total


def warm_up(cli, ops, tally):
    """One untimed call per distinct operation kind: imports, caches, first-use costs."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            rc, out, err, _ = _call(cli, op.argv)
            tally.record(op, rc, out, err)


def setup_sample(root, op, tally):
    """Wall time of a fresh interpreter importing conal.cli and running ``op`` cold.

    Returns it as measured and at reference speed.
    """
    before = reference_seconds()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, os.path.join(root, "src"), *op.argv],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    after = reference_seconds()
    tally.record(op, proc.returncode, proc.stdout, proc.stderr)
    return elapsed, at_reference_speed(elapsed, before, after)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def _git_hash(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _src_digest(root):
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "conal", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def _cpu_model():
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def environment(root, name, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "load_processes": 1,
        "git": _git_hash(root),
        "src_sha256": _src_digest(root),
        "workload": name,
        "seed": seed,
        "params": workloads.WORKLOADS[name].params,
    }


def run(root, name, seed, seconds, trace, out_dir):
    """Run workload ``name`` from the working directory ``root``; return the full record."""
    import conal.cli as cli

    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=out_dir)
    try:
        # Relative input paths keep messages and records free of the checkout's location.
        ops = workloads.make_pool(name, seed, os.path.relpath(workdir, root))
        record = {"environment": environment(root, name, seed), "seconds": seconds, "trace": trace}
        tally = Tally()
        warm_up(cli, ops, tally)
        if not trace:
            # Set-up samples are taken between passes, spread over the timed
            # phase, so that they see the same stretch of machine as the passes.
            setups, passes = [], []
            while sum(p[0] for p in passes) < seconds or len(tally.latencies) < MIN_SAMPLES:
                if len(setups) * seconds <= SETUP_REPEATS * sum(p[0] for p in passes):
                    setups.append(setup_sample(root, ops[0], tally))
                passes.append(run_pass(cli, ops, tally))
            while len(setups) < SETUP_REPEATS:
                setups.append(setup_sample(root, ops[0], tally))
            count = len(tally.latencies)
            metrics = {
                "ops_per_s": count / sum(p[1] for p in passes),
                "op_p50_ms": 1e3 * np.percentile(tally.scaled, 50),
                "op_p90_ms": 1e3 * np.percentile(tally.scaled, 90),
                "success_rate": 1.0 - tally.failed / tally.attempted,
                "setup_s": statistics.median(s[1] for s in setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            # Not bounded: the same times as measured, which move with the
            # host's speed (see README.md), and the error rate, which can be 0.
            record["as_measured"] = {
                "ops_per_s": {"value": count / sum(p[0] for p in passes), "unit": "1/s"},
                "op_p50_ms": {"value": 1e3 * np.percentile(tally.latencies, 50), "unit": "ms"},
                "op_p90_ms": {"value": 1e3 * np.percentile(tally.latencies, 90), "unit": "ms"},
                "setup_s": {"value": statistics.median(s[0] for s in setups), "unit": "s"},
                "error_rate": {"value": tally.failed / tally.attempted, "unit": "ratio"},
                "reference_ms": {
                    "value": REFERENCE_MS * float(np.median(np.divide(tally.latencies, tally.scaled))),
                    "unit": "ms",
                },
            }
            record["samples"] = count
            record["pass_seconds"] = passes
            record["setup_seconds"] = setups
        else:
            # Untraced and traced passes alternate, so that a slow stretch of
            # the machine weighs on both sides of trace.overhead_ratio.
            tracer = tracing.Tracer()
            untraced, traced = [], []
            while sum(p[0] for p in untraced + traced) < seconds:
                untraced.append(run_pass(cli, ops, tally))
                with tracer:
                    traced.append(run_pass(cli, ops, tally))
            traced_count = len(ops) * len(traced)
            layers = tracer.per_layer(traced_count)
            layers["trace.overhead_ratio"] = sum(p[1] for p in traced) / sum(p[1] for p in untraced)
            record["per_layer_full"] = layers
            record["samples"] = traced_count
            tracer.save(os.path.join(out_dir, f"spans-{name}-seed{seed}.npz"))
            metrics = {k: layers.get(k, 0.0) for k, _ in PER_LAYER}
        units = dict(PER_LAYER) if trace else END_TO_END_UNITS
        record.update(
            attempted=tally.attempted,
            failed=tally.failed,
            unexpected_failures=tally.unexpected,
            known_defect=workloads.KNOWN_DEFECT if tally.failed > tally.unexpected else None,
            problems=tally.messages,
            metrics={k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        )
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
