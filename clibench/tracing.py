"""Span tracing of conal's public functions, installed from outside the package.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper in every ``conal`` namespace that holds the original,
since the CLI, ``tradeoff``, ``measurement``, ``selftest`` and the package
itself import with ``from .x import f``.  The entries of
``selftest.CHECKS`` are wrapped in place.  ``uninstall`` restores all of it.

A span is (name, parent span, start, end) in compact arrays held in memory;
``save`` writes them out once the run is over.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

MODULES = (
    "basis",
    "linalg",
    "cone",
    "qubit",
    "measurement",
    "optimize",
    "tradeoff",
    "serialization",
    "selftest",
    "cli",
)

#: Helpers called thousands of times per operation for sub-microsecond work:
#: a wrapper would cost more than the call.
SKIP = frozenset({"qubit.minkowski4", "tradeoff.repair_objective", "cone.ambient_dim"})

#: Functions whose spans are also split by dimension, ``<name>.d<d>``.
_BY_DIM = {
    "basis.build_basis": lambda *a, **k: a[0] if a else k["d"],
    "cone.psi_matrix": lambda *a, **k: np.shape(a[0] if a else k["A"])[0],
}

OBJECTIVE_EVALS = "optimize.objective_evals"


def public_functions(module) -> list[str]:
    """Names in ``__all__`` (or without a leading underscore) of functions defined in ``module``."""
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return [
        n
        for n in names
        if callable(getattr(module, n, None))
        and not isinstance(getattr(module, n), type)
        and getattr(getattr(module, n), "__module__", None) == module.__name__
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.objective_evals = 0
        self._roots: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._checks: list | None = None

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _dim_id(self, name: str, d: int) -> int:
        variant = f"{name}.d{d}"
        self._roots[variant] = name
        return self._name_id(variant)

    def wrap(self, fn, name: str, dim_of=None):
        """``fn`` with a span named ``name`` around every call; results pass through untouched.

        With ``dim_of``, spans are named ``<name>.d<dim_of(*args)>`` and summed
        into ``name`` by :meth:`per_layer`.
        """
        nid = self._name_id(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid if dim_of is None else self._dim_id(name, dim_of(*args, **kwargs)))
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def _count_objective(self, minimize):
        """Count evaluations of the objective handed to ``minimize_periodic``."""

        @functools.wraps(minimize)
        def counting(f, *args, **kwargs):
            def counted(x):
                self.objective_evals += 1
                return f(x)

            return minimize(counted, *args, **kwargs)

        return counting

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import conal.cli  # noqa: F401  (loads every traced module)

        replacements = {}
        for mod_name in MODULES:
            module = sys.modules[f"conal.{mod_name}"]
            for fn_name in public_functions(module):
                name = f"{mod_name}.{fn_name}"
                if name in SKIP:
                    continue
                original = getattr(module, fn_name)
                target = original
                if name == "optimize.minimize_periodic":
                    target = self._count_objective(original)
                wrapper = self.wrap(target, name, _BY_DIM.get(name))
                replacements[id(original)] = (original, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "conal" and not mod_name.startswith("conal."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        checks = sys.modules["conal.selftest"].CHECKS
        self._checks = list(checks)
        checks[:] = [(n, self.wrap(fn, f"selftest.{n}")) for n, fn in self._checks]

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        if self._checks is not None:
            sys.modules["conal.selftest"].CHECKS[:] = self._checks
            self._checks = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------------

    def _arrays(self):
        ids = np.frombuffer(self.name_ids, dtype=np.int32) if len(self.name_ids) else np.zeros(0, np.int32)
        parents = np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends, dtype=np.int64) - np.array(self.starts, dtype=np.int64)
        return ids, parents, dur

    def per_layer(self, ops: int) -> dict[str, float]:
        """Per-operation calls, self and inclusive time of every wrapped function and module."""
        ids, parents, dur = self._arrays()
        n_names = len(self.names)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        calls = np.bincount(ids, minlength=n_names)
        self_by = np.bincount(ids, weights=self_ns, minlength=n_names)
        incl_by = np.bincount(ids, weights=dur, minlength=n_names)

        totals = {n: [0, 0.0, 0.0] for n in self.names if n not in self._roots}
        out = {}
        for i, name in enumerate(self.names):
            if name in self._roots:
                out[f"{name}.us_per_call"] = incl_by[i] / 1e3 / calls[i] if calls[i] else 0.0
                name = self._roots[name]
            t = totals[name]
            t[0] += int(calls[i])
            t[1] += self_by[i]
            t[2] += incl_by[i]
        modules = {}
        for name, (c, s, inc) in totals.items():
            out[f"{name}.calls_per_op"] = c / ops
            out[f"{name}.self_ms_per_op"] = s / 1e6 / ops
            out[f"{name}.ms_per_op"] = inc / 1e6 / ops
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + s
        for module, s in modules.items():
            out[f"{module}.self_ms_per_op"] = s / 1e6 / ops
        out[f"{OBJECTIVE_EVALS}_per_op"] = self.objective_evals / ops
        out["trace.spans_per_op"] = len(dur) / ops
        return out

    def save(self, path: str) -> None:
        ids, parents, dur = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=ids,
            parent=parents,
            start_ns=np.array(self.starts, dtype=np.int64),
            end_ns=np.array(self.ends, dtype=np.int64),
        )
