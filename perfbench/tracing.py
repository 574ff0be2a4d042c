"""Spans around the package's public functions, recorded from outside the package.

:class:`Tracer` rebinds each traced function to a wrapper in every
``varphragmen`` namespace that binds it (the modules import each other's
functions by name), and wraps methods on their class.  Spans live in memory
as columns ``name, start, end, parent, op`` and are written out after the run.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

#: Traced callables as ``(layer module, attribute path)``.  A class is traced
#: through its ``__init__``.
TARGETS = (
    ("cli", "main"),
    ("model", "parse_profile"),
    ("model", "Profile.supporters"),
    ("model", "LoadVector.add"),
    ("step", "Subproblem"),
    ("step", "corrected_solution"),
    ("step", "unconstrained_level"),
    ("step", "waterfill_solution"),
    ("step", "subset_oracle"),
    ("engine", "run_election"),
    ("engine", "select_winner"),
    ("engine", "variance"),
    ("engine", "verify_election"),
    ("render", "election_json"),
    ("analysis", "compare_solvers_over_election"),
    ("analysis", "sweep_seat_share"),
    ("analysis", "random_profile"),
)
SPAN_NAMES = tuple(f"{module}.{path}" for module, path in TARGETS)

#: Timed once per run outside the ops, so reported per run rather than per op.
PER_RUN = "engine.verify_election"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of the traced run, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        per_run = name == PER_RUN
        units[f"{name}.calls"] = "count" if per_run else "1/op"
        units[f"{name}.self_s"] = "s" if per_run else "s/op"
    units.update(
        {
            "step.clamp_rounds": "1/op",
            "step.corrected_share": "1",
            "engine.candidates_per_seat": "1/seat",
            "engine.max_den_bits": "bits",
            "render.json_bytes": "B/op",
            "trace.overhead": "1",
        }
    )
    return units


def _package_modules():
    return [
        module
        for name, module in sys.modules.items()
        if name == "varphragmen" or name.startswith("varphragmen.")
    ]


class Tracer:
    """Records spans while installed; :attr:`op` tags spans with the current op."""

    def __init__(self):
        self.names = array("B")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self._stack = [-1]
        #: Index of the op in progress, or -1 outside the ops.
        self.op = -1
        self.clamp_rounds = 0
        self.corrected = 0
        self.max_den_bits = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, pkg) -> None:
        observers = {
            "step.corrected_solution": self._observe_solution,
            "engine.run_election": self._observe_election,
        }
        for code, (module_name, path) in enumerate(TARGETS):
            module = getattr(pkg, module_name)
            owner_path, _, attr = path.rpartition(".")
            name = SPAN_NAMES[code]
            if owner_path:
                owner = getattr(module, owner_path)
                self._rebind(owner, attr, self._wrap(code, getattr(owner, attr), None))
                continue
            original = getattr(module, attr)
            if isinstance(original, type):
                init = self._wrap(code, original.__init__, None)
                self._rebind(original, "__init__", init)
                continue
            wrapper = self._wrap(code, original, observers.get(name))
            for namespace in _package_modules():
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._rebind(namespace, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, code, fn, observe):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(code)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_solution(self, sol) -> None:
        if self.op >= 0:
            self.clamp_rounds += len(sol.clamp_rounds)
            self.corrected += sol.corrected

    def _observe_election(self, result) -> None:
        for value in result.records[-1].loads_after.values:
            if isinstance(value, (Fraction, int)):
                bits = Fraction(value).denominator.bit_length()
                self.max_den_bits = max(self.max_den_bits, bits)

    # -- results -----------------------------------------------------------

    def metrics(self, ops: int, json_bytes: int, overhead: float) -> dict[str, float]:
        """Per-layer metrics over ``ops`` traced ops, with counts per op."""
        starts, ends, parents, names, op_of = (
            self.starts, self.ends, self.parents, self.names, self.ops,
        )
        n = len(starts)
        child = array("d", bytes(8 * n))
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        per_run = SPAN_NAMES.index(PER_RUN)
        select = SPAN_NAMES.index("engine.select_winner")
        solve = SPAN_NAMES.index("step.corrected_solution")
        solves_in_select = 0
        for i in range(n):
            code = names[i]
            if op_of[i] < 0 and code != per_run:
                continue
            calls[code] += 1
            self_s[code] += ends[i] - starts[i] - child[i]
            if code == solve and parents[i] >= 0 and names[parents[i]] == select:
                solves_in_select += 1
        out: dict[str, float] = {}
        for code, name in enumerate(SPAN_NAMES):
            scale = 1 if code == per_run else ops
            out[f"{name}.calls"] = calls[code] / scale
            out[f"{name}.self_s"] = self_s[code] / scale
        out["step.clamp_rounds"] = self.clamp_rounds / ops
        out["step.corrected_share"] = self.corrected / calls[solve] if calls[solve] else 0.0
        out["engine.candidates_per_seat"] = (
            solves_in_select / calls[select] if calls[select] else 0.0
        )
        out["engine.max_den_bits"] = self.max_den_bits
        out["render.json_bytes"] = json_bytes / ops
        out["trace.overhead"] = overhead
        return out

    def write(self, stem: Path) -> None:
        """Write the spans as ``<stem>.json`` (layout) and ``<stem>.bin`` (columns)."""
        columns = (
            ("name", self.names), ("start", self.starts), ("end", self.ends),
            ("parent", self.parents), ("op", self.ops),
        )
        layout = {
            "count": len(self.starts),
            "names": list(SPAN_NAMES),
            "byteorder": sys.byteorder,
            "columns": [[col, arr.typecode, arr.itemsize] for col, arr in columns],
            "clock": "time.perf_counter, seconds",
            "parent": "index of the enclosing span, -1 for none",
            "op": "index of the op within the traced phase, -1 outside the ops",
        }
        stem.with_suffix(".json").write_text(json.dumps(layout, indent=2) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for _, arr in columns:
                arr.tofile(fh)
