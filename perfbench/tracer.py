"""Per-layer spans recorded from outside the library.

The tracer wraps public whakit functions (and a few ``FinDimAlgebra``
methods) in place: every ``whakit.*`` module attribute that holds the original
function object is rebound to the wrapper, because ``cli``, ``actions`` and
``reptheory`` import names directly.  Spans live in memory as
``(name, start, end, parent, job)`` rows and are written out when the run
ends.  A span's self time is its duration minus the durations of its wrapped
children; single-threaded calls nest, so children never overlap.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# layer metrics named "<module>.<function>"; the attribute path is relative to
# the whakit package
TRACED = (
    "whafile.loads", "whafile.dumps",
    "wha.validate_wba", "wha.solve_antipode", "wha.validate_star", "wha.dual_wha",
    "algebra.block_decomposition", "algebra.inclusion_matrix", "algebra.watatani_index",
    "algebra.FinDimAlgebra.validate", "algebra.FinDimAlgebra.mul",
    "algebra.FinDimAlgebra.center", "algebra.FinDimAlgebra.trace_form",
    "linalg.orth", "linalg.kernel", "linalg.lstsq", "linalg.hermitian_sqrt",
    "linalg.perron_frobenius", "linalg.is_irreducible_nonneg",
    "integrals.haar_integral", "integrals.integral_spaces", "integrals.canonical_grouplike",
    "integrals.haar_expectations",
    "reptheory.sector_dimensions", "reptheory.markov_index", "reptheory.standard_solutions",
    "reptheory.monoidal_product", "reptheory.intertwiner_space",
    "actions.crossed_product", "actions.smash_product", "actions.dual_regular_action",
    "actions.is_regular", "actions.galois_map", "actions.validate_action",
    "cli.analyze_wha",
)
# spans that also record the tracemalloc peak reached inside them
PEAK = ("actions.crossed_product", "actions.smash_product")
# spans whose array argument size is summed as computed input bytes
INPUT_BYTES = ("linalg.orth", "linalg.kernel")
SCHEMA_CHECK = "whafile.schema_check"
JOB = "job"

MIB = 1024.0 * 1024.0


class _JsonschemaView:
    """Stands in for ``whafile.jsonschema`` so the schema walk gets its own span."""

    def __init__(self, module, validate):
        self._module = module
        self.validate = validate

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.peak_bytes: dict[int, int] = {}
        self.input_bytes: dict[int, int] = {}
        self._stack: list[int] = []
        self._mem: list[list[int]] = []  # [base, peak carried from finished children]
        self._restore: list[tuple[object, str, object]] = []
        self.job = -1

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)  # placeholder keeps parents before children
        self._stack.append(idx)
        return idx

    def _leave(self, idx: int, name_id: int, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name_id, t0, t1, parent, self.job)

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        name_id = self._name_id(name)
        idx = self._enter()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(idx, name_id, t0)

    def _peak_span(self, name: str, fn, *args, **kwargs):
        outermost = not tracemalloc.is_tracing()
        if outermost:
            tracemalloc.start()
        else:
            self._mem[-1][1] = max(self._mem[-1][1], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        self._mem.append([tracemalloc.get_traced_memory()[0], 0])
        idx = len(self.spans)
        try:
            return self.span(name, fn, *args, **kwargs)
        finally:
            base, carried = self._mem.pop()
            peak = max(carried, tracemalloc.get_traced_memory()[1])
            self.peak_bytes[idx] = peak - base
            if outermost:
                tracemalloc.stop()
            else:
                self._mem[-1][1] = max(self._mem[-1][1], peak)

    def _wrap(self, name: str, fn):
        if name in PEAK:
            def wrapper(*args, **kwargs):
                return self._peak_span(name, fn, *args, **kwargs)
        elif name in INPUT_BYTES:
            def wrapper(a, *args, **kwargs):
                self.input_bytes[len(self.spans)] = np.asarray(a).nbytes
                return self.span(name, fn, a, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every whakit reference to a traced function."""
        modules = [m for key, m in sys.modules.items() if key == "whakit" or key.startswith("whakit.")]
        for name in TRACED:
            modname, *attrs = name.split(".")
            owner = sys.modules[f"whakit.{modname}"]
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, attrs[-1])
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):  # a method: one binding, on the class
                self._set(owner, attrs[-1], wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapper)
        whafile = sys.modules["whakit.whafile"]
        real = whafile.jsonschema
        self._set(whafile, "jsonschema", _JsonschemaView(real, self._wrap(SCHEMA_CHECK, real.validate)))

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def layer_metrics(self, n_jobs: int) -> dict[str, float]:
        """Per-job totals: ``<fn>.self_s``, ``<fn>.calls`` and the layer sums."""
        self_s = self.self_times()
        acc: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            name = self.names[s[0]]
            acc[f"{name}.self_s"] += self_s[i]
            acc[f"{name}.calls"] += 1
            if name.startswith("linalg."):
                acc["linalg.self_s"] += self_s[i]
            if name == JOB:
                acc["job.other_s"] += self_s[i]
        acc["linalg.input_mib"] = sum(self.input_bytes.values()) / MIB
        return {k: v / n_jobs for k, v in acc.items()}

    def max_peak_mib(self, name: str) -> float:
        """Largest tracemalloc peak inside any span of ``name``."""
        nid = self._ids.get(name)
        return max((b for i, b in self.peak_bytes.items() if self.spans[i][0] == nid), default=0) / MIB

    def rung_rows(self, rung_of_job: dict[int, str], name: str) -> dict[str, dict]:
        """Median inclusive time (and tracemalloc peak) of ``name`` per rung."""
        nid = self._ids.get(name)
        times, peaks = defaultdict(list), defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[0] == nid:
                rung = rung_of_job[s[4]]
                times[rung].append(s[2] - s[1])
                if i in self.peak_bytes:
                    peaks[rung].append(self.peak_bytes[i] / MIB)
        rows = {}
        for rung, ts in times.items():
            rows[rung] = {"median_s": statistics.median(ts), "samples": len(ts)}
            if peaks[rung]:
                rows[rung]["peak_mib"] = max(peaks[rung])
        return rows

    def calls_under(self, root: str, jobs: set[int]) -> dict[str, float]:
        """Calls per ``root`` span, counted in its subtree, over the given jobs."""
        rid = self._ids.get(root)
        inside = [False] * len(self.spans)
        n_roots = 0
        counts: dict[str, int] = defaultdict(int)
        for i, s in enumerate(self.spans):
            if s[4] not in jobs:
                continue
            if s[0] == rid:
                n_roots += 1
                inside[i] = True
            elif s[3] >= 0 and inside[s[3]]:
                inside[i] = True
                counts[self.names[s[0]]] += 1
        return {k: v / n_roots for k, v in sorted(counts.items())} if n_roots else {}

    def dump(self, path, meta: dict) -> None:
        cols = list(zip(*self.spans)) if self.spans else [[]] * 5
        doc = {
            "meta": meta,
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "job"],
            "spans": {key: list(col) for key, col in zip(("name", "start", "end", "parent", "job"), cols)},
            "peak_bytes": {str(k): v for k, v in self.peak_bytes.items()},
            "input_bytes": {str(k): v for k, v in self.input_bytes.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")
