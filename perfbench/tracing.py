"""Layer spans for the traced run, recorded by rebinding hspsim's public functions.

`Tracer.install()` replaces each function listed in TARGETS, in every
hspsim module that holds a reference to it, with a wrapper that opens a
span (name, layer, start, end, parent) around the call.  Callers look the
name up at call time, so the package is traced without being edited;
`uninstall()` puts the originals back.  Spans stay in memory until the
run writes them out.

Counts and computed byte sizes are taken at the same boundaries.  When a
count costs more than an increment, it runs inside a `trace.count` span,
so its time is charged to the tracer and not to the traced layer.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property


def _count_op_tables(counts, args, result):
    counts["groups.op_tables"] += 1


def _count_fourier_bytes(counts, args, result):
    counts["representations.fourier_bytes"] += result.matrix.nbytes


def _count_state_bytes(counts, args, result):
    """Computed size of one complex128 two-register state, |G|*|H|*16 bytes."""
    instance = args[0]
    counts["engine.state_bytes"] += instance.group.order * instance.codomain.order * 16


def _count_pipeline(counts, args, result):
    counts["engine.pipeline_calls"] += 1
    _count_state_bytes(counts, args, result)


def _count_candidates(counts, args, result):
    counts["recovery.candidates"] += len(result.entries)


def _count_fft_columns(counts, args, result):
    counts["transversals.fft_columns"] += len(set(result.values))


def _count_bytes(counts, args, result):
    counts["reporting.bytes"] += os.stat(args[0]).st_size


COUNT_METRICS = ("groups.op_tables", "representations.fourier_bytes", "engine.state_bytes",
                 "engine.pipeline_calls", "recovery.candidates", "transversals.fft_columns",
                 "reporting.bytes")

# Counters that cost more than an increment run in their own trace.count span.
OUT_OF_SPAN = {_count_fft_columns, _count_bytes}

# (layer, span name, module, attribute, counter); a dotted attribute is a class member.
TARGETS = [
    ("config", "config.validate", "hspsim.config", "config_from_dict", None),
    ("config", "config.serialize", "hspsim.config", "config_to_dict", None),
    ("groups", "groups.spec", "hspsim.groups", "group_from_spec", None),
    ("groups", "groups.subgroup", "hspsim.groups", "Subgroup.from_generators", None),
    ("groups", "groups.subgroup", "hspsim.groups", "Subgroup.from_elements", None),
    ("groups", "groups.op_table", "hspsim.groups", "FiniteGroup.op_table", _count_op_tables),
    ("groups", "groups.cosets", "hspsim.groups", "left_cosets", None),
    ("groups", "groups.all_subgroups", "hspsim.groups", "all_subgroups", None),
    ("representations", "representations.irreps", "hspsim.representations", "irreps_of", None),
    ("representations", "representations.fourier", "hspsim.representations",
     "fourier_operator", _count_fourier_bytes),
    ("oracle", "oracle.build_instance", "hspsim.oracle", "build_instance", None),
    ("oracle", "oracle.brute_force", "hspsim.oracle", "classical_brute_force_hsp", None),
    ("engine", "engine.pipeline", "hspsim.engine", "run_pipeline", _count_pipeline),
    ("engine", "engine.step_trace", "hspsim.engine", "step_trace", _count_state_bytes),
    ("engine", "engine.sample", "hspsim.engine", "sample", None),
    ("transversals", "transversals.tau", "hspsim.transversals", "shor_transversal", None),
    ("transversals", "transversals.tau", "hspsim.transversals", "offset_transversal", None),
    ("transversals", "transversals.pipeline", "hspsim.transversals", "shor_pipeline", None),
    ("transversals", "transversals.pipeline", "hspsim.transversals",
     "approximate_function", _count_fft_columns),
    ("transversals", "transversals.peak_mass", "hspsim.transversals", "peak_mass", None),
    ("transversals", "transversals.sweep", "hspsim.transversals",
     "transversal_quality_sweep", None),
    ("recovery", "recovery.simon_solve", "hspsim.recovery", "simon_solve", None),
    ("recovery", "recovery.rank", "hspsim.recovery", "subgroup_consistency_rank",
     _count_candidates),
    ("reporting", "reporting.write", "hspsim.reporting", "write_distribution_csv", _count_bytes),
    ("reporting", "reporting.write", "hspsim.reporting", "write_samples_csv", _count_bytes),
    ("reporting", "reporting.write", "hspsim.reporting", "write_f_table_csv", _count_bytes),
    ("reporting", "reporting.write", "hspsim.reporting", "write_json", _count_bytes),
    ("reporting", "reporting.read", "hspsim.reporting", "read_distribution_csv", None),
    ("experiments", "experiments.run", "hspsim.experiments", "run_experiment", None),
]

LAYERS = ("bench", "trace", "config", "groups", "representations", "oracle", "engine",
          "transversals", "recovery", "reporting", "experiments")


class Tracer:
    """Spans as [name, layer, start, end, parent index]; parent -1 is a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def _wrap(self, fn, name, layer, count):
        calls = f"{layer}.calls"
        inline = count is not None and count not in OUT_OF_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
                self.counts[calls] += 1
                if inline:
                    count(self.counts, args, result)
            finally:
                self.close(span)
            if count is not None and not inline:
                side = self.open("trace.count", "trace")
                try:
                    count(self.counts, args, result)
                finally:
                    self.close(side)
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == "hspsim" or k.startswith("hspsim.")]
        for layer, name, module, attr, counter in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[member]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(original.__func__, name, layer, counter))
                elif isinstance(original, cached_property):
                    replacement = cached_property(self._wrap(original.func, name, layer, counter))
                    replacement.__set_name__(cls, member)
                else:
                    raise TypeError(f"cannot trace {attr}")
                setattr(cls, member, replacement)
                self._undo.append((cls, member, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, layer, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def self_times(spans, root: int) -> dict:
    """Self time per span name and per layer for the tree under one root span.

    A span's self time is its duration minus the durations of its direct
    children; single-threaded spans nest, so the self times of a tree sum
    to the root's duration.
    """
    inside = {root}
    child_time = defaultdict(float)
    by_name = defaultdict(float)
    by_layer = defaultdict(float)
    for i in range(root + 1, len(spans)):
        name, layer, start, end, parent = spans[i]
        if parent not in inside:
            break
        inside.add(i)
        child_time[parent] += end - start
    for i in sorted(inside):
        name, layer, start, end, _ = spans[i]
        own = (end - start) - child_time[i]
        by_name[name] += own
        by_layer[layer] += own
    return {"names": dict(by_name), "layers": dict(by_layer)}
