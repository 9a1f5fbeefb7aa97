import importlib
import importlib.util
import sys
from functools import cached_property
from pathlib import Path

from hspsim.config import config_from_dict
from hspsim.experiments import run_experiment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    """The benchmark's tracer module, loaded from its file without importing perfbench."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_target_resolves():
    """The benchmark's tracer rebinds each TARGETS entry by name, so a renamed or
    deleted hspsim name breaks `perfbench/run.py --trace 1`."""
    tracing = _tracing()
    assert tracing.TARGETS
    for _, _, module, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, member = attr.split(".")
            wrapped = vars(getattr(owner, cls_name)).get(member)
            assert isinstance(wrapped, (classmethod, cached_property)), f"{module}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr}"


def _bindings(tracing) -> dict:
    """Every name the tracer may rebind: module globals and traced class members."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "hspsim" or name.startswith("hspsim."):
            found.update({(name, key): value for key, value in vars(mod).items()})
    for _, _, module, attr, _ in tracing.TARGETS:
        if "." in attr:
            cls_name, member = attr.split(".")
            found[(module, attr)] = vars(getattr(sys.modules[module], cls_name))[member]
    return found


def test_traced_run_closes_spans_and_counts(tmp_path):
    """A small traced run of the four experiment kinds the benchmark traces: the
    counters read the arguments and results they expect, and uninstall restores."""
    tracing = _tracing()
    before = _bindings(tracing)
    dist = tmp_path / "simulate" / "distribution.csv"
    configs = {
        "simulate": {"experiment": "simulate", "group": "D4", "hidden_generators": [2],
                     "oracle_seed": 7, "trials": 25, "seed": 13},
        "simon": {"experiment": "simon", "group": "Z2^4", "hidden_generators": [[1, 0, 1, 1]],
                  "trials": 12, "seed": 7},
        "recover": {"experiment": "recover", "group": "D4", "dist": str(dist),
                    "oracle_seed": 7},
        "sweep": {"experiment": "sweep-transversal", "N": 21, "a": 2, "Q": 512, "bound": 21,
                  "seeds": 3, "seed": 0},
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, raw in configs.items():
            run_experiment(config_from_dict(raw), tmp_path / name)
    finally:
        tracer.uninstall()
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.spans and not tracer._stack
    assert all(end is not None and end >= start for _, _, start, end, _ in tracer.spans)
    for metric in ("engine.state_bytes", "engine.pipeline_calls", "recovery.candidates",
                   "transversals.fft_columns", "reporting.bytes"):
        assert tracer.counts[metric] > 0, metric
