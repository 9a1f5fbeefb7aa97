import importlib
import importlib.util
from functools import cached_property
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    """The benchmark's tracer rebinds each TARGETS entry by name, so a renamed or
    deleted hspsim name breaks `perfbench/run.py --trace 1`."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for _, _, module, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, member = attr.split(".")
            wrapped = vars(getattr(owner, cls_name)).get(member)
            assert isinstance(wrapped, (classmethod, cached_property)), f"{module}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
