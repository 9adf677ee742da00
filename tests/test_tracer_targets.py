"""The benchmark's tracer wraps voctrl functions it names by string.

A renamed or deleted target only fails once a traced benchmark run starts, so
the names are checked here, reading ``perfbench/tracer.py`` as it stands.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve_in_voctrl():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attr, _, _ in tracer.TARGETS:
        assert module == "voctrl" or module.startswith("voctrl."), module
        owner = importlib.import_module(module)
        if "." in attr:  # a method, patched in the class's own namespace
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), (module, attr)
        else:
            assert callable(getattr(owner, attr, None)), (module, attr)
