"""The benchmark's workloads call voctrl by keyword (kernels, problems,
controls, CLI argv), so a renamed parameter or a config that stops loading
only fails once a benchmark run starts.  Each workload runs here at its
smoke-test sizes, reading ``perfbench/workloads.py`` as it stands: setup,
prepare where there is one, one op and its check.
"""

import importlib.util
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", SOURCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_op_passes_its_check(name, tmp_path):
    wl = WORKLOADS[name]
    state = wl.setup(3, True, str(tmp_path))
    if wl.prepare is not None:
        wl.prepare(state)
    wl.check(state, wl.op(state, 7))
