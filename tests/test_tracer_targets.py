"""The benchmark's tracer wraps voctrl functions it names by string.

A renamed or deleted target only fails once a traced benchmark run starts, so
the names are checked here, reading ``perfbench/tracer.py`` as it stands.
Its hooks also bind the arguments of some targets by name, so one tiny call
of each hooked target runs under the installed tracer in a fresh process.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import voctrl

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# every target with a hook, called once through the module attribute the
# tracer patches; prints what the tracer saw
HOOKED_CALLS = """
import json, sys
import voctrl, voctrl.cli
sys.path.insert(0, sys.argv[1])
import tracer as tracing

tr = tracing.Tracer()
tracing.install(tr)
problem = voctrl.ControlProblem(alpha=1.0, beta=1.0, sigma=1.0, a1=1.0, a2=1.0, x0=0.0,
                                kernel=voctrl.FractionalKernel(T=1.0, exponent=0.3))
grid = voctrl.TimeGrid(T=1.0, dt=0.1)
zero = lambda t: 0.0
voctrl.simulate.gaussian_increments(1, 3, 5, 0.1)
voctrl.simulate.simulate_paths(problem, zero, grid, 3, 1)
voctrl.objective.evaluate_J_mc(problem, zero, grid, 3, 1)
voctrl.objective.lq_oracle(problem, grid)
tr.end_op(0.0)
print(json.dumps({"errors": tr.errors, "counts": tr.counts, "peaks": tr.peaks,
                  "calls": tr.calls}))
"""


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


def test_hooked_targets_bind_under_the_tracer():
    src = str(Path(voctrl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", HOOKED_CALLS, str(TRACER.parent)],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    assert seen["errors"] == {}
    for key in ("noise_words_used", "euler_flops", "mc_values_used"):
        assert seen["counts"].get(key, 0) > 0, key
    assert seen["peaks"].get("oracle_dense_bytes", 0) > 0
    for span in ("simulate.noise", "simulate.euler", "objective.mc", "objective.oracle"):
        assert seen["calls"].get(span, 0) >= 1, span
