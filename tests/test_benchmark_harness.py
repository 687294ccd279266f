"""The benchmark harness under ``perfbench/`` reads the package by name: its
tracer builds the per-layer metrics from public functions named by string, so
a rename there would silently read as zero time rather than fail."""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

from cventangle import fock

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_selftest_passes():
    result = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                            capture_output=True, text=True, cwd=PERFBENCH.parent, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


def test_traced_fock_names_exist():
    tracer = load_tracer()
    names = [*tracer.FOCK_BUILDERS, "negativity_fock", "realignment_trace_norm_fock", "witness_fock"]
    for name in names:
        assert callable(getattr(fock, name, None)), f"perfbench traces fock.{name}, which is gone"


#: The non-Fock functions ``tracer.layer_metrics`` reads by name.
TRACED_LAYER_NAMES = [
    "symplectic.is_physical",
    "phase_space.slice_integral",
    "states.parse_state_descriptor",
]


def test_traced_layer_names_exist():
    source = inspect.getsource(load_tracer().layer_metrics)
    for name in TRACED_LAYER_NAMES:
        assert f'"{name}"' in source, f"layer_metrics no longer reads {name}"
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"cventangle.{module}"), attr, None)
        # the tracer wraps a function only in the module that defines it
        assert callable(fn) and fn.__module__ == f"cventangle.{module}", (
            f"perfbench traces {name}, which is gone")
