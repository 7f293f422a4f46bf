"""The package's public surface."""

import importlib
import importlib.util
from pathlib import Path

import anoma
from anoma import _bands

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_exported_name_resolves():
    missing = [name for name in anoma.__all__ if not hasattr(anoma, name)]
    assert not missing


def test_every_traced_layer_function_resolves():
    # bench/tracer.py patches these by name; a rename must not leave the
    # traced benchmark wrapping nothing
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, module_name, name in tracer.LAYER_FUNCTIONS:
        owner = importlib.import_module(module_name)
        if "." in name:
            cls_name, name = name.split(".")
            # the tracer patches methods in the class body itself
            owner = vars(getattr(owner, cls_name))
            found = name in owner
        else:
            found = callable(getattr(owner, name, None))
        if not found:
            missing.append((module_name, name))
    assert not missing
    assert "to_dense" in vars(_bands.BandedMatrix)
