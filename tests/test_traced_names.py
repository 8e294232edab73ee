"""Every layer function the benchmark tracer wraps by name still exists.

The tracer in ``bench/tracing.py`` swaps listed functions for timing
wrappers by name, so renaming or deleting one of them silently drops its
spans from the traced benchmark.  The file is loaded by path and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layer_functions(monkeypatch):
    spec = importlib.util.spec_from_file_location("_charvar_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


def test_every_traced_name_resolves(monkeypatch):
    table = _layer_functions(monkeypatch)
    assert "charvar.groups" in table and "charvar.fixed_loci" in table
    for module_name, names in table.items():
        module = importlib.import_module(module_name)
        for name in names:
            target = module
            for part in name.split("."):
                assert hasattr(target, part), f"{module_name}.{name}"
                target = getattr(target, part)
            assert callable(target), f"{module_name}.{name}"
