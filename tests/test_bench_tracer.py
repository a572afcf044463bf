"""The traced benchmark run wraps spinroot by name; every name must resolve."""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    mods = {m: importlib.import_module(f"spinroot.{m}") for m in tracer.MODULES}
    missing = [f"{mod}.{attr}" for mod, attr, *_ in tracer.FUNCTIONS
               if not callable(getattr(mods[mod], attr, None))]
    assert not missing
    assert isinstance(mods["induction"].VersorGroup.cayley, property)
    assert callable(mods["ade"].ADERootData.roots)
