"""The benchmark's span tracer rebinds qdiff names from outside the package.

perfbench/spans.py lists every (module, name) it wraps; a refactor that
drops or renames one of them would break the benchmark's traced run, so it
must fail here first.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_traced_name_still_exists():
    targets = load_targets()
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
