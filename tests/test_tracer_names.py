"""Every name the benchmark's tracer wraps still exists in the program.

`perfbench/tracer.py` wraps functions by name, so deleting or renaming one
of them would break `perfbench/run.py --trace 1`. The tracer is loaded by
path and read, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(mod, attr) for mod, attrs in tracer.WRAPPED.items() for attr in attrs]
    names.extend(tracer.CONSTRUCTORS.items())
    names.extend(tuple(full.rsplit(".", 1)) for full in tracer.PAIR_FUNCTIONS)
    missing = [
        "%s.%s" % (mod, attr)
        for mod, attr in names
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []
