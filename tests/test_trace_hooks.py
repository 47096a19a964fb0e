"""The benchmark's per-layer hooks name functions that still exist.

``perfbench/tracing.py`` wraps functions of ``weylops`` by module and
attribute name, and a hook whose target is gone only reads 0 there.  This
test loads its hook table from the file and fails on a renamed or deleted
target instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("layer, modname, attr", [h[:3] for h in _hooks()])
def test_hook_target_resolves(layer, modname, attr):
    owner = importlib.import_module(modname)
    *owners, name = attr.split(".")
    for part in owners:
        owner = vars(owner)[part]
    # the tracer wraps attributes defined on the owner itself
    assert callable(vars(owner).get(name)), f"{layer}: {modname}.{attr} is gone"


def test_invariants_keeps_the_imported_transport():
    """``perfbench/tests`` checks that the tracer rebinds the copy of
    ``transport_via_coordinates`` that ``weylops.invariants`` imports, and
    those tests run apart from this suite: the import must stay."""
    import weylops.invariants
    import weylops.transpose

    assert (weylops.invariants.transport_via_coordinates
            is weylops.transpose.transport_via_coordinates)
