"""Every name that the benchmark's tracer binds resolves in the library.

``perfbench/tracer.py`` lists the functions it wraps in ``ENTRY_POINTS``,
per layer.  ``Tracer.install`` reads a plain name as a function of
``realcheck.<layer>`` (it looks at the function's ``__code__``) and a
dotted name ``Class.method`` in the class's own ``__dict__``.  A name that
is gone from the library fails here, by name, instead of as a traceback
from ``Tracer.install`` inside the benchmark's self-test.
"""

import importlib
import sys
import types

from conftest import FIXTURES

PERFBENCH = FIXTURES.parent / "perfbench"


def entry_points():
    """The benchmark's ``tracer.ENTRY_POINTS``, imported as it is."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer.ENTRY_POINTS


def unresolved(points):
    """The names of ``points`` that ``Tracer.install`` could not bind."""
    missing = []
    for layer, names in points.items():
        module = importlib.import_module(f"realcheck.{layer}")
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                ok = isinstance(owner, type) and attr in owner.__dict__
            else:
                ok = isinstance(getattr(module, attr, None), types.FunctionType)
            if not ok:
                missing.append(f"{layer}.{qualname}")
    return missing


def test_every_entry_point_resolves():
    points = entry_points()
    assert sum(map(len, points.values())) > 50
    assert unresolved(points) == []


def test_a_missing_name_is_reported_by_name():
    points = {"opca": ("turing_leq", "no_such_function", "SequenceKit.seq_value",
                       "SequenceKit.no_such_method", "NoSuchClass.method"),
              "aks": ("CLOSED_SET_CAP",)}  # not a function
    assert unresolved(points) == ["opca.no_such_function", "opca.SequenceKit.no_such_method",
                                  "opca.NoSuchClass.method", "aks.CLOSED_SET_CAP"]
