"""The traced benchmark run wraps memlabel functions by name; every name it
wraps must still exist where it looks for it."""

import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing._targets()


@pytest.mark.parametrize("owner,attr", [(t[0], t[1]) for t in _targets()],
                         ids=lambda v: getattr(v, "__name__", v))
def test_traced_name_is_defined_on_its_owner(owner, attr):
    assert attr in owner.__dict__
