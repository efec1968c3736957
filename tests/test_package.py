"""The package's public names: where they live and how they load.

``import tenrol`` defines the tensor layer, the SVD and the pseudoinverse
at once; the names of ``tenrol.rol`` and ``tenrol.fuzz`` resolve on first
access through the package's module-level ``__getattr__``.  Either way a
name of ``tenrol.__all__`` is the object its home module defines.
"""

from __future__ import annotations

import importlib
import json
import pickle
import subprocess
import sys

import pytest

import tenrol
from tenrol import fuzz, rol

#: The modules whose ``__all__`` the package re-exports.
HOMES = ("core", "mpinv", "unfold", "rol", "fuzz")
PUBLIC = [name for name in tenrol.__all__ if name != "__version__"]


def home_of(name: str):
    """The one module of ``HOMES`` whose ``__all__`` lists ``name``."""
    (home,) = (m for m in (importlib.import_module(f"tenrol.{h}") for h in HOMES) if name in m.__all__)
    return home


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_name_is_the_object_of_its_home_module(name):
    assert getattr(tenrol, name) is getattr(home_of(name), name)


def test_the_lazy_names_live_in_rol_and_fuzz():
    assert {name for name in PUBLIC if home_of(name).__name__ == "tenrol.fuzz"} == {
        "FUZZ_FAMILIES", "FuzzSummary", "fuzz_search",
    }
    assert {"rol_report", "RolReport", "projector_commute_report"} <= set(rol.__all__)


def test_dir_lists_every_public_name():
    assert set(tenrol.__all__) <= set(dir(tenrol))
    assert dir(tenrol) == sorted(dir(tenrol))


def test_a_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from tenrol import *", namespace)
    for name in tenrol.__all__:
        assert namespace[name] is getattr(tenrol, name)


def test_dir_and_the_eager_names_do_not_load_rol_or_fuzz():
    code = (
        "import json, sys, tenrol; names = dir(tenrol); tenrol.pinv, tenrol.DenseTensor, tenrol.__version__; "
        "print(json.dumps(['rol_report' in names, sorted(m for m in ('tenrol.rol', 'tenrol.fuzz') if m in sys.modules)]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [True, []]


@pytest.mark.parametrize("module", [tenrol, rol])
def test_an_unknown_attribute_raises_the_standard_error(module):
    with pytest.raises(AttributeError, match=rf"^module '{module.__name__}' has no attribute 'no_such_name'$"):
        module.no_such_name
    assert not hasattr(module, "_draw_block")


@pytest.mark.parametrize("name", ["fuzz_search", "FuzzSummary", "FUZZ_FAMILIES"])
def test_rol_serves_the_fuzz_names(name):
    assert getattr(rol, name) is getattr(fuzz, name)


def test_a_fuzz_summary_survives_a_pickle_round_trip():
    summary = tenrol.fuzz_search(tenrol.ModeShape((2,), (2,)), 7, 3)
    assert type(summary) is fuzz.FuzzSummary and summary.__module__ == "tenrol.fuzz"
    back = pickle.loads(pickle.dumps(summary))
    assert type(back) is fuzz.FuzzSummary
    assert back == summary and back.family_counts == summary.family_counts
