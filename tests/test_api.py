"""The public surface of the leo package.

A stale ``__all__`` entry or re-export would otherwise fail only at a
user's ``from leo.<module> import *``; these tests fail on it instead.
"""

import importlib
import types

import pytest

import leo
from leo.lti_core import LtiParams, NoiseRealization

WITH_ALL = ("lti_core", "observer", "local_lti", "learning", "experiments")
MODULES = ("exceptions", *WITH_ALL)

# Names removed from the public surface, which nothing in the program used.
DELETED = (
    ("observer", "ObserverGain"),
    ("lti_core", "condition_number"),
    ("lti_core", "matrix_from_json"),
    ("learning", "elementwise_mean_abs"),
    ("learning", "AdamState"),
    ("learning", "adam_step"),
    ("local_lti", "StackedOperators"),
    ("local_lti", "stacked_operators"),
)


def module(name):
    return importlib.import_module(f"leo.{name}")


def exported(name):
    """A module's ``__all__``, or its public names where it has none."""
    m = module(name)
    return getattr(m, "__all__", [k for k in vars(m) if not k.startswith("_")])


@pytest.mark.parametrize("name", WITH_ALL)
def test_star_import_binds_every_all_entry(name):
    namespace = {}
    exec(f"from leo.{name} import *", namespace)
    assert set(module(name).__all__) <= namespace.keys()


def test_every_reexport_is_a_module_export():
    public = [k for k, v in vars(leo).items()
              if not k.startswith("_") and not isinstance(v, types.ModuleType)]
    stale = [k for k in public
             if not any(k in exported(m) and getattr(module(m), k) is getattr(leo, k)
                        for m in MODULES)]
    assert stale == []
    namespace = {}
    exec("from leo import *", namespace)
    assert set(public) <= namespace.keys()


@pytest.mark.parametrize("name, attr", DELETED)
def test_deleted_names_are_gone(name, attr):
    assert not hasattr(module(name), attr)
    assert not hasattr(leo, attr)


def test_deleted_members_are_gone():
    assert not hasattr(LtiParams, "to_json") and not hasattr(LtiParams, "from_json")
    assert not hasattr(NoiseRealization, "horizon")
