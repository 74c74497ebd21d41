"""The public surface: each public name is declared once, in the __all__ of
the module that defines it, and the package re-exports every module's
__all__ as its own."""

import importlib
import inspect
import pkgutil

import pytest

import ucpscatter

MODULES = [importlib.import_module(f"ucpscatter.{info.name}")
           for info in pkgutil.iter_modules(ucpscatter.__path__)]


def test_package_names_are_unique_and_resolve():
    names = ucpscatter.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(ucpscatter, name)  # raises AttributeError for a name that does not resolve


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_lists_only_what_it_defines(module):
    for name in getattr(module, "__all__", ()):
        value = getattr(module, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, name
        assert getattr(ucpscatter, name) is value


def test_each_name_is_declared_once():
    declared = [name for module in MODULES for name in getattr(module, "__all__", ())]
    assert len(declared) == len(set(declared))
    assert sorted(ucpscatter.__all__) == sorted(["__version__", *declared])


def test_each_arrays_entry_has_its_one_point_view():
    # a method's one-point call is named as its arrays entry, without _arrays
    entries = sorted(name for name in ucpscatter.__all__ if name.endswith("_arrays"))
    assert entries == ["bloch_sequence_arrays", "reflection_asymptote_arrays",
                       "transmission_oracle_arrays", "transmission_spp_arrays",
                       "transmission_ucp_arrays"]
    assert all(name.removesuffix("_arrays") in ucpscatter.__all__ for name in entries)


# names the package root does not export, but a module may still define
ROOT_ONLY = ["q_pochhammer", "TransferMatrix"]


@pytest.mark.parametrize("name", ["barrier_matrix", "propagation_matrix", "BlochSequence",
                                  "SegmentGeometry", *ROOT_ONLY])
def test_test_references_and_wrappers_are_not_public(name):
    # the plane-wave matrices and q_pochhammer are test references in tests/paper.py;
    # bloch_sequence and build_segments return their tuples without a one-field
    # wrapper; scattering.TransferMatrix stays unexported while the benchmark's
    # tracer wraps its __matmul__
    assert not hasattr(ucpscatter, name)
    if name not in ROOT_ONLY:
        assert not any(hasattr(module, name) for module in MODULES)
