"""The library's options: every defaulted parameter and defaulted dataclass field, by name.

Each option doubles the configurations the tests must cover, so the list
is closed: a change that adds an option, or removes one, edits OPTIONS.
"""

import dataclasses
import importlib
import inspect

import dualfilter

MODULES = ("adapted", "hmm", "oracle", "predictor", "dual", "fixedpoint", "attention")

OPTIONS = [
    "oracle.exact_expectation.T",
    "dual.solve_optimal.laws",
    "fixedpoint.iterate.rho0",
    "hmm.HmmModel.zero_convention",
]


def defaulted_parameters(prefix, fn):
    return [f"{prefix}.{p.name}" for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]


def options(module_name):
    """Defaulted parameters of the module's functions and methods, and defaulted fields of its dataclasses."""
    module = importlib.import_module(f"dualfilter.{module_name}")
    found = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        qual = f"{module_name}.{name}"
        if inspect.isfunction(obj):
            found += defaulted_parameters(qual, obj)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                found += [f"{qual}.{f.name}" for f in dataclasses.fields(obj)
                          if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING]
            for attr, member in vars(obj).items():
                fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                # a dataclass's generated __init__ repeats its fields
                if inspect.isfunction(fn) and not (dataclasses.is_dataclass(obj) and attr == "__init__"):
                    found += defaulted_parameters(f"{qual}.{attr}", fn)
    return found


def test_the_option_list_is_closed():
    found = [name for module in MODULES for name in options(module)]
    assert sorted(found) == sorted(OPTIONS)
    assert len(found) == len(set(found)) == 4


def test_no_function_takes_the_zero_convention():
    # the convention is the model's field, so a filter and its predictor target cannot disagree on it
    takers = [f"{module}.{name}" for module in MODULES
              for name, fn in vars(importlib.import_module(f"dualfilter.{module}")).items()
              if inspect.isfunction(fn) and "zero_convention" in inspect.signature(fn).parameters]
    assert takers == []


def test_every_exported_name_resolves():
    assert [name for name in dualfilter.__all__ if not hasattr(dualfilter, name)] == []
    assert len(set(dualfilter.__all__)) == len(dualfilter.__all__)
