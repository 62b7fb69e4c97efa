"""Run the docstring examples of every ``anomcancel`` module."""

import doctest
import importlib
import pkgutil

import pytest

import anomcancel

MODULES = ["anomcancel"] + sorted(m.name for m in pkgutil.iter_modules(anomcancel.__path__, "anomcancel."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
