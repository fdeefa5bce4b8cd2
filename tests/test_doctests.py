import doctest
import importlib
import pkgutil

import pytest

import butterfly_trees

MODULES = [m.name for m in pkgutil.iter_modules(butterfly_trees.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    assert doctest.testmod(importlib.import_module(f"butterfly_trees.{name}")).failed == 0


def test_conftest_doctests():
    import conftest

    result = doctest.testmod(conftest)
    assert result.attempted and not result.failed
