"""Package surface: the import block and __all__ name the same things."""

import types

import mm3nlos


def test_all_names_exactly_the_public_objects():
    public = {
        name for name, value in vars(mm3nlos).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(mm3nlos.__all__)) == len(mm3nlos.__all__)
    assert set(mm3nlos.__all__) == public
    namespace = {}
    exec("from mm3nlos import *", namespace)  # raises if a listed name does not resolve
    assert set(namespace) - {"__builtins__"} == public
