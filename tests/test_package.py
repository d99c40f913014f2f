import types

import cipherorder


def test_all_lists_exactly_the_public_names():
    # every public non-module name of the package, each listed once
    public = {
        name
        for name, value in vars(cipherorder).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(cipherorder.__all__)) == len(cipherorder.__all__)
    assert set(cipherorder.__all__) == public
