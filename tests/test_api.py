import types

import pytest

import nlslab

MODULES = ("spectral", "dynamics", "scattering", "experiments", "config", "tables")


@pytest.mark.parametrize("module", MODULES)
def test_every_listed_name_is_the_same_object_on_the_package(module):
    mod = getattr(nlslab, module)
    for name in mod.__all__:
        assert getattr(nlslab, name) is getattr(mod, name), name


def test_package_api_is_exactly_the_union_of_the_module_lists():
    public = {
        name
        for name, value in vars(nlslab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    listed = [name for module in MODULES for name in getattr(nlslab, module).__all__]
    assert len(listed) == len(set(listed))  # no name is exported by two modules
    assert public == set(listed)


def test_regime_warning_is_one_public_runtime_warning():
    # the one class every out-of-regime warning shares, so a caller can
    # filter or escalate them all at once
    assert "RegimeWarning" in nlslab.spectral.__all__
    assert nlslab.RegimeWarning is nlslab.spectral.RegimeWarning
    assert issubclass(nlslab.RegimeWarning, RuntimeWarning)
    assert not issubclass(nlslab.RegimeWarning, nlslab.SimulationAbort)
