"""The package namespace is the union of the submodules' public names."""
import homlie
from homlie import brackets, classify, coordinates, curvature, flow

SUBMODULES = (brackets, coordinates, curvature, flow, classify)


def test_package_exports_each_submodule_all_once():
    names = [name for module in SUBMODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert homlie.__all__ == sorted(names)
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(homlie, name) is getattr(module, name), name
    assert "polyjet" not in homlie.__all__

