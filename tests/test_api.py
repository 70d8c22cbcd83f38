"""Snapshot of the public API's defaulted parameters.

Every keyword with a default is an option a caller may set.  A new one
shows up here as a reviewed diff; one that no test, demo or CLI path sets
belongs in a module constant instead.
"""

import dataclasses
import inspect

import nlcurv

DEFAULTED = {
    "EnergyParameters": ["p", "q", "normalization"],
    "bending_energy": ["workers"],
    "build_scheme": ["order", "diagonal_policy"],
    "build_surface": ["codim2", "allow_boundary"],
    "chord_arc_constant": ["sample_pairs", "seed"],
    "energy_gradient": ["order", "diagonal_policy"],
    "extract_patch": ["grad_bound", "grid_step", "rmax", "zmax",
                      "compute_holder"],
    "fractional_mean_curvature": ["workers"],
    "holder_seminorm": ["distance_mode"],
    "intrinsic_distances": ["sources"],
    "minimize": ["max_iter", "step0", "grad_tol", "smoothing", "order",
                 "diagonal_policy", "workers", "callback"],
    "nonlocal_second_fundamental": ["workers"],
    "patch_radii": ["vertices"],
    "pointwise_curvature": ["vertices", "kind", "workers"],
    "sobolev_seminorm": ["distance_mode"],
    "stability_probe": ["alpha", "q"],
    "tangent_point_energy": ["workers"],
    "willmore_energy": ["workers"],
}


def _defaulted():
    """Defaulted parameters of every public function, and the defaulted
    fields of EnergyParameters (the other public classes are results)."""
    out = {}
    for name in dir(nlcurv):
        obj = getattr(nlcurv, name)
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        if obj is nlcurv.EnergyParameters:
            names = [f.name for f in dataclasses.fields(obj)
                     if f.default is not dataclasses.MISSING]
        elif inspect.isfunction(obj):
            names = [p.name for p in inspect.signature(obj).parameters.values()
                     if p.default is not inspect.Parameter.empty]
        else:
            continue
        if names:
            out[name] = names
    return out


def test_defaulted_parameters_snapshot():
    assert _defaulted() == DEFAULTED


def test_defaulted_parameter_count():
    assert sum(map(len, _defaulted().values())) == 38
