"""Snapshot of the public API: its names and defaulted parameters.

Every keyword with a default is an option a caller may set.  A new one
shows up here as a reviewed diff; one that no test, demo or CLI path sets
belongs in a module constant instead.  Likewise a new public name shows
up here; one that no CLI, demo or bench path uses stays private.
"""

import dataclasses
import inspect

import nlcurv

PUBLIC = [
    "DiscreteHypersurface", "EnergyParameters", "EnergyReport", "FlowState",
    "NlcurvError", "OracleValue", "PatchChart", "QuadratureScheme",
    "ScalarField", "StabilityReport", "ahlfors_ratio", "bending_energy",
    "build_scheme", "build_surface", "chord_arc_constant", "circle_fmc",
    "convexity_check", "energy_gradient", "expected_scaling_exponent",
    "extract_patch", "fractional_mean_curvature",
    "graph_linearization_functional", "hausdorff_to_best_sphere",
    "holder_seminorm", "intrinsic_distances", "load_mesh", "lq_norm",
    "make_primitive", "minimize", "morrey_check",
    "nonlocal_second_fundamental", "oracle", "patch_radii",
    "pointwise_curvature", "project_area", "rescale", "save_off",
    "signed_volume", "sobolev_seminorm", "sphere_fmc", "stability_probe",
    "tangent_point_energy", "tangent_radius_circle", "willmore_energy",
]

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
    "patch_radii": ["vertices", "workers"],
    "pointwise_curvature": ["vertices", "kind", "workers"],
    "sobolev_seminorm": ["distance_mode"],
    "stability_probe": ["alpha", "q"],
    "tangent_point_energy": ["workers"],
    "willmore_energy": ["workers"],
}


def _public():
    """Public names of nlcurv other than its submodules (which ones are
    attributes depends on what else was imported)."""
    return sorted(name for name in dir(nlcurv) if not name.startswith("_")
                  and not inspect.ismodule(getattr(nlcurv, name)))


def _defaulted():
    """Defaulted parameters of every public function, and the defaulted
    fields of EnergyParameters (the other public classes are results)."""
    out = {}
    for name in _public():
        obj = getattr(nlcurv, name)
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


def test_public_names_snapshot():
    assert _public() == PUBLIC


def test_defaulted_parameters_snapshot():
    assert _defaulted() == DEFAULTED


def test_defaulted_parameter_count():
    assert sum(map(len, _defaulted().values())) == 39
