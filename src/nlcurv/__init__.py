"""nlcurv: nonlocal curvature functionals on discrete hypersurfaces.

Evaluates fractional mean curvature, nonlocal bending / Willmore /
tangent-point energies, fractional Sobolev seminorms, and the geometric
probes (Monge patches, Ahlfors regularity, chord-arc constants, sphere
stability), plus an area-constrained gradient-descent minimizer — all
validated against closed-form circle and sphere oracles.
"""

from . import errors
from .errors import NlcurvError
from .flow import (
    FlowState,
    energy_gradient,
    hausdorff_to_best_sphere,
    minimize,
)
from .functionals import (
    EnergyReport,
    bending_energy,
    pointwise_curvature,
    tangent_point_energy,
    willmore_energy,
)
from .geodesics import intrinsic_distances
from .oracles import (
    OracleValue,
    circle_fmc,
    oracle,
    sphere_fmc,
    tangent_radius_circle,
)
from .probes import (
    PatchChart,
    StabilityReport,
    ahlfors_ratio,
    chord_arc_constant,
    extract_patch,
    patch_radii,
    stability_probe,
)
from .quadrature import QuadratureScheme, build_scheme
from .seminorms import (
    ScalarField,
    graph_linearization_functional,
    holder_seminorm,
    lq_norm,
    morrey_check,
    sobolev_seminorm,
)
from .surface import (
    DiscreteHypersurface,
    EnergyParameters,
    build_surface,
    convexity_check,
    load_mesh,
    make_primitive,
    rescale,
    save_off,
)

__version__ = "0.1.0"
