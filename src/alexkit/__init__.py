"""alexkit: comparison geometry on finite sampled metric spaces.

Makes synthetic comparison-geometry machinery computable at desk scale:
comparison angles on constant-curvature planes, strained/regular point
detection on extremal subsets, strainer distance-map charts with measured
distortion, packing-based Hausdorff measure and dimension estimates,
discrete gradient flows, and chart-gluing constructions (collar projections,
cross-space almost isometries, volume-convergence experiments), all verified
against sampled model spaces with known ground truth.
"""

__version__ = "0.1.0"

from .errors import DomainError, FlowStalled, KitError, NoComparisonTriangle, Refusal, UndefinedAngle
from .kplane import comparison_angle, side_from_angle
from .space import (
    Curve,
    Space,
    Subset,
    ball,
    extremality_check,
    hausdorff_measure_estimate,
    intrinsic_metric,
    packing_dimension_estimate,
    packing_ids,
    packing_number,
    validate,
)
from .strainers import (
    ClassificationMask,
    Strainer,
    classify,
    find_strainer,
    is_strainer,
    local_strainer_number,
    regular_points,
    strainer_number,
    unstrained_mass,
)
from .charts import (
    Chart,
    build_chart,
    distortion_trend,
    intrinsic_shortest_path,
    metric_comparison,
    openness_measure,
    quasigeodesic_check,
)
from .flow import (
    FlowConfig,
    directional_derivative,
    dist_gradient_lower_bound,
    extremal_invariance_test,
    gradient_curve,
)
from .glue import (
    GlueMap,
    build_projection,
    bump,
    cross_space_almost_isometry,
    discrete_net,
    projection_quality,
    volume_convergence_experiment,
)
from . import models
from .io import load_space, save_space
