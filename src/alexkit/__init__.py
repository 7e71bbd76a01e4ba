"""alexkit: comparison geometry on finite sampled metric spaces.

Makes synthetic comparison-geometry machinery computable at desk scale:
comparison angles on constant-curvature planes, strained/regular point
detection on extremal subsets, strainer distance-map charts with measured
distortion, packing-based Hausdorff measure and dimension estimates,
discrete gradient flows, and chart-gluing constructions, all verified
against sampled model spaces with known ground truth.  Each name is
imported from the module that defines it; the package itself holds only
``__version__``.

Claims ledger
-------------
Each claim of the paper's abstract and of the background it cites, with the
function that computes it on a sample (``module.name``) and the tier-1 test
that gates it (``file::test``).  Every public function or class that no
module of the package reads is named here: it earns its place by its claim.

Regular points of an extremal subset E (the abstract).  A point p of E is
(m, delta)-strained when m pairs of points around p make comparison angles
near pi at p and near pi/2 across pairs; it is regular when it is strained
for every delta > 0.

1. A neighbourhood in E of a strained point, in particular of a regular
   point, is almost isometric to an open set in R^m: the distance map of a
   strainer is bi-Lipschitz with constants that tend to 1 as delta and the
   pitch h fall, and it is open.

   - ``strainers.find_strainer`` (and at a cone vertex, strained but not
     regular, exactly (2, delta)-strained for delta above half the angle
     deficit)
     tests/test_strainers.py::TestFindStrainer::test_square_interior_point_has_2_strainer
     tests/test_strainers.py::TestFindStrainer::test_cone_vertex_is_strained_at_exactly_half_the_angle_deficit
   - ``charts.build_chart`` (its max_abs_dev falls toward 0 along a
     refining family anchored at strained points, and not at a corner)
     tests/test_charts.py::TestDistortionTrend::test_refining_polygon_charts_improve
     tests/test_charts.py::TestDistortionTrend::test_corner_anchored_charts_flagged
   - ``charts.openness_measure``
     tests/test_charts.py::TestOpenness::test_boundary_edge_midpoint_small_defect
   - ``charts.metric_comparison`` (d_E / d near 1 at a regular point, near
     sqrt 2 at a corner)
     tests/test_charts.py::TestMetricComparison::test_edge_midpoint_ratio_one
     tests/test_charts.py::TestMetricComparison::test_corner_ratio_near_sqrt2
   - ``glue.build_projection`` (the charts glued into a projection of a
     collar onto E; whether it is the identity on E is checked and reported
     as ``identity_exact``, not guaranteed.  Its digest pins a known defect:
     one-coordinate charts inverted over pools wider than the stretch where
     d(a, .) is one-to-one move 3 points of the 0.6-radius 32-gon to their
     mirror images, by up to 0.667)
     tests/test_glue.py::test_projection_digest

2. The regular points are dense in E and of full measure: the unstrained
   part has measure of order h at each singular point, and the regular
   fraction rises as h falls.

   - ``strainers.classify``
     tests/test_strainers.py::TestClassify::test_boundary_edges_strained_corners_not
   - ``strainers.regular_points``
     tests/test_strainers.py::test_regular_points_are_dense_and_of_full_measure_as_h_falls
     tests/test_strainers.py::TestRegularPoints::test_masks_are_nested
   - ``strainers.unstrained_mass``
     tests/test_strainers.py::test_regular_points_are_dense_and_of_full_measure_as_h_falls
     tests/test_strainers.py::TestUnstrainedMass::test_corner_caps_only

Background (Perelman and Petrunin 1993; Burago, Gromov and Perelman 1992).

3. E is extremal if and only if, for every q outside E, each local minimum
   of dist_q on E is a critical point of dist_q in the ambient space.

   - ``space.extremality_check``
     tests/test_space.py::TestExtremalityCheck::test_square_boundary_passes
     tests/test_space.py::TestExtremalityCheck::test_wide_cone_vertex_fails

4. Gradient curves of ambient distance functions that start on E stay on E.

   - ``flow.gradient_curve``
     tests/test_flow.py::test_gradient_curves_ascend
   - ``flow.extremal_invariance_test``
     tests/test_flow.py::test_invariance_separates_boundary_from_midline

5. The gradient of dist_E is bounded away from 0 on a band around E.

   - ``flow.dist_gradient_lower_bound``
     tests/test_flow.py::test_boundary_distance_has_a_gradient_on_a_band

6. Shortest paths of E in its intrinsic metric are quasigeodesics of the
   ambient space: comparison angles toward them are monotone.

   - ``charts.intrinsic_shortest_path``
     tests/test_charts.py::TestQuasigeodesic::test_boundary_geodesic_around_corner
   - ``charts.quasigeodesic_check``
     tests/test_charts.py::TestQuasigeodesic::test_zigzag_negative_control

7. The Hausdorff dimension of an Alexandrov space is its strainer number,
   and an m-dimensional one has positive finite m-dimensional measure.

   - ``strainers.strainer_number``
     tests/test_strainers.py::test_strainer_number_tracks_packing_dimension
   - ``space.packing_dimension_estimate``
     tests/test_strainers.py::test_strainer_number_tracks_packing_dimension
   - ``strainers.local_strainer_number``
     tests/test_strainers.py::TestLocalStrainerNumber::test_interior_point_of_square_is_two
   - ``space.hausdorff_measure_estimate``
     tests/test_space.py::TestMeasureEstimate::test_filled_square_area_converges_to_one

8. Comparison angles on the plane of curvature kappa, the measure of every
   claim above.

   - ``kplane.comparison_angles_array`` (angle 0 where no comparison
     triangle exists, against the law of cosines at 50 digits)
     tests/test_kplane.py::test_kernel_matches_the_50_digit_law_of_cosines
     tests/test_kplane.py::TestComparisonAngle::test_hyperbolic_equilateral_against_high_precision_oracle

9. Model spaces with known curvature bound, each passing the (1+3)-point
   comparison at its kappa: the spherical suspension of a circle of length
   2 pi is the round sphere (kappa = 1), and that of two points at distance
   pi is a circle; the doubled square has curvature >= 0 (Perelman).

   - ``models.gen_circle``
     tests/test_models.py::TestSuspension::test_suspension_of_circle_is_round_sphere
   - ``models.gen_two_point_base``
     tests/test_models.py::TestSuspension::test_suspension_of_two_points_is_circle
   - ``models.gen_pillow``
     tests/test_models.py::test_every_generator_satisfies_the_four_point_comparison_at_its_kappa
     tests/test_models.py::TestPillow::test_twin_points_are_twice_the_distance_to_the_seam
"""

__version__ = "0.1.0"
