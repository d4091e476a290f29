"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root lists the same metrics; the
self-test holds the two against each other.  The last field of each
``PER_LAYER`` row records which end-to-end metric, on which workload, a
change to that layer should move, written down before any optimisation.
"""

# name, unit, better, bound (share of the parent's median).  Time bounds
# are the widest allowed: on the two-core development machine, whose
# cores are shared with other tenants, a fixed block of requests ran
# anywhere between 0.64 s and 1.32 s within one minute, and ten runs of
# posture_sweep spread by 17% between quartiles even after the yardstick
# correction.  final_cost is exact on the fixed decks of the solve
# workloads; on statics_eval its seeded median spread by 7%.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.25),
    ("request_s_p50", "s", "lower", 0.25),
    ("request_s_p90", "s", "lower", 0.25),
    ("requests_per_s", "1/s", "higher", 0.25),
    ("final_cost", "cost", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("completed_share", "share", "higher", 0.02),
)

# name, unit, better, what it should move
PER_LAYER = (
    ("nlpsolver.self_s_per_iter", "s", "lower",
     "solve_s on codesign; little on posture_sweep; none on statics_eval"),
    ("nlpsolver.iterations", "count", "lower",
     "solve_s on codesign (constant at a fixed budget unless a solve "
     "stops early)"),
    ("nlpsolver.evals_per_iter", "count", "lower", "solve_s on codesign"),
    ("nlpsolver.kkt_s", "s", "lower", "solve_s on codesign"),
    ("nlpsolver.jac_density", "share", "lower",
     "computed count; sparse-aware solvers gain most on codesign"),
    ("ergoopt.value_s", "s", "lower",
     "request_s_p50 on posture_sweep, then solve_s on codesign"),
    ("ergoopt.value_calls", "count", "lower",
     "request_s_p50 on posture_sweep, then solve_s on codesign"),
    ("ergoopt.derivs_s", "s", "lower",
     "request_s_p50 on posture_sweep, then solve_s on codesign"),
    ("ergoopt.derivs_calls", "count", "lower",
     "request_s_p50 on posture_sweep, then solve_s on codesign"),
    ("fad.deriv_to_value_ratio", "ratio", "lower",
     "same as ergoopt.derivs_s"),
    ("ergoopt.solution_statics_s", "s", "lower",
     "request_s_p50 on posture_sweep"),
    ("scenario.warm_start_s", "s", "lower",
     "request_s_p50 on posture_sweep; small on codesign"),
    ("scenario.warm_start_calls", "count", "lower",
     "request_s_p50 on posture_sweep; small on codesign"),
    ("coupled.evaluate_statics_s", "s", "lower",
     "request_s_p50 and requests_per_s on statics_eval"),
    ("coupled.evaluate_statics_calls", "count", "lower",
     "request_s_p50 and requests_per_s on statics_eval"),
    ("coupled.statics_minnorm_s", "s", "lower",
     "request_s_p50 and requests_per_s on statics_eval; derivative "
     "evaluation on the solve workloads"),
    ("coupled.statics_minnorm_calls", "count", "lower",
     "request_s_p50 and requests_per_s on statics_eval"),
    ("coupled.rejected", "count", "lower",
     "completed_share stays; refusals are answers, counted apart"),
    ("multibody.kinematics_s", "s", "lower", "all three workloads"),
    ("multibody.kinematics_calls", "count", "lower", "all three workloads"),
    ("multibody.frame_jacobian_s", "s", "lower", "all three workloads"),
    ("multibody.frame_jacobian_calls", "count", "lower",
     "all three workloads"),
    ("multibody.mass_matrix_s", "s", "lower", "statics_eval only"),
    ("multibody.mass_matrix_calls", "count", "lower", "statics_eval only"),
    ("templates.build_s", "s", "lower", "setup_s on every workload"),
    ("scenario.self_s", "s", "lower", "request_s_p50 on posture_sweep"),
    ("ergoopt.self_s", "s", "lower",
     "solve_s on codesign and posture_sweep"),
    ("coupled.self_s", "s", "lower", "request_s_p50 on statics_eval"),
    ("multibody.self_s", "s", "lower", "all three workloads"),
    ("trace.overhead_share", "share", "lower",
     "none: cost of tracing against the untraced replay"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
