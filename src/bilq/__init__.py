"""Optimal estimation and control for linear systems with bilinear observations."""

from .core import (BatchCheckError, BeliefState, BilinearSystem, CostSpec,
                   NoiseSpec, RngStream, config_from_dict, config_to_dict,
                   load_config, observation_matrix, sample_gaussian,
                   validate_system)
from .kalman import KalmanStep, grid_bayes_oracle, kf_step, kf_step_batch
from .control import (AffineFalsificationReport, BellmanObjectiveParams,
                      CriticalPoint, RiccatiTables, ScalarGapParams,
                      T2ControllerResult, affine_falsification_test,
                      bellman_minimize_Tm2, bellman_objective_Tm2,
                      bellman_params_at_stage, lqg_policy, riccati_recursion,
                      scalar_cost_to_go, scalar_critical_points,
                      scalar_gap_params, scalar_optimal_controller_T2)
from .observability import (PROBE_THRESHOLD, BoundednessReport, GramianReport,
                            Prop1Report, check_proposition1,
                            covariance_boundedness_probe, gramian,
                            gramian_decomposition, orthogonal_complement_c0,
                            window_gramians)
from .sim import (LandscapeTable, MonteCarloResult, PercentileSeries,
                  PolicyConfig, SimConfig, TrajectoryRecord, landscape_sweep,
                  monte_carlo, rollout, write_landscape_csv, write_summary_csv,
                  write_trajectory_csv)
from .presets import double_integrator_config, orthogonal_config, scalar_config

__version__ = "0.1.0"
