"""Scheduled Q-learning optimal tracking current control for SRM drives."""

from .plant import (MotorParams, InductanceSurface, ReferenceProfile,
                    default_surface, inductance_at, reference_at)
from .lqt import (AugmentedModel, are_fixed_point, optimal_gain,
                  policy_iteration_model_based)
from .qlearn import (TupleBatch, policy_improvement, stage_cost,
                     build_ls_rows, batch_ls_solve, rls_update,
                     q_policy_iteration)
from .scheduler import (QCoreTable, TableTrainConfig, locate, scheduled_gain,
                        train_table, update_core_online, save_table,
                        load_table)
from .sim import (Scenario, SimTrace, Metrics, run_closed_loop,
                  delta_modulation_step, compute_metrics, export_trace)

__version__ = "0.1.0"
