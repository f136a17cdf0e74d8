"""Deep Q-learning over RFM-I customer states for direct-marketing control."""

from .action_space import AcontRange, action_values, maximize_continuous_batch
from .env import AgentConfig, DonorModel, run_autonomous
from .nn_core import LayerSpec, Mlp, init_mlp, load_mlp, rmsprop_step, save_mlp
from .policy_eval import ClvEstimate, EvaluationReport, SweepSpec, estimate_clv, evaluate, export_value_curves, recommend_batch
from .qlearn import Learner, TrainConfig, bellman_target, load_checkpoint, save_checkpoint, td_step, td_steps, train
from .rfmi import NormStats, Timelines, Transitions, advance_states, apply_norm, build_transitions, compute_norm_stats

__version__ = "0.1.0"
