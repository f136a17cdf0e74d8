"""Per-action customer lifetime value and Q-value curves over the state space.

Trains a quick network on the synthetic environment, then (a) prints the
action-conditional CLV estimates for a handful of raw customer states and
(b) sweeps interaction frequency to show the contact-fatigue effect: piling
on more mailings lowers the expected future value.

Run: python3 demos/clv_and_value_curves.py   (about half a minute)
"""

import numpy as np

from clvdqn.env import AgentConfig, DonorModel, run_autonomous
from clvdqn.policy_eval import SweepSpec, estimate_clv, export_value_curves
from clvdqn.qlearn import TrainConfig

result = run_autonomous(200, DonorModel(seed=1), AgentConfig(seed=1), TrainConfig(seed=1))
net, stats = result.net, result.norm_stats

print("state = (recency, frequency, monetary, i_recency, i_frequency)\n")
examples = {
    "fresh prospect": np.array([0.0, 0, 0, 0, 0]),
    "recent donor": np.array([1.0, 3, 12.0, 1, 5]),
    "over-contacted": np.array([1.0, 3, 12.0, 1, 60]),
    "lapsed donor": np.array([9.0, 4, 15.0, 2, 8]),
}
for label, state in examples.items():
    est = estimate_clv(net, state, stats)
    print(f"{label:15s} best action {est.best_action:2d}, CLV {est.best_value:7.2f}, "
          f"inaction CLV {est.values[0]:7.2f}")

# Sweep i_frequency with the other dims pinned to replay medians.
states = result.replay.contents().states
names = ("recency", "frequency", "monetary", "i_recency", "i_frequency")
median = dict(zip(names, np.median(states, axis=0)))
sweep = SweepSpec(
    dims=("i_frequency",),
    ranges=((0.0, float(states[:, 4].max())),),
    resolution=10,
    reference={k: v for k, v in median.items() if k != "i_frequency"},
)
rows = export_value_curves(net, sweep, stats)
print("\ni_frequency sweep (best Q over actions):")
for row in rows:
    best = row[1:].max()
    print(f"  i_frequency {row[0]:6.1f}: best Q {best:7.2f}  " + "#" * max(0, int(best)))
