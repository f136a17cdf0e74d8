"""Train a Q-network on logged marketing interactions, end to end.

Synthesizes a small logged dataset (customer timelines), flattens it into
transitions, trains a network, and prints the matched-vs-deviated
evaluation report. Everything is seeded, so reruns print the same numbers.

Run: python3 demos/train_on_logged_data.py
"""

import numpy as np

from clvdqn.policy_eval import evaluate, report_text
from clvdqn.qlearn import TrainConfig, train
from clvdqn.rfmi import Timelines, build_transitions, compute_norm_stats

rng = np.random.default_rng(0)

# 1. Fake logged history: 200 customers observed for 12 periods, one row of
#    each (customers, periods) array per customer; Timelines takes them
#    raveled, customer by customer. Donations are more likely shortly after a
#    mailing, which gives the learner a signal.
amounts, actions = np.zeros((200, 12)), np.zeros((200, 12), dtype=np.int64)
for c in range(200):
    actions[c] = rng.integers(0, 12, size=12)
    p = 0.10 + 0.15 * (actions[c] > 0)
    amounts[c] = np.where(rng.random(12) < p, rng.exponential(12.0, size=12), 0.0)
timelines = Timelines([f"cust{c}" for c in range(200)], np.full(200, 12), amounts.ravel(),
                      actions.ravel(), np.zeros(200 * 12))

transitions = build_transitions(timelines)
print(f"built {len(transitions)} transitions from {len(timelines)} timelines")

# 2. Split, and train on raw transitions with the training set's statistics only.
mask = rng.random(len(transitions)) < 0.25
train_set, val_set = transitions[~mask], transitions[mask]
stats = compute_norm_stats(train_set)

cfg = TrainConfig(epochs=15, seed=0)
net, history = train(train_set, val_set, cfg, stats)
print(f"trained {cfg.epochs} epochs; final loss {history[-1].loss:.3f}")

# 3. Offline evaluation on the held-out transitions.
report = evaluate(val_set, net, stats)
print()
print(report_text(report, timestamp=False))
