"""Choosing a continuous action attribute (e.g. discount depth) exactly.

In mixed mode the network takes the 5-dim customer state plus one continuous
attribute, and picking the best action means maximizing each discrete action's
Q over that attribute. With ReLU hidden layers each Q is piecewise linear in
the attribute, so its maximum sits at a bound or at a kink, and enumerating
the kinks finds it exactly. This demo builds a network whose value of action 7
is a tent peaking at attribute = 1, then shows the maximizer finding the peak.

Run: python3 demos/continuous_action_optimization.py
"""

import numpy as np

from clvdqn.action_space import AcontRange, maximize_continuous_batch
from clvdqn.nn_core import LayerSpec, Mlp, forward_batch, n_params
from clvdqn.policy_eval import recommend_batch
from clvdqn.rfmi import NormStats

# Q[7](state, a) = 2 + relu(a) - 2*relu(a - 1): rises to 3.0 at a=1, falls after.
# A net wraps one flat parameter vector; its per-layer weights and biases are views into it.
specs = (LayerSpec(6, 2, "relu"), LayerSpec(2, 12, "linear"))
net = Mlp(specs, np.zeros(n_params(specs)))
(w1, w2), (b1, b2) = net.weights, net.biases
w1[0, 5] = 1.0
w1[1, 5] = 1.0
b1[1] = -1.0
w2[7, 0] = 1.0
w2[7, 1] = -2.0
b2[:] = 1.0  # every other action sits flat at 1.0
b2[7] = 2.0

# The attribute's search interval, and the input that stands for inaction.
acont_range = AcontRange(-2.0, 2.0, inaction=0.0)
states = np.zeros((1, 5))

# One call maximizes every action's Q for a batch of states (here, one state).
aconts, qs = maximize_continuous_batch(net, states, acont_range)
print(f"action 7: best attribute {aconts[0, 7]:.3f} (true peak 1.0), "
      f"Q = {qs[0, 7]:.3f} (true max 3.0)")

# recommend_batch compares the maximized Q of every action, including inaction. It takes
# raw states and returns raw attributes; this net reads its inputs unscaled: identity stats.
actions, best_aconts, best_qs = recommend_batch(net, states, NormStats.identity(), acont_range)
print(f"best mixed action: {actions[0]} at attribute {best_aconts[0]:.3f}, "
      f"Q = {best_qs[0]:.3f}")

# The attribute matters: evaluate the same action at a few fixed settings.
for a in (-2.0, 0.0, 1.0, 2.0):
    y, _ = forward_batch(net, np.concatenate([states[0], [a]])[None, :])
    print(f"  Q[7] at attribute {a:+.1f} = {y[0, 7]:.3f}")
