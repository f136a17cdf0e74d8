"""Cold-start learning against the synthetic donor population.

No logged data: the agent starts from a random network, explores with a
decaying epsilon-greedy policy, logs every interaction into replay memory,
and trains in bursts. The donor model hides one strong action (4) and a
thank-you action (7) that only works right after a donation; mean episode
reward should climb as the policy discovers them.

Run: python3 demos/autonomous_cold_start.py   (about half a minute)
"""

import numpy as np

from clvdqn.env import AgentConfig, DonorModel, run_autonomous
from clvdqn.policy_eval import recommend_batch
from clvdqn.qlearn import TrainConfig

model = DonorModel(seed=1)
agent = AgentConfig(seed=1)
result = run_autonomous(200, model, agent, TrainConfig(seed=1))

print("episode  epsilon  mean_reward  response_rate")
for rec in result.history[:: len(result.history) // 10]:
    print(f"{rec.episode:7d}  {rec.epsilon:7.3f}  {rec.mean_reward:11.3f}"
          f"  {rec.response_rate:13.3f}")

first = np.mean([r.mean_reward for r in result.history[:10]])
last = np.mean([r.mean_reward for r in result.history[-10:]])
print(f"\nmean reward, first 10 episodes: {first:.3f}; last 10: {last:.3f}"
      f"  (lift {last / first:.2f}x)")

# What does the learned policy recommend for the customers it ended up with?
probe = result.replay.contents().states[-1000:]
actions, _, _ = recommend_batch(result.net, probe, result.norm_stats)
counts = np.bincount(actions, minlength=12)
print("\nrecommended action distribution on the final probe set:")
for a, n in enumerate(counts):
    if n:
        print(f"  action {a:2d}: {n / len(actions):6.1%}"
              f"  (true effect {model.action_effects[a]:+.2f})")
