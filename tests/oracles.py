"""Independent oracles used by the test suite.

These deliberately avoid the library's analytic paths: gradients come from
central finite differences, continuous maximization from a dense grid scan,
tabular Q* from value iteration on explicit dynamics, and normalization from
row-by-row loops over a batch of transitions.
"""

import numpy as np

from clvdqn.nn_core import forward, forward_batch


def finite_difference_grads(net, x, output_grad, h=1e-5):
    """Central-difference gradients of output_grad . f(x) w.r.t. params and input."""
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(output_grad, dtype=np.float64)

    def objective():
        y, _ = forward(net, x)
        return float(g @ y)

    weight_grads, bias_grads = [], []
    for arrs, grads in ((net.weights, weight_grads), (net.biases, bias_grads)):
        for p in arrs:
            grad = np.zeros_like(p)
            flat = p.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = objective()
                flat[i] = orig - h
                down = objective()
                flat[i] = orig
                gflat[i] = (up - down) / (2 * h)
            grads.append(grad)
    input_grad = np.zeros_like(x)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + h
        up = objective()
        x[i] = orig - h
        down = objective()
        x[i] = orig
        input_grad[i] = (up - down) / (2 * h)
    return weight_grads, bias_grads, input_grad


def max_mixed_error(analytic, fd, floor=1e-6):
    """Max relative error, falling back to absolute below the floor."""
    analytic = np.asarray(analytic).ravel()
    fd = np.asarray(fd).ravel()
    denom = np.maximum(np.abs(analytic), np.abs(fd))
    abs_err = np.abs(analytic - fd)
    rel = np.where(denom < floor, abs_err, abs_err / np.maximum(denom, floor))
    return float(rel.max()) if rel.size else 0.0


def grid_scan_max(net, state, action, bounds, n_points=2001):
    """Dense scan of Q(state, acont)[action] over the bounds. Returns (acont, q)."""
    state = np.asarray(state, dtype=np.float64)
    grid = np.linspace(bounds[0], bounds[1], n_points)
    x = np.concatenate([np.tile(state, (n_points, 1)), grid[:, None]], axis=1)
    q, _ = forward_batch(net, x)
    idx = int(np.argmax(q[:, action]))
    return float(grid[idx]), float(q[idx, action])


def value_iteration(rewards, transitions, gamma, tol=1e-10, max_iter=100000):
    """Tabular Q* for deterministic dynamics.

    rewards[s][a] is the immediate reward, transitions[s][a] the next state.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    transitions = np.asarray(transitions, dtype=np.int64)
    n_states, n_actions = rewards.shape
    q = np.zeros((n_states, n_actions))
    for _ in range(max_iter):
        v = q.max(axis=1)
        new_q = rewards + gamma * v[transitions]
        if np.abs(new_q - q).max() < tol:
            return new_q
        q = new_q
    raise RuntimeError("value iteration did not converge")


def norm_stats_rows(data):
    """Row-by-row reference for rfmi.compute_norm_stats.

    Pools every state and next state one row at a time, and the acont of every
    acted row; returns (state_mean, state_std, acont_mean, acont_std).
    """
    pooled, acted = [], []
    for i in range(len(data)):
        pooled.append(list(data.states[i]))
        if data.actions[i] != 0:
            acted.append(float(data.aconts[i]))
    for i in range(len(data)):
        pooled.append(list(data.next_states[i]))
    pooled = np.array(pooled)
    acted = np.array(acted)
    if acted.size:
        return pooled.mean(axis=0), pooled.std(axis=0), float(acted.mean()), float(acted.std())
    return pooled.mean(axis=0), pooled.std(axis=0), 0.0, 0.0


def apply_norm_rows(stats, data):
    """Row-by-row reference for rfmi.apply_norm, in Python float arithmetic.

    Returns (states, aconts, next_states); a zero std divides by 1.
    """
    div = [float(s) if s > 0 else 1.0 for s in stats.state_std]
    mean = [float(m) for m in stats.state_mean]
    acont_div = stats.acont_std if stats.acont_std > 0 else 1.0

    def state(row):
        return [(float(v) - m) / d for v, m, d in zip(row, mean, div)]

    states = np.array([state(row) for row in data.states]).reshape(-1, 5)
    next_states = np.array([state(row) for row in data.next_states]).reshape(-1, 5)
    aconts = np.array([(float(a) - stats.acont_mean) / acont_div for a in data.aconts])
    return states, aconts, next_states
