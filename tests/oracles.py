"""Independent oracles used by the test suite.

These deliberately avoid the library's analytic paths: gradients come from
central finite differences, continuous maximization from a dense grid scan
and from a kink search padded to a worst-case candidate count per state,
tabular Q* from value iteration on explicit dynamics, normalization from
row-by-row loops over a batch of transitions, RFM-I states from each
timeline's prefix, the simulator from a loop over customers in Python
floats, TD training from one parameter, gradient and RMSProp cache
array per layer weight and bias and a dict of each segment's row targets,
the CSV readers and writer from one loop per row through the csv module,
and the config and sidecar readers from one line loop each, under the two
rules that each file's reader had before they shared rfmi.key_values.
"""

import csv
import math
from dataclasses import fields

import numpy as np

from clvdqn import env, policy_eval, qlearn
from clvdqn.cli import MODE_NAMES, default_settings
from clvdqn.action_space import SCORE_ROWS
from clvdqn.env import AutonomousResult, EpisodeRecord, ReplayRing
from clvdqn.nn_core import ConfigError, Mlp, NetworkOverflow, TrainingDiverged, forward_batch, init_mlp, n_params
from clvdqn.qlearn import Learner, max_next_q, network_spec, td_steps
from clvdqn.rfmi import (N_ACTIONS, TIMELINE_COLUMNS, TRANSITION_COLUMNS, DataError, NormStats,
                         Timelines, Transitions, _check_header, read_text, split_lines)


def transitions_from(states, actions, aconts, next_states, rewards) -> Transitions:
    """A Transitions of parallel columns: (n, 5) states, n actions, n aconts, (n, 5) next
    states and n rewards, stacked into its table in TRANSITION_COLUMNS order."""
    return Transitions(np.column_stack([states, actions, aconts, next_states, rewards]))


def layered_net(specs, weights, biases) -> Mlp:
    """A net of specs holding copies of per-layer weights and biases, written into its views."""
    net = Mlp(specs, np.zeros(n_params(specs)))
    for view, values in zip(net.weights + net.biases, [*weights, *biases], strict=True):
        view[...] = values
    return net


def finite_difference_grads(net, x, output_grad, h=1e-5):
    """Central-difference gradients of output_grad . f(x) w.r.t. params and input.

    Each parameter is perturbed in place in net's own view of it, at an index tuple, so a
    strided view is perturbed too (a reshape of one would be a copy); each layer's weights
    and biases must move the objective at one index at least, which a copy never does."""
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(output_grad, dtype=np.float64)

    def objective():
        y, _ = forward_batch(net, x[None, :])
        return float(g @ y[0])

    weight_grads, bias_grads = [], []
    for arrs, grads in ((net.weights, weight_grads), (net.biases, bias_grads)):
        for p in arrs:
            grad = np.zeros_like(p)
            moved = False
            for i in np.ndindex(p.shape):
                orig = p[i]
                p[i] = orig + h
                up = objective()
                p[i] = orig - h
                down = objective()
                p[i] = orig
                moved |= up != down
                grad[i] = (up - down) / (2 * h)
            assert moved, f"no perturbation of a {p.shape} parameter moved the objective"
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


def _max_points(net):
    """Bound on padded_kink_points' points per state: each hidden unit can cross 0 once per
    segment."""
    m = 2
    for spec in net.specs[:-1]:
        m += (m - 1) * spec.output_dim
    return m


def _paired(states, aconts):
    """Network inputs pairing row i of states with each acont in row i of aconts."""
    return np.column_stack([np.repeat(states, aconts.shape[1], axis=0), aconts.reshape(-1)])


def _pre_activations(net, x, k):
    """Layer k's pre-activations of inputs x: h @ w.T + b layer by layer, ReLU between."""
    h = x
    for i in range(k + 1):
        z = h @ net.weights[i].T + net.biases[i]
        h = np.maximum(z, 0.0) if net.specs[i].activation == "relu" else z
    return z


def padded_kink_points(net, states, lo, hi):
    """(n, m) sorted candidate aconts of each state: its bounds and the kinks of every hidden
    layer, found by linear interpolation between the points before, padded with hi."""
    n = len(states)
    points = np.tile([lo, hi], (n, 1))
    count = np.full(n, 2)
    for k in range(len(net.specs) - 1):
        z = _pre_activations(net, _paired(states, points), k).reshape(n, points.shape[1], -1)
        z0, z1 = z[:, :-1], z[:, 1:]
        t0, t1 = points[:, :-1, None], points[:, 1:, None]
        cross = np.sign(z0) * np.sign(z1) < 0
        frac = np.divide(z0, z0 - z1, out=np.zeros_like(z0), where=cross)
        kinks = np.where(cross, np.clip(t0 + (t1 - t0) * frac, t0, t1), hi)
        count += cross.sum(axis=(1, 2))
        points = np.sort(np.concatenate([points, kinks.reshape(n, -1)], axis=1), axis=1)
        points = points[:, :count.max()]
    return points


def padded_maximize_continuous_batch(net, states, acont_range):
    """maximize_continuous_batch from padded_kink_points: blocks of states holding at most
    2,048 worst-case points, the first maximum of each output over a block's padded table,
    and each column's q read back by one forward over the n chosen inputs."""
    n = len(states)
    aconts = np.empty((n, net.output_dim))
    block = max(1, 2048 // _max_points(net))
    for i in range(0, n, block):
        part = states[i:i + block]
        points = padded_kink_points(net, part, acont_range.lo, acont_range.hi)
        q, _ = forward_batch(net, _paired(part, points))
        first_max = np.argmax(q.reshape(len(part), points.shape[1], -1), axis=1)
        aconts[i:i + block] = np.take_along_axis(points, first_max, axis=1)
    aconts[:, 0] = acont_range.inaction
    qs = np.empty_like(aconts)
    for a in range(net.output_dim):
        q, _ = forward_batch(net, np.column_stack([states, aconts[:, a]]))
        qs[:, a] = q[:, a]
    if not np.isfinite(qs).all():
        raise NetworkOverflow("non-finite Q-value: the network overflows")
    return aconts, qs


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


def rmsprop_arrays(params, grads, caches, lr, decay=0.9, epsilon=1e-8):
    """Per-array RMSProp: each gradient is checked for finiteness, then its
    array updated in place, weights of every layer first, then biases."""
    for p, g, cache in zip(params, grads, caches):
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(-1, -1)
        cache *= decay
        cache += (1.0 - decay) * g * g
        p -= lr * g / (np.sqrt(cache) + epsilon)


def td_steps_arrays(net, data, n_steps, cfg, seed, lr, acont_range=None, per_step=False):
    """Reference for qlearn.td_steps on a fresh Learner(net, default_rng(seed)).

    The online net is a list of weight arrays and a list of bias arrays, each
    its own allocation; forward, backward and RMSProp run array by array.
    The target is a copy taken at the start and every cfg.target_clone_period
    steps. The steps run in segments that end at a clone, at the last step and
    after qlearn.SEGMENT_DRAWS draws (at least one step). A segment draws all
    its batches first, one rng call per step; its distinct rows, in ascending
    order, are scored in blocks of SCORE_ROWS rows, the last block taking the
    remainder (so a set of under 2 * SCORE_ROWS rows is one block), each row's
    target r + gamma * max_next_q (the library's) over its block; each step
    looks its rows' targets up. With per_step, each step scores its own batch
    instead, as a step-by-step loop with no segments would.
    Returns (losses, weights, biases); net is left untouched.
    """
    specs = net.specs
    weights = [np.array(w) for w in net.weights]
    biases = [np.array(b) for b in net.biases]
    caches = [np.zeros_like(p) for p in weights + biases]
    target = layered_net(specs, weights, biases)
    rng = np.random.default_rng(seed)
    period = cfg.target_clone_period
    losses = []
    step = 0
    while step < n_steps:
        end = min(n_steps, step + max(qlearn.SEGMENT_DRAWS // cfg.batch_size, 1),
                  (step // period + 1) * period)
        draws = [rng.integers(0, len(data), size=cfg.batch_size) for _ in range(step, end)]
        rows = sorted(set(np.concatenate(draws).tolist()))
        n_blocks = max(len(rows) // SCORE_ROWS, 1)
        target_of = {}
        for k in range(n_blocks):
            block = rows[k * SCORE_ROWS:(k + 1) * SCORE_ROWS if k + 1 < n_blocks else None]
            scored = data[np.array(block)]
            ys = scored.rewards + cfg.gamma * max_next_q(scored.next_states, target, acont_range)
            target_of.update(zip(block, ys.tolist()))
        for drawn in draws:
            step += 1
            batch = data[drawn]
            n = len(batch)
            if per_step:
                y = batch.rewards + cfg.gamma * max_next_q(batch.next_states, target, acont_range)
            else:
                y = np.array([target_of[row] for row in drawn.tolist()])
            h = batch.states
            if net.input_dim == 6:
                h = np.concatenate([h, batch.aconts[:, None]], axis=1)
            inputs, pres = [], []
            for spec, w, b in zip(specs, weights, biases):
                inputs.append(h)
                pres.append(h @ w.T + b)
                h = np.maximum(pres[-1], 0.0) if spec.activation == "relu" else pres[-1]
            err = h[np.arange(n), batch.actions] - y
            losses.append(float(np.mean(err * err)))
            g = np.zeros_like(h)
            g[np.arange(n), batch.actions] = 2.0 * err / n
            weight_grads, bias_grads = [None] * len(specs), [None] * len(specs)
            for i in range(len(specs) - 1, -1, -1):
                if specs[i].activation == "relu":
                    g = g * (pres[i] > 0.0)
                weight_grads[i] = g.T @ inputs[i]
                bias_grads[i] = g.sum(axis=0)
                g = g @ weights[i]
            rmsprop_arrays(weights + biases, weight_grads + bias_grads, caches, lr)
            if step % period == 0:
                target = layered_net(specs, weights, biases)
    return np.array(losses), weights, biases


def choose_actions_rows(allowed, greedy, greedy_aconts, eps, acont_range, stats, rng):
    """Reference for env._choose_actions: one customer at a time, one scalar draw each.

    Every explore coin first; then per customer in turn a random allowed action
    for an explorer, or for a greedy pick that is out of range or not allowed;
    then, for each mixed-mode explorer acting in turn, its acont.
    """
    mixed = acont_range is not None
    n = len(allowed)
    explore = (rng.random(n) < eps) | (greedy is None)
    actions, aconts = np.zeros(n, dtype=np.int64), np.zeros(n)
    greedy_aconts = np.broadcast_to(greedy_aconts, (n,))
    for i in range(n):
        choices = [a for a in range(N_ACTIONS) if allowed[i, a]]
        pick = None if greedy is None else int(greedy[i])
        if explore[i] or pick not in choices:
            actions[i] = choices[rng.integers(len(choices))]
        else:
            actions[i] = pick
            aconts[i] = greedy_aconts[i] if mixed and pick != 0 else 0.0
    for i in range(n):
        if explore[i] and mixed and actions[i] != 0:
            aconts[i] = stats.denormalize_acont(rng.uniform(acont_range.lo, acont_range.hi))
    return actions, aconts


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


def response_probability_row(model, state, action):
    """The simulator's response probability for one raw state, in Python floats."""
    recency, frequency, _, _, i_frequency = (float(v) for v in state)
    p = model.base_rate + model.action_effects[action]
    p -= model.fatigue_coeff * i_frequency
    if frequency > 2:
        p -= model.recency_decay * recency
    if action == model.thankyou_action and recency <= 1:
        p += model.thankyou_boost
    return min(max(p, 0.001), 0.999)


def timeline_states_rows(amounts, actions):
    """Reference for the states of one timeline: the state at every index 0..P, each
    counted from the periods before it alone, in Python floats.

    Gifts are added one at a time in period order, in an explicit loop because
    builtin sum() of floats compensates from Python 3.12 on; monetary is
    their sum over their count.
    """
    states = []
    for p in range(len(amounts) + 1):
        paid = [q for q in range(p) if amounts[q] > 0]
        contacted = [q for q in range(p) if actions[q] != 0]
        total = 0.0
        for q in paid:
            total += float(amounts[q])
        states.append([
            float(p - paid[-1]) if paid else float(p),
            float(len(paid)),
            total / len(paid) if paid else 0.0,
            float(p - contacted[-1]) if contacted else float(p),
            float(len(contacted)),
        ])
    return states


def advance_state_row(state, gift_sum, action, reward):
    """One donor's raw state and gift sum one period on, in Python floats."""
    recency, frequency, monetary, i_recency, i_frequency = (float(v) for v in state)
    if reward > 0:
        gift_sum += float(reward)
        recency, frequency = 1.0, frequency + 1
        monetary = gift_sum / frequency
    else:
        recency += 1
    if action != 0:
        i_recency, i_frequency = 1.0, i_frequency + 1
    else:
        i_recency += 1
    return [recency, frequency, monetary, i_recency, i_frequency], gift_sum


def run_autonomous_rows(population, model, agent_cfg, train_cfg):
    """Reference for env.run_autonomous: the population step as a loop over customers.

    One customer at a time: each one's allowed actions and epsilon-greedy
    choice, then each acting mixed-mode explorer's acont, then each response and
    next state, drawing from the agent and environment generators as it goes;
    the rule hooks are called on one-row state arrays. The training bursts are
    the library's, and so are their norm stats: the replay ring's merge of its
    per-episode moments. Each burst draws from its own copy of the newest
    len(replay) rows, cut from the episode tables it added, not from the ring.
    """
    if np.ndim(population) == 0 and isinstance(np.asarray(population).item(), int):
        states = [[0.0] * 5 for _ in range(int(population))]
    else:
        states = [list(map(float, row)) for row in np.asarray(population).reshape(-1, 5)]
    gift_sums = [frequency * monetary for _, frequency, monetary, _, _ in states]
    env_rng = np.random.default_rng(model.seed)
    agent_rng = np.random.default_rng(agent_cfg.seed)
    net_seed = train_cfg.seed
    learner = Learner.fresh(init_mlp(network_spec(train_cfg.mode), net_seed),
                            np.random.default_rng(train_cfg.seed))
    replay = ReplayRing(min(agent_cfg.episodes, max(env.REPLAY_CAPACITY // len(states), 1)),
                        len(states))
    tables = []  # every episode's table, oldest first
    stats = NormStats.identity()
    mixed = train_cfg.mode == "mixed"
    trained = False
    dropped = set()
    history = []

    def allowed_actions(state):
        row = np.array([state])
        allowed = [a for a in range(N_ACTIONS) if a not in dropped
                   and all(rule(row, a)[0] for rule in agent_cfg.constraints)]
        return allowed or [0]

    for episode in range(agent_cfg.episodes):
        eps = agent_cfg.epsilon(episode)
        n = len(states)
        if trained:
            greedy_actions, greedy_aconts, _ = policy_eval.recommend_batch(
                learner.net, np.array(states), stats, train_cfg.acont_range(stats))
        elif agent_cfg.initial_policy is not None:
            greedy_actions = [agent_cfg.initial_policy(np.array([s]))[0] for s in states]
            greedy_aconts = np.full(n, stats.denormalize_acont(0.0))
        else:
            greedy_actions, greedy_aconts = None, None
        explore = agent_rng.random(n) < eps
        actions, aconts = [], []
        for i, state in enumerate(states):
            allowed = allowed_actions(state)
            if explore[i] or greedy_actions is None:
                action, acont = int(allowed[agent_rng.integers(len(allowed))]), 0.0
            else:
                action = int(greedy_actions[i])
                acont = float(greedy_aconts[i]) if mixed and action != 0 else 0.0
                if action not in allowed:
                    action, acont = int(allowed[agent_rng.integers(len(allowed))]), 0.0
            actions.append(action)
            aconts.append(acont)
        for i, action in enumerate(actions):  # drawn in normalized units, like the greedy maximum
            if (explore[i] or greedy_actions is None) and mixed and action != 0:
                aconts[i] = float(stats.denormalize_acont(
                    agent_rng.uniform(train_cfg.bounds_lo, train_cfg.bounds_hi)))
        rows = []
        for i, state in enumerate(states):
            p = response_probability_row(model, state, actions[i])
            reward = float(env_rng.exponential(model.amount_mean)) if env_rng.random() < p else 0.0
            states[i], gift_sums[i] = advance_state_row(state, gift_sums[i], actions[i], reward)
            rows.append((state, actions[i], aconts[i], states[i], reward))
        batch = transitions_from(*(np.array(col) for col in zip(*rows)))
        replay.add(batch)
        tables.append(batch.table)
        history.append(EpisodeRecord(episode, eps, float(batch.rewards.mean()),
                                     float(np.mean(batch.rewards > 0)), len(replay)))

        if (episode + 1) % agent_cfg.train_every == 0 and len(replay) >= train_cfg.batch_size:
            data = Transitions(np.concatenate(tables)[-len(replay):])
            stats = replay.norm_stats()
            try:
                td_steps(learner, data, agent_cfg.steps_per_burst, train_cfg, stats)
                trained = True
            except TrainingDiverged:
                net_seed += 1
                learner = Learner.fresh(init_mlp(network_spec(train_cfg.mode), net_seed),
                                        learner.rng, learner.step)
                trained = False
            if agent_cfg.drop_threshold is not None:
                for action in range(1, N_ACTIONS):
                    taken = data.rewards[data.actions == action]
                    if (len(taken) >= agent_cfg.drop_min_observations
                            and taken.mean() < agent_cfg.drop_threshold):
                        dropped.add(action)

    return AutonomousResult(net=learner.net, norm_stats=stats, history=history,
                            replay=replay, dropped_actions=dropped)


def timeline_fault_row(period, amount, action, acont, periods_seen):
    """Why a parsed timeline row is invalid, or None."""
    if not (math.isfinite(amount) and math.isfinite(acont)):
        return "non-finite amount or acont"
    if amount < 0:
        return "negative amount"
    if not 0 <= action < N_ACTIONS:
        return f"action must be an integer in 0..{N_ACTIONS - 1}"
    if period < 0:
        return "negative period"
    if period in periods_seen:
        return f"duplicate period {period} for this customer"
    return None


def read_timelines_rows(path) -> Timelines:
    """Row-by-row reference for rfmi.read_timelines, through csv.DictReader.

    It reads a field Python's int() or float() reads, underscores and
    non-ASCII digits included; it files a sixth field under DictReader's
    restkey and reads a missing amount, action or acont as 0.
    """
    per_customer, first_lines = {}, {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        _check_header(path, reader.fieldnames, TIMELINE_COLUMNS)
        for row in reader:
            line_no = reader.line_num  # DictReader skips blank lines, so count them here
            try:
                cid = row["customer_id"]
                period = int(row["period"])
                amount = float(row["amount"]) if row["amount"] else 0.0
                action = int(row["action"]) if row["action"] else 0
                acont = float(row["acont"]) if row["acont"] else 0.0
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}:{line_no}: malformed row ({exc})") from None
            rows = per_customer.setdefault(cid, {})
            first_lines.setdefault(cid, line_no)
            fault = timeline_fault_row(period, amount, action, acont, rows)
            if fault:
                raise DataError(f"{path}:{line_no}: {fault}")
            rows[period] = (amount, action, acont)
    lengths = []
    for cid, rows in per_customer.items():
        lengths.append(max(rows) + 1)
        if lengths[-1] < 2:
            raise DataError(f"{path}:{first_lines[cid]}: timeline {cid} needs >= 2 periods")
    amounts, actions, aconts = [], [], []
    for length, rows in zip(lengths, per_customer.values()):
        for period in range(length):
            amount, action, acont = rows.get(period, (0.0, 0, 0.0))
            amounts.append(amount)
            actions.append(action)
            aconts.append(acont)
    return Timelines(list(per_customer), lengths, amounts, actions, aconts)


def write_csv_rows(path, header, rows):
    """Row-by-row reference for rfmi.write_csv, through csv.writer: rows of Python floats,
    ints and strs, each written as csv.writer writes it."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def write_transitions_rows(data, path):
    """Row-by-row reference for rfmi.write_transitions."""
    floats = np.column_stack([data.states, data.aconts, data.next_states, data.rewards]).tolist()
    write_csv_rows(path, TRANSITION_COLUMNS, (row[:5] + [action] + row[5:]
                                              for row, action in zip(floats, data.actions.tolist())))


def read_transitions_rows(path) -> Transitions:
    """Row-by-row reference for rfmi.read_transitions, through csv.reader and float().

    It reads a field Python's float() reads, underscores and non-ASCII digits
    included.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        _check_header(path, next(reader, None), TRANSITION_COLUMNS)
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 13:
                raise DataError(f"{path}:{line_no}: expected 13 columns, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: malformed row ({exc})") from None
    vals = np.array(rows, dtype=np.float64).reshape(-1, 13)
    actions = vals[:, 5]
    state_cols = vals[:, [0, 1, 2, 3, 4, 7, 8, 9, 10, 11]]
    faults = (  # checked in this order, so a row's first fault is the one reported
        (~np.isfinite(vals).all(axis=1), "non-finite value"),
        ((actions != np.floor(actions)) | (actions < 0) | (actions >= N_ACTIONS),
         f"action must be an integer in 0..{N_ACTIONS - 1}"),
        ((state_cols < 0).any(axis=1), "negative state value"),
    )
    bad = [(int(np.argmax(mask)), message) for mask, message in faults if mask.any()]
    if bad:
        row, message = min(bad, key=lambda b: b[0])
        raise DataError(f"{path}:{row + 2}: {message}")
    return transitions_from(vals[:, 0:5], actions, vals[:, 6], vals[:, 7:12], vals[:, 12])


def load_config_lines(path) -> dict:
    """Line-loop reference for cli.load_config under its own rules: both sides stripped, blank
    and # lines skipped, a line with no = refused, and the last of a repeated key kept."""
    settings = default_settings()
    try:
        lines = split_lines(read_text(path))
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in settings:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        try:
            settings[key] = MODE_NAMES[value] if key == "mode" else type(settings[key])(value)
        except (KeyError, ValueError):
            raise ConfigError(f"{path}:{line_no}: bad value for {key!r}") from None
    return settings


def read_sidecar_lines(path):
    """Line-loop reference for qlearn.read_sidecar under its own rules: a line with no = and a
    blank line ignored, a # line read as any other, the line stripped but not the two sides of
    its first =, and a repeated key refused."""
    kv = {}
    for line_no, line in enumerate(split_lines(read_text(path)), start=1):
        if "=" in line:
            key, text = line.strip().split("=", 1)
            if key in kv:
                raise DataError(f"{path}:{line_no}: key {key!r} given twice")
            kv[key] = text

    def value(key, parse):
        if key not in kv:
            raise DataError(f"{path}: missing key {key!r}")
        try:
            parsed = parse(kv[key])
            if isinstance(parsed, int) and not -2**63 <= parsed < 2**63:
                raise ValueError("outside int64")
        except ValueError:
            raise DataError(f"{path}: bad value for {key!r}: {kv[key]!r}") from None
        if (isinstance(parsed, float) and not math.isfinite(parsed)
                or isinstance(parsed, np.ndarray) and not np.isfinite(parsed).all()):
            raise DataError(f"{path}: non-finite value for {key!r}: {kv[key]!r}")
        return parsed

    defaults = qlearn.TrainConfig()
    try:
        cfg = qlearn.TrainConfig(**{f.name: value(f.name, type(getattr(defaults, f.name)))
                                    for f in fields(qlearn.TrainConfig)})
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from None
    stats = NormStats(
        state_mean=value("state_mean", qlearn._five_floats),
        state_std=value("state_std", qlearn._five_floats),
        acont_mean=value("acont_mean", float),
        acont_std=value("acont_std", float),
    )
    return cfg, stats
