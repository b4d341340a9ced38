"""Reference implementations the tests check the package against.

* ``dual_objective`` evaluates the scalar KL dual at one beta;
* ``dense_dual_batch`` is the dual kernel over all columns, zero weights too,
  from the kernel's start and by its Halley step, each row sum a sequential
  sum over the whole row;
* ``worst_case_pmf_reference`` is the maximizing pmf of one row, by cases;
* ``primal_oracle`` searches the simplex for the worst-case mean directly;
* ``type_probabilities`` enumerates the types of T draws from a pmf, and
  ``one_sided_miss_probability`` sums those whose worst case falls below
  the true mean;
* ``type_block`` holds those types as a block of one-action data sets,
  ``worst_case_rows`` takes each arc's worst-case cost per type, and
  ``exact_disappointment`` sums the probability of every combination of the
  arcs' types whose routed loss falls below the nominal one on one path;
* ``joint_atoms_reference`` builds the joint empirical with ``np.unique``;
* ``dataset_from_costs`` turns per-action cost vectors into a ``DataSet``;
* ``shortest_path_reference`` is a forward pass over the arcs one by one;
* ``path_cost`` sums a path's arc costs one at a time, in path order;
* ``radius_candidates`` evaluates every applicable radius bound at one
  input, and ``radius_best_reference`` takes their least entry by entry.
"""

import functools
import math

import numpy as np
from scipy.special import gammaln

from kldro.graphs import path_nodes, route_costs, shortest_path
from kldro.marginals import DataSet, PmfMatrix, Support, pmf_means
from kldro.radius import radius_agrawal, radius_baseline, radius_mardia
from kldro.rules import worst_case_costs
from kldro.worstcase import (_EPS, _LOG_SPAN, _MAX_ITERATIONS, _NEWTON_STOP, _TINY, DualBatch,
                             solve_dual_batch)


def dataset_from_costs(support: Support, samples) -> DataSet:
    """A data set from one cost vector per action.  A cost that is not a
    support point becomes index -1, which ``DataSet`` rejects."""
    samples = [np.asarray(obs, dtype=float) for obs in samples]
    sizes = np.array([obs.size for obs in samples], dtype=int)
    costs = np.concatenate(samples)
    points, d = support.points, support.size
    index = np.searchsorted(points, costs)
    index[(index >= d) | (points[np.minimum(index, d - 1)] != costs)] = -1
    return DataSet(support, index, sizes)


def joint_atoms_reference(data: DataSet) -> tuple[np.ndarray, np.ndarray]:
    """Atoms of the joint empirical of the first T_min observations, from
    ``np.unique(rows, axis=0)`` over the cost rows, each with probability
    its multiplicity over T_min."""
    t_min = data.t_min
    starts = (np.cumsum(data.sizes) - data.sizes).tolist()
    rows = np.stack([data.support.points[data.index[s:s + t_min]] for s in starts], axis=1)
    atoms, counts = np.unique(rows, axis=0, return_counts=True)
    return atoms, counts / t_min


def dual_objective(beta: float, empirical: PmfMatrix, r_a: float) -> float:
    """beta - e^{-r} prod_i (beta - z_i)^{q_i}; factors with q_i = 0 drop out."""
    if r_a < 0.0:
        raise ValueError("radius must be nonnegative")
    z_top = empirical.support.max
    if beta < z_top:
        raise ValueError(f"beta={beta!r} below top support point {z_top!r}")
    seen = empirical.probs > 0.0
    diffs = beta - empirical.support.points[seen]
    if np.any(diffs <= 0.0):
        return beta  # the product vanishes on the boundary
    return beta - math.exp(-r_a + float(np.sum(empirical.probs[seen] * np.log(diffs))))


def _rowsum(x: np.ndarray) -> np.ndarray:
    """Each row of ``x`` added up one entry after another, from +0.0."""
    return np.cumsum(np.column_stack([np.zeros(len(x)), x]), axis=1)[:, -1]


def _dense_tilt(log_gaps: np.ndarray, q: np.ndarray, u: np.ndarray):
    """Row sums of the tilted pmf at log offsets ``u``.

    With t_i = g_i / e^u: L = sum q ln(1 + t) and the two complementary
    masses A = sum q t/(1 + t), B = sum q/(1 + t), each free of
    cancellation, so that K = L + ln B is the relative entropy of the
    tilt; V and M, the second and third q-moments of t/(1 + t) about A,
    give dK/du = -V / B and d2K/du2 = (V (2B - A) - 2M - V^2 / B) / B.
    """
    t = np.exp(log_gaps - u[:, None])
    rest = 1.0 / (1.0 + t)
    share = t * rest
    big_l = _rowsum(q * np.log1p(t))
    big_a = _rowsum(q * share)
    big_b = _rowsum(q * rest)
    log_b = np.where(big_a < 0.5, np.log1p(-big_a), np.log(big_b))
    share -= big_a[:, None]
    qc2 = q * share * share
    return big_l, big_l + log_b, big_a, big_b, _rowsum(qc2), _rowsum(qc2 * share)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def dense_dual_batch(values, weights, radii, lower) -> DualBatch:
    """Reference for ``worstcase.solve_dual_batch``, which must match it bit
    for bit: the dense kernel, every log, exp and product over all k columns
    of every row, zero-weight padding too, and every row sum a sequential
    sum over the whole row.  It takes the kernel's start (the small-radius,
    deep-side and near-K_inf expansions, and the deep-side bracket end) and
    its safeguarded Halley step.

    Minimize the dual for every row of ``values``/``weights`` at once.

    Each row of ``weights`` is a pmf on the matching row of ``values``
    (zero-weight entries are padding), ``radii`` holds one ball radius per
    row and ``lower`` the bound beta >= lower, which must not be below the
    row's largest value.  Rows are solved independently: a row's result is
    bit-identical whatever other rows share the batch and whatever the
    memory layout of the input.  Values are clipped to [row mean, lower] to
    absorb rounding.  Raises RuntimeError when a row fails to converge.
    """
    z = np.asarray(values, dtype=float)
    q = np.asarray(weights, dtype=float)
    r = np.asarray(radii, dtype=float)
    top = np.asarray(lower, dtype=float)
    n = z.shape[0]
    if z.ndim != 2 or q.shape != z.shape or r.shape != (n,) or top.shape != (n,):
        raise ValueError("values/weights must be (rows, k) with one radius and bound per row")
    # The means are pairwise only along rows whose elements are adjacent in
    # memory; rows already laid out so (broadcast ones too) are not copied.
    z, q = (x if x.strides[1] == x.itemsize else np.ascontiguousarray(x) for x in (z, q))
    if not (r >= 0.0).all():
        raise ValueError("radius must be nonnegative")
    if (top < z.max(axis=1) - 1e-12).any():
        raise ValueError("beta_lower must not be below the largest value")
    mean = pmf_means(z, q)
    gaps = np.maximum(top[:, None] - z, 0.0)
    log_gaps = np.log(gaps)
    # As u -> -inf, K tends to ln GM(g) - ln HM(g) when the top carries no
    # weight (+inf otherwise); at or below r the minimum is beta = top.
    seen_lg = np.where(q > 0.0, log_gaps, 0.0)
    log_geo = _rowsum(q * seen_lg)
    k_inf = log_geo + np.log(_rowsum(q * np.exp(-seen_lg)))
    spread = _rowsum(q * gaps * gaps)
    zero = r == 0.0
    boundary = ~zero & ((k_inf <= r) | (spread == 0.0))

    u = np.where(boundary, -np.inf, np.inf)
    at_u = np.zeros(n)  # L at the final offset
    iterations = np.zeros(n, dtype=int)
    rows = np.flatnonzero(~zero & ~boundary)
    if rows.size:
        lg, qs, rs, g = log_gaps[rows], q[rows], r[rows], gaps[rows]
        log_r = np.log(rs)
        # Deep side: q_top is the weight on gap 0, and S, w and H_j sum
        # q ln g, q and q / g^j over the positive gaps.
        seen = (qs > 0.0) & (g > 0.0)
        qg, lgs = np.where(seen, qs, 0.0), np.where(seen, lg, 0.0)
        inv = np.exp(-lgs)
        q_top, h1, h2 = _rowsum(qs - qg), _rowsum(qg * inv), _rowsum(qg * inv * inv)
        deep = (_rowsum(qg * lgs) + np.log(q_top) - rs) / _rowsum(qg)
        # K(u) >= S + ln q_top - w u, so K >= r at and below u_deep.
        lo = np.maximum(np.log(g.max(axis=1)) - _LOG_SPAN, deep)
        # K(u) <= E[g^2] e^{-2u}, so K < r/4 above hi.
        hi = np.maximum(0.5 * (np.log(spread[rows]) - log_r) + math.log(2.0), lo)
        # Small radius: K ~ Var(g) e^{-2u} / 2.
        g_mean = _rowsum(qs * g)
        us = 0.5 * (np.log(np.maximum(spread[rows] - g_mean * g_mean, 0.0)) - np.log(2.0 * rs))
        # Top unweighted: K ~ K_inf - e^u (H2/H1 - H1), for e^u H2/H1 <= 1/4.
        near = np.log((k_inf[rows] - rs) / (h2 / h1 - h1))
        us = np.where(np.exp(near) * h2 <= 0.25 * h1, near, us)
        # Top weighted: K(u_deep) <= r + e^u_deep H1 (1 + 1/q_top) <= 2r.
        us = np.where(np.exp(deep) * h1 * (1.0 + 1.0 / q_top) <= rs, deep, us)
        us = np.clip(us, lo, hi)
        step = hi - lo
        step_old = step
        for it in range(1, _MAX_ITERATIONS + 1):
            big_l, k_val, big_a, big_b, var, m3 = _dense_tilt(lg, qs, us)
            above = k_val > rs
            lo = np.where(above, us, lo)
            hi = np.where(above, hi, us)
            # Newton on ln K - ln r, whose derivative is -V / (B K); Halley
            # divides its step by 1 + step * (ln K)'' / (2 (ln K)'), floored at
            # 1/2 so that the step at most doubles and never turns back.
            residual = np.log(k_val) - log_r
            newton = residual * k_val * big_b / var
            curve = big_a - 2.0 * big_b + 2.0 * m3 / var + var / big_b * (1.0 + 1.0 / k_val)
            halley = newton / np.maximum(1.0 + 0.5 * newton * curve, 0.5)
            tol = 4.0 * _EPS * np.maximum(1.0, np.abs(us))
            done = (
                (np.abs(k_val - rs) <= 64.0 * _EPS * (2.0 * big_l - k_val + rs))
                | (hi - lo <= tol)
                | ((np.abs(newton) <= tol) & (np.abs(residual) <= _NEWTON_STOP))
            )
            if done.any():
                fin = rows[done]
                u[fin] = us[done]
                at_u[fin] = big_l[done]
                iterations[fin] = it
                keep = ~done
                rows, lg, qs, rs, log_r = rows[keep], lg[keep], qs[keep], rs[keep], log_r[keep]
                us, lo, hi, halley = us[keep], lo[keep], hi[keep], halley[keep]
                step, step_old = step[keep], step_old[keep]
                if not rows.size:
                    break
            nxt = us + halley
            take = (nxt > lo) & (nxt < hi) & (np.abs(halley) <= 0.5 * step_old)
            half = 0.5 * (hi - lo)
            step_old = step
            step = np.where(take, np.abs(halley), half)
            us = np.where(take, nxt, lo + half)
        else:
            row = int(rows[0])
            raise RuntimeError(
                f"dual solve did not converge in {_MAX_ITERATIONS} iterations "
                f"(row {row}, r={float(r[row])!r}, top={float(top[row])!r})"
            )

    offset = np.exp(u)
    # f at beta = top + e^u, written as top - e^u (e^{L - r} - 1) so that
    # large offsets (small radii) keep full precision.
    interior = top - offset * np.expm1(at_u - r)
    value = np.where(zero, mean, np.where(boundary, top - np.exp(log_geo - r), interior))
    value = np.minimum(np.maximum(value, mean), top)
    return DualBatch(top + offset, value, iterations, u)


def _kl_to_rows(qhat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """KL(qhat || row) for each row, with the usual 0/inf conventions."""
    mask = qhat > 0.0
    with np.errstate(divide="ignore"):
        logs = np.log(rows[:, mask])
    terms = qhat[mask] * (np.log(qhat[mask]) - logs)
    out = np.sum(terms, axis=1)
    out[np.any(rows[:, mask] == 0.0, axis=1)] = np.inf
    return out


def worst_case_pmf_reference(points, probs, r: float, log_offset: float) -> np.ndarray:
    """Maximizing pmf of one row from the kernel's ``log_offset``, one case
    at a time, over the observed points only: the row itself at radius
    zero; inside, mass proportional to q_i / (beta - z_i) in logs, floored
    at the smallest normal float; on the boundary with an unobserved top
    point, e^{-r} GM(g) q_i / g_i with the leftover mass on the top."""
    qhat = np.asarray(probs, dtype=float)
    if log_offset == math.inf:
        return qhat
    points = np.asarray(points, dtype=float)
    gaps = points.max() - points
    probs = np.zeros_like(qhat)
    if log_offset > -math.inf:
        seen = qhat > 0.0
        with np.errstate(divide="ignore"):
            log_gaps = np.log(gaps[seen])
        logw = np.log(qhat[seen]) - np.logaddexp(0.0, log_gaps - log_offset)
        w = np.exp(logw - logw.max())
        probs[seen] = np.maximum(w / np.sum(w), _TINY)
        return probs
    seen = (qhat > 0.0) & (gaps > 0.0)
    log_gaps = np.log(gaps[seen])
    w = np.exp(-r + float(np.sum(qhat[seen] * log_gaps)) + np.log(qhat[seen]) - log_gaps)
    s = float(np.sum(w))
    if s > 1.0:
        w = w / s
        s = 1.0
    probs[seen] = w
    probs[np.argmax(points)] += 1.0 - s
    return probs


def type_probabilities(pmf, draws: int) -> tuple[np.ndarray, np.ndarray]:
    """Every type (count vector) of ``draws`` i.i.d. draws from ``pmf``, as
    (types x d) counts, one composition of ``draws`` into d parts each,
    and its multinomial probability, with 0 ln 0 = 0."""
    pmf = np.asarray(pmf, dtype=float)
    d = pmf.size
    grid = np.indices((draws + 1,) * (d - 1)).reshape(d - 1, -1).T
    grid = grid[grid.sum(axis=1) <= draws]
    counts = np.column_stack([grid, draws - grid.sum(axis=1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_terms = np.where(counts > 0, counts * np.log(pmf), 0.0)
    log_prob = gammaln(draws + 1) - gammaln(counts + 1).sum(axis=1) + log_terms.sum(axis=1)
    return counts, np.exp(log_prob)


def one_sided_miss_probability(points, pmf, draws: int, r: float) -> float:
    """Exact P(U < mu): U is the worst-case mean over the KL ball of radius
    ``r`` around the empirical pmf of ``draws`` draws from ``pmf`` on
    ``points``, and mu the mean of ``pmf``.  Every type's U comes from one
    kernel call; U == mu counts as held."""
    counts, probs = type_probabilities(pmf, draws)
    points = np.broadcast_to(np.asarray(points, dtype=float), counts.shape)
    upper = solve_dual_batch(points, counts / draws, np.full(len(counts), r),
                             np.full(len(counts), points[0, -1])).value
    return math.fsum(probs[upper < pmf_means(points[0], pmf)])


def type_block(support, draws, pmf):
    """Every type of ``draws`` draws from ``pmf`` as a block of one-action
    data sets, one row per type, and each type's probability."""
    counts, probs = type_probabilities(pmf, draws)
    index = np.repeat(np.tile(np.arange(support.size), len(counts)), counts.ravel())
    block = DataSet(support, index, np.full((len(counts), 1), draws))
    assert block.pmf[:, 0].tolist() == (counts / draws).tolist()  # the enumerated pmfs
    return block, probs


def worst_case_rows(arcs, radii):
    """Each arc's worst-case cost per type, at the arc's radius."""
    return [worst_case_costs(block.support, block.pmf, np.full(block.sizes.shape, r))[:, 0]
            for (block, _), r in zip(arcs, radii)]


def exact_disappointment(g, arc_costs, arcs, means) -> float:
    """Exact P(predicted loss < nominal loss) on the one-path graph ``g``,
    from each arc's cost per type and the arcs' types and probabilities:
    every combination of the arcs' types routed as the sweep routes one."""
    combos = np.stack(np.meshgrid(*arc_costs, indexing="ij"), axis=-1)
    predicted = shortest_path(g, combos.reshape(-1, len(arc_costs)))
    nominal = route_costs(g, (0,) * g.h, means)
    probs = functools.reduce(np.multiply.outer, [p for _, p in arcs]).ravel()
    return math.fsum(probs[predicted.values < nominal])


def primal_oracle(empirical: PmfMatrix, r_a: float, grid: float = 1e-3) -> float:
    """Feasible-point grid search for the worst-case mean (d <= 4).

    Searches the simplex on a mesh that is repeatedly recentered on the best
    feasible point and refined until the spacing drops to ``grid``.  Every
    candidate is checked against the KL constraint directly, so the result
    never exceeds the true maximum and approaches it to within O(grid).
    """
    d = empirical.support.size
    if d > 4:
        raise ValueError("oracle cost grows as grid^(d-1); use d <= 4")
    if r_a < 0.0:
        raise ValueError("radius must be nonnegative")
    z = empirical.support.points
    qhat = empirical.probs
    if r_a == 0.0 or d == 1:
        return float(empirical.means)

    npts = 17
    lo = np.zeros(d - 1)
    hi = np.ones(d - 1)
    best_q = qhat.copy()
    best_val = float(empirical.means)
    while True:
        axes = [np.linspace(lo[k], hi[k], npts) for k in range(d - 1)]
        mesh = np.meshgrid(*axes, indexing="ij")
        free = np.stack([m.ravel() for m in mesh], axis=1)
        tail = 1.0 - np.sum(free, axis=1)
        keep = tail >= -1e-12
        free, tail = free[keep], np.maximum(tail[keep], 0.0)
        rows = np.concatenate([free, tail[:, None]], axis=1)
        feasible = _kl_to_rows(qhat, rows) <= r_a
        moved = False
        if np.any(feasible):
            vals = rows[feasible] @ z
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                moved = True
                best_val = float(vals[k])
                best_q = rows[feasible][k]
        spacing = (hi - lo) / (npts - 1)
        if np.all(spacing <= grid):
            return best_val
        # Shrink only once the best point stops moving: along a thin curved
        # feasible sliver a shrinking window would stall short of the optimum.
        half = (8.0 if moved else 4.0) * np.maximum(spacing, grid / 4.0)
        center = best_q[: d - 1]
        lo = np.clip(center - half, 0.0, 1.0)
        hi = np.clip(center + half, 0.0, 1.0)


def shortest_path_reference(g, costs) -> tuple[tuple, float]:
    """Nodes and value of a shortest path by a forward pass in arc order.

    The arcs of a layered graph are topologically sorted, so one pass that
    relaxes each (tail, head) arc in turn sets every label.  Updating only
    on strict improvement sends ties to the lowest tail.
    """
    costs = np.asarray(costs, dtype=float)
    dist = np.full(g.num_nodes, np.inf)
    dist[g.source] = 0.0
    pred = np.full(g.num_nodes, -1, dtype=int)
    for k, (tail, head) in enumerate(g.arcs):
        cand = dist[tail] + costs[k]
        if cand < dist[head]:
            dist[head] = cand
            pred[head] = k
    nodes = [g.sink]
    for _ in range(g.path_length):  # every source-sink path has h + 1 arcs
        nodes.append(g.arcs[pred[nodes[-1]]][0])
    return tuple(reversed(nodes)), float(dist[g.sink])


def path_cost(g, choices, costs) -> float:
    """Cost of the path through node ``choices``: each pair of consecutive
    nodes looked up in ``g.arcs`` and its cost added, in path order, the
    order in which ``shortest_path`` adds up its labels."""
    nodes = path_nodes(g, choices).tolist()
    total = 0.0
    for arc in zip(nodes, nodes[1:]):
        total += float(costs[g.arcs.index(arc)])
    return total


def radius_candidates(T_a: int, d_a: int, num_actions: int, alpha_a: float,
                      alpha: float) -> list[float]:
    """Baseline, Agrawal and Mardia at one input, every one evaluated
    (Mardia +inf below two samples); the baseline alone at d_a = 1."""
    found = [float(radius_baseline(T_a, d_a, num_actions, alpha))]
    if d_a >= 2:
        found += [float(radius_agrawal(T_a, d_a, alpha_a)),
                  float(radius_mardia(T_a, d_a, alpha_a)) if T_a >= 2 else math.inf]
    return found


def radius_best_reference(T_a, d_a: int, num_actions: int, alpha_a, alpha: float):
    """The least of :func:`radius_candidates` and its label, one input at a
    time and with no bound skipped; ties go to the earlier label."""
    T_a, alpha_a = np.broadcast_arrays(T_a, alpha_a)
    radii, labels = np.empty(T_a.shape), np.empty(T_a.shape, dtype=object)
    for k in np.ndindex(T_a.shape):
        found = radius_candidates(int(T_a[k]), d_a, num_actions, float(alpha_a[k]), alpha)
        best = min(range(len(found)), key=found.__getitem__)  # the first least
        radii[k], labels[k] = found[best], ("baseline", "agrawal", "mardia")[best]
    return radii, labels
