"""How far under alpha each rule's exact disappointment sits on one path.

A path of k = 1, 2 or 3 arcs on the two cost points {1, 2}, the arcs seen
T, 2T and 3T times.  At d = 2 the types of T draws are binomial, so every
combination of the arcs' types is enumerated and weighted exactly.  A rule
disappoints when its predicted loss, the sum of its per-arc costs (an outer
sum over the arcs' types), falls strictly below the path's true mean.  dro
can only do so when some arc's worst-case mean U_a falls below its true
mean, so the union of those one-sided misses bounds it; the gap between
the two columns is what the union over arcs costs.

The second table is the rate check.  Van Parys, Mohajerin Esfahani & Kuhn
(2021) tie the KL radius to the decay rate of the disappointment.  On two
arcs seen T and 2T times, every arc's ball has one fixed radius r, and as
T grows it prints -(1/T) ln P for each arc's one-sided miss, next to
r T_a / T, and for dro's exact disappointment on the path.

Run:  python demos/guarantee_audit.py
"""

import functools
import math

import numpy as np

from kldro import PmfMatrix, Support, calibrate_ambiguity, hoeffding_slack, worst_case_costs
from kldro.marginals import DataSet
from kldro.rules import hoeffding_costs

T, ALPHA = 30, 0.05
PMFS = np.array([[0.5, 0.5], [0.9, 0.1], [0.3, 0.7]])
SUPPORT = Support.integers(2)


def types(draws: int, pmf) -> tuple[DataSet, np.ndarray]:
    """Every type of ``draws`` draws on {1, 2} as a block of one-arc data
    sets, c draws of 2 in row c, and its binomial probability."""
    tops = np.arange(draws + 1)
    index = np.repeat(np.tile([0, 1], draws + 1), np.column_stack([draws - tops, tops]).ravel())
    log_binomial = np.array([math.log(math.comb(draws, c)) for c in tops.tolist()])
    probs = np.exp(log_binomial + tops * math.log(pmf[1]) + (draws - tops) * math.log(pmf[0]))
    return DataSet(SUPPORT, index, np.full((draws + 1, 1), draws)), probs


def worst_case(arcs, radii) -> list[np.ndarray]:
    """Each arc's worst-case mean U per type, at the arc's radius."""
    return [worst_case_costs(SUPPORT, block.pmf, np.full(block.sizes.shape, r))[:, 0]
            for (block, _), r in zip(arcs, radii)]


def below(costs, probs, bound) -> float:
    """Exact probability that the path sum of the arcs' costs per type
    falls strictly below ``bound``."""
    total = functools.reduce(np.add.outer, costs)  # added in path order, as routing does
    return math.fsum(functools.reduce(np.multiply.outer, probs)[total < bound])


print(f"one path on d = 2, counts T, 2T, 3T with T = {T}, alpha = {ALPHA}, today's radii\n")
print(f"{'arcs':>4} {'dro / alpha':>12} {'union of misses / alpha':>24} {'hoeffding / alpha':>18}")
for k in (1, 2, 3):
    sizes = T * np.arange(1, k + 1)
    path = DataSet(SUPPORT, np.zeros(sizes.sum(), dtype=int), sizes)  # calibration reads counts
    radii, slack = calibrate_ambiguity(path, ALPHA), hoeffding_slack(path, ALPHA)
    means = PmfMatrix(SUPPORT, PMFS[:k]).means
    arcs = [types(t, pmf) for t, pmf in zip(sizes.tolist(), PMFS)]
    probs = [p for _, p in arcs]
    dro = worst_case(arcs, radii)
    hoeffding = [hoeffding_costs(block, e)[:, 0] for (block, _), e in zip(arcs, slack)]
    misses = [math.fsum(p[u < mu]) for p, u, mu in zip(probs, dro, means)]
    union = 1.0 - math.prod(1.0 - m for m in misses)  # the arcs' data are independent
    nominal = functools.reduce(np.add, means)
    print(f"{k:>4} {below(dro, probs, nominal) / ALPHA:>12.3e} {union / ALPHA:>24.3e} "
          f"{below(hoeffding, probs, nominal) / ALPHA:>18.3e}")

print("\ndecay rates -(1/T) ln P on two arcs seen T and 2T times, pmfs (0.5, 0.5) and "
      "(0.9, 0.1),\nevery arc at one fixed radius r\n")
print(f"{'r':>5} {'T':>5} {'arc 0 miss':>11} {'r T_0 / T':>10} {'arc 1 miss':>11} "
      f"{'r T_1 / T':>10} {'dro':>7}")
means = PmfMatrix(SUPPORT, PMFS[:2]).means
nominal = functools.reduce(np.add, means)
for base in (10, 30, 100, 300, 1000):
    sizes = (base, 2 * base)
    arcs = [types(t, pmf) for t, pmf in zip(sizes, PMFS)]
    probs = [p for _, p in arcs]
    for r in (0.02, 0.05):
        dro = worst_case(arcs, (r, r))
        misses = [math.fsum(p[u < mu]) for p, u, mu in zip(probs, dro, means)]
        rates = [-math.log(p) / base for p in (*misses, below(dro, probs, nominal))]
        print(f"{r:>5} {base:>5} {rates[0]:>11.3f} {r * sizes[0] / base:>10.3f} "
              f"{rates[1]:>11.3f} {r * sizes[1] / base:>10.3f} {rates[2]:>7.3f}")
