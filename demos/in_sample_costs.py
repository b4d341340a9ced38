"""Why truncation can help: per-arc worst-case costs vs the ground truth.

Sorts the arcs of one instance by their true expected cost and prints the
worst-case estimates of the full-data rule next to the truncated-data one.
The full-data rule tracks the truth more tightly on well-observed arcs,
but the truncated rule's estimates follow the *shape* of the truth more
consistently, which is what the path comparison actually rewards; the
pairwise-order errors of each estimate make that concrete.

Run:  python demos/in_sample_costs.py
"""

import numpy as np

from kldro import (
    SampleSizeSpec,
    build_layered,
    calibrate_ambiguity,
    draw_dataset,
    dro2_prescribe,
    dro_prescribe,
    nominal_marginals,
    random_nominal_spec,
    sample_sizes,
    substream,
)

D, ALPHA, SEED = 50, 0.05, 12

graph = build_layered(3, 3)
rng = substream(SEED, 0)
spec = random_nominal_spec("discretized-normal", graph.num_arcs, D, rng, sigma=D / 4)
marginals = nominal_marginals(spec, graph)
sizes = sample_sizes(SampleSizeSpec("uniform", 10, 20), marginals, rng)
data = draw_dataset(marginals, sizes, rng)

full = dro_prescribe(data, calibrate_ambiguity(data, ALPHA), graph)
trunc = dro2_prescribe(data, ALPHA, graph)

means = marginals.means
order = np.argsort(means)


def pairwise_order_errors(estimates):
    errs = 0
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            a, b = order[i], order[j]
            if estimates[a] > estimates[b]:
                errs += 1
    return errs


print(f"{'arc':>4} {'T_a':>4} {'true mean':>10} {'full-data':>10} {'truncated':>10}")
for a in order:
    print(f"{a:>4} {int(data.sizes[a]):>4} {means[a]:>10.3f} "
          f"{full.arc_costs[a]:>10.3f} {trunc.arc_costs[a]:>10.3f}")

print(f"\npairwise order errors vs the truth: full-data {pairwise_order_errors(full.arc_costs)}, "
      f"truncated {pairwise_order_errors(trunc.arc_costs)} "
      f"(out of {graph.num_arcs * (graph.num_arcs - 1) // 2} pairs)")
