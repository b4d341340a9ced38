"""All four rules on a single data-driven shortest-path instance.

Builds the small 3x3 layered network, draws an unevenly sampled data set
from a shifted-binomial ground truth, and lets each rule pick a path.  The
printout compares what each rule predicted, what the path truly costs in
expectation, and the resulting relative loss.

Run:  python demos/rules_on_one_instance.py
"""

import numpy as np

from kldro import (
    SampleSizeSpec,
    build_layered,
    calibrate_ambiguity,
    draw_dataset,
    dro1_prescribe,
    dro2_prescribe,
    dro_prescribe,
    hoeffding_prescribe,
    nominal_marginals,
    random_nominal_spec,
    relative_loss,
    sample_sizes,
    shortest_path,
    substream,
)

D, ALPHA, SEED = 10, 0.05, 7

graph = build_layered(3, 3)
rng = substream(SEED, 0)
spec = random_nominal_spec("shifted-binomial", graph.num_arcs, D, rng)
marginals = nominal_marginals(spec, graph)
sizes = sample_sizes(SampleSizeSpec("uniform", 5, 15), marginals, rng)
data = draw_dataset(marginals, sizes, rng)

print(f"network: {graph.num_nodes} nodes, {graph.num_arcs} arcs, "
      f"{graph.w ** graph.h} paths")
print(f"samples per arc: min {data.t_min}, max {int(data.sizes.max())}\n")

means = marginals.means
oracle_path, oracle_value = shortest_path(graph, means)
print(f"clairvoyant optimum: path {oracle_path.nodes}, expected cost {oracle_value:.4f}\n")

prescriptions = {
    "robust baseline": dro_prescribe(data, calibrate_ambiguity(data, ALPHA), graph),
    "hoeffding bound": hoeffding_prescribe(data, ALPHA, graph),
    "joint-ball, truncated": dro1_prescribe(data, ALPHA, graph),
    "baseline, truncated": dro2_prescribe(data, ALPHA, graph),
}

print(f"{'rule':<22} {'predicted':>10} {'true cost':>10} {'rel. loss':>10}  path")
for name, pres in prescriptions.items():
    true_cost = float(np.dot(means, pres.decision.incidence))
    rho = relative_loss(pres.decision, marginals, graph)
    print(f"{name:<22} {pres.predicted_loss:>10.4f} {true_cost:>10.4f} {rho:>10.4f}  {pres.decision.nodes}")

print("\nPredicted losses sit above the realized expected costs by design:")
print("each rule hedges so that underestimating the loss is the rare event.")
