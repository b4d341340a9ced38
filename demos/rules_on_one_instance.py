"""All four rules on a single data-driven shortest-path instance.

Builds the small 3x3 layered network, draws an unevenly sampled data set
from a shifted-binomial ground truth, and lets each rule pick a path: its
parameter (radii, slacks or one joint radius) is first calibrated from the
data at the confidence level ALPHA, then the rule prescribes at it.  The
printout compares what each rule predicted, what the path truly costs in
expectation, and the resulting relative loss.

Run:  python demos/rules_on_one_instance.py
"""

from kldro import (
    build_layered,
    calibrate_ambiguity,
    draw_dataset,
    dro1_prescribe,
    dro_prescribe,
    hoeffding_prescribe,
    hoeffding_slack,
    joint_radius,
    nominal_marginals,
    path_nodes,
    route_costs,
    sample_sizes,
    shortest_path,
    substream,
    truncate_dataset,
)

D, ALPHA, SEED = 10, 0.05, 7

graph = build_layered(3, 3)
rng = substream(SEED, 0)
marginals = nominal_marginals("shifted-binomial", graph.num_arcs, D, rng)
sizes = sample_sizes("uniform", 5, 15, marginals, rng)
data = draw_dataset(marginals, sizes, rng)

print(f"network: {graph.num_nodes} nodes, {graph.num_arcs} arcs, "
      f"{graph.w ** graph.h} paths")
print(f"samples per arc: min {data.t_min}, max {int(data.sizes.max())}\n")

means = marginals.means
oracle_path, oracle_value = shortest_path(graph, means)
print(f"clairvoyant optimum: path {path_nodes(graph, oracle_path).tolist()}, "
      f"expected cost {oracle_value:.4f}\n")

truncated = truncate_dataset(data)
prescriptions = {
    "robust baseline": dro_prescribe(data, calibrate_ambiguity(data, ALPHA), graph),
    "hoeffding bound": hoeffding_prescribe(data, hoeffding_slack(data, ALPHA), graph),
    "joint-ball, truncated": dro1_prescribe(data, joint_radius(data, ALPHA), graph),
    "baseline, truncated": dro_prescribe(truncated, calibrate_ambiguity(truncated, ALPHA), graph),
}

print(f"{'rule':<22} {'predicted':>10} {'true cost':>10} {'rel. loss':>10}  path")
for name, (path, predicted_loss) in prescriptions.items():
    true_cost = float(route_costs(graph, path, means))
    rho = true_cost / oracle_value
    print(f"{name:<22} {predicted_loss:>10.4f} {true_cost:>10.4f} {rho:>10.4f}  "
          f"{path_nodes(graph, path).tolist()}")

print("\nPredicted losses sit above the realized expected costs by design:")
print("each rule hedges so that underestimating the loss is the rare event.")
