"""How the worst-case expected cost responds to the ball radius.

Takes one empirical pmf and sweeps the relative-entropy budget from zero
(plain sample average) to large (the top support point dominates), showing
the scalar dual solution, the relative entropy of the reconstructed
worst-case pmf from the empirical one, and that pmf at each step.

Run:  python demos/worst_case_ball.py
"""

import numpy as np

from kldro import Marginal, Support, kl_divergence, solve_dual

support = Support(np.array([1.0, 3.0, 4.0, 10.0]))
empirical = Marginal(support, np.array([0.4, 0.3, 0.2, 0.1]))

print(f"support points : {support.points}")
print(f"empirical pmf  : {empirical.probs}")
print(f"empirical mean : {empirical.mean():.6f}\n")

print(f"{'radius':>8} {'dual value':>12} {'KL(primal)':>11}  worst-case pmf")
for r in (0.0, 0.01, 0.05, 0.1, 0.3, 0.7, 1.5, 3.0):
    sol = solve_dual(empirical, r)
    div = kl_divergence(empirical, sol.primal)
    pmf = np.array2string(sol.primal.probs, precision=4, suppress_small=True)
    print(f"{r:8.2f} {sol.value:12.6f} {div:11.6f}  {pmf}")

print("\nThe reconstructed pmf stays inside the ball (KL <= radius) and has the")
print("dual value as its mean, and that value climbs from the sample mean")
print("toward the top support point.")
