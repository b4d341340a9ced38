"""The three finite-sample radius bounds, side by side.

For a fixed support size and confidence budget, tabulates the three
calibrations as the sample count grows, marking which one wins.  The
method-of-types bound dominates early theory but is never the smallest at
these scales; the partial-sum bound usually wins, with the root-finding
bound taking over for some ranges.

Run:  python demos/radius_calibration.py
"""

from kldro import radius_agrawal, radius_baseline, radius_best, radius_mardia

ALPHA = 0.05
NUM_ACTIONS = 104  # arcs of the 7-layer, width-4 network
D = 50

print(f"support size d={D}, |A|={NUM_ACTIONS}, confidence {ALPHA} split evenly\n")
print(f"{'T':>4} {'baseline':>10} {'root bound':>10} {'partial sum':>11}  winner")
alpha_a = ALPHA / NUM_ACTIONS
for T in (5, 10, 15, 20, 25, 35, 50, 75, 100, 150, 200):
    value, label = radius_best(T, D, NUM_ACTIONS, alpha_a, ALPHA)
    print(
        f"{T:>4} {radius_baseline(T, D, NUM_ACTIONS, ALPHA):>10.4f} "
        f"{radius_agrawal(T, D, alpha_a):>10.4f} "
        f"{radius_mardia(T, D, alpha_a):>11.4f}  {label} ({value:.4f})"
    )

print("\nJoint-ball calibration for the truncated benchmark (support d^|A|):")
for T in (5, 10, 20):
    value, label = radius_best(T, D**NUM_ACTIONS, 1, ALPHA, ALPHA)
    print(f"  T={T:>3}: radius {value:.4f} via {label}")
