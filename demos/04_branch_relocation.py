"""
Perturbations: coalescence and branch relocation
================================================

Two operations drive the extremal results.  Coalescence glues a rooted
branch onto a host vertex and can only lower the least eigenvalue.
Relocation moves a pendant branch from one host vertex to another; when the
eigenvector weighs the destination at least as heavily as the source, the
move never raises the least eigenvalue.
"""

import numpy as np

from heigen import (
    hyperstar,
    kth_power_of_graph,
    least_h_eigenvalue,
    relocate,
    transport_vector,
)
from heigen.analysis import (
    coalescence_campaign,
    verify_coalescence_monotonicity,
    verify_relocation,
)
from heigen.constructions import RootedHypergraph

# Gluing a 2-edge hyperstar onto a single edge: the host value -1 strictly
# drops, and the record shows the eigenvector weight at the gluing root.
host = RootedHypergraph(kth_power_of_graph([(0, 1)], 4), 0)
rec = verify_coalescence_monotonicity(host, hyperstar(2, 4))
print("coalescence:")
print(f"  lambda(host)   = {rec.lambda_host:+.9f}")
print(f"  lambda(merged) = {rec.lambda_merged:+.9f}")
print(f"  root weight {rec.root_value:+.6f} -> strict drop required: {rec.strict_required}")
print(f"  branch edge products at root sum to {rec.branch_root_sum:+.2e} (never positive)")

# A broom: three edges fanning out of a center, a pendant edge on one leaf.
# The eigenvector puts more weight on the center than on the leaf, so the
# pendant edge can be relocated onto the center.
broom = kth_power_of_graph([(0, 1), (0, 2), (0, 3)], 4)
relo = relocate(broom, 0, 1, hyperstar(1, 4))
before = least_h_eigenvalue(relo.before)
x = before.vector
print("\nrelocation, pendant edge from leaf 1 to center 0:")
print(f"  |x[center]| = {abs(x[0]):.6f}  |x[leaf]| = {abs(x[1]):.6f}")

# The transported vector scales the branch part so the comparison argument
# goes through; its Rayleigh value on the after-graph already beats the
# before-value, and the true optimum is lower still.
tr = transport_vector(x, relo)
after = least_h_eigenvalue(relo.after)
carried = verify_relocation(broom, 0, 1, hyperstar(1, 4))
print(f"  case {tr.case}, branch scale {tr.scale:.6f}")
print(f"  lambda(before)    = {before.eigenvalue:+.9f}")
print(f"  transported bound = {carried.transported_value:+.9f}")
print(f"  lambda(after)     = {after.eigenvalue:+.9f}")

# The coalescence campaign draws random hosts, roots and hypertree branches,
# and checks every gluing.
records = coalescence_campaign(trials=5, seed=3)
print("\nrandom coalescence instances:")
for r in records:
    print(f"  {r.status}: host {r.lambda_host:+.6f} -> merged {r.lambda_merged:+.6f}"
          f"  alpha = {r.branch_root_sum:+.2e}")
