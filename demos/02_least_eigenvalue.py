"""
Least H-eigenvalues of adjacency tensors
========================================

The least H-eigenvalue of an even-uniformity hypergraph is the minimum of
the degree-k form over the unit k-norm sphere.  For odd-bipartite graphs the
solver signs the Perron vector; otherwise it runs projected gradient descent
from many starts.  An independent sign-enumeration oracle confirms small
cases.
"""

import numpy as np

from heigen import (
    Hypergraph,
    SolverConfig,
    brute_force_min,
    complete_hypergraph,
    hyperstar,
    least_h_eigenvalue,
    spectral_radius,
)
from heigen.spectral import residual

# A single edge has least eigenvalue exactly -1: put one sign flip on the
# edge and spread magnitudes evenly.
edge = Hypergraph(4, 4, ((0, 1, 2, 3),))
res = least_h_eigenvalue(edge)
print(f"single edge: lambda_min = {res.eigenvalue:+.9f}  residual = {res.residual:.1e}")

# Hyperstars have the closed form -m**(1/k).
print("\nhyperstar closed form versus solver:")
for m in range(1, 6):
    r = least_h_eigenvalue(hyperstar(m, 4).graph)
    print(f"  m={m}: solver {r.eigenvalue:+.9f}  closed form {-m**0.25:+.9f}")

# The eigenvector certifies the value: the residual measures how far the
# pair is from solving the eigen equation exactly.
g = complete_hypergraph(5, 4)
r = least_h_eigenvalue(g)
print(f"\nK_5^4: lambda_min = {r.eigenvalue:.9f}")
print("recomputed residual:", residual(g, r.eigenvalue, r.vector))

# brute_force_min enumerates all sign patterns of sampled magnitude
# profiles, a route with none of the descent machinery's blind spots.
b = brute_force_min(g)
print(f"brute force: {b.eigenvalue:.9f}  (gap {abs(b.eigenvalue - r.eigenvalue):.1e})")

# For hypertrees, and every connected odd-bipartite graph, the least
# eigenvalue is minus the spectral radius.  The default solver uses this:
# it signs the Perron vector by the odd bipartition.  method="descent"
# computes lambda_min by descent instead, so the two sides come from
# different algorithms.
t = hyperstar(3, 4).graph
fast = least_h_eigenvalue(t)
lo = least_h_eigenvalue(t, method="descent").eigenvalue
hi = spectral_radius(t).eigenvalue
print(f"\nhyperstar(3): lambda_min = {lo:.9f} (descent), {fast.eigenvalue:.9f} ({fast.method}), -rho = {-hi:.9f}")

# Seeds make runs reproducible: the same config always gives the same pair.
cfg = SolverConfig(restarts=16, seed=7)
x1 = least_h_eigenvalue(g, cfg).vector
x2 = least_h_eigenvalue(g, cfg).vector
print("\nsame seed, same vector:", bool(np.array_equal(x1, x2)))
