"""Kriging walkthrough: predict a 1-d array from three observations.

Builds a squared-exponential design over a grid, observes three points,
and prints the best linear unbiased prediction next to the direct
Gram-solve formula K_*D (K_DD)^{-1} y to show they coincide, plus the
observed block's rank and the integrated-entropy figure the package
reports alongside predictions.
"""

import numpy as np

from olskit import ArrayDesign, KernelSpec, krige
from olskit.kernels import default_epsilon_grid, entropy_integral, gram

grid = np.linspace(0.0, 1.0, 11)[:, None]
spec = KernelSpec("se", lengthscale=0.3, variance=1.0)
design = ArrayDesign(grid, spec)

observed = [0, 5, 10]
y = np.array([0.0, 1.0, -0.5])

result = krige(design, observed, y)

k = gram(spec, grid)
direct = k[:, observed] @ np.linalg.solve(k[np.ix_(observed, observed)], y)

print("index   prediction   gram-solve")
for x, pred, ref in zip(grid[:, 0], result.values[:, 0], direct):
    print(f" {x:4.2f}   {pred:10.6f}   {ref:10.6f}")

repro = np.abs(result.values[observed, 0] - y).max()
print(f"\nobserved values reproduced to {repro:.2e}")
print(f"rank of the observed block: {result.rank} of {len(observed)}")

eps = default_epsilon_grid(spec, grid)
print(f"integrated entropy of the design: {entropy_integral(spec, grid, eps):.4f}")
