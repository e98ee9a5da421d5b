"""Boosting with full-rank linear smoothers reaches the perfect fit.

When every base learner is a symmetric smoother with eigenvalues in
(0, 1], each step multiplies the residual by an operator of norm below
one, so the residual contracts geometrically no matter how learners are
selected. The fitted values converge to the observations themselves:
running such a model to convergence interpolates the data.
"""

import numpy as np

from amboost import smoother_boost

rng = np.random.default_rng(7)
n = 24
smoothers = []
for _ in range(3):
    Q, _ = np.linalg.qr(rng.standard_normal(size=(n, n)))
    eigs = rng.uniform(0.1, 1.0, size=n)
    smoothers.append(Q @ np.diag(eigs) @ Q.T)
y = rng.standard_normal(n)

for rule in ("greedy", "cyclic", "random"):
    sp = smoother_boost(smoothers, y, 200, rule=rule, seed=1)
    bound = sp.contraction ** np.arange(len(sp.residual_norms)) * np.linalg.norm(y)
    print(f"{rule:<7s} selection: contraction factor {sp.contraction:.3f}")
    for k in (0, 25, 100, 200):
        print(f"   k={k:<4d} residual {sp.residual_norms[k]:.3e}   "
              f"guarantee {bound[k]:.3e}")
print("\nthe guarantee holds for every selection rule; the limit is the")
print("saturated fit, so early stopping is what prevents interpolation.")
