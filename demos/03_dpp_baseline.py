"""Geometry of the determinantal batch objective.

The loss is the negative log-det ratio of the quality-weighted feature
kernel: it falls as the batch features spread out. This script sweeps the
pairwise cosine of a two-sample batch and checks the analytic gradient on
a tiny masked instance against central finite differences.
"""

import numpy as np

from divdiff import GenerationConfig, dpp_loss, dpp_step
from divdiff.gradcheck import fd_dpp_gradient, random_instance, has_pool_tie

eps = 1e-3
print("loss versus pairwise cosine (2x2 kernel, unit qualities):")
for cosine in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0):
    l_matrix = np.array([[1.0, cosine], [cosine, 1.0]])
    print(f"  cos={cosine:4.2f}  loss={dpp_loss(l_matrix, eps):8.4f}")

print("\nidentical vs orthogonal batches at several sizes:")
for b in (2, 4, 8, 16):
    same = dpp_loss(np.ones((b, b)), eps)
    diverse = dpp_loss(np.eye(b), eps)
    print(f"  B={b:2d}  identical={same:8.3f}  orthogonal={diverse:8.3f}")

rng = np.random.default_rng(3)
while True:
    logits, state = random_instance(rng, max_batch=3, max_length=4, max_vocab=6,
                                    min_batch=2)
    if not has_pool_tie(logits, state):
        break
# the guidance applies its gradient as a descent step; at step size 1 the
# gradient is what the step subtracts
config = GenerationConfig(alpha=1.0, anneal="off", jitter=eps)
analytic = logits - dpp_step(logits, state, config, t=1)
numeric = fd_dpp_gradient(logits, state, eps)
scale = max(np.abs(analytic).max(), np.abs(numeric).max())
print(f"\ngradient check on a random ({state.batch}, {state.length}, "
      f"{state.vocab}) instance with a {state.prompt_len}-token prompt: max abs diff = "
      f"{np.abs(analytic - numeric).max():.2e} (scale {scale:.2e})")
