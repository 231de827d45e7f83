"""Walk through the core generation loop on a planted task.

Shows the forward masking process under a linear schedule, greedy
collapse onto the skewed template, and how temperature alone fails to
find the planted answers.
"""

import numpy as np

from divdiff import (
    GenerationConfig,
    PlantedDenoiser,
    check_answer,
    default_problem,
    generate_batch,
)

task, prompt = default_problem(0)
print(f"task: vocab={task.vocab}, length={task.length}, "
      f"{task.num_templates} templates, correct={sorted(task.correct)}")

# --- the forward corruption process -------------------------------------
T = 4
rng = np.random.default_rng(0)
clean = task.templates[1]
print("\nforward masking of a clean sequence (gamma = t/T):")
for t in range(T + 1):
    masked = rng.random(clean.size) < t / T
    shown = " ".join("__" if hit else f"{tok:2d}" for tok, hit in zip(clean, masked))
    print(f"  t={t}  gamma={t / T:.2f}  {shown}")

# --- greedy decoding collapses ------------------------------------------
model = PlantedDenoiser(task)
config = GenerationConfig(
    temperature=0.0, steps=task.length - 1, length=task.length, batch=16, seed=0
)
outputs = generate_batch(model, config, prompt=prompt)
distinct = {tuple(seq) for seq in outputs}
print(f"\ngreedy decoding: {len(distinct)} distinct output(s) in a batch of 16")
print(f"any correct: {any(check_answer(task, seq) for seq in outputs)}")

# --- temperature alone is not a fix -------------------------------------
for theta in (0.5, 1.0):
    config = GenerationConfig(
        temperature=theta, steps=task.length - 1, length=task.length, batch=16, seed=0
    )
    outputs = generate_batch(model, config, prompt=prompt)
    hits = sum(check_answer(task, seq) for seq in outputs)
    print(f"theta={theta}: {len({tuple(s) for s in outputs})} distinct, "
          f"{hits}/16 correct")
