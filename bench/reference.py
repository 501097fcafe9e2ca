"""The benchmark's reference task: fixed work that measures the machine's speed.

    python3 bench/reference.py

``run.py`` runs it in a fresh interpreter before and after every timed
process and scales that process's wall time by REFERENCE_S over the mean of
the two reference times (see run.py).  It uses no raysplit code, so a change
to the program cannot change it, and it does in small the kinds of work the
workloads do: start an interpreter and import numpy, run a pure-Python loop,
format floats to text, multiply matrices through BLAS and evaluate
elementwise functions on a large array.
"""

import numpy as np

total = 0
for j in range(200_000):
    total += j * j
text = ",".join(f"{v:.17g}" for v in np.linspace(0.0, 1.0, 15_000))
rng = np.random.default_rng(0)
a = rng.standard_normal((500, 500))
for _ in range(4):
    a = np.tanh(a @ a)
v = rng.standard_normal(1_000_000)
for _ in range(3):
    v = np.sin(v) * np.cos(v) + v
