"""Fixed reference kernels that measure the host's speed between scenes.

The hosts this benchmark runs on do not hold one speed: the same fixed loop
runs in one of two states about 1.5x apart, and a state lasts from a
fraction of a second to minutes. Wall time follows the state, so two runs of
the same code can differ by more than any useful bound.

The timed loop therefore runs the kernels right before every scene. They are
fixed code of the benchmark's own, one for each kind of code reldet spends
its time in:

- ``tape_kernel``: small numpy array ops with a closure recorded per op, then
  a reverse pass over the closures, as in reldet's tape;
- ``loop_kernel``: a pure-Python loop over the elements of numpy rows with
  list bookkeeping, as in ``hungarian``.

The host factor of one sample is each kernel's time over its time on the
reference host, weighted by the share of the workload's step spent in that
kind of code (``loop_share``, from the traced runs). Each scene's wall time is
divided by the median factor of the samples around it, which gives the time
the scene would take on the reference host. A change to reldet moves the
scene times and not the kernels, so the rescaled times keep every program
change and lose most of the host's.

Neither kernel alone followed the host state on every workload: the tape
kernel tracked train_default and eval_heldout best, and train_crowded, whose
step is mostly ``hungarian``, was tracked best by the two together.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel times in ms on the reference host, the one the benchmark was
# written on (2-vCPU Xeon VM, Python 3.11, numpy 2.4). They only set the
# scale: rescaled times read as wall times on that host.
TAPE_MS = 0.45
LOOP_MS = 0.45
# samples on each side of a scene that set its local host factor: with 1,
# the sample right before the scene, the one right after it and the one
# before that. Wider windows followed quick changes of host state worse.
HALF_WINDOW = 1
TAPE_LAYERS = 12  # layers in the tape kernel's forward pass; sets its length

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((16, 32))
_W = _RNG.standard_normal((32, 32)) / 6.0
_C = _RNG.standard_normal((48, 48))


def tape_kernel() -> float:
    tape = []
    x = _A
    for _ in range(TAPE_LAYERS):
        h = x @ _W
        tape.append(lambda g, x=x: g @ _W.T + 0.0 * x)
        x = np.tanh(h) + 0.1 * x
        tape.append(lambda g, h=h: g * (1.0 - np.tanh(h) ** 2))
        x = x - x.mean(axis=1, keepdims=True)
        tape.append(lambda g: g - g.mean(axis=1, keepdims=True))
    g = np.ones_like(x)
    for rule in reversed(tape):
        g = rule(g)
    return float(g.sum())


def loop_kernel() -> float:
    n = _C.shape[0]
    v = [0.0] * n
    best = 0.0
    for i in range(n):
        row = _C[i]
        low, arg = float("inf"), 0
        for j in range(n):
            cur = row[j] - v[j]
            if cur < low:
                low, arg = cur, j
        v[arg] += 0.5
        best += low
    return best


def _ms(kernel) -> float:
    """Time of a warm call: the untimed first call brings the kernel's code
    and data back into cache after the scene, so the sample does not depend
    on what the program left there."""
    kernel()
    t0 = time.perf_counter_ns()
    kernel()
    return (time.perf_counter_ns() - t0) / 1e6


def host_factor(loop_share: float) -> float:
    """One sample of the host's slowness against the reference host (1.0 there)."""
    factor = 0.0
    if loop_share < 1.0:
        factor += (1.0 - loop_share) * _ms(tape_kernel) / TAPE_MS
    if loop_share > 0.0:
        factor += loop_share * _ms(loop_kernel) / LOOP_MS
    return factor


def rescale(wall_ms: list, factors: list) -> list:
    """Scene times on the reference host: each wall time over the median
    host factor of the samples within HALF_WINDOW of its scene."""
    return [
        w / statistics.median(factors[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1])
        for i, w in enumerate(wall_ms)
    ]
