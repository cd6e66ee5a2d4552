"""Reference probe: a fixed piece of work that measures the host's current speed.

The benchmark runs on a shared host whose speed drifts by up to 2x over
minutes, for pure user-mode work (no page faults, no I/O waits). Every op
and every set-up step therefore runs between two probes, and its time is
rescaled by how fast the probes ran next to it:

    scaled seconds = raw seconds * REF_PROBE_S / mean(probe before, probe after)

The probe is the benchmark's own code and never calls soupkit, so a change
to the package moves the op time and leaves the probe alone. Its instruction
mix follows the package's: a tiny numpy MLP trained with Adam at the
recipe's shapes (6-16-3, batch 32, 900 rows), i.e. many small numpy calls,
plus a plain-Python dict and string loop. A python-only or matmul-only probe
tracked the drift worse, and a file-I/O probe was noisier than the ops.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Probe seconds that define the reference speed. On the reference host
# (Intel Xeon VM, 2 vCPUs) the probe takes 0.04 to 0.09 s as its load varies;
# scaled times read as seconds at the speed where it takes 0.05 s.
REF_PROBE_S = 0.05

ROWS, DIMS, HIDDEN, CLASSES, BATCH = 900, 6, 16, 3, 32
MLP_STEPS = 300
DICT_ITERS = 80_000


class Probe:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.x = rng.standard_normal((ROWS, DIMS))
        self.y = rng.integers(0, CLASSES, ROWS)
        self.samples: list[float] = []

    def _mlp(self) -> float:
        rng = np.random.default_rng(7)
        n1, n2 = DIMS * HIDDEN, DIMS * HIDDEN + HIDDEN
        n3 = n2 + HIDDEN * CLASSES
        params = rng.standard_normal(n3 + CLASSES) * 0.3
        m, v = np.zeros_like(params), np.zeros_like(params)
        rows = np.arange(BATCH)
        for t in range(1, MLP_STEPS + 1):
            idx = rng.choice(ROWS, BATCH, replace=False)
            xb, yb = self.x[idx] + rng.normal(0.0, 0.1, (BATCH, DIMS)), self.y[idx]
            w1, b1 = params[:n1].reshape(DIMS, HIDDEN), params[n1:n2]
            w2, b2 = params[n2:n3].reshape(HIDDEN, CLASSES), params[n3:]
            h = xb @ w1 + b1
            a = np.maximum(h, 0.0)
            z = a @ w2 + b2
            e = np.exp(z - z.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            p[rows, yb] -= 1.0
            p /= BATCH
            d = (p @ w2.T) * (h > 0.0)
            g = np.concatenate([(xb.T @ d).ravel(), d.sum(axis=0), (a.T @ p).ravel(), p.sum(axis=0)])
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            params = params - 1e-2 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        hidden = np.maximum(self.x @ params[:n1].reshape(DIMS, HIDDEN) + params[n1:n2], 0.0)
        logits = hidden @ params[n2:n3].reshape(HIDDEN, CLASSES) + params[n3:]
        return float((logits.argmax(axis=1) == self.y).mean())

    @staticmethod
    def _dicts() -> int:
        d: dict[str, int] = {}
        for i in range(DICT_ITERS):
            k = f"k{i % 500}"
            d[k] = d.get(k, 0) + i
        return len(d)

    def __call__(self) -> float:
        """Run the probe once; return (and keep) its seconds."""
        t0 = perf_counter()
        self._mlp()
        self._dicts()
        secs = perf_counter() - t0
        self.samples.append(secs)
        return secs
