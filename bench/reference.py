"""Fixed reference program, timed between passes to track the host's speed.

It does what a `decisive` invocation does, without `decisive`: start an
interpreter, import numpy, then run pure-Python bookkeeping and small-array
numpy calls. The CPU speed of a shared host drifts by tens of percent over
minutes, and that drift moves this program's time and a pass's time together;
dividing one by the other cancels most of it. Normalized metrics are relative
to this exact program, so it must never change.
"""

import numpy as np


def main() -> float:
    total = 0.0
    counts: dict[str, int] = {}
    for i in range(60_000):
        key = f"k{i % 997}"
        counts[key] = counts.get(key, 0) + i
        total += (i * 31) % 17
    a, b = np.arange(3.0), np.ones(3)
    for _ in range(4_000):
        total += float(np.linalg.norm(a - b)) + float(a @ b)
    return total + len(counts)


if __name__ == "__main__":
    main()
