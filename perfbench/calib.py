"""A fixed piece of work that measures the speed of the machine, not of heis.

Usage: python3 calib.py

`run.py` starts this in a fresh process after every operation. It runs a
fixed numpy kernel shaped like the commands' inner loop: one Philox
generator per path, normal draws summed into chunks of 512 paths, a
left-point area and a maximum. Nothing here depends on heis or on the
benchmark's seed, so its time changes only with the machine's speed. The
last line on stdout is a JSON record with that time in seconds.
"""

import json
import time

import numpy as np


def kernel(chunks=5, paths=512, steps=1024):
    """The commands' inner loop, on fixed keys: each path from its own Philox
    generator, drawn into an 8 MB chunk of paths, then the chunk's left-point
    area and the maximum of |B|^2 + A^2."""
    scale = steps ** -0.5
    acc = 0.0
    for c in range(chunks):
        chunk = np.empty((paths, steps + 1, 2))
        chunk[:, 0] = 0.0
        for j in range(paths):
            key = np.array([c, j], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            np.cumsum(gen.standard_normal((steps, 2)) * scale, axis=0, out=chunk[j, 1:])
        inc = np.diff(chunk, axis=1)
        area = np.cumsum(0.5 * (chunk[:, :-1, 0] * inc[:, :, 1] - chunk[:, :-1, 1] * inc[:, :, 0]), axis=1)
        acc += float(np.max(chunk[:, 1:, 0] ** 2 + chunk[:, 1:, 1] ** 2 + area * area))
    return acc


def main():
    t0 = time.perf_counter()
    kernel()
    print(json.dumps({"kernel_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
