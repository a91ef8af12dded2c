"""Counter-based random streams.

A trajectory is fully determined by (seed, stream): the Philox bit generator
is keyed, not seeded sequentially, so trial-level parallelism or batching can
never reorder randomness. Trial i of an experiment draws from
spec.child(i).
"""

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngSpec:
    seed: int
    stream: int = 0

    def child(self, offset: int) -> "RngSpec":
        return RngSpec(self.seed, self.stream + offset)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def child_generators(spec: RngSpec, count: int):
    """Yield generators for spec.child(0), ..., spec.child(count - 1) in order.

    Every item is one Generator, re-keyed in place to the next stream (same
    key masking as RngSpec.generator, zero counter, empty buffer), so its
    draws equal those of spec.child(i).generator() bit for bit. Each item is
    valid only until the next one is taken.
    """
    bit_generator = np.random.Philox(key=0)
    generator = np.random.Generator(bit_generator)
    key = np.array([spec.seed & _MASK64, 0], dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i in range(count):
        key[1] = (spec.stream + i) & _MASK64
        bit_generator.state = state
        yield generator
