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


# The generators child_generators hands out, grown on demand. Each process
# that draws (the caller, or a forked worker with its own copy) keys its own.
_POOL = []


def child_generators(spec: RngSpec, count: int) -> list:
    """Generators for spec.child(0), ..., spec.child(count - 1), as a list.

    The items are count distinct Generators of a per-process pool, each
    re-keyed in place to its stream (same key masking as RngSpec.generator,
    zero counter, empty buffer), so the draws of item i equal those of
    spec.child(i).generator() bit for bit. Being distinct, they can be drawn
    from in turns: a row may be drawn in two calls, the second going on
    where the first stopped. They stay valid until the next call of
    child_generators in the same process re-keys them.
    """
    while len(_POOL) < count:
        _POOL.append(np.random.Generator(np.random.Philox(key=0)))
    # Plain lists: the state setter reads them in under half the time it
    # takes for uint64 arrays, and it runs once per trial.
    key = [spec.seed & _MASK64, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    generators = _POOL[:count]
    for i, generator in enumerate(generators):
        key[1] = (spec.stream + i) & _MASK64
        generator.bit_generator.state = state
    return generators
