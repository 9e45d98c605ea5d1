"""The CSV writer's numpy kernel against ``repr``, on random float64 bit patterns.

    PYTHONPATH=src python tests/csv_kernel_reference.py

formats 5 M seeded random bit patterns (NaNs, infinities and subnormals
included) with ``probmat._repr_cells`` and checks that the cells are
``repr``'s bytes.  It prints the pattern count and fails on the first
mismatch.  Too slow for the tier-1 suite.
"""

import numpy as np

from equimax import probmat

rng = np.random.default_rng(20260)
for _ in range(10):
    values = rng.integers(0, 2**64, size=500_000, dtype=np.uint64, endpoint=False).view(float)
    chars, keep = probmat._repr_cells(values)
    got = np.compress(keep.ravel(), chars.ravel()).tobytes().decode('ascii')
    assert got == ''.join(repr(x) + ',' for x in values.tolist()), 'kernel differs from repr'
print('5000000 bit patterns, 0 mismatches')
