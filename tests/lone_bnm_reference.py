"""The lone bnm kernel against the rows of a stack.

    PYTHONPATH=src python tests/lone_bnm_reference.py

A lone matrix of 2 or 3 columns runs 1-pair Jacobi rounds on 2-D arrays
and a stack the vectorised rounds.  On about 200,000 seeded Dirichlet
matrices of 2-60 rows at concentrations 0.05-5, and on rank-one, one-hot,
-0.0 and zero-column matrices, the lone bnm value, gradient and exact flag
must equal its stack row's bytes.  It prints the matrix and mismatch
counts and fails on any mismatch.  Too slow for the tier-1 suite.
"""

import numpy as np

from equimax import losses

rng = np.random.default_rng(20280)
count = mismatches = 0
for n_rows in range(2, 61):
    for n_cols in (2, 3):
        hot = np.eye(n_cols)[rng.integers(0, n_cols, (2, n_rows))]
        zero = rng.dirichlet(np.ones(n_cols), n_rows)
        zero[:, 0] = 0.0
        rank_one = np.tile(rng.dirichlet(np.ones(n_cols)), (n_rows, 1))
        odd = [rank_one, hot[0], np.where(hot[1] == 1.0, 1.0, -0.0), zero]
        concs = (0.05, 0.15, 0.5, 1.5, 5.0)
        stacks = [rng.dirichlet(np.full(n_cols, conc), size=(340, n_rows)) for conc in concs]
        stacks += [np.stack(odd)] + [np.stack([mat, mat]) for mat in odd]
        for stack in stacks:
            values, grads, flags = losses._bnm(stack, True)
            for mat, value, grad, flag in zip(stack, values, grads, flags):
                got_value, got_grad, got_flag = losses._bnm(mat, True)
                count += 1
                same = got_value.tobytes() == value.tobytes() and got_grad.tobytes() == grad.tobytes()
                mismatches += not (same and got_flag == flag)
print(count, 'matrices,', mismatches, 'mismatches')
assert mismatches == 0, 'a lone bnm result differs from its stack row'
