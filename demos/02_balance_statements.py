"""Brute-force checks of the balance statements behind the losses.

Each check searches exhaustively over class-size compositions (valid
because on one-hot matrices every loss depends only on the size multiset)
and reports whether the optimum lands exactly on the balanced split
floor(B/C) / ceil(B/C).  Statement 6 enumerates whole matrices instead and
verifies the tight bound 1/alpha + eps*B for rows occupying pairwise
distinct classes.
"""

import sys

from equimax import balanced_sizes, verify_all, write_json
from equimax.optimizer import AscentConfig

ascent = AscentConfig(inits=32, steps=500)

for n_rows, n_cols in [(4, 2), (7, 3), (3, 4)]:
    print(f"=== B={n_rows}, C={n_cols} (balanced sizes: {balanced_sizes(n_rows, n_cols)}) ===")
    for rep in verify_all(n_rows, n_cols, r=0.5, alpha=1.0, seed=7, ascent=ascent):
        detail = ""
        if rep.verdict == "pass" and rep.theorem in (1, 3, 5):
            detail = f"  argmax={rep.argmax} optimum={rep.optimum:.6f}"
        elif rep.theorem == 2:
            detail = f"  min curvature={rep.params['min_hessian_diag']:.4f}"
        elif rep.theorem == 6 and rep.verdict == "pass":
            detail = f"  attainers={rep.params['attainers']} bound={rep.predicted:.6f}"
        print(f"  statement {rep.theorem}: {rep.verdict}{detail}")
    print()

# The same reports serialize to stable JSON for downstream tooling:
report = verify_all(4, 2, ascent=ascent)[0]
print("sample JSON report:")
write_json(sys.stdout, report.to_dict())
print()
