#!/usr/bin/env python3
"""Orthogonality audit at the acceptance scales.

Emits one CSV per family (header m,n,s,t,value_re,value_im,closed_re,
closed_im,rel_error) and prints the worst deviations:

* first family at q = 1/4, K = 80, indices <= 5,
* disk family, same grid, b = 1/4,
* second family at q = 1/2, indices <= 4 (geometric-grid quadrature).
"""

from fractions import Fraction as F

from q2dpoly.context import QContext, TruncationPolicy
from q2dpoly.measures import ortho_csv, ortho_table

TR = TruncationPolicy(max_terms=500, tail_tol=1e-36)


def audit(ctx, family, N, b, path):
    table, worst_d, worst_o = ortho_table(ctx, family, N, b=b)
    with open(path, "w") as fh:
        fh.write(ortho_csv(table) + "\n")
    print(f"{family}: worst diagonal rel {worst_d:.3e}, worst off-diagonal {worst_o:.3e} -> {path}")
    return worst_d, worst_o


def main():
    ctx14 = QContext(F(1, 4), sqrt_q="auto", backend="float",
                     precision_bits=160, default_trunc=TR)
    ctx12 = QContext(F(1, 2), sqrt_q="auto", backend="float",
                     precision_bits=160, default_trunc=TR)
    bad = 0
    for ctx, family, N, b, path, tol in ((ctx14, "Hq", 5, None, "ortho_H.csv", 1e-10),
                                         (ctx14, "pq", 5, F(1, 4), "ortho_p.csv", 1e-10),
                                         (ctx12, "hq", 4, None, "ortho_h.csv", 1e-8)):
        d, o = audit(ctx, family, N, b, path)
        bad += d > tol or o > tol
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
