"""The sweep against the flag sweep on the largest fields that sweep reaches.

Too slow for tier-1, so pytest does not collect it.  On seeded modules
over F_2^5, F_3^4 and F_13^3, each with the trivial, the swap and the
diag(1, -1) involution (the last not over F_2) at both signs, and the
swap pair (A, A^T) of one form A, all drawn dense and sparse (a
quarter of the entries drawn, the rest zero, which makes more of them
unstable), it compares
``hilbert_mumford_sweep``, which walks the isotropic chains, with
``oracles.flag_sweep``, which scores every flag of F_p^n, at weight
bounds 0 to 5, and exits 0 when every value agrees.

Run it from the repository root, with the package importable:

    PYTHONPATH=src python tests/sweep_oracle.py
"""

import random
import sys

from twistmod.linalg import GF, Matrix
from twistmod.sigmamod import InvolutionSpace, SigmaModule, symmetrize
from twistmod.stability import hilbert_mumford_sweep

from oracles import flag_sweep


def modules(rng, p: int, n: int, sparse: bool):
    field = GF(p)
    involutions = [[[1]], [[0, 1], [1, 0]]] + ([[[1, 0], [0, p - 1]]] if p > 2 else [])

    def square():
        entry = (lambda: rng.randrange(p) if rng.random() < 0.25 else 0) if sparse else (lambda: rng.randrange(p))
        return Matrix(field, [[entry() for _ in range(n)] for _ in range(n)])

    for rows in involutions:
        w = InvolutionSpace(field, Matrix(field, rows))
        for sign in (1, -1):
            yield symmetrize(field, n, w, sign, [square() for _ in range(w.dim)])
    a, swap = square(), InvolutionSpace(field, Matrix(field, [[0, 1], [1, 0]]))
    yield SigmaModule(field, n, swap, 1, [a, a.transpose()])


def main() -> int:
    rng = random.Random(2037)
    checked = failed = negative = 0
    for p, n in ((2, 5), (3, 4), (13, 3)):
        for sparse in (False, True):
            for q in modules(rng, p, n, sparse):
                for bound in range(6):
                    swept, expected = hilbert_mumford_sweep(q, bound), flag_sweep(q, bound)
                    checked += 1
                    negative += swept < 0
                    if swept != expected:
                        failed += 1
                        print(f"F_{p}^{n} at bound {bound}: sweep {swept}, flag sweep {expected}")
    print(f"sweep against the flag sweep: {checked} values, {negative} negative, {failed} differ")
    return 1 if failed or not negative else 0


if __name__ == "__main__":
    sys.exit(main())
