"""The modules and subgroups that several test files build, one copy each:
the trivial and the swap involution, the module of one form, the
subgroup of diagonal weights, and a seeded random module."""

from fractions import Fraction

from twistmod.hilbert import OneParamSubgroup
from twistmod.linalg import Matrix
from twistmod.sigmamod import InvolutionSpace, SigmaModule, symmetrize


def trivial_w(field):
    return InvolutionSpace.trivial(field)


def swap_w(field):
    return InvolutionSpace(field, Matrix(field, [[0, 1], [1, 0]]))


def module_1form(field, rows, sign=1):
    b = Matrix(field, rows)
    return SigmaModule(field, b.nrows, trivial_w(field), sign, [b])


def diag_lambda(field, weights):
    return OneParamSubgroup.from_diagonal_weights(field, weights)


def random_module(rng, field, dim_h, w, sign):
    """symmetrize of w.dim drawn forms: entries in range(p) over F_p, and
    a/b with a in -5..5 and b in 1..4 over QQ."""

    def rand_entry():
        if field.kind == "fp":
            return rng.randrange(field.p)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    raw = [
        Matrix(field, [[rand_entry() for _ in range(dim_h)] for _ in range(dim_h)])
        for _ in range(w.dim)
    ]
    return symmetrize(field, dim_h, w, sign, raw)
