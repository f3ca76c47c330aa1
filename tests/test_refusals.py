"""The public refusals, one row each: every call below breaks a documented
precondition and must raise its own ``UsageError`` subclass, whose one-line
message the command line prints after "error: "."""

from fractions import Fraction

import pytest

from twistmod.dualnum import fiber_structure_check, pfaffian, unramified_fixed_count
from twistmod.errors import FieldError, IsotropyError, ShapeError, StabilityError, UsageError
from twistmod.hilbert import OneParamSubgroup, mu
from twistmod.linalg import GF, Matrix, Subspace
from twistmod.sigmamod import (
    InvolutionSpace,
    LinearPiece,
    SigmaModule,
    act,
    hyperbolic_module,
    isotropic_reduction,
    orthogonal,
    symmetrize,
)
from twistmod.stability import iso_filtration

F3, F5 = GF(3), GF(5)
I2, I3 = Matrix.identity(F3, 2), Matrix.identity(F3, 3)
WIDE = Matrix(F3, [[1, 0, 2]])
TRIVIAL = InvolutionSpace.trivial(F3)
Q = SigmaModule(F3, 2, TRIVIAL, 1, [I2])
LINE = Subspace(F3, 2, [[1, 0]])

# weights 1, -1 and 0 on the unit vectors of F_3^3
LAMBDA3 = OneParamSubgroup([(Subspace(F3, 3, [row]), wt) for row, wt in zip(I3.rows, (1, -1, 0))])


# name -> (call, error, part of its message)
REFUSALS = {
    "from-blocks-empty": (lambda: Matrix.from_blocks([]), ShapeError, "empty block grid"),
    "from-blocks-widths": (lambda: Matrix.from_blocks([[I2], [I3]]), ShapeError, "widths disagree"),
    "add-across-fields": (lambda: I2 + Matrix.identity(F5, 2), FieldError, "mixed fields"),
    "mul-across-fields": (lambda: I2.mul(Matrix.identity(F5, 2)), FieldError, "mixed fields"),
    "add-across-shapes": (lambda: I2 + I3, ShapeError, "shape mismatch in add"),
    "mat-vec-length": (lambda: I2.mat_vec((1, 0, 0)), ShapeError, "vector length"),
    "trace-non-square": (lambda: WIDE.trace(), ShapeError, "non-square"),
    "det-non-square": (lambda: WIDE.det(), ShapeError, "non-square"),
    "inverse-non-square": (lambda: WIDE.inverse(), ShapeError, "non-square"),
    "subspace-length": (lambda: Subspace(F3, 2, [[1, 0, 0]]), ShapeError, "ambient dimension"),
    "contains-vector-length": (lambda: LINE.contains_vector((1, 0, 0)), ShapeError, "ambient"),
    "apply-shape": (lambda: LINE.apply(I3), ShapeError, "map shape"),
    "involution-non-square": (lambda: InvolutionSpace(F3, WIDE), ShapeError, "square"),
    "involution-field": (
        lambda: InvolutionSpace(F3, Matrix.identity(F5, 1)),
        FieldError,
        "wrong field",
    ),
    "module-sign-2": (lambda: SigmaModule(F3, 2, TRIVIAL, 2, [I2]), ShapeError, "sign"),
    "module-sign-bool": (lambda: SigmaModule(F3, 2, TRIVIAL, True, [I2]), ShapeError, "sign"),
    "module-sign-float": (lambda: SigmaModule(F3, 2, TRIVIAL, 1.0, [I2]), ShapeError, "sign"),
    "module-dim-bool": (
        lambda: SigmaModule(F3, True, TRIVIAL, 1, [Matrix.identity(F3, 1)]),
        ShapeError,
        "dim_h",
    ),
    "module-dim-float": (lambda: SigmaModule(F3, 2.0, TRIVIAL, 1, [I2]), ShapeError, "dim_h"),
    "module-w-field": (
        lambda: SigmaModule(F3, 2, InvolutionSpace.trivial(F5), 1, [I2]),
        FieldError,
        "value space",
    ),
    "module-form-count": (
        lambda: SigmaModule(F3, 2, TRIVIAL, 1, [I2, I2]),
        ShapeError,
        "one coordinate",
    ),
    "module-form-field": (
        lambda: SigmaModule(F3, 2, TRIVIAL, 1, [Matrix.identity(F5, 2)]),
        FieldError,
        "coordinate matrix",
    ),
    "subgroup-no-pieces": (lambda: OneParamSubgroup([]), ShapeError, "at least one piece"),
    "subgroup-spaces": (
        lambda: OneParamSubgroup([(LINE, 1), (Subspace(F3, 3, [[0, 1, 0]]), -1)]),
        ShapeError,
        "different spaces",
    ),
    "subgroup-zero-piece": (
        lambda: OneParamSubgroup([(Subspace.zero(F3, 2), 0)]),
        ShapeError,
        "nonzero",
    ),
    "subgroup-weight": (
        lambda: OneParamSubgroup([(Subspace.full(F3, 2), Fraction(0))]),
        ShapeError,
        "integers",
    ),
    "reduce-by-zero": (
        lambda: isotropic_reduction(Q, Subspace.zero(F3, 2)),
        IsotropyError,
        "zero subspace",
    ),
    "hyperbolic-field": (
        lambda: hyperbolic_module(LinearPiece((Matrix.identity(F5, 1),)), TRIVIAL, 1),
        FieldError,
        "different fields",
    ),
    "hyperbolic-count": (
        lambda: hyperbolic_module(LinearPiece((I2, I2)), TRIVIAL, 1),
        ShapeError,
        "number of coordinate matrices",
    ),
    "hyperbolic-sign": (
        lambda: hyperbolic_module(LinearPiece((Matrix.identity(F3, 1),)), TRIVIAL, 2),
        ShapeError,
        "sign",
    ),
    "symmetrize-shape": (lambda: symmetrize(F3, 2, TRIVIAL, 1, [I3]), ShapeError, "shape != dim_h"),
    "act-shape": (lambda: act(I3, Q), ShapeError, "wrong shape"),
    "orthogonal-space": (
        lambda: orthogonal(Q, Subspace(F3, 3, [[1, 0, 0]])),
        FieldError,
        "module's space",
    ),
    # B[1][2] = 1 alone breaks the relation, so no entry can receive this module
    "module-symmetry": (
        lambda: SigmaModule(
            F5, 3, InvolutionSpace.trivial(F5), 1, [Matrix(F5, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])]
        ),
        StabilityError,
        "module violates its symmetry relation",
    ),
    "filtration-symmetry": (
        lambda: iso_filtration(SigmaModule(F3, 2, TRIVIAL, 1, [Matrix(F3, [[0, 1], [0, 0]])])),
        StabilityError,
        "symmetry relation",
    ),
    "mu-space": (lambda: mu(LAMBDA3, Q), ShapeError, "different spaces"),
    "pfaffian-non-square": (lambda: pfaffian(WIDE), ShapeError, "square"),
    "fiber-rank-bool": (lambda: fiber_structure_check(F3, True, "plus"), UsageError, "rank"),
    "fiber-rank-float": (lambda: fiber_structure_check(F3, 2.0, "plus"), UsageError, "rank"),
    "unramified-rank-bool": (lambda: unramified_fixed_count(F3, True), UsageError, "rank"),
    "unramified-rank-float": (lambda: unramified_fixed_count(F3, 2.0), UsageError, "rank"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_public_refusal_raises_its_usage_error_on_one_line(name):
    call, error, part = REFUSALS[name]
    with pytest.raises(UsageError) as caught:
        call()
    assert type(caught.value) is error
    message = str(caught.value)
    assert part in message and "\n" not in message

