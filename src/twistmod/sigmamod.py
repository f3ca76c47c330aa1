"""Twisted bilinear modules: validation, orthogonals, isotropy, reduction.

A module here is a linear map q: H -> H* (x) W where the value space W
carries an involution sigma.  In coordinates q is a list of dim_w square
matrices: the k-th coordinate of q(x)(y) is x^T B_k y.  The defining
symmetry q(x)(y) = sign * sigma(q(y)(x)) becomes, with S the matrix of
sigma (so sigma(w_k) = sum_l S[l][k] w_l),

    B_l = sign * sum_k S[l][k] * B_k^T        for every l.

Sign +1 gives the quadratic flavour, -1 the alternating one.
"""

from __future__ import annotations

import itertools
import math
from operator import add, mul
from typing import NamedTuple

from .errors import (
    BoundExceededError,
    FieldError,
    InternalCheckError,
    IsotropyError,
    ShapeError,
    SingularMatrixError,
    StabilityError,
)
from .linalg import (
    Matrix,
    Subspace,
    _common,
    _complement,
    _null_space,
    _num_at,
    isometries,
    rank_mod_p,
)

NOT_ISOTROPIC = "not_isotropic"
SIGMA_ISOTROPIC = "sigma_isotropic"
TOTALLY_ISOTROPIC = "totally_sigma_isotropic"


class InvolutionSpace:
    """A finite-dimensional value space W with an involution sigma."""

    __slots__ = ("field", "matrix")

    def __init__(self, field, matrix: Matrix):
        if not matrix.is_square() or matrix.nrows == 0:
            raise ShapeError("involution matrix must be square and nonempty")
        if matrix.field != field:
            raise FieldError("involution matrix over the wrong field")
        if matrix.mul(matrix) != Matrix.identity(field, matrix.nrows):
            raise ShapeError("involution not idempotent")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("InvolutionSpace is immutable")

    @classmethod
    def trivial(cls, field):
        return cls(field, Matrix.identity(field, 1))

    @property
    def dim(self) -> int:
        return self.matrix.nrows

    def __eq__(self, other):
        return (
            isinstance(other, InvolutionSpace)
            and self.field == other.field
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash(("W", self.matrix))

    def __repr__(self):
        return f"InvolutionSpace(dim {self.dim})"


def twisted_transpose(w: InvolutionSpace, sign: int, mats):
    """Apply the sigma-twisted transpose to a tuple of coordinate matrices:
    sign * sum_k S[l][k] B_k^T over the int rows of S, over its den."""
    p, d = w.field.characteristic, w.matrix.den
    transposed = [m.transpose() for m in mats]
    out = []
    for row in w.matrix.num:
        acc = None
        for c, t in zip(row, transposed):
            c = sign * c % p if p else sign * c
            if c:
                term = t if c == 1 else t.scale(c)
                acc = term if acc is None else acc + term
        acc = acc or Matrix.zeros(w.field, mats[0].ncols, mats[0].nrows)
        out.append(acc if d == 1 else Matrix._from_rows(w.field, acc.num, acc.ncols, acc.den * d))
    return tuple(out)


class SigmaModule:
    """A twisted module (H, q) in coordinates.

    ``forms[k]`` is the dim_h x dim_h matrix of the k-th W-coordinate of
    q.  The constructor checks shapes, then refuses forms that break the
    symmetry relation with StabilityError, so no search checks it again.
    """

    __slots__ = ("field", "dim_h", "w", "sign", "forms")

    def __init__(self, field, dim_h: int, w: InvolutionSpace, sign: int, forms):
        forms = tuple(forms)
        if not isinstance(dim_h, int) or isinstance(dim_h, bool):
            raise ShapeError("dim_h must be an int")
        if not isinstance(sign, int) or isinstance(sign, bool) or sign not in (1, -1):
            raise ShapeError("sign must be the int +1 or -1")
        if w.field != field:
            raise FieldError("value space over the wrong field")
        if len(forms) != w.dim:
            raise ShapeError("need one coordinate matrix per W basis vector")
        for b in forms:
            if b.field != field:
                raise FieldError("coordinate matrix over the wrong field")
            if b.shape != (dim_h, dim_h):
                raise ShapeError("coordinate matrix shape != dim_h")
        self._fill(field, dim_h, w, sign, forms)
        if not validate(self):
            raise StabilityError("module violates its symmetry relation")

    @classmethod
    def _from_forms(cls, field, dim_h: int, w: InvolutionSpace, sign: int, forms):
        # trusted internal path: forms are dim_h x dim_h over field, one per
        # W basis vector, built to keep the relation; a builder that takes
        # field, dims, W or sign from its caller uses the constructor
        q = object.__new__(cls)
        q._fill(field, dim_h, w, sign, tuple(forms))
        return q

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SigmaModule is immutable")

    @property
    def dim_w(self) -> int:
        return self.w.dim

    def __eq__(self, other):
        return (
            isinstance(other, SigmaModule)
            and self.field == other.field
            and self.dim_h == other.dim_h
            and self.w == other.w
            and self.sign == other.sign
            and self.forms == other.forms
        )

    def __hash__(self):
        return hash((self.field, self.dim_h, self.w, self.sign, self.forms))

    def __repr__(self):
        return f"SigmaModule(dim_h={self.dim_h}, dim_w={self.dim_w}, sign={self.sign:+d})"

    def gram(self, x, y):
        """The tuple of W-coordinates of q(x)(y)."""
        return tuple(dotform(self.field, x, b, y) for b in self.forms)

    def pairs_to_zero(self, x, y) -> bool:
        return not any(self.gram(x, y))

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.forms)


def dotform(field, x, b: Matrix, y):
    """x^T b y for row tuples x, y of ints or field elements."""
    x, y = Matrix(field, [x]), Matrix(field, [y])
    total = sum(xi * sum(map(mul, row, y.num[0])) for xi, row in zip(x.num[0], b.num) if xi)
    return field._value(total, x.den * b.den * y.den)


def validate(q: SigmaModule) -> bool:
    """Check the defining symmetry relation of the module: the
    constructor's check, and the recheck of an internal builder's result."""
    expected = twisted_transpose(q.w, q.sign, q.forms)
    return all(b == e for b, e in zip(q.forms, expected))


def symmetrize(field, dim_h: int, w: InvolutionSpace, sign: int, raw_forms) -> SigmaModule:
    """Build a valid module from arbitrary matrices.

    C_l + sign * sum_k S[l][k] C_k^T always satisfies the symmetry
    relation because S is an involution; this is the standard way to
    sample valid modules.
    """
    raw = tuple(raw_forms)
    twisted = twisted_transpose(w, sign, raw)
    forms = [c + t for c, t in zip(raw, twisted)]
    try:
        return SigmaModule(field, dim_h, w, sign, forms)
    except StabilityError:
        raise InternalCheckError("symmetrization produced an invalid module") from None


def orthogonal(q: SigmaModule, v: Subspace) -> Subspace:
    """The twisted orthogonal {x : q(x) vanishes on v}.

    Each basis vector u of v and each coordinate matrix B_k contribute
    one linear condition x . (B_k u) = 0, on the int rows of B_k and of
    the basis: a condition keeps its zeros on any scale.
    """
    return _orthogonal(q, v)[0]


def _orthogonal(q: SigmaModule, v: Subspace):
    """(orthogonal(q, v), kept), with kept as _perp gives it."""
    _check_subspace(q, v)
    p = q.field.characteristic
    images, _ = _pairing([b.num for b in q.forms], p)
    return _perp(q, [c for u in v.basis.num for c in images(u)])


def _perp(q: SigmaModule, images):
    """(V^perp, kept) from ``images``, the rows B_k u over a basis of V
    on plain ints, as _pairing builds them from the int rows of the
    forms: V^perp is their null space, and ``kept`` the pivot columns of
    their one elimination, whose unit rows e_j span _complement(V^perp).
    The one solver of a twisted orthogonal; no rows give H, and no kept
    column."""
    rows, pivots, den, kept = _null_space(q.field, list(images), q.dim_h)
    return Subspace._from_echelon(q.field, q.dim_h, rows, pivots, den), kept


def _pairing(forms, p: int):
    """The pairing of a module over F_p, on plain ints, or over the
    integers when p is 0: ``images(u)`` is the rows B_k u, and
    ``kills(u, images(w))`` tests u^T B_k w == 0 for every k.  V^perp is
    the joint kernel of the images of its basis."""

    def images(u):
        if p:
            return [tuple(sum(map(mul, row, u)) % p for row in b) for b in forms]
        return [tuple(sum(map(mul, row, u)) for row in b) for b in forms]

    def kills(u, imgs):
        for c in imgs:
            s = sum(map(mul, u, c))
            if s % p if p else s:
                return False
        return True

    return images, kills


def isotropy_class(q: SigmaModule, v: Subspace) -> str:
    """Classify a nonzero subspace: not isotropic / isotropic / totally."""
    _check_subspace(q, v)
    if v.is_zero():
        raise IsotropyError("the zero subspace has no isotropy class")
    perp = orthogonal(q, v)
    if perp.contains(v):
        return TOTALLY_ISOTROPIC
    if not v.intersect(perp).is_zero():
        return SIGMA_ISOTROPIC
    return NOT_ISOTROPIC


class IsotropicReduction(NamedTuple):
    """Reduction of q by a totally isotropic subspace, with its model.

    ``model`` rows are vectors of H spanning a deterministic complement
    of v inside its orthogonal; the reduced module is the restriction of
    q to that model (the coordinate form of q on perp/v).
    """

    module: SigmaModule
    model: Matrix
    perp: Subspace


def isotropic_reduction(q: SigmaModule, v: Subspace) -> IsotropicReduction:
    _check_subspace(q, v)
    if v.is_zero():
        raise IsotropyError("cannot reduce by the zero subspace")
    return _reduce_by(q, v, orthogonal(q, v))


def _reduce_by(q: SigmaModule, v: Subspace, perp: Subspace) -> IsotropicReduction:
    # isotropic_reduction for a caller that has computed perp, the orthogonal of v
    if not perp.contains(v):
        raise IsotropyError("subspace is not totally isotropic")
    model = _complement(v, perp).basis
    model_t = model.transpose()
    forms = [model @ b @ model_t for b in q.forms]
    reduced = SigmaModule._from_forms(q.field, model.nrows, q.w, q.sign, forms)
    if not validate(reduced):
        raise InternalCheckError("reduction broke the symmetry relation")
    return IsotropicReduction(reduced, model, perp)


class _LinearPieceFields(NamedTuple):
    alpha: tuple


class LinearPiece(_LinearPieceFields):
    """The pairing data of one hyperbolic summand.

    ``alpha[k][i][j]`` pairs the i-th dual-model basis vector against the
    j-th isotropic basis vector in the k-th W-coordinate, so each matrix
    has shape (vee_dim, v_dim); nondegenerate pieces are square.
    """

    __slots__ = ()

    def __new__(cls, alpha: tuple):
        if not alpha:
            raise ShapeError("piece needs at least one coordinate matrix")
        shape = alpha[0].shape
        if any(a.shape != shape for a in alpha):
            raise ShapeError("piece coordinate matrices disagree in shape")
        return super().__new__(cls, alpha)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate there too
        return cls(*iterable)

    @property
    def field(self):
        return self.alpha[0].field

    @property
    def vee_dim(self) -> int:
        return self.alpha[0].nrows

    @property
    def v_dim(self) -> int:
        return self.alpha[0].ncols


def hyperbolic_module(piece: LinearPiece, w: InvolutionSpace, sign: int) -> SigmaModule:
    """The module on V + V-dual induced by an arbitrary pairing alpha.

    The alpha matrices sit in the lower-left (dual x isotropic) block and
    the sigma-twisted transposes in the upper-right, which restores the
    symmetry relation for any alpha because S is an involution.
    """
    if piece.field != w.field:
        raise FieldError("piece and value space over different fields")
    if len(piece.alpha) != w.dim:
        raise ShapeError("piece has the wrong number of coordinate matrices")
    field = w.field
    forms = _wrap(w, sign, piece.alpha, [Matrix.zeros(field, 0, 0)] * w.dim)
    try:
        return SigmaModule(field, piece.v_dim + piece.vee_dim, w, sign, forms)
    except StabilityError:
        raise InternalCheckError("hyperbolic construction broke the symmetry relation") from None


def _wrap(w: InvolutionSpace, sign: int, alpha, inner) -> list:
    """The forms on V + H' + V-dual with each inner form of H' in the
    middle, alpha_k in the lower-left (dual x isotropic) block, its
    sigma-twisted transpose in the upper-right and zeros elsewhere; for
    H' = 0 they are the forms of ``hyperbolic_module``.  In ``graded``
    the result is the assembled module in its adapted basis, and the
    limit of the canonical subgroup is checked against it in that same
    basis."""
    m, k, s = alpha[0].ncols, alpha[0].nrows, inner[0].nrows
    forms = []
    for a, d, b in zip(alpha, twisted_transpose(w, sign, alpha), inner):
        den, (a, d, b) = _common((a, d, b))
        rows = [(0,) * (m + s) + r for r in d] + [(0,) * m + r + (0,) * k for r in b]
        rows += [r + (0,) * (s + k) for r in a]
        forms.append(Matrix._from_rows(w.field, tuple(rows), m + s + k, den))
    return forms


def direct_sum(q1: SigmaModule, q2: SigmaModule) -> SigmaModule:
    """Block-diagonal sum of two modules over the same (field, W, sign)."""
    _check_compatible(q1, q2)
    field = q1.field
    forms = []
    for a, b in zip(q1.forms, q2.forms):
        forms.append(
            Matrix.from_blocks(
                [
                    [a, Matrix.zeros(field, a.nrows, b.ncols)],
                    [Matrix.zeros(field, b.nrows, a.ncols), b],
                ]
            )
        )
    return SigmaModule._from_forms(field, q1.dim_h + q2.dim_h, q1.w, q1.sign, forms)


def act(g: Matrix, q: SigmaModule) -> SigmaModule:
    """The change-of-coordinates action: B_k -> g^-T B_k g^-1.

    This is the left action on modules matching composition with g^-1 on
    H, so isotropic subspaces move by v -> g v.
    """
    if g.shape != (q.dim_h, q.dim_h):
        raise ShapeError("group element has the wrong shape")
    try:
        gi = g.inverse()
    except SingularMatrixError:
        raise SingularMatrixError("cannot act by a singular matrix") from None
    git = gi.transpose()
    forms = [git.mul(b).mul(gi) for b in q.forms]
    return SigmaModule._from_forms(q.field, q.dim_h, q.w, q.sign, forms)


class IsoResult(NamedTuple):
    """Outcome of an isomorphism test: yes (with witness), no, or unknown."""

    status: str
    witness: Matrix | None = None


# the candidates that is_isomorphic's search may visit before it answers unknown
_NODE_BUDGET = 500_000


def is_isomorphic(q1: SigmaModule, q2: SigmaModule) -> IsoResult:
    """Decide whether two modules are isomorphic.

    A witness f satisfies  B1_k = f^T B2_k f  for all k, and every
    witness is rechecked exactly.  Both decisions below rely on the
    symmetry relation, which every module keeps by construction.

    One form (dim W = 1) over F_p with p odd is decided first, by
    ``quadform.normal_form``: B = eps B^T with eps = sign * S, and two
    such forms are isometric iff they have the same rank and, when
    symmetric, the same discriminant square class.  A "yes" carries the
    witness P2 P1^-1 built from the two congruence normal forms.  This
    decision lists nothing, so no size bound applies to it.

    Otherwise cheap congruence invariants (the rank of the stacked forms
    and of one combination sum c_k B_k per projective point) refute
    quickly, and then the witness is the first yield of
    ``linalg.isometries``, the Gram walk that also lists the fiber images
    of ``dualnum``.  These list p^dim_w combinations of the forms and
    p^dim_h - 1 candidate columns over F_p, and 5^dim_w and 7^dim_h - 1
    over QQ, and more than MAX_LINES of either raise BoundExceededError
    before that work starts.  The search visits at most _NODE_BUDGET
    candidates.
    Over F_p (p = 2, or dim W >= 2) it is exhaustive when it finishes,
    so it answers yes or no, but it answers unknown when the budget runs
    out first.  Over the rationals it runs over a bounded box of small
    rationals and can only answer yes or unknown.
    """
    _check_compatible(q1, q2)
    if q1.dim_h != q2.dim_h:
        return IsoResult("no")
    if q1 == q2:
        return IsoResult("yes", Matrix.identity(q1.field, q1.dim_h))
    p = q1.field.characteristic
    # the one-form decision lists nothing, so it runs before the guards
    if q1.dim_w == 1 and p % 2:
        return _one_form_isometry(q1, q2)
    # the invariants and the search materialise both lists: the
    # combinations of the forms, c_k over F_p or in -2..2 over QQ, and the
    # nonzero candidate columns, over F_p or over the box of _DOUBLED_BOX
    if p:
        combinations, columns = p**q1.dim_w, p**q1.dim_h - 1
        over_w, over_h = f"F_{p}^{q1.dim_w}", f"F_{p}^{q1.dim_h}"
    else:
        combinations, columns = 5**q1.dim_w, len(_DOUBLED_BOX) ** q1.dim_h - 1
        over_w = f"Q^{q1.dim_w} at coefficients -2..2"
        over_h = f"Q^{q1.dim_h} at entries 0, +-1/2, +-1, +-2"
    _check_search_size(combinations, over_w, "form combinations")
    _check_search_size(columns, over_h, "candidate columns")

    if not _congruence_invariants_match(q1, q2):
        return IsoResult("no")

    witness, exhausted = _isometry_search(q1, q2, _NODE_BUDGET)
    if witness is not None:
        _check_witness(q1, q2, witness)
        return IsoResult("yes", witness)
    if exhausted and q1.field.kind == "fp":
        return IsoResult("no")
    return IsoResult("unknown")


def _one_form_isometry(q1: SigmaModule, q2: SigmaModule):
    """is_isomorphic for one form over F_p, p odd, by congruence normal
    forms: each form is eps-symmetric, since the modules are valid."""
    from . import quadform

    field, n = q1.field, q1.dim_h
    eps = q1.sign if q1.w.matrix.num[0][0] == 1 else -q1.sign
    forms = (quadform.normal_form(q.forms[0].num, eps, field.p) for q in (q1, q2))
    (invariants1, basis1), (invariants2, basis2) = forms
    if invariants1 != invariants2:
        return IsoResult("no")
    # the basis vectors are the columns of P_i, and f = P_2 P_1^-1
    c1, c2 = (Matrix._from_rows(field, tuple(map(tuple, b)), n) for b in (basis1, basis2))
    f = (c1.inverse() @ c2).transpose()
    _check_witness(q1, q2, f)
    return IsoResult("yes", f)


# a search that lists or scans more vectors of F_p^n than this is
# refused before any work
MAX_LINES = 100_000


def _check_search_size(count: int, space: str, what: str):
    # MAX_LINES is read when the call starts, so a patched bound holds
    if count > MAX_LINES:
        # int() refuses to print past 4300 digits, so name a huge count by its size
        shown = count if count.bit_length() <= 64 else f"at least 2^{count.bit_length() - 1}"
        raise BoundExceededError(f"{space} has {shown} {what}, over the search bound {MAX_LINES}")


def _congruence_invariants_match(q1: SigmaModule, q2: SigmaModule) -> bool:
    """Whether the ranks of the stacked forms and of every combination
    sum c_k B_k agree, c_k over F_p or in -2..2 over QQ; the unit
    coefficient vectors give the rank of each form.

    rank(c M) = rank(M) for c != 0, so one coefficient vector per
    projective point is enough: over F_p the vectors whose first nonzero
    entry is 1, over QQ the primitive ones whose first nonzero entry is
    positive.  The ranks are taken on plain ints: the int rows of each
    module's forms over their common denominator, which keeps every
    rank of a combination.
    """
    p = q1.field.characteristic
    (_, forms1), (_, forms2) = _common(q1.forms), _common(q2.forms)
    if rank_mod_p([r for a in forms1 for r in a], p) != rank_mod_p([r for b in forms2 for r in b], p):
        return False
    for coeffs in itertools.product(range(p) if p else range(-2, 3), repeat=q1.dim_w):
        lead = next((c for c in coeffs if c), 0)
        if (lead != 1) if p else (lead <= 0 or math.gcd(*coeffs) != 1):
            continue
        if rank_mod_p(_combination(forms1, coeffs, p), p) != rank_mod_p(
            _combination(forms2, coeffs, p), p
        ):
            return False
    return True


def _combination(forms, coeffs, p: int):
    """sum c_k B_k on plain ints, built a row at a time from the forms
    with c_k != 0, each entry reduced mod p when p > 0: an entry that
    vanishes only mod p must not count toward the rank."""
    combo = None
    for c, b in zip(coeffs, forms):
        if c:
            rows = b if c == 1 else [[c * x for x in row] for row in b]
            combo = rows if combo is None else [list(map(add, r, s)) for r, s in zip(combo, rows)]
    return [[x % p for x in row] for row in combo] if p else combo


# over QQ the search box {0, ±1, ±2, ±1/2} times 2, in search order
_DOUBLED_BOX = (0, 2, -2, 4, -4, 1, -1)


def _isometry_search(q1: SigmaModule, q2: SigmaModule, node_budget: int):
    """The first yield of ``linalg.isometries`` for f^T B2_k f = B1_k, as
    (witness or None, whether the search space was exhausted).

    The forms go to ints over D, the common denominator of all of them
    (1 over F_p).  Over F_p the columns run over range(p)^n.  Over QQ
    they run over the box times 2, where a column c stands for c/2, so
    c_i^T (D B2_k) c_j is compared with 4 D B1_k[i][j].
    """
    field = q1.field
    p = field.characteristic
    d = math.lcm(*(b.den for b in (*q1.forms, *q2.forms)))
    mats = [_num_at(b, d) for b in q2.forms]
    targets = [_num_at(b, d if p else 4 * d) for b in q1.forms]
    for cols in isometries(mats, targets, range(p) if p else _DOUBLED_BOX, p, node_budget):
        if cols is None:
            return None, False
        return Matrix._from_rows(field, tuple(cols), q1.dim_h, 1 if p else 2).transpose(), True
    return None, True


def _check_witness(q1: SigmaModule, q2: SigmaModule, f: Matrix):
    ft = f.transpose()
    for b1, b2 in zip(q1.forms, q2.forms):
        if ft.mul(b2).mul(f) != b1:
            raise InternalCheckError("isomorphism witness fails the defining relation")
    f.inverse()  # raises if singular


def _check_subspace(q: SigmaModule, v: Subspace):
    if v.field != q.field or v.ambient != q.dim_h:
        raise FieldError("subspace does not live in the module's space")


def _check_compatible(q1: SigmaModule, q2: SigmaModule):
    if q1.field != q2.field or q1.sign != q2.sign or q1.w != q2.w:
        raise FieldError("incompatible ambient data")
