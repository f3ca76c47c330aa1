"""One-parameter subgroups and numerical stability weights.

A one-parameter subgroup of SL(H) is stored by its eigenspace pieces
(H_i, a_i): lambda(t) acts on H_i as t^(a_i), with strictly decreasing
integer weights and sum(a_i dim H_i) = 0.  Conjugating a module into the
adapted basis splits its coordinate matrices into blocks; block (i, j)
rescales by t^(e_ij) with exponent e_ij = -(a_i + a_j).

The weight of the pairing (lambda, q) is mu = -min e_ij over nonzero
blocks = max(a_i + a_j).  ``mu`` reads it without forming T^T B_k T:
it walks the pairs of pieces in descending order of a_i + a_j and
returns at the first pair where some u^T B_k w != 0, u and w basis
vectors of the two pieces, on plain ints (``_block_test``, which
``block_exponents`` shares).  Every verdict certificate is rechecked
through it, in exact arithmetic, before the verdict is returned.

The limit of lambda(t).q at t -> 0 exists exactly when mu <= 0 (all
exponents of nonzero blocks nonnegative); the limit keeps the
exponent-zero blocks and kills the rest.  Any basis
adapted to the pieces sees the same blocks, so the limit can be taken
in any of them: ``limit_at_zero`` takes it in the adapted basis of
lambda and writes it back in the standard basis of H, and
``stability.graded`` checks its assembled module in its own adapted
basis.  Both truncate through ``_limit_in_basis``.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalCheckError, IsotropyError, ShapeError
from .linalg import Matrix, Subspace, _complement, _ratio, _units, rank_mod_p
from .sigmamod import SigmaModule, _orthogonal, _pairing, act, validate


class MinusInfinityType:
    """Sentinel below every integer; the weight of the zero module."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __neg__(self):
        raise ArithmeticError("cannot negate -infinity")

    def __repr__(self):
        return "-infinity"


MINUS_INFINITY = MinusInfinityType()


class OneParamSubgroup:
    """Eigenspace pieces with strictly decreasing weights, det-one.

    The public constructor trusts nothing: it checks that the pieces are
    nonzero subspaces of one space with integer weights, sorts them by
    weight (descending) and merges pieces of equal weight, so two
    subgroups are equal iff they define the same weighted decomposition.
    ``_from_pieces`` trusts all of that and is what internal callers
    with canonical pieces use.  Both end in ``_fill``, the one place
    that checks that the pieces form a direct sum of the whole space
    (by the rank of their stacked bases) and that sum(a_i dim H_i) = 0.
    """

    __slots__ = ("field", "ambient", "pieces")

    def __init__(self, pieces):
        pieces = list(pieces)
        if not pieces:
            raise ShapeError("a one-parameter subgroup needs at least one piece")
        field = pieces[0][0].field
        ambient = pieces[0][0].ambient
        merged: dict[int, Subspace] = {}
        for sub, weight in pieces:
            if sub.field != field or sub.ambient != ambient:
                raise ShapeError("pieces live in different spaces")
            if sub.is_zero():
                raise ShapeError("pieces must be nonzero")
            if not isinstance(weight, int) or isinstance(weight, bool):
                raise ShapeError("weights must be integers")
            merged[weight] = merged[weight].sum(sub) if weight in merged else sub
        ordered = tuple(
            (merged[wt], wt) for wt in sorted(merged, reverse=True)
        )
        self._fill(field, ambient, ordered)

    @classmethod
    def _from_pieces(cls, field, ambient: int, pieces):
        # trusted internal path: pieces is a tuple of (nonzero Subspace of
        # F^ambient, int weight) with strictly decreasing weights
        lam = object.__new__(cls)
        lam._fill(field, ambient, pieces)
        return lam

    def _fill(self, field, ambient: int, pieces):
        total = sum(s.dim for s, _ in pieces)
        stacked = sum((s.basis.num for s, _ in pieces), ())
        if total != ambient or rank_mod_p(stacked, field.characteristic) != ambient:
            raise ShapeError("pieces are not a direct sum decomposition")
        if sum(wt * s.dim for s, wt in pieces) != 0:
            raise ShapeError("weighted dimensions must sum to zero")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "pieces", pieces)

    def __setattr__(self, name, value):
        raise AttributeError("OneParamSubgroup is immutable")

    @classmethod
    def trivial(cls, field, ambient: int):
        return cls([(Subspace.full(field, ambient), 0)])

    @classmethod
    def from_diagonal_weights(cls, field, weights):
        """Pieces spanned by standard basis vectors, one per weight; the
        constructor checks each weight and merges the equal ones."""
        n = len(weights)
        return cls([(Subspace(field, n, [[int(j == i) for j in range(n)]]), wt) for i, wt in enumerate(weights)])

    @property
    def weights(self):
        return tuple(wt for _, wt in self.pieces)

    def __eq__(self, other):
        return isinstance(other, OneParamSubgroup) and self.pieces == other.pieces

    def __hash__(self):
        return hash(self.pieces)

    def __repr__(self):
        body = ", ".join(f"(dim {s.dim}, wt {w})" for s, w in self.pieces)
        return f"OneParamSubgroup[{body}]"

    def adapted_rows(self) -> Matrix:
        """The adapted basis, one piece after another, as matrix rows."""
        return Matrix.from_blocks([[s.basis] for s, _ in self.pieces])

    def transform(self) -> Matrix:
        """Change-of-basis matrix T whose columns are the adapted basis."""
        return self.adapted_rows().transpose()

    def matrix_at(self, t) -> Matrix:
        """The group element lambda(t) for an invertible field element t."""
        f = self.field
        p = f.characteristic
        a, b = _ratio(f, t)
        if a == 0:
            raise ShapeError("lambda(t) needs invertible t")
        # over QQ (a / b)^wt = a^(wt - lo) b^(hi - wt) / (a^-lo b^hi), with
        # lo <= 0 <= hi the least and the largest weight
        lo, hi = self.weights[-1], self.weights[0]
        values = [pow(a, wt, p) if p else a ** (wt - lo) * b ** (hi - wt) for _, wt in self.pieces]
        diag_entries = [x for x, (sub, _) in zip(values, self.pieces) for _ in range(sub.dim)]
        n = self.ambient
        rows = tuple(tuple(diag_entries[i] if i == j else 0 for j in range(n)) for i in range(n))
        diag = Matrix._from_rows(f, rows, n, 1 if p else a**-lo * b**hi)
        t_mat = self.transform()
        return t_mat.mul(diag).mul(t_mat.inverse())


class BlockInfo(NamedTuple):
    exponent: int
    is_zero: bool


def adapted_forms(lam: OneParamSubgroup, q: SigmaModule):
    """The coordinate matrices of q written in the adapted basis of lam."""
    _check_pairing(lam, q)
    t = lam.transform()
    tt = t.transpose()
    return tuple(tt.mul(b).mul(t) for b in q.forms)


def _block_test(lam: OneParamSubgroup, q: SigmaModule):
    """The zero test of the adapted blocks, shared by ``mu`` and
    ``block_exponents``: nonzero(i, j) tells whether u^T B_k w != 0 for
    some basis vector u of piece i, w of piece j and form B_k, that is
    whether block (i, j) of some T^T B_k T is nonzero.

    It runs on the int rows of the forms and of the piece bases, whose
    scales keep every zero; the zero test is sigmamod's ``_pairing``.
    The images B_k w of a piece are formed when a pair first needs them.
    """
    _check_pairing(lam, q)
    p = q.field.characteristic
    images, kills = _pairing([b.num for b in q.forms], p)
    bases = [s.basis.num for s, _ in lam.pieces]
    piece_images: dict = {}

    def nonzero(i: int, j: int) -> bool:
        if j not in piece_images:
            piece_images[j] = [c for w in bases[j] for c in images(w)]
        return not all(kills(u, piece_images[j]) for u in bases[i])

    return nonzero


def block_exponents(lam: OneParamSubgroup, q: SigmaModule) -> dict:
    """Map (i, j) -> BlockInfo for every ordered pair of pieces.

    Indices are 0-based positions in ``lam.pieces``; a block counts as
    zero only when it vanishes in every W-coordinate.
    """
    nonzero = _block_test(lam, q)
    weights = lam.weights
    k = range(len(weights))
    return {
        (i, j): BlockInfo(-(weights[i] + weights[j]), not nonzero(i, j)) for i in k for j in k
    }


def mu(lam: OneParamSubgroup, q: SigmaModule):
    """The pairing weight: max(a_i + a_j) over nonzero blocks.

    Equals -min of the nonzero-block exponents; MINUS_INFINITY for the
    zero module, which every subgroup destabilizes.  The pairs of pieces
    are tried in descending order of a_i + a_j, and the first nonzero
    block gives the weight.
    """
    nonzero = _block_test(lam, q)
    weights = lam.weights
    k = range(len(weights))
    pairs = sorted(((weights[i] + weights[j], i, j) for i in k for j in k), reverse=True)
    for total, i, j in pairs:
        if nonzero(i, j):
            return total
    return MINUS_INFINITY


def limit_at_zero(lam: OneParamSubgroup, q: SigmaModule):
    """The limit of lambda(t).q at t -> 0, or None when it diverges.

    Exists iff every nonzero block has nonnegative exponent (mu <= 0);
    the limit keeps exactly the exponent-zero blocks.  It is taken in
    the adapted basis of lam (``adapted_forms``) and written back in the
    standard basis of H, where it is rechecked against the symmetry
    relation.
    """
    _check_pairing(lam, q)
    forms = adapted_forms(lam, q)
    weights = [wt for sub, wt in lam.pieces for _ in range(sub.dim)]
    adapted = _limit_in_basis(q.field, forms, weights)
    if adapted is None:
        return None
    # back from the adapted basis: B -> T^-T B T^-1
    limit = act(lam.transform(), SigmaModule._from_forms(q.field, q.dim_h, q.w, q.sign, adapted))
    if not validate(limit):
        raise InternalCheckError("limit broke the symmetry relation")
    return limit


def _limit_in_basis(field, forms, weights):
    """The limit at t -> 0 of forms written in a basis adapted to a
    one-parameter subgroup, where basis vector i has weight weights[i];
    None when it diverges.

    Entry (r, c) scales by t^-(weights[r] + weights[c]): it is kept when
    the sum is 0 and vanishes in the limit when the sum is negative; a
    nonzero entry with a positive sum makes mu positive and the limit
    diverge.
    """
    n = len(weights)
    limit = []
    for b in forms:
        rows = []
        for wr, row in zip(weights, b.num):
            kept = []
            for wc, x in zip(weights, row):
                total = wr + wc
                if total > 0 and x:
                    return None
                kept.append(0 if total else x)
            rows.append(tuple(kept))
        limit.append(Matrix._from_rows(field, tuple(rows), n, b.den))
    return limit


def destabilizing_1ps(q: SigmaModule, v: Subspace) -> OneParamSubgroup:
    """The standard subgroup attached to a totally isotropic subspace.

    With d = dim v, h1 = dim(perp/v) and n = dim H, the weights are
    m1 = 2n - 2d - h1 on v, m2 = n - 2d - h1 on a complement of v inside
    its orthogonal and m3 = -2d - h1 on a complement of the orthogonal;
    empty pieces are dropped.  m2 = n - d - dim(perp), so mu = 2 m2 turns
    negative exactly on witnesses of instability.
    """
    return _destabilizing_by(q, v, *_orthogonal(q, v))


def _destabilizing_by(q: SigmaModule, v: Subspace, perp: Subspace, kept) -> OneParamSubgroup:
    """destabilizing_1ps for a caller that has solved perp, the
    orthogonal of v, with sigmamod._perp: the outer piece is read off
    its ``kept`` columns, the unit rows that span _complement(perp)."""
    if v.is_zero() or not perp.contains(v):
        raise IsotropyError("destabilizing subgroup needs a totally isotropic subspace")
    n = q.dim_h
    d = v.dim
    # v lies in perp, and perp in H: neither containment is tested again
    middle = _complement(v, perp)
    outer = _units(q.field, n, kept)
    h1 = middle.dim
    m1 = 2 * n - 2 * d - h1
    m2 = n - 2 * d - h1
    m3 = -2 * d - h1
    pieces = [(v, m1)]
    if middle.dim:
        pieces.append((middle, m2))
    if outer.dim:
        pieces.append((outer, m3))
    # m1 - m2 = m2 - m3 = n: the weights strictly decrease
    return OneParamSubgroup._from_pieces(q.field, n, tuple(pieces))


def _check_pairing(lam: OneParamSubgroup, q: SigmaModule):
    if lam.field != q.field or lam.ambient != q.dim_h:
        raise ShapeError("subgroup and module live in different spaces")
