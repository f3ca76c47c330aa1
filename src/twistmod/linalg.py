"""Exact linear algebra over the rationals and over prime fields.

All arithmetic in this package is exact.  Rational scalars are
``fractions.Fraction`` instances (arbitrary-precision), elements of F_p are
canonical integer representatives in ``range(p)``.  The field objects
name, parse and format elements and carry no arithmetic.

Matrices and subspaces compute on plain ints.  Over F_p each entry of a
row operation takes one ``% p`` and the reduced echelon form inverts
its pivots by ``pow(a, -1, p)``.  Over QQ each row is scaled to ints by
the lcm of its denominators, eliminated fraction-free (Bareiss, Math.
Comp. 22, 1968, where every update divides exactly by the previous
pivot), and one ``Fraction`` is built per output entry.  Rank and
determinant come from one forward pass, ``_forward``, which takes no
inverse per entry.

The public ``Matrix`` and ``Subspace`` constructors are the boundary: an
int entry is taken through ``field.from_int``, a ``Fraction`` is accepted
over QQ only, and anything else raises ``FieldError``.  The scalar and
vector arguments of public methods (``Matrix.scale``, ``mat_vec``,
``Subspace.contains_vector``) cross the same rule, ``_element``.
Internal results are canonical already and are built by the trusted
``Matrix._from_rows`` and ``Subspace._from_echelon``; ``Subspace.contains``
checks field and ambient once and compares canonical rows as they are.

Subspaces are kept in a canonical form (reduced row echelon basis), which
makes equality of subspaces plain object equality and gives every
enumeration in the package a stable, reproducible order.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from operator import add as _plus, mul as _times, sub as _minus

from .errors import BoundExceededError, FieldError, ParseError, ShapeError, SingularMatrixError


class RationalField:
    """The field of rational numbers, elements are ``Fraction``."""

    kind = "rational"
    characteristic = 0

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def parse(self, s: str):
        if not _RATIONAL.fullmatch(s):
            raise ParseError(f"bad rational literal {s!r}")
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {s!r}") from exc

    def format(self, a) -> str:
        try:
            return str(a)
        except ValueError as exc:
            # str() refuses integers past the interpreter's digit limit
            raise BoundExceededError("a rational result has too many digits to print") from exc

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


# Miller-Rabin with the first 13 prime bases has no strong pseudoprime
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981

# a canonical decimal numeral: ASCII digits, no sign, no leading zero, and
# at most 25 digits, since every accepted p (so every F_p element) is below
# 10^25; int() never sees a numeral past its digit limit
_NUMERAL = re.compile("0|[1-9][0-9]{0,24}")

# a rational literal "a/b" or "a" in ASCII digits; Fraction() alone would
# also take exponents, decimals, spaces and underscores
_RATIONAL = re.compile("-?[0-9]+(/[0-9]+)?")


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below ``_MR_BOUND``."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p with canonical representatives 0..p-1 stored as plain ints."""

    kind = "fp"

    def __init__(self, p: int):
        if p >= _MR_BOUND:
            raise FieldError(f"F_p needs p < {_MR_BOUND}, where primality is certified")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def parse(self, s: str):
        if not _NUMERAL.fullmatch(s):
            raise ParseError(f"bad F_{self.p} literal {s!r}")
        n = int(s)
        if n >= self.p:
            raise ParseError(f"literal {s!r} is not a canonical F_{self.p} representative")
        return n

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    # before the cache lookup: 5.0 and True are equal keys to 5 and 1
    if not isinstance(p, int) or isinstance(p, bool):
        raise FieldError(f"F_p needs an int p, not {p!r}")
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_name(name: str):
    """Parse a field tag: ``rational`` or ``fp:<p>``."""
    if name == "rational":
        return QQ
    digits = name[3:] if name.startswith("fp:") else ""
    if not _NUMERAL.fullmatch(digits):
        raise ParseError(f"bad field tag {name!r}")
    try:
        return GF(int(digits))
    except FieldError as exc:
        raise ParseError(str(exc)) from exc


def field_name(field) -> str:
    if field.kind == "rational":
        return "rational"
    return f"fp:{field.p}"


def _element(field, a):
    # the public boundary rule: ints through from_int, a Fraction over QQ only
    if isinstance(a, int):
        return field.from_int(a)
    if isinstance(a, Fraction) and field.characteristic == 0:
        return a
    raise FieldError(f"{a!r} is not an int or an element of {field!r}")


def _fill_matrix(m, field, rows, ncols):
    # Matrix and Subspace are immutable: their slots are set once, here and
    # below; a Matrix's through its slot descriptors, which costs less than
    # object.__setattr__ on the path every internal result takes
    _set_field(m, field)
    _set_rows(m, rows)
    _set_nrows(m, len(rows))
    _set_ncols(m, ncols)


def _fill_subspace(v, field, ambient, basis, pivots):
    setattr_ = object.__setattr__
    setattr_(v, "field", field)
    setattr_(v, "ambient", ambient)
    setattr_(v, "basis", basis)
    setattr_(v, "pivots", pivots)


class Matrix:
    """Immutable dense matrix over an exact field.

    Rows are tuples, so matrices hash and compare by value.  ``m[i]``
    returns the i-th row, ``m[i][j]`` an entry.  The width is kept
    explicitly, so a matrix without rows still has its ``ncols``.
    """

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows):
        rows = tuple(tuple(_element(field, e) for e in r) for r in rows)
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged rows")
        _fill_matrix(self, field, rows, width)

    @classmethod
    def _from_rows(cls, field, rows, ncols: int):
        # trusted internal path: rows is a tuple of ncols-tuples of canonical entries
        m = object.__new__(cls)
        _fill_matrix(m, field, rows, ncols)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, field, n: int):
        z, o = field.zero, field.one
        rows = tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))
        return cls._from_rows(field, rows, n)

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int):
        return cls._from_rows(field, ((field.zero,) * ncols,) * nrows, ncols)

    @classmethod
    def from_blocks(cls, grid):
        """Assemble a matrix from a 2D grid of blocks with matching dims."""
        if not grid or not grid[0]:
            raise ShapeError("empty block grid")
        width = sum(b.ncols for b in grid[0])
        rows = []
        for block_row in grid:
            if any(b.nrows != block_row[0].nrows for b in block_row):
                raise ShapeError("block heights disagree")
            if sum(b.ncols for b in block_row) != width:
                raise ShapeError("block widths disagree")
            rows.extend(sum(parts, ()) for parts in zip(*(b.rows for b in block_row)))
        return cls._from_rows(grid[0][0].field, tuple(rows), width)

    # -- basics ---------------------------------------------------------

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        # equal matrices have equal rows; __eq__ tells the fields apart
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(e) for e in r) for r in self.rows)
        return f"Matrix[{body}]"

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.rows)

    def transpose(self) -> "Matrix":
        rows = tuple(zip(*self.rows)) if self.rows else ((),) * self.ncols
        return Matrix._from_rows(self.field, rows, self.nrows)

    def _entrywise(self, other, op, what: str) -> "Matrix":
        if self.field != other.field:
            raise FieldError("mixed fields")
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch in {what}")
        p = self.field.characteristic
        pairs = zip(self.rows, other.rows)
        if p:
            rows = tuple([tuple([x % p for x in map(op, ra, rb)]) for ra, rb in pairs])
        else:
            rows = tuple([tuple(map(op, ra, rb)) for ra, rb in pairs])
        return Matrix._from_rows(self.field, rows, self.ncols)

    def __add__(self, other):
        return self._entrywise(other, _plus, "add")

    def __sub__(self, other):
        return self._entrywise(other, _minus, "sub")

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = _element(self.field, c)
        p = self.field.characteristic
        rows = tuple(tuple(c * a % p if p else c * a for a in r) for r in self.rows)
        return Matrix._from_rows(self.field, rows, self.ncols)

    def mul(self, other: "Matrix") -> "Matrix":
        """The product, one ``% p`` per entry over F_p; over QQ the rows of
        self and the columns of other are scaled to ints, and each entry
        is one Fraction over the product of the two scales."""
        if self.field != other.field:
            raise FieldError("mixed fields")
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        field = self.field
        p = field.characteristic
        cols = tuple(zip(*other.rows)) if other.rows else ((),) * other.ncols
        if p:
            rows = tuple([tuple([sum(map(_times, r, c)) % p for c in cols]) for r in self.rows])
        else:
            left, left_scales = _int_rows(field, self.rows)
            right, right_scales = _int_rows(field, cols)
            rows = tuple(
                tuple(Fraction(sum(map(_times, r, c)), s * t) for c, t in zip(right, right_scales))
                for r, s in zip(left, left_scales)
            )
        return Matrix._from_rows(field, rows, other.ncols)

    __matmul__ = mul

    def mat_vec(self, v):
        if len(v) != self.ncols:
            raise ShapeError("vector length mismatch")
        v = [_element(self.field, x) for x in v]
        p = self.field.characteristic
        out = tuple(sum(map(_times, r, v), self.field.zero) for r in self.rows)
        return tuple(x % p for x in out) if p else out

    def trace(self):
        if not self.is_square():
            raise ShapeError("trace of non-square matrix")
        p = self.field.characteristic
        total = sum((r[i] for i, r in enumerate(self.rows)), self.field.zero)
        return total % p if p else total

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row echelon form.

        Returns ``(echelon, rank, pivots)`` where ``pivots`` is the tuple
        of pivot column indices.  Zero rows are kept (at the bottom) so the
        result has the same shape as the input.
        """
        rows, _ = _int_rows(self.field, self.rows)
        pivots, d = _gauss_jordan(rows, self.ncols, self.field.characteristic)
        echelon = Matrix._from_rows(self.field, _entries(self.field, rows, d), self.ncols)
        return echelon, len(pivots), tuple(pivots)

    def rank(self) -> int:
        return rank_mod_p(_int_rows(self.field, self.rows)[0], self.field.characteristic)

    def kernel_basis(self) -> "Matrix":
        """Canonical basis of the right kernel {v : M v = 0}, as rows."""
        rows, _ = _null_space(self.field, _int_rows(self.field, self.rows)[0], self.ncols)
        return Matrix._from_rows(self.field, rows, self.ncols)

    def det(self):
        """The determinant from the forward pass that gives the rank."""
        if not self.is_square():
            raise ShapeError("determinant of non-square matrix")
        field = self.field
        p = field.characteristic
        rows, scales = _int_rows(field, self.rows)
        rank, d, scale = _forward(rows, p)
        if rank < self.nrows:
            return field.zero
        return d * pow(scale, -1, p) % p if p else Fraction(d, math.prod(scales))

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ShapeError("inverse of non-square matrix")
        field, n = self.field, self.nrows
        rows, scales = _int_rows(field, self.rows)
        # row i of [M | I] scaled by the scale of row i of M
        augmented = [
            [*r, *(s if j == i else 0 for j in range(n))]
            for i, (r, s) in enumerate(zip(rows, scales))
        ]
        pivots, d = _gauss_jordan(augmented, 2 * n, field.characteristic)
        if pivots[:n] != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return Matrix._from_rows(field, _entries(field, [r[n:] for r in augmented], d), n)


_set_field, _set_rows, _set_nrows, _set_ncols = (
    getattr(Matrix, name).__set__ for name in ("field", "rows", "nrows", "ncols")
)


def _int_rows(field, rows):
    """Rows of field entries on plain ints, and the scale of each: over
    F_p the rows themselves (scale 1), over QQ each row times the lcm of
    its denominators, which keeps its span.  The eliminations below
    replace rows and never write into one, so a row may be a tuple."""
    if field.characteristic:
        return list(rows), [1] * len(rows)
    out, scales = [], []
    for r in rows:
        d = math.lcm(*[x.denominator for x in r])
        out.append([x.numerator * (d // x.denominator) for x in r])
        scales.append(d)
    return out, scales


def _entries(field, rows, d):
    # plain-int rows back to field entries: as they are over F_p, over d over QQ
    if field.characteristic:
        return tuple(map(tuple, rows))
    return tuple(tuple(Fraction(x, d) for x in r) for r in rows)


def _gauss_jordan(rows, ncols: int, p: int):
    """Bring plain-int rows to reduced echelon form in place; returns the
    pivot columns and a divisor d.

    Over F_p (p > 0) the pivot row is scaled by pow(a, -1, p) and every
    other row cleared with one ``% p`` per entry, so d = 1.  Over QQ
    (p == 0) it is fraction-free Gauss-Jordan: a pivot a clears its
    column in every other row by (a x - b y) // d, d the previous pivot,
    an exact division since every entry stays a minor of the input.  All
    pivot entries end equal to the last pivot d, and the reduced echelon
    form is rows / d.
    """
    pivots = []
    d = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = rows[r]
        a = top[c]
        if p:
            inv = pow(a, -1, p)
            top = rows[r] = [x * inv % p for x in top]
            for k, row in enumerate(rows):
                b = row[c]
                if b and k != r:
                    rows[k] = [(x - b * y) % p for x, y in zip(row, top)]
        else:
            for k, row in enumerate(rows):
                b = row[c]
                if k != r and (b or a != d):
                    rows[k] = [(a * x - b * y) // d for x, y in zip(row, top)]
            d = a
        pivots.append(c)
    return pivots, d


def _echelon(field, rows, ncols: int):
    # the reduced echelon basis of the span of rows of field entries, and its pivots
    ints, _ = _int_rows(field, rows)
    pivots, d = _gauss_jordan(ints, ncols, field.characteristic)
    return _entries(field, ints[: len(pivots)], d), tuple(pivots)


def _null_space(field, rows, ncols: int):
    """The canonical basis rows of {v : M v = 0} and their pivots, for M
    given as plain-int rows (in range(p) over F_p, any ints over QQ)."""
    p = field.characteristic
    pivots, d = _gauss_jordan(rows, ncols, p)
    vectors = []
    for f in range(ncols):
        if f not in pivots:
            v = [0] * ncols
            v[f] = d
            for row, c in zip(rows, pivots):
                v[c] = -row[f] % p if p else -row[f]
            vectors.append(v)
    kernel_pivots, kd = _gauss_jordan(vectors, ncols, p)
    return _entries(field, vectors, kd), tuple(kernel_pivots)


class Subspace:
    """A linear subspace of F^n stored by its reduced row echelon basis.

    The canonical basis makes equality of ``Subspace`` objects equality of
    the subspaces themselves, and induces the package-wide deterministic
    ordering ``sort_key``: dimension first, then pivot columns, then the
    flattened basis entries.
    """

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field, ambient: int, vectors):
        m = Matrix(field, vectors)
        if m.nrows and m.ncols != ambient:
            raise ShapeError("vector length != ambient dimension")
        echelon, pivots = _echelon(field, m.rows, ambient)
        _fill_subspace(self, field, ambient, Matrix._from_rows(field, echelon, ambient), pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _from_echelon(cls, field, ambient: int, rows, pivots):
        # trusted internal path: rows is a tuple of reduced echelon basis
        # rows of canonical entries, with the tuple of pivot columns pivots
        v = object.__new__(cls)
        _fill_subspace(v, field, ambient, Matrix._from_rows(field, rows, ambient), pivots)
        return v

    @classmethod
    def _span(cls, field, ambient: int, rows):
        # trusted internal path: the span of rows of canonical entries
        return cls._from_echelon(field, ambient, *_echelon(field, rows, ambient))

    @classmethod
    def zero(cls, field, ambient: int):
        return cls._from_echelon(field, ambient, (), ())

    @classmethod
    def full(cls, field, ambient: int):
        identity = Matrix.identity(field, ambient).rows
        return cls._from_echelon(field, ambient, identity, tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def is_zero(self) -> bool:
        return self.dim == 0

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient})"

    def sort_key(self):
        return (self.dim, self.pivots, self.basis.rows)

    def contains_vector(self, v) -> bool:
        if len(v) != self.ambient:
            raise ShapeError("vector length != ambient dimension")
        return self._contains_rows(([_element(self.field, x) for x in v],))

    def contains(self, other: "Subspace") -> bool:
        """Whether other lies in this subspace; FieldError, as for sum and
        intersect, when the two live in different spaces."""
        self._check_compatible(other)
        return other.dim <= self.dim and self._contains_rows(other.basis.rows)

    def _contains_rows(self, rows) -> bool:
        """Whether every row of canonical entries is the combination of
        the basis rows with its entries at the pivots as coefficients;
        only the entries off the pivots can differ, so only they are
        compared."""
        p = self.field.characteristic
        pivots = self.pivots
        free = [
            (c, column)
            for c, column in enumerate(zip(*self.basis.rows) if pivots else ((),) * self.ambient)
            if c not in pivots
        ]
        for v in rows:
            coeffs = [v[c] for c in pivots]
            for c, column in free:
                rest = v[c] - sum(map(_times, coeffs, column))
                if rest % p if p else rest:
                    return False
        return True

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace._span(self.field, self.ambient, self.basis.rows + other.basis.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return self.perp().sum(other.perp()).perp()

    def perp(self) -> "Subspace":
        """Orthogonal complement under the standard dot product."""
        rows, _ = _int_rows(self.field, self.basis.rows)
        kernel = _null_space(self.field, rows, self.ambient)
        return Subspace._from_echelon(self.field, self.ambient, *kernel)

    def apply(self, g: Matrix) -> "Subspace":
        """Image of this subspace under the invertible map ``v -> g v``."""
        if g.shape != (self.ambient, self.ambient):
            raise ShapeError("map shape != ambient dimension")
        image = self.basis.mul(g.transpose())
        return Subspace._span(self.field, self.ambient, image.rows)

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field or self.ambient != other.ambient:
            raise FieldError("subspaces live in different ambient spaces")


def complement_in(inner: Subspace, outer: Subspace) -> Subspace:
    """A deterministic complement of ``inner`` inside ``outer``.

    Extends the inner basis greedily with the vectors of the canonical
    outer basis in index order (for the full ambient space those are the
    standard basis vectors), keeping each one that grows the rank of the
    vectors kept so far; the kept vectors span the complement.  They are
    the pivot columns past the inner ones when all the vectors, taken as
    columns, are brought to echelon form.

    This public entry trusts neither argument: it raises FieldError
    when they live in different spaces and ValueError when outer does
    not contain inner.  ``_complement`` computes the complement and
    trusts that containment.
    """
    if not outer.contains(inner):
        raise ValueError("inner is not contained in outer")
    return _complement(inner, outer)


def _complement(inner: Subspace, outer: Subspace | None = None) -> Subspace:
    """complement_in(inner, outer) for an inner known to lie in outer;
    outer None is the whole ambient space, whose canonical basis is the
    standard one and is not built.

    The outer basis is in reduced echelon form, so a vector of outer has
    its entries at the outer pivots as coordinates.  Outer basis vector
    b_j is kept exactly when no vector of inner has its last nonzero
    coordinate at j, so the complement is read off the pivots of inner's
    coordinate rows reversed, in one elimination; the kept rows of a
    reduced echelon basis are one themselves.
    """
    field, n = inner.field, inner.ambient
    pivots = range(n) if outer is None else outer.pivots
    m = len(pivots)
    coords = [tuple(r[c] for c in pivots)[::-1] for r in inner.basis.rows]
    reversed_rows, _ = _int_rows(field, coords)
    trailing, _ = _gauss_jordan(reversed_rows, m, field.characteristic)
    kept = sorted(set(range(m)).difference(m - 1 - c for c in trailing))
    if outer is None:
        z, o = field.zero, field.one
        rows = tuple(tuple(o if i == j else z for i in range(n)) for j in kept)
    else:
        rows = tuple(outer.basis.rows[j] for j in kept)
    return Subspace._from_echelon(field, n, rows, tuple(pivots[j] for j in kept))


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of equal-length rows of ints in ``range(p)``, or
    over QQ of rows of any ints when ``p`` is 0."""
    return _forward(rows, p)[0]


def _forward(rows, p: int):
    """Forward elimination of the rows that ``rank_mod_p`` takes:
    returns (rank, d, scale), where d / scale is the determinant of
    square rows of full rank.

    Over F_p each row operation clears one column with a single ``% p``
    per entry and needs no inverse, because scaling a row by the
    nonzero pivot keeps the rank; rows with a zero in the column are
    left alone.  d is the signed product of the pivots and scale the
    product of the row scalings.  Over QQ it is fraction-free Bareiss
    elimination (Math. Comp. 22, 1968): each entry is divided exactly
    by the previous pivot, so entries stay minors of the input, d is
    the signed last pivot and scale is 1.
    """
    rows = list(rows)
    n = len(rows)
    rank, d, sign, scale = 0, 1, 1, 1
    for c in range(len(rows[0]) if rows else 0):
        for pivot in range(rank, n):
            if rows[pivot][c]:
                break
        else:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        top = rows[rank]
        a = top[c]
        for i in range(rank + 1, n):
            b = rows[i][c]
            if p:
                if b:
                    rows[i] = [(a * x - b * y) % p for x, y in zip(rows[i], top)]
                    scale = scale * a % p
            else:
                rows[i] = [(a * x - b * y) // d for x, y in zip(rows[i], top)]
        # over QQ d is the previous pivot that the next step divides by
        d = d * a % p if p else a
        rank += 1
        if rank == n:
            break
    return rank, sign * d, scale


def isometries(mats, targets, values, p: int, budget=None):
    """The columns of every invertible f with f^T M_k f = T_k for all k.

    ``mats`` and ``targets`` are n x n int matrices, compared mod p when
    p > 0 and over the ints when p is 0.  One backtrack (Plesken and
    Souvignier, J. Symbolic Comput. 24, 1997) grows f column by column,
    each over the nonzero vectors of ``values``^n in lexicographic order
    (``values`` in its own order): a candidate c is kept when
    c^T M_k c = T_k[i][i], then its pairings with the earlier columns
    match T_k, and it is independent of them.  So the yields, tuples of
    n column tuples, come in lexicographic order too.

    The diagonal values are computed once per candidate per call, M_k c
    and c^T M_k the first time a diagonal matches past column 0.  Each
    visited candidate costs one unit of ``budget`` (None: no bound), and
    a walk cut by the budget yields None last.
    """
    n = len(mats[0])
    columns = [list(zip(*m)) for m in mats]
    wanted = [tuple(t[i][i] for t in targets) for i in range(n)]

    def pair(u, v) -> int:
        s = sum(map(_times, u, v))
        return s % p if p else s

    candidates = []
    for c in itertools.product(values, repeat=n):
        if any(c):
            diagonal = tuple(pair(c, [sum(map(_times, row, c)) for row in m]) for m in mats)
            candidates.append((c, diagonal))
    cache = {}
    chosen: list[tuple] = []
    left = math.inf if budget is None else budget

    def gram_ok(c, diagonal) -> bool:
        # the diagonal entries first, for every k: most candidates fail there
        i = len(chosen)
        if diagonal != wanted[i]:
            return False
        if i == 0:
            return True
        if c not in cache:
            cache[c] = [
                ([sum(map(_times, row, c)) for row in m], [sum(map(_times, col, c)) for col in cols])
                for m, cols in zip(mats, columns)
            ]
        for (mc, cm), t in zip(cache[c], targets):
            for j in range(i):
                # pair (j, i) uses M c, pair (i, j) uses c^T M
                if pair(chosen[j], mc) != t[j][i] or pair(cm, chosen[j]) != t[i][j]:
                    return False
        return True

    def extend():
        # yields the completions of ``chosen``; left < 0 once the budget cut the walk
        nonlocal left
        if len(chosen) == n:
            yield tuple(chosen)
            return
        for c, diagonal in candidates:
            left -= 1
            if left < 0:
                return
            if gram_ok(c, diagonal) and rank_mod_p(chosen + [c], p) == len(chosen) + 1:
                chosen.append(c)
                yield from extend()
                chosen.pop()

    yield from extend()
    if left < 0:
        yield None
