"""Exact dense linear algebra over a coefficient field.

Small matrices only (the Artinian and group modules work at dimensions
well under a hundred), so plain Gauss-Jordan with exact pivots is enough.
Elimination is :func:`rref` on rows of ints, with no field arithmetic:
residues mod p, or over Q fraction-free (Bareiss), whose reduced form is
integer rows over one denominator.  :class:`Matrix` keeps field values
(``Fraction`` over Q); its elimination methods bring each row to ints,
over Q times the lcm of its denominators, and return field values.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DomainError
from .field import FieldSpec


class Matrix:
    """Dense matrix over a :class:`FieldSpec`; rows of coerced entries."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: FieldSpec, rows):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise DomainError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DomainError("ragged matrix rows")
        self.field = field
        self.rows = [[field.coerce(v) for v in r] for r in rows]
        self.nrows = len(rows)
        self.ncols = width

    @classmethod
    def _reduced(cls, field: FieldSpec, rows) -> Matrix:
        """Wrap equal-length lists of values already in the field, skipping
        the constructor's coercion; no rows, or empty ones, are refused as
        the constructor refuses them."""
        if not rows or not rows[0]:
            raise DomainError("empty matrix")
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = len(rows[0])
        return m

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> Matrix:
        zero, one = field.zero(), field.one()
        return cls._reduced(
            field,
            [[one if i == j else zero for j in range(n)] for i in range(n)],
        )

    @classmethod
    def from_columns(cls, field: FieldSpec, cols) -> Matrix:
        """The matrix with the given columns: nonempty equal-length vectors
        of values already in the field, as the package's vectors are."""
        return cls._reduced(field, [list(r) for r in zip(*cols)])

    def column(self, j: int):
        return [r[j] for r in self.rows]

    def _check(self, other: Matrix):
        if self.field != other.field:
            raise DomainError("matrix field mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    __hash__ = None

    def __add__(self, other: Matrix) -> Matrix:
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DomainError("matrix shape mismatch")
        F = self.field
        return Matrix._reduced(
            F,
            [
                [F.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other: Matrix) -> Matrix:
        return self + other.scale(-1)

    def scale(self, c) -> Matrix:
        F = self.field
        c = F.coerce(c)
        return Matrix._reduced(F, [[F.mul(c, v) for v in r] for r in self.rows])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check(other)
        if self.ncols != other.nrows:
            raise DomainError("matrix shape mismatch in product")
        # plain sums of the nonzero products; the constructor reduces them
        # into the field (mod p, or an int 0 to a Fraction)
        bt = list(zip(*other.rows))
        return Matrix(self.field, [
            [sum(a * b for a, b in zip(row, col) if a and b) for col in bt]
            for row in self.rows
        ])

    def transpose(self) -> Matrix:
        return Matrix._reduced(self.field, [list(c) for c in zip(*self.rows)])

    # -- elimination ----------------------------------------------------

    def _rref(self, identity=False):
        """:func:`rref` of the rows as ints, each row times the lcm of its
        denominators (1 for residues; a row's scale changes no reduced
        form), with the identity block appended when asked, its row scaled
        alike."""
        n = self.nrows
        rows = []
        for i, row in enumerate(self.rows):
            scale = lcm(*(v.denominator for v in row))
            row = [v.numerator * (scale // v.denominator) for v in row]
            if identity:
                row = row + [scale if j == i else 0 for j in range(n)]
            rows.append(row)
        return rref(self.field.characteristic, rows)

    def _values(self, rows, den):
        """Field values of int rows over the denominator den."""
        p = self.field.characteristic
        if p:
            return [[v % p for v in r] for r in rows]
        return [[Fraction(v, den) for v in r] for r in rows]

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        red, pivots, den = self._rref()
        return Matrix._reduced(self.field, self._values(red, den)), pivots

    def rank(self) -> int:
        return len(self._rref()[1])

    def nullspace(self):
        """Basis of the right kernel, as a list of vectors: one per free
        column, 1 there and minus that column of the reduced pivot rows in
        the pivot coordinates."""
        red, pivots, den = self._rref()
        basis = []
        for fc in range(self.ncols):
            if fc in pivots:
                continue
            vec = [0] * self.ncols
            vec[fc] = den
            for row, pc in zip(red, pivots):
                vec[pc] = -row[fc]
            basis.append(vec)
        return self._values(basis, den)

    def inverse(self) -> Matrix:
        if self.nrows != self.ncols:
            raise DomainError("only square matrices can be inverted")
        n = self.nrows
        red, pivots, den = self._rref(identity=True)
        if pivots[:n] != list(range(n)):
            raise DomainError("matrix is singular")
        return Matrix._reduced(self.field, self._values([r[n:] for r in red], den))

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in r) for r in self.rows)
        return f"<Matrix {self.nrows}x{self.ncols} [{body}]>"


def rref(p: int, rows):
    """Gauss-Jordan elimination of a nonempty list of equal-length int rows,
    over F_p for a prime p and over Q for p = 0: ``(rows, pivots, den)``,
    the reduced row echelon form being rows/den, with its pivot columns.
    The input rows are left unchanged.

    Over F_p the rows are residues: each pivot row is scaled to a leading 1
    and each update is reduced once mod p, so den is 1.  Over Q the
    elimination is fraction-free Gauss-Jordan (Bareiss, "Sylvester's
    identity and multistep integer-preserving Gaussian elimination", Math.
    Comp. 22, 1968): at each pivot every other row, a 0 in the pivot column
    or not, becomes (piv*row - f*pivot_row) // den, den the previous pivot.
    Every entry stays a minor of the input, so each division is exact, and
    den ends as the last pivot, which each pivot entry then equals.
    """
    rows = [[v % p for v in r] for r in rows] if p else [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    pivots, den, r = [], 1, 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        if p:
            inv = pow(rows[r][c], -1, p)
            top = rows[r] = [v * inv % p for v in rows[r]]
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != r:
                    rows[i] = [(v - f * w) % p for v, w in zip(row, top)]
        else:
            top = rows[r]
            piv = top[c]
            for i, row in enumerate(rows):
                if i != r:
                    f = row[c]
                    rows[i] = [(piv * v - f * w) // den for v, w in zip(row, top)]
            den = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots, den
