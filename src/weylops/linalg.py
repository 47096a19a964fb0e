"""Exact dense linear algebra over a coefficient field.

Small matrices only (the Artinian and group modules work at dimensions
well under a hundred), so plain Gauss-Jordan with exact pivots is enough.
Elimination is :func:`rref` on plain row lists of field values, with
:func:`rref_kernel` reading a kernel basis off it; :class:`Matrix` wraps both.
"""

from __future__ import annotations

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
        """Wrap nonempty equal-length lists of values already in the field,
        skipping the constructor's checks and coercion."""
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

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        red, pivots = rref(self.field, self.rows)
        return Matrix._reduced(self.field, red), pivots

    def rank(self) -> int:
        return len(rref(self.field, self.rows)[1])

    def nullspace(self):
        """Basis of the right kernel, as a list of vectors."""
        return rref_kernel(self.field, *rref(self.field, self.rows))

    def inverse(self) -> Matrix:
        if self.nrows != self.ncols:
            raise DomainError("only square matrices can be inverted")
        F, n = self.field, self.nrows
        zero, one = F.zero(), F.one()
        red, pivots = rref(F, [row + [one if j == i else zero for j in range(n)]
                               for i, row in enumerate(self.rows)])
        if pivots[:n] != list(range(n)):
            raise DomainError("matrix is singular")
        return Matrix._reduced(F, [r[n:] for r in red])

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in r) for r in self.rows)
        return f"<Matrix {self.nrows}x{self.ncols} [{body}]>"


def rref(F: FieldSpec, rows):
    """Gauss-Jordan elimination of a nonempty list of equal-length rows of
    values of F: the reduced row echelon form as new rows, and its pivot
    columns.  The input rows are left unchanged."""
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next(
            (i for i in range(r, nrows) if not F.is_zero(rows[i][c])), None
        )
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and not F.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [F.sub(v, F.mul(factor, w)) for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref_kernel(F: FieldSpec, rows, pivots):
    """Right kernel basis read off the rows of a reduced row echelon form
    and its pivot columns: one vector per free column, with -1 times that
    column of the pivot rows in the pivot coordinates."""
    ncols = len(rows[0])
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [F.zero()] * ncols
        vec[fc] = F.one()
        for r, pc in enumerate(pivots):
            vec[pc] = F.neg(rows[r][fc])
        basis.append(vec)
    return basis
