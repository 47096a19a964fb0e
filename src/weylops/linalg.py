"""Exact dense linear algebra over a coefficient field.

Small matrices only (the Artinian and group modules work at dimensions
well under a hundred), so plain Gauss-Jordan with exact pivots is enough.
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
    def identity(cls, field: FieldSpec, n: int) -> Matrix:
        return cls(
            field,
            [[1 if i == j else 0 for j in range(n)] for i in range(n)],
        )

    @classmethod
    def from_columns(cls, field: FieldSpec, cols) -> Matrix:
        cols = [list(c) for c in cols]
        return cls(field, [[c[i] for c in cols] for i in range(len(cols[0]))])

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
        return Matrix(
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
        return Matrix(F, [[F.mul(c, v) for v in r] for r in self.rows])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        self._check(other)
        if self.ncols != other.nrows:
            raise DomainError("matrix shape mismatch in product")
        F = self.field
        bt = list(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in bt:
                acc = F.zero()
                for a, b in zip(row, col):
                    acc = F.add(acc, F.mul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return Matrix(F, out)

    def __rmul__(self, other):
        return self.scale(other)

    def matvec(self, vec):
        if len(vec) != self.ncols:
            raise DomainError("vector length mismatch")
        F = self.field
        out = []
        for row in self.rows:
            acc = F.zero()
            for a, b in zip(row, vec):
                acc = F.add(acc, F.mul(a, b))
            out.append(acc)
        return out

    def transpose(self) -> Matrix:
        return Matrix(self.field, list(zip(*self.rows)))

    def is_zero(self) -> bool:
        F = self.field
        return all(F.is_zero(v) for r in self.rows for v in r)

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        F = self.field
        rows = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            pivot = next(
                (i for i in range(r, self.nrows) if not F.is_zero(rows[i][c])),
                None,
            )
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = F.inv(rows[r][c])
            rows[r] = [F.mul(inv, v) for v in rows[r]]
            for i in range(self.nrows):
                if i != r and not F.is_zero(rows[i][c]):
                    factor = rows[i][c]
                    rows[i] = [
                        F.sub(v, F.mul(factor, w)) for v, w in zip(rows[i], rows[r])
                    ]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return Matrix(F, rows), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self):
        """Basis of the right kernel, as a list of vectors."""
        return rref_kernel(*self.rref())

    def inverse(self) -> Matrix:
        if self.nrows != self.ncols:
            raise DomainError("only square matrices can be inverted")
        n = self.nrows
        aug = Matrix(
            self.field,
            [
                row + ident_row
                for row, ident_row in zip(
                    self.rows, Matrix.identity(self.field, n).rows
                )
            ],
        )
        red, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise DomainError("matrix is singular")
        return Matrix(self.field, [r[n:] for r in red.rows])

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.to_str(v) for v in r) for r in self.rows
        )
        return f"<Matrix {self.nrows}x{self.ncols} [{body}]>"


def rref_kernel(red: Matrix, pivots):
    """Right kernel basis read off a reduced row echelon form and its pivot
    columns: one vector per free column, with -1 times that column of the
    pivot rows in the pivot coordinates."""
    F = red.field
    pivot_set = set(pivots)
    basis = []
    for fc in range(red.ncols):
        if fc in pivot_set:
            continue
        vec = [F.zero()] * red.ncols
        vec[fc] = F.one()
        for r, pc in enumerate(pivots):
            vec[pc] = F.neg(red.rows[r][fc])
        basis.append(vec)
    return basis
