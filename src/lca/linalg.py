"""Small exact linear algebra kit over the integers and rationals.

Matrices are immutable tuples of tuples.  Products keep the entries they
are given, so integer matrices stay integer; Fractions come only from
``invert`` and from the explicit conversions ``vec``, ``mat`` and
``identity``.  Everything here is tiny: ranks never exceed 16, so no effort
is spent on asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def vec(entries: Iterable) -> Vector:
    return tuple(Fraction(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def matvec(a: Matrix, v: Sequence) -> Vector:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def dot(u: Sequence, v: Sequence):
    return sum(x * y for x, y in zip(u, v))


def invert(a: Matrix) -> Matrix:
    """Exact Gauss-Jordan inverse; raises ValueError on a singular matrix."""
    n = len(a)
    work = [list(map(Fraction, row)) + list(ident) for row, ident in zip(a, identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def int_matrix(a: Matrix) -> tuple[tuple[int, ...], ...]:
    """Cast to integers, raising if any entry is not integral."""
    bad = next((x for row in a for x in row if Fraction(x).denominator != 1), None)
    if bad is not None:
        raise ValueError(f"non-integral entry {bad}")
    return tuple(tuple(int(x) for x in row) for row in a)
