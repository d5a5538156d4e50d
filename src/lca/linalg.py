"""Small exact integer linear algebra kit.

Matrices are immutable tuples of tuples of ints, and every result stays
integral: the one division, ``halve``, refuses an odd entry instead of
leaving a remainder.  Everything here is tiny: ranks never exceed 16, so no
effort is spent on asymptotics.
"""

from __future__ import annotations

from typing import Sequence


def transpose(a):
    return tuple(zip(*a)) if a else ()


def matvec(a, v: Sequence) -> tuple:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def matmul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def dot(u: Sequence, v: Sequence):
    return sum(x * y for x, y in zip(u, v))


def halve(a) -> tuple[tuple[int, ...], ...]:
    """Half of an integer matrix, raising ValueError if any entry is odd."""
    odd = next((x for row in a for x in row if x % 2), None)
    if odd is not None:
        raise ValueError(f"non-integral entry {odd}/2")
    return tuple(tuple(x // 2 for x in row) for row in a)
