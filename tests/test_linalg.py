from hypothesis import given, settings
from hypothesis import strategies as st

from lca.linalg import dot, matmul, matvec

ENTRIES = st.integers(-50, 50)


def _matrix(rows: int, cols: int):
    return st.tuples(*[st.tuples(*[ENTRIES] * cols)] * rows)


def _textbook_product(a, b):
    """The triple loop: c[i][j] is the sum over k of a[i][k] * b[k][j]."""
    c = [[0] * len(b[0]) for _ in a]
    for i in range(len(a)):
        for j in range(len(b[0])):
            for k in range(len(b)):
                c[i][j] += a[i][k] * b[k][j]
    return tuple(tuple(row) for row in c)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernels_equal_the_textbook_loops(data):
    n, m, p = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = data.draw(_matrix(n, m)), data.draw(_matrix(m, p))
    v = data.draw(st.tuples(*[ENTRIES] * m))
    assert matmul(a, b) == _textbook_product(a, b)
    assert matvec(a, v) == tuple(row[0] for row in _textbook_product(a, tuple((x,) for x in v)))
    assert dot(a[0], v) == _textbook_product((a[0],), tuple((x,) for x in v))[0][0]
    assert all(type(x) is int for row in matmul(a, b) for x in row)
