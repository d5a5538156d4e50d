"""Independent oracles shared by the test modules.

These deliberately avoid the code paths they check: weight multiplicities
come from Kostant's alternating-sum formula over an explicitly enumerated
Weyl group, and root counts come from reflection closure done by hand here.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

from lca.embed import subsystem_embedding
from lca.rootsys import RootSystem
from lca.tabver import TableSet

# every admissible simple type of rank at most 8
ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(1, 9)]
    + [f"C{n}" for n in range(1, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def reflection_closure_count(rs: RootSystem) -> int:
    """Count roots by a fresh reflection closure over simple-root coordinates."""
    simple = [tuple(1 if j == i else 0 for j in range(rs.rank)) for i in range(rs.rank)]
    roots = set(simple) | {tuple(-x for x in s) for s in simple}
    changed = True
    while changed:
        changed = False
        for c in list(roots):
            for i in range(rs.rank):
                pairing = sum(c[j] * rs.cartan[j][i] for j in range(rs.rank))
                r = list(c)
                r[i] -= pairing
                r = tuple(r)
                if r not in roots:
                    roots.add(r)
                    changed = True
    return len(roots)


def weyl_elements(rs: RootSystem):
    """All Weyl group elements as matrices on fundamental coordinates, with signs."""
    n = rs.rank
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

    def reflect_matrix(i):
        return tuple(
            tuple((1 if k == j else 0) - (1 if j == i else 0) * rs.cartan[i][k] for j in range(n))
            for k in range(n)
        )

    gens = [reflect_matrix(i) for i in range(n)]

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
        )

    elements = {ident: 1}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                m = mul(g, w)
                if m not in elements:
                    elements[m] = -elements[w]
                    nxt.append(m)
        frontier = nxt
    return list(elements.items())


@lru_cache(maxsize=None)
def _fundamental_root_coordinates(rs: RootSystem) -> tuple:
    """(A^T)^-1 by exact Gauss-Jordan; column i holds the root coordinates of omega_i.

    Solved here over Fraction, independently of the library, which never
    inverts the Cartan matrix.
    """
    n = rs.rank
    work = [
        [Fraction(rs.cartan[j][i]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for r in range(n):
            factor = work[r][col]
            if r != col and factor:
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def root_coordinates(rs: RootSystem, weight) -> tuple:
    """Simple-root coordinates (Fractions) of a weight given in fundamental coordinates."""
    return tuple(
        sum((a * w for a, w in zip(row, weight)), Fraction(0))
        for row in _fundamental_root_coordinates(rs)
    )


def kostant_multiplicity(rs: RootSystem, lam, mu) -> int:
    """Weight multiplicity via Kostant's formula; exponential in rank, small cases only."""
    positive = rs.positive_roots  # root coordinates

    @lru_cache(maxsize=None)
    def partitions(vec):
        if all(x == 0 for x in vec):
            return 1
        if any(x < 0 for x in vec):
            return 0
        return _count(vec, 0)

    @lru_cache(maxsize=None)
    def _count(vec, idx):
        if all(x == 0 for x in vec):
            return 1
        if idx == len(positive):
            return 0
        total = 0
        current = vec
        while True:
            total += _count(current, idx + 1)
            nxt = tuple(a - b for a, b in zip(current, positive[idx]))
            if any(x < 0 for x in nxt):
                break
            current = nxt
        return total

    rho = (1,) * rs.rank
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    mu_rho = tuple(a + b for a, b in zip(mu, rho))
    total = 0
    for w, sign in weyl_elements(rs):
        image = tuple(sum(w[i][j] * lam_rho[j] for j in range(rs.rank)) for i in range(rs.rank))
        diff = tuple(a - b for a, b in zip(image, mu_rho))
        coords = root_coordinates(rs, diff)
        if any(c.denominator != 1 or c < 0 for c in coords):
            continue
        total += sign * partitions(tuple(int(c) for c in coords))
    return total


def enumerate_highest_weights(ambient, dim_bound: int):
    """All dominant weights whose irreducible dimension is at most the bound."""
    from lca.repth import weyl_dimension

    zero = (0,) * ambient.rank
    seen = {zero}
    frontier = [zero]
    out = [(zero, 1)]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(ambient.rank):
                cand = tuple(x + (1 if j == i else 0) for j, x in enumerate(w))
                if cand in seen:
                    continue
                seen.add(cand)
                d = weyl_dimension(ambient, cand)
                if d <= dim_bound:
                    out.append((cand, d))
                    nxt.append(cand)
        frontier = nxt
    return out


_WEYL_ORDERS = {
    "A": lambda n: _factorial(n + 1),
    "B": lambda n: 2**n * _factorial(n),
    "C": lambda n: 2**n * _factorial(n),
    "D": lambda n: 2 ** (n - 1) * _factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def weyl_group_order(st) -> int:
    return _WEYL_ORDERS[st.family](st.rank)


_orbit_cache: dict = {}


def orbit_size(rs, mu) -> int:
    """|W| / |W_mu| via the product formula; independent of orbit closure."""
    from lca.rootsys import classify_subdiagram

    mask = tuple(x == 0 for x in mu)
    key = (rs.label(), mask)
    cached = _orbit_cache.get(key)
    if cached is not None:
        return cached
    zero_nodes = [
        (i + 1, tuple(1 if j == i else 0 for j in range(rs.rank)))
        for i in range(rs.rank)
        if mask[i]
    ]
    stabilizer = 1
    if zero_nodes:
        for st, _ in classify_subdiagram(rs, zero_nodes):
            stabilizer *= weyl_group_order(st)
    total = weyl_group_order(rs.type)
    assert total % stabilizer == 0
    _orbit_cache[key] = total // stabilizer
    return _orbit_cache[key]


def capped_dominant_count(rs, lam, cap: int) -> int:
    """Number of dominant weights of V(lam), reported as cap+1 once it exceeds cap."""
    if rs.rank == 1:
        return min(lam[0] // 2 + 1, cap + 1)
    seen = {tuple(lam)}
    frontier = [tuple(lam)]
    while frontier:
        nxt = []
        for mu in frontier:
            for alpha in rs.positive_roots_fund:
                nu = tuple(a - b for a, b in zip(mu, alpha))
                if nu not in seen and all(x >= 0 for x in nu):
                    seen.add(nu)
                    if len(seen) > cap:
                        return cap + 1
                    nxt.append(nu)
        frontier = nxt
    return len(seen)


def strip_flags(ts: TableSet) -> TableSet:
    """The same table set with every expected-discrepancy flag removed."""
    rows = {table: tuple(replace(r, flags=()) for r in rows) for table, rows in ts.rows.items()}
    return replace(ts, rows=rows)


def levi_embedding(rs: RootSystem, kept):
    """Subsystem on a subset of the simple roots (a Levi factor's derived part)."""
    kept = set(kept)
    nodes = [(k, c) for k, c in rs.extended_nodes() if k != 0 and k in kept]
    return subsystem_embedding(rs, nodes)


def is_weyl_stable(char) -> bool:
    """Every weight of the character has the multiplicity of its whole Weyl orbit."""
    table = char.as_dict()
    for w, m in char.entries:
        for v in char.ambient.weyl_orbit(w):
            if table.get(v, 0) != m:
                return False
    return True
