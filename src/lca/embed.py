"""Constructors for the subgroup embeddings used in branching computations.

Four primitives cover everything the audits need:

* subsystem embeddings from (iterated) extended-diagram node deletion;
* orthogonal block decompositions SO(n1) x ... x SO(nk) inside SO(n),
  with at most one discarded dimension;
* the orthogonal subgroup SO_n of SL_n, and more generally any subgroup
  of SL_n or SO_2k defined by the weights of its natural module;
* diagonal subgroups across equal factors of a product.

All weight maps are integer matrices on fundamental coordinates.  The change
to orthogonal coordinates has half entries for types B and D, so it is kept
doubled, and each map built on it is halved once: an odd entry is refused
with ValueError, never rounded.
"""

from __future__ import annotations

from functools import cache

from .linalg import halve, matmul
from .repth import Embedding
from .rootsys import (
    ProductRootSystem,
    RootSystem,
    SimpleType,
    build_root_system,
    classify_subdiagram,
    orthogonal_factors,
    root_system,
)


def identity_embedding(rs) -> Embedding:
    n = rs.rank
    m = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return Embedding(rs, rs, m)


def product_embedding(embs) -> Embedding:
    """Block product of embeddings between the factors of two products."""
    target = ProductRootSystem([e.target for e in embs])
    source = ProductRootSystem([e.source for e in embs])
    rows = []
    before = 0
    for e in embs:
        after = target.rank - before - e.target.rank
        rows.extend((0,) * before + tuple(row) + (0,) * after for row in e.matrix)
        before += e.target.rank
    return Embedding(source, target, tuple(rows))


def subsystem_embedding(rs: RootSystem, nodes) -> Embedding:
    """Embedding of the subsystem spanned by the given (key, root) pairs."""
    comps = classify_subdiagram(rs, nodes)
    coords = {k: c for k, c in nodes}
    factors = [build_root_system(st) for st, _ in comps]
    source = factors[0] if len(factors) == 1 else ProductRootSystem(factors)
    # row of node beta: <omega_j, beta-coroot> over j, the coroot's coordinates
    rows = tuple(
        rs.coroot(coords[key], rs.root_norm(coords[key]))
        for _, ordered in comps
        for key in ordered
    )
    return Embedding(source, rs, rows)


def extended_deletion(rs: RootSystem, removed) -> Embedding:
    """Maximal-rank subsystem from deleting nodes of the extended diagram.

    Node key 0 is the affine node; keys 1..rank are the simple roots.
    """
    removed = set(removed)
    nodes = [(k, c) for k, c in rs.extended_nodes() if k not in removed]
    return subsystem_embedding(rs, nodes)


# -- orthogonal coordinate conversions ---------------------------------------


def _fund_to_2eps(rs: RootSystem):
    """Twice the fundamental-to-orthogonal coordinate change (types A, B and D).

    Doubling makes the half entries of the spin nodes integral; every weight
    map built on it is halved once by ``halve``, which refuses an odd entry.
    """
    n = rs.rank
    fam = rs.type.family
    if fam == "A":
        return tuple(tuple(2 if j >= i else 0 for j in range(n)) for i in range(n + 1))
    if fam == "B":
        return tuple(
            tuple(2 if i <= j < n - 1 else (1 if j == n - 1 else 0) for j in range(n))
            for i in range(n)
        )
    if fam == "D":
        rows = []
        for i in range(n):
            row = [2 if i <= j < n - 2 else 0 for j in range(n)]
            row[n - 2] = 1 if i <= n - 2 else -1
            row[n - 1] = 1
            rows.append(tuple(row))
        return tuple(rows)
    raise ValueError(f"no orthogonal coordinates for family {fam}")


def _eps_to_fund_rows(st: SimpleType):
    """Rows expressing fundamental coordinates in orthogonal coordinates (B and D)."""
    n = st.rank
    rows = [{i: 1, i + 1: -1} for i in range(n - 1)]
    if st.family == "B":
        rows.append({n - 1: 2})
    else:
        rows.append({n - 2: 1, n - 1: 1})
    return rows


def _dense_row(coeffs, width: int, offset: int = 0) -> tuple[int, ...]:
    """Integer row of length ``width`` with the sparse ``{t: c}`` placed from ``offset``."""
    return tuple(coeffs.get(j - offset, 0) for j in range(width))


def _orthogonal_rows(dim: int):
    """Orthogonal-row maps of the factors ``orthogonal_factors(dim)`` of one SO(dim) block."""
    if dim == 4:
        return [[{0: 1, 1: 1}], [{0: 1, 1: -1}]]
    if dim == 6:
        # SO6 presented as A3: node order (e1-e2, e2-e3, e2+e3) re-ordered to a chain
        return [[{1: 1, 2: -1}, {0: 1, 1: -1}, {1: 1, 2: 1}]]
    return [_eps_to_fund_rows(st) for st in orthogonal_factors(dim)]


def so_sum_embedding(rs: RootSystem, parts) -> Embedding:
    """SO(n1) x ... x SO(nk) inside SO(n), n = sum(parts) or sum(parts)+1.

    The ambient must be of type B or D; each part must have dimension >= 3
    (an SO2 block would be a torus, which these embeddings never carry).
    """
    if rs.type.family not in ("B", "D"):
        raise ValueError("orthogonal block embedding needs a B or D ambient")
    natural = 2 * rs.rank + (1 if rs.type.family == "B" else 0)
    if any(p < 3 for p in parts):
        raise ValueError("orthogonal blocks must have dimension at least 3")
    if sum(parts) not in (natural, natural - 1):
        raise ValueError(f"block dimensions {parts} do not fit in SO{natural}")
    factors = []
    rows = []
    offset = 0
    for p in parts:
        factors.extend(build_root_system(st) for st in orthogonal_factors(p))
        for row_maps in _orthogonal_rows(p):
            rows.extend(_dense_row(coeffs, rs.rank, offset) for coeffs in row_maps)
        offset += p // 2
    source = factors[0] if len(factors) == 1 else ProductRootSystem(factors)
    return Embedding(source, rs, halve(matmul(rows, _fund_to_2eps(rs))))


def sl_to_orthogonal(rs: RootSystem) -> Embedding:
    """SO_n inside SL_n, acting on the natural module."""
    if rs.type.family != "A":
        raise ValueError("expected an ambient of type A")
    n = rs.rank + 1
    k = n // 2
    # z_t = y_t - y_{n+1-t}; kills the trace gauge
    fold_rows = [_dense_row({t: 1, n - 1 - t: -1}, n) for t in range(k)]
    factors = [build_root_system(st) for st in orthogonal_factors(n)]
    rows = [_dense_row(coeffs, k) for group in _orthogonal_rows(n) for coeffs in group]
    matrix = halve(matmul(matmul(rows, fold_rows), _fund_to_2eps(rs)))
    source = factors[0] if len(factors) == 1 else ProductRootSystem(factors)
    return Embedding(source, rs, matrix)


def _weight_embedding(rs: RootSystem, source: str, weights) -> Embedding:
    """Subgroup of type ``source`` whose weight on orthogonal coordinate i is ``weights[i]``."""
    source = root_system(source)
    rows = tuple(tuple(w[j] for w in weights) for j in range(source.rank))
    return Embedding(source, rs, halve(matmul(rows, _fund_to_2eps(rs))))


def module_embedding(rs: RootSystem, source: str, weights) -> Embedding:
    """Subgroup of SL_n of type ``source`` given by the weights of its n-dimensional module.

    ``weights`` lists the source weights of the module in a fixed order; they
    must sum to zero so the map is independent of the trace gauge.
    """
    if rs.type.family != "A":
        raise ValueError("expected an ambient of type A")
    n = rs.rank + 1
    if len(weights) != n:
        raise ValueError(f"need {n} module weights, got {len(weights)}")
    if any(sum(column) for column in zip(*weights)):
        raise ValueError("module weights must sum to zero")
    return _weight_embedding(rs, source, weights)


def orthogonal_module_embedding(rs: RootSystem, source: str, plane_weights) -> Embedding:
    """Subgroup of SO_2k of type ``source`` given by the plane weights of its natural module.

    The natural module must decompose into weight planes (w, -w); the list
    gives one weight per plane (zero entries allowed).
    """
    if rs.type.family != "D":
        raise ValueError("expected an ambient of type D")
    k = rs.rank
    if len(plane_weights) != k:
        raise ValueError(f"need {k} plane weights, got {len(plane_weights)}")
    return _weight_embedding(rs, source, plane_weights)


def diagonal_embedding(target: ProductRootSystem, groups) -> Embedding:
    """Diagonal across grouped factors of a product; each group has one type."""
    factors = target.factors
    used = sorted(i for g in groups for i in g)
    if used != list(range(len(factors))):
        raise ValueError("groups must partition the factor indices")
    out_factors = []
    rows = []
    for group in groups:
        types = {factors[i].type for i in group}
        if len(types) != 1:
            raise ValueError("diagonal factors must share a type")
        rep = factors[group[0]]
        out_factors.append(rep)
        for r in range(rep.rank):
            row = [0] * target.rank
            for i in group:
                row[target._offsets[i] + r] = 1
            rows.append(tuple(row))
    source = out_factors[0] if len(out_factors) == 1 else ProductRootSystem(out_factors)
    return Embedding(source, target, tuple(rows))


def refine_factor(emb: Embedding, index: int, inner: Embedding) -> Embedding:
    """Replace factor ``index`` of the source product by a subgroup of it."""
    embs = [identity_embedding(f) for f in emb.source.factors]
    embs[index] = inner
    return emb.then(product_embedding(embs))


# -- named chains used by the tables ------------------------------------------
#
# A chain is a list of steps folded from the identity on the chain's group.
# A step ``(make, *args)`` composes with ``make(source, *args)``; a step
# ``(i, make, *args)`` refines factor ``i`` of the source by
# ``make(factor, *args)``.  Each step acts on the previous step's source.

_SYM4_A1_WEIGHTS = [(4,), (2,), (0,), (-2,), (-4,)]
_A2_ADJOINT_WEIGHTS = [
    (1, 1), (2, -1), (-1, 2), (0, 0), (0, 0), (1, -2), (-2, 1), (-1, -1),
]
_A2_ORTHOGONAL_PLANES = [(1, 1), (2, -1), (-1, 2), (0, 0)]

_SO3 = (sl_to_orthogonal,)
_D4_TO_A2 = (orthogonal_module_embedding, "A2", _A2_ORTHOGONAL_PLANES)
_SYM4_A1 = (module_embedding, "A1", _SYM4_A1_WEIGHTS)
_ADJOINT_A2 = (module_embedding, "A2", _A2_ADJOINT_WEIGHTS)

_E8_D8 = [(extended_deletion, {1})]
_E7_A1D6 = [(extended_deletion, {1})]
_F4_B4 = [(extended_deletion, {4})]
_F4_D4 = _F4_B4 + [(extended_deletion, {4})]

_CHAINS = {
    ("E8", "d8"): _E8_D8,
    ("E8", "a1e7"): [(extended_deletion, {8})],
    ("E8", "a8"): [(extended_deletion, {2})],
    ("E8", "a2e6"): [(extended_deletion, {7})],
    ("E8", "a1a7"): [(extended_deletion, {3})],
    ("E8", "a3d5"): [(extended_deletion, {6})],
    ("E8", "a4^2"): [(extended_deletion, {5})],
    ("E8", "a1a2a5"): [(extended_deletion, {4})],
    ("E8", "b2b5"): _E8_D8 + [(so_sum_embedding, [5, 11])],
    ("E8", "b2^3"): _E8_D8 + [
        (so_sum_embedding, [5, 11]),
        (1, extended_deletion, {5}),
        (1, so_sum_embedding, [5, 5]),
    ],
    ("E8", "b1^5"): _E8_D8 + [(so_sum_embedding, [3, 3, 3, 3, 3])],
    ("E8", "a1^8"): _E8_D8 + [(so_sum_embedding, [4, 4, 4, 4])],
    ("E8", "a1^4d4"): _E8_D8 + [(so_sum_embedding, [4, 4, 8])],
    ("E8", "a1^2b1^2b2"): _E8_D8 + [(so_sum_embedding, [4, 3, 3, 5])],
    ("E8", "a1d4"): [(extended_deletion, {3}), (1, *_SO3)],
    ("E8", "b4"): [(extended_deletion, {2}), _SO3],
    ("E8", "a1a1a3"): [(extended_deletion, {4}), (1, *_SO3), (2, *_SO3)],
    ("E8", "a1a2"): [(extended_deletion, {3}), (1, *_ADJOINT_A2)],
    ("E8", "a1-sym5"): [
        (extended_deletion, {5}),
        (0, *_SYM4_A1),
        (1, *_SYM4_A1),
        (diagonal_embedding, [[0, 1]]),
    ],
    ("E8", "b2-frob20"): [
        (extended_deletion, {5}),
        (0, *_SO3),
        (1, *_SO3),
        (diagonal_embedding, [[0, 1]]),
    ],
    ("E8", "a1a1a1"): _E8_D8 + [
        (so_sum_embedding, [4, 4, 8]),
        (diagonal_embedding, [[0], [1, 2, 3], [4]]),
        (2, *_D4_TO_A2),
        (2, *_SO3),
    ],
    ("E8", "a1^2-3^2dih8"): [
        (extended_deletion, {7}),
        (1, extended_deletion, {4}),
        (0, *_SO3),
        (1, *_SO3),
        (2, *_SO3),
        (3, *_SO3),
        (diagonal_embedding, [[0, 1], [2, 3]]),
    ],
    ("E7", "a1d6"): _E7_A1D6,
    ("E7", "a7"): [(extended_deletion, {2})],
    ("E7", "a2a5"): [(extended_deletion, {3})],
    ("E7", "a1a3^2"): [(extended_deletion, {4})],
    ("E7", "a1b1^4"): _E7_A1D6 + [(1, so_sum_embedding, [3, 3, 3, 3])],
    ("E7", "a1b1^2b2"): _E7_A1D6 + [(1, so_sum_embedding, [3, 3, 5])],
    ("E7", "a1^3d4"): _E7_A1D6 + [(1, so_sum_embedding, [4, 8])],
    ("E7", "b1a3"): [(extended_deletion, {3}), (0, *_SO3), (1, *_SO3)],
    ("E7", "a2-alt4"): [(extended_deletion, {2}), _ADJOINT_A2],
    ("E7", "d4"): [(extended_deletion, {2}), _SO3],
    ("E7", "a1b1-sym4"): _E7_A1D6 + [
        (1, so_sum_embedding, [4, 8]),
        (diagonal_embedding, [[0, 1, 2], [3]]),
        (1, *_D4_TO_A2),
        (1, *_SO3),
    ],
    ("E6", "a1a5"): [(extended_deletion, {3})],
    ("E6", "a2^3"): [(extended_deletion, {4})],
    ("F4", "b4"): _F4_B4,
    ("F4", "a1c3"): [(extended_deletion, {1})],
    ("F4", "a2a2"): [(extended_deletion, {2})],
    ("F4", "a1a3"): [(extended_deletion, {3})],
    ("F4", "b1^3"): _F4_B4 + [(so_sum_embedding, [3, 3, 3])],
    ("F4", "b1b2"): _F4_B4 + [(so_sum_embedding, [3, 5])],
    ("F4", "a1^4"): _F4_B4 + [(so_sum_embedding, [4, 4])],
    ("F4", "d4"): _F4_D4,
    ("F4", "a2-alt4"): _F4_D4 + [_D4_TO_A2],
    ("F4", "b1-sym4"): _F4_D4 + [_D4_TO_A2, _SO3],
    ("G2", "a2"): [(extended_deletion, {1})],
    ("G2", "a1a1"): [(extended_deletion, {2})],
    ("G2", "b1"): [(extended_deletion, {1}), _SO3],
}


def chain_names(group: str) -> list:
    names = sorted(name for g, name in _CHAINS if g == group)
    if not names:
        raise KeyError(f"no chains registered for {group}")
    return names


@cache
def _build_chain(group: str, name: str) -> Embedding:
    emb = identity_embedding(root_system(group))
    for step in _CHAINS[group, name]:
        if isinstance(step[0], int):
            index, make, *args = step
            emb = refine_factor(emb, index, make(emb.source.factors[index], *args))
        else:
            make, *args = step
            emb = emb.then(make(emb.source, *args))
    return emb


def named_chain(group: str, name: str) -> Embedding:
    """A shipped embedding chain, e.g. ('E8', 'b2^3')."""
    if (group, name) not in _CHAINS:
        raise KeyError(f"no chain named {name!r} for {group}")
    return _build_chain(group, name)
