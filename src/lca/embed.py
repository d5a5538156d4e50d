"""Constructors for the subgroup embeddings used in branching computations.

Four primitives cover everything the audits need:

* subsystem embeddings from (iterated) extended-diagram node deletion;
* orthogonal block decompositions SO(n1) x ... x SO(nk) inside SO(n),
  with at most one discarded dimension;
* classical subgroups SO_n / Sp_n of SL_n, and more generally any subgroup
  of SL_n or SO_2k defined by the weights of its natural module;
* diagonal subgroups across equal factors of a product.

All weight maps are integer matrices on fundamental coordinates.  The only
non-integral step is the change to orthogonal coordinates, which has half
entries for types B and D; integrality is asserted after it.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import int_matrix, mat, matmul
from .repth import Embedding
from .rootsys import (
    ProductRootSystem,
    RootSystem,
    SemisimpleTypeLabel,
    SimpleType,
    build_root_system,
    classify_subdiagram,
    root_system,
)


def identity_embedding(rs) -> Embedding:
    n = rs.rank
    m = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return Embedding(rs, rs, m, rs.label())


def product_embedding(embs) -> Embedding:
    """Block product of embeddings between the factors of two products."""
    target = ProductRootSystem([e.target for e in embs])
    source = ProductRootSystem([e.source for e in embs])
    rows = []
    col_off = 0
    col_offsets = []
    for e in embs:
        col_offsets.append(col_off)
        col_off += e.target.rank
    total_cols = col_off
    for e, off in zip(embs, col_offsets):
        for row in e.matrix:
            full = [0] * total_cols
            full[off : off + len(row)] = row
            rows.append(tuple(full))
    return Embedding(source, target, tuple(rows))


def subsystem_embedding(rs: RootSystem, nodes) -> Embedding:
    """Embedding of the subsystem spanned by the given (key, root) pairs."""
    comps = classify_subdiagram(rs, nodes)
    coords = {k: c for k, c in nodes}
    factors = [build_root_system(st) for st, _ in comps]
    source = factors[0] if len(factors) == 1 else ProductRootSystem(factors)
    rows = []
    basis = [tuple(1 if j == i else 0 for j in range(rs.rank)) for i in range(rs.rank)]
    for _, ordered in comps:
        for key in ordered:
            beta = coords[key]
            rows.append(
                tuple(rs.pairing_with_coroot(basis[j], beta) for j in range(rs.rank))
            )
    return Embedding(source, rs, tuple(rows))


def extended_deletion(rs: RootSystem, removed) -> Embedding:
    """Maximal-rank subsystem from deleting nodes of the extended diagram.

    Node key 0 is the affine node; keys 1..rank are the simple roots.
    """
    removed = set(removed)
    nodes = [(k, c) for k, c in rs.extended_nodes() if k not in removed]
    return subsystem_embedding(rs, nodes)


def levi_embedding(rs: RootSystem, kept) -> Embedding:
    """Subsystem on a subset of the simple roots (a Levi factor's derived part)."""
    kept = set(kept)
    nodes = [(k, c) for k, c in rs.extended_nodes() if k != 0 and k in kept]
    return subsystem_embedding(rs, nodes)


# -- classical coordinate conversions ----------------------------------------


def _fund_to_eps(rs: RootSystem):
    """Matrix of the fundamental-to-orthogonal coordinate change (A/B/C/D)."""
    n = rs.rank
    fam = rs.type.family
    half = Fraction(1, 2)
    if fam == "A":
        return mat([[1 if j >= i else 0 for j in range(n)] for i in range(n + 1)])
    if fam == "B":
        return mat(
            [[1 if i <= j < n - 1 else (half if j == n - 1 else 0) for j in range(n)] for i in range(n)]
        )
    if fam == "C":
        return mat([[1 if j >= i else 0 for j in range(n)] for i in range(n)])
    if fam == "D":
        rows = []
        for i in range(n):
            row = [0] * n
            for j in range(i, n - 2):
                row[j] = 1
            if i <= n - 2:
                row[n - 2] = half
                row[n - 1] = half
            else:
                row[n - 2] = -half
                row[n - 1] = half
            rows.append(tuple(row))
        return tuple(rows)
    raise ValueError(f"no orthogonal coordinates for family {fam}")


def _eps_to_fund_rows(st: SimpleType):
    """Rows expressing fundamental coordinates in orthogonal coordinates."""
    n = st.rank
    rows = []
    if st.family == "B":
        for i in range(n - 1):
            rows.append({i: 1, i + 1: -1})
        rows.append({n - 1: 2})
    elif st.family == "C":
        for i in range(n - 1):
            rows.append({i: 1, i + 1: -1})
        rows.append({n - 1: 1})
    elif st.family == "D":
        for i in range(n - 2):
            rows.append({i: 1, i + 1: -1})
        rows.append({n - 2: 1, n - 1: -1})
        rows.append({n - 2: 1, n - 1: 1})
    else:
        raise ValueError(f"unsupported family {st.family}")
    return rows


def _dense_row(coeffs, width: int, offset: int = 0) -> tuple[int, ...]:
    """Integer row of length ``width`` with the sparse ``{t: c}`` placed from ``offset``."""
    return tuple(coeffs.get(j - offset, 0) for j in range(width))


def _classical_part(dim: int):
    """(factor types, eps-row maps) for one SO(dim) block, labelled as in the tables."""
    r = dim // 2
    if dim == 3:
        return [SimpleType("B", 1)], [[{0: 2}]]
    if dim == 4:
        return (
            [SimpleType("A", 1), SimpleType("A", 1)],
            [[{0: 1, 1: 1}], [{0: 1, 1: -1}]],
        )
    if dim == 6:
        # SO6 presented as A3: node order (e1-e2, e2-e3, e2+e3) re-ordered to a chain
        return (
            [SimpleType("A", 3)],
            [[{1: 1, 2: -1}, {0: 1, 1: -1}, {1: 1, 2: 1}]],
        )
    if dim % 2 == 1:
        return [SimpleType("B", r)], [_eps_to_fund_rows(SimpleType("B", r))]
    return [SimpleType("D", r)], [_eps_to_fund_rows(SimpleType("D", r))]


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
    fund_to_eps = _fund_to_eps(rs)
    factors = []
    rows = []
    offset = 0
    for p in parts:
        types, maps = _classical_part(p)
        for st, row_maps in zip(types, maps):
            factors.append(build_root_system(st))
            rows.extend(_dense_row(coeffs, rs.rank, offset) for coeffs in row_maps)
        offset += p // 2
    source = factors[0] if len(factors) == 1 else ProductRootSystem(factors)
    matrix = int_matrix(matmul(rows, fund_to_eps))
    return Embedding(source, rs, matrix)


def sl_to_classical(rs: RootSystem, kind: str) -> Embedding:
    """SO_n or Sp_n inside SL_n, acting on the natural module."""
    if rs.type.family != "A":
        raise ValueError("expected an ambient of type A")
    n = rs.rank + 1
    k = n // 2
    fund_to_eps = _fund_to_eps(rs)
    # z_t = y_t - y_{n+1-t}; kills the trace gauge
    fold_rows = [_dense_row({t: 1, n - 1 - t: -1}, n) for t in range(k)]
    if kind == "sp":
        if n % 2 == 1:
            raise ValueError("Sp needs even n")
        st = SimpleType("C", k)
        maps = _eps_to_fund_rows(st)
        factors = [build_root_system(st)]
        row_groups = [maps]
    elif kind == "so":
        if n % 2 == 1:
            types, row_groups = [SimpleType("B", k)], [_eps_to_fund_rows(SimpleType("B", k))]
        else:
            types, row_groups = _classical_part(n)
        factors = [build_root_system(t) for t in types]
    else:
        raise ValueError("kind must be 'so' or 'sp'")
    rows = [_dense_row(coeffs, k) for group in row_groups for coeffs in group]
    matrix = int_matrix(matmul(matmul(rows, fold_rows), fund_to_eps))
    source = factors[0] if len(factors) == 1 else ProductRootSystem(factors)
    return Embedding(source, rs, matrix)


def module_embedding(rs: RootSystem, source, weights) -> Embedding:
    """Subgroup of SL_n defined by the weights of its n-dimensional module.

    ``weights`` lists the source weights of the module in a fixed order; they
    must sum to zero so the map is independent of the trace gauge.
    """
    if rs.type.family != "A":
        raise ValueError("expected an ambient of type A")
    n = rs.rank + 1
    if len(weights) != n:
        raise ValueError(f"need {n} module weights, got {len(weights)}")
    if any(sum(w[j] for w in weights) != 0 for j in range(source.rank)):
        raise ValueError("module weights must sum to zero")
    fund_to_eps = _fund_to_eps(rs)
    rows = tuple(tuple(weights[i][j] for i in range(n)) for j in range(source.rank))
    matrix = int_matrix(matmul(rows, fund_to_eps))
    return Embedding(source, rs, matrix)


def orthogonal_module_embedding(rs: RootSystem, source, plane_weights) -> Embedding:
    """Subgroup of SO_2k defined by the plane weights of its natural module.

    The natural module must decompose into weight planes (w, -w); the list
    gives one weight per plane (zero entries allowed).
    """
    if rs.type.family != "D":
        raise ValueError("expected an ambient of type D")
    k = rs.rank
    if len(plane_weights) != k:
        raise ValueError(f"need {k} plane weights, got {len(plane_weights)}")
    fund_to_eps = _fund_to_eps(rs)
    rows = tuple(tuple(plane_weights[i][j] for i in range(k)) for j in range(source.rank))
    matrix = int_matrix(matmul(rows, fund_to_eps))
    return Embedding(source, rs, matrix)


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
    factors = list(emb.source.factors)
    embs = [identity_embedding(f) for f in factors]
    embs[index] = inner
    return emb.then(product_embedding(embs))


# -- named chains used by the tables ------------------------------------------

_A1 = lambda: root_system("A1")

_SYM4_A1_WEIGHTS = [(4,), (2,), (0,), (-2,), (-4,)]
_A2_ADJOINT_WEIGHTS = [
    (1, 1), (2, -1), (-1, 2), (0, 0), (0, 0), (1, -2), (-2, 1), (-1, -1),
]
_A2_ORTHOGONAL_PLANES = [(1, 1), (2, -1), (-1, 2), (0, 0)]


def _chain_builders():
    def e8(nodes):
        return lambda: extended_deletion(root_system("E8"), nodes)

    def e7(nodes):
        return lambda: extended_deletion(root_system("E7"), nodes)

    def d8_blocks(parts):
        def build():
            d8 = extended_deletion(root_system("E8"), {1})
            return d8.then(so_sum_embedding(root_system("D8"), parts))

        return build

    def b2_cubed():
        d8 = extended_deletion(root_system("E8"), {1})
        b2b5 = d8.then(so_sum_embedding(root_system("D8"), [5, 11]))
        with_d5 = refine_factor(b2b5, 1, extended_deletion(root_system("B5"), {5}))
        return refine_factor(with_d5, 1, so_sum_embedding(root_system("D5"), [5, 5]))

    def a1_d4():
        a1a7 = extended_deletion(root_system("E8"), {3})
        return refine_factor(a1a7, 1, sl_to_classical(root_system("A7"), "so"))

    def e8_b4():
        a8 = extended_deletion(root_system("E8"), {2})
        return a8.then(sl_to_classical(root_system("A8"), "so"))

    def e8_g12():
        a1a2a5 = extended_deletion(root_system("E8"), {4})
        step = refine_factor(a1a2a5, 1, sl_to_classical(root_system("A2"), "so"))
        return refine_factor(step, 2, sl_to_classical(root_system("A5"), "so"))

    def e8_sl23():
        a1a7 = extended_deletion(root_system("E8"), {3})
        inner = module_embedding(root_system("A7"), root_system("A2"), _A2_ADJOINT_WEIGHTS)
        return refine_factor(a1a7, 1, inner)

    def e8_sym5():
        a4a4 = extended_deletion(root_system("E8"), {5})
        inner = module_embedding(root_system("A4"), _A1(), _SYM4_A1_WEIGHTS)
        step = refine_factor(refine_factor(a4a4, 0, inner), 1, inner)
        return step.then(diagonal_embedding(step.source, [[0, 1]]))

    def e8_frob20():
        a4a4 = extended_deletion(root_system("E8"), {5})
        inner = sl_to_classical(root_system("A4"), "so")
        step = refine_factor(refine_factor(a4a4, 0, inner), 1, inner)
        return step.then(diagonal_embedding(step.source, [[0, 1]]))

    def d4_to_b1():
        inner = orthogonal_module_embedding(
            root_system("D4"), root_system("A2"), _A2_ORTHOGONAL_PLANES
        )
        return inner.then(sl_to_classical(root_system("A2"), "so"))

    def e8_sym4x2():
        blocks = d8_blocks([4, 4, 8])()
        step = blocks.then(
            diagonal_embedding(blocks.source, [[0], [1, 2, 3], [4]])
        )
        return refine_factor(step, 2, d4_to_b1())

    def e8_32dih8():
        a2e6 = extended_deletion(root_system("E8"), {7})
        a2_4 = refine_factor(a2e6, 1, extended_deletion(root_system("E6"), {4}))
        so3 = sl_to_classical(root_system("A2"), "so")
        for i in range(4):
            a2_4 = refine_factor(a2_4, i, so3)
        return a2_4.then(diagonal_embedding(a2_4.source, [[0, 1], [2, 3]]))

    def e7_blocks(parts):
        def build():
            a1d6 = extended_deletion(root_system("E7"), {1})
            return refine_factor(a1d6, 1, so_sum_embedding(root_system("D6"), parts))

        return build

    def e7_dih6():
        a2a5 = extended_deletion(root_system("E7"), {3})
        step = refine_factor(a2a5, 0, sl_to_classical(root_system("A2"), "so"))
        return refine_factor(step, 1, sl_to_classical(root_system("A5"), "so"))

    def e7_alt4():
        a7 = extended_deletion(root_system("E7"), {2})
        return a7.then(
            module_embedding(root_system("A7"), root_system("A2"), _A2_ADJOINT_WEIGHTS)
        )

    def e7_d4():
        a7 = extended_deletion(root_system("E7"), {2})
        return a7.then(sl_to_classical(root_system("A7"), "so"))

    def e7_sym4():
        blocks = e7_blocks([4, 8])()
        step = blocks.then(diagonal_embedding(blocks.source, [[0, 1, 2], [3]]))
        return refine_factor(step, 1, d4_to_b1())

    def f4_b4_blocks(parts):
        def build():
            b4 = extended_deletion(root_system("F4"), {4})
            return b4.then(so_sum_embedding(root_system("B4"), parts))

        return build

    def f4_d4():
        b4 = extended_deletion(root_system("F4"), {4})
        return b4.then(extended_deletion(root_system("B4"), {4}))

    def f4_alt4():
        return f4_d4().then(
            orthogonal_module_embedding(
                root_system("D4"), root_system("A2"), _A2_ORTHOGONAL_PLANES
            )
        )

    def f4_sym4():
        return f4_d4().then(d4_to_b1())

    def g2_b1():
        a2 = extended_deletion(root_system("G2"), {1})
        return a2.then(sl_to_classical(root_system("A2"), "so"))

    return {
        ("E8", "d8"): e8({1}),
        ("E8", "a1e7"): e8({8}),
        ("E8", "a8"): e8({2}),
        ("E8", "a2e6"): e8({7}),
        ("E8", "a1a7"): e8({3}),
        ("E8", "a3d5"): e8({6}),
        ("E8", "a4^2"): e8({5}),
        ("E8", "a1a2a5"): e8({4}),
        ("E8", "b2b5"): d8_blocks([5, 11]),
        ("E8", "b2^3"): b2_cubed,
        ("E8", "b1^5"): d8_blocks([3, 3, 3, 3, 3]),
        ("E8", "a1^8"): d8_blocks([4, 4, 4, 4]),
        ("E8", "a1^4d4"): d8_blocks([4, 4, 8]),
        ("E8", "a1^2b1^2b2"): d8_blocks([4, 3, 3, 5]),
        ("E8", "a1d4"): a1_d4,
        ("E8", "b4"): e8_b4,
        ("E8", "a1a1a3"): e8_g12,
        ("E8", "a1a2"): e8_sl23,
        ("E8", "a1-sym5"): e8_sym5,
        ("E8", "b2-frob20"): e8_frob20,
        ("E8", "a1a1a1"): e8_sym4x2,
        ("E8", "a1^2-3^2dih8"): e8_32dih8,
        ("E7", "a1d6"): e7({1}),
        ("E7", "a7"): e7({2}),
        ("E7", "a2a5"): e7({3}),
        ("E7", "a1a3^2"): e7({4}),
        ("E7", "a1b1^4"): e7_blocks([3, 3, 3, 3]),
        ("E7", "a1b1^2b2"): e7_blocks([3, 3, 5]),
        ("E7", "a1^3d4"): e7_blocks([4, 8]),
        ("E7", "b1a3"): e7_dih6,
        ("E7", "a2-alt4"): e7_alt4,
        ("E7", "d4"): e7_d4,
        ("E7", "a1b1-sym4"): e7_sym4,
        ("E6", "a1a5"): lambda: extended_deletion(root_system("E6"), {3}),
        ("E6", "a2^3"): lambda: extended_deletion(root_system("E6"), {4}),
        ("F4", "b4"): lambda: extended_deletion(root_system("F4"), {4}),
        ("F4", "a1c3"): lambda: extended_deletion(root_system("F4"), {1}),
        ("F4", "a2a2"): lambda: extended_deletion(root_system("F4"), {2}),
        ("F4", "a1a3"): lambda: extended_deletion(root_system("F4"), {3}),
        ("F4", "b1^3"): f4_b4_blocks([3, 3, 3]),
        ("F4", "b1b2"): f4_b4_blocks([3, 5]),
        ("F4", "a1^4"): f4_b4_blocks([4, 4]),
        ("F4", "d4"): f4_d4,
        ("F4", "a2-alt4"): f4_alt4,
        ("F4", "b1-sym4"): f4_sym4,
        ("G2", "a2"): lambda: extended_deletion(root_system("G2"), {1}),
        ("G2", "a1a1"): lambda: extended_deletion(root_system("G2"), {2}),
        ("G2", "b1"): g2_b1,
    }


_CHAINS = _chain_builders()
_chain_cache: dict = {}


def chain_names(group: str) -> list:
    return sorted(name for g, name in _CHAINS if g == group)


def named_chain(group: str, name: str) -> Embedding:
    """A shipped embedding chain, e.g. ('E8', 'b2^3')."""
    key = (group, name)
    if key not in _CHAINS:
        raise KeyError(f"no chain named {name!r} for {group}")
    if key not in _chain_cache:
        emb = _CHAINS[key]()
        _chain_cache[key] = Embedding(emb.source, emb.target, emb.matrix, name)
    return _chain_cache[key]
