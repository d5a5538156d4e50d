"""Seeded inputs for the three workloads.

Every input is drawn from the tables shipped in ``src/lca/data`` or from the
sign-vector sets in ``sign_vector_sets.json`` (copied from the spin2 golden
tests).  The seed chooses the order of the branch chains and, inside each
calculator block, the order of the kinds and the instance of each kind; it
never changes how many queries of each kind a block holds.
"""

from __future__ import annotations

import glob
import json
import os
import random
import re

HERE = os.path.dirname(os.path.abspath(__file__))

# The groups the ``trace`` and ``torsion-enum`` verbs accept: simple types.
SIMPLE_GROUPS = ("E8", "E7", "E6", "F4", "G2")

# One calculator block.  fixdim and solve-traces rebuild every trace
# (about 0.4 s each, warm); the other kinds take milliseconds, except the E8
# trace and the larger torsion-enum queries.  Ten of the fifteen queries sit
# in the slow cluster, so the median and the tail both fall inside it on
# every seed, and a cut in trace assembly moves both.
CALC_BLOCK = (
    ("fixdim", 8),
    ("solve-traces", 2),
    ("trace", 2),
    ("torsion-enum", 1),
    ("classify-2group", 1),
    ("classical-centralizer", 1),
)

AUDIT_ARGV = ("verify", "--all", "--json")


def _data_lines(data_dir: str, pattern: str):
    for path in sorted(glob.glob(os.path.join(data_dir, pattern))):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    yield line.split("|")


def subgroup_rows(data_dir: str):
    """(group, centralizer, fusion, flagged) for every table row with a fusion."""
    return [
        (group, cent, fusion, "expect-" in flags)
        for group, _name, _order, cent, fusion, _p, _over, flags in (
            f for f in _data_lines(data_dir, "table_*.txt") if len(f) == 8
        )
        if fusion
    ]


def element_classes(data_dir: str):
    """(group, class, order) from the elements table."""
    return [(f[0], f[1], int(f[2])) for f in _data_lines(data_dir, "table_elements.txt")]


def sign_vector_sets():
    with open(os.path.join(HERE, "sign_vector_sets.json"), encoding="utf-8") as fh:
        return json.load(fh)


def expand_signs(text: str) -> list:
    """'(-1^3,1^5)' -> [-1, -1, -1, 1, 1, 1, 1, 1]."""
    out = []
    for token in text.strip("()").split(","):
        value, _, power = token.partition("^")
        out.extend([int(value)] * int(power or 1))
    return out


def eigen_blocks(vectors) -> list:
    """Sizes of the joint eigenspaces of commuting sign vectors, in order."""
    signs = [expand_signs(v) for v in vectors]
    sizes: dict = {}
    for column in zip(*signs):
        sizes[column] = sizes.get(column, 0) + 1
    return list(sizes.values())


def calc_candidates(data_dir: str) -> dict:
    """Every calculator query, grouped by kind, as argv lists.

    fixdim entries carry the printed centralizer and the flag, which the
    oracle needs; the other kinds are bare argv lists.
    """
    rows = subgroup_rows(data_dir)
    classes = [c for c in element_classes(data_dir) if c[0] in SIMPLE_GROUPS]
    sets = sign_vector_sets()
    classical = []
    for s in sets:
        blocks = eigen_blocks(s["vectors"])
        classical.append(["--ambient", f"Sp{2 * s['n']}", *(str(2 * b) for b in blocks)])
        big = [b for b in blocks if b >= 3]
        if len(blocks) - len(big) <= 1 and sum(blocks) - sum(big) <= 1:
            classical.append(["--ambient", f"SO{s['n']}", *map(str, big)])
    return {
        "fixdim": [
            (["fixdim", "--group", g, "--fusion", fusion, "--json"], cent, flagged)
            for g, cent, fusion, flagged in rows
        ],
        "solve-traces": [
            ["solve-traces", g, "--json"] for g in sorted({r[0] for r in rows})
        ],
        "trace": [
            ["trace", g, c, "--power", str(p), "--json"]
            for g, c, order in classes
            for p in range(1, order + 1)
        ],
        "torsion-enum": [
            ["torsion-enum", g, "--json"] for g in sorted({c[0] for c in classes})
        ],
        "classify-2group": [
            ["classify-2group", "--n", str(s["n"]), *s["vectors"], "--json"] for s in sets
        ],
        "classical-centralizer": [
            ["classical-centralizer", *args, "--json"] for args in classical
        ],
    }


def branch_stream(chains, seed: int):
    """Endless seed-ordered passes over every registered (group, chain)."""
    rng = random.Random(seed)
    while True:
        for group, chain in rng.sample(sorted(chains), len(chains)):
            yield ["branch", group, chain, "--json"]


def calc_stream(candidates: dict, seed: int):
    """Endless calculator blocks of (argv, fixdim row or None)."""
    rng = random.Random(seed)
    kinds = [kind for kind, weight in CALC_BLOCK for _ in range(weight)]
    while True:
        for kind in rng.sample(kinds, len(kinds)):
            pick = rng.choice(candidates[kind])
            if kind == "fixdim":
                argv, cent, flagged = pick
                yield argv, (cent, flagged)
            else:
                yield pick, None


def label_dimension(label: str) -> int:
    """Dimension of a semisimple type label such as '~A1^2*B1^2*B2'."""
    total = 0
    for factor in label.split("*"):
        m = re.fullmatch(r"~?([A-G])(\d+)(?:\^(\d+))?", factor)
        if m is None:
            raise ValueError(f"cannot read centralizer label {label!r}")
        family, n, power = m.group(1), int(m.group(2)), int(m.group(3) or 1)
        exceptional = {("E", 6): 78, ("E", 7): 133, ("E", 8): 248, ("F", 4): 52, ("G", 2): 14}
        if family == "A":
            dim = n * (n + 2)
        elif family in "BC":
            dim = n * (2 * n + 1)
        elif family == "D":
            dim = n * (2 * n - 1)
        else:
            dim = exceptional[(family, n)]
        total += power * dim
    return total
