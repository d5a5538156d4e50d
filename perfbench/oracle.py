"""Answer oracles.  Each check returns None for a right answer, else a reason.

They compare only what the answer means: statuses, values, factor lists and
type labels, never prose such as audit details, provenance tags or finding
messages, so that a rewording of the output does not count as a wrong answer.
"""

from __future__ import annotations

import json
import os
from collections import Counter

from gen import label_dimension

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def query_key(argv) -> str:
    return " ".join(argv)


def audit_answer(payload: dict) -> dict:
    rows = sorted(
        [e["table"], e["row_id"], e["check"], e["status"]] for e in payload["entries"]
    )
    return {"entries": rows, "totals": dict(sorted(Counter(r[3] for r in rows).items()))}


def branch_answer(payload: dict) -> dict:
    return {
        "source": payload["source"],
        "dimension": payload["dimension"],
        "factors": [[f["weight"], f["multiplicity"], f["dimension"]] for f in payload["factors"]],
        "has_trivial_factor": payload["has_trivial_factor"],
    }


def calc_answer(verb: str, payload: dict):
    if verb == "fixdim":
        return [payload["fixed_dimension"], payload["integral"]]
    if verb == "trace":
        return payload["trace"]
    if verb == "torsion-enum":
        return [
            [c["class"], c["order"], c["labels"], c["centralizer"], c["trace"], c["eigenvalue_counts"]]
            for c in payload["classes"]
        ]
    if verb == "solve-traces":
        return sorted([t["class"], t["trace"]] for t in payload["traces"])
    if verb == "classify-2group":
        return [payload["group"], payload["order"], payload["centralizer"], payload["torus_blocks"]]
    if verb == "classical-centralizer":
        return payload["centralizer"]
    raise ValueError(f"no oracle for verb {verb!r}")


def answer(argv, stdout: str):
    """The meaning of one CLI answer, as the reference stores it."""
    payload = json.loads(stdout)
    verb = argv[0]
    if verb == "verify":
        return audit_answer(payload)
    if verb == "branch":
        return branch_answer(payload)
    return calc_answer(verb, payload)


def check(argv, stdout: str, reference: dict, fixdim_row=None):
    """None if the answer to ``argv`` is right, else the reason it is wrong.

    ``fixdim_row`` is (printed centralizer, flagged) for a fixdim query; an
    unflagged row must give exactly its printed centralizer dimension, which
    checks the answer without the reference.
    """
    try:
        got = answer(argv, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable answer: {exc!r}"
    if argv[0] == "branch":
        want_dim = label_dimension(argv[1])
        if got["dimension"] != want_dim:
            return f"dimension {got['dimension']}, adjoint dimension is {want_dim}"
        if sum(m * d for _, m, d in got["factors"]) != want_dim:
            return "factor dimensions do not add up to the adjoint dimension"
    if fixdim_row is not None and not fixdim_row[1]:
        want = str(label_dimension(fixdim_row[0]))
        return None if got == [want, True] else f"fixed dimension {got}, printed {want}"
    key = query_key(argv)
    if key not in reference:
        return f"no reference answer for {key!r}"
    if got != reference[key]:
        return f"answer differs from the reference: {json.dumps(got)[:200]}"
    return None
