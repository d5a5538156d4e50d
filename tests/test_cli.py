import dataclasses
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lca.cli import build_parser, run
from lca.embed import _CHAINS
from lca.fixdim import ADJOINT_DIMENSION, group_classes
from lca.rootsys import is_admissible
from lca.tabver import AUDITED_TABLES, TABLE_ALIASES, load_elements
from lca.torsion import eigenvalue_profile

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
DATA = os.path.join(SRC, "lca", "data")


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        status = run(list(argv))
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    return invoke


def test_roots(capture):
    status, out, _ = capture("roots", "E8")
    assert status == 0
    assert "240 roots" in out and "max 6" in out


def test_torsion_enum_matches_elements_table(capture):
    status, out, _ = capture("torsion-enum", "E8")
    assert status == 0
    rows = [line for line in out.splitlines() if line.startswith("| ") and "class" not in line and "---" not in line]
    assert len(rows) == 8
    assert any("A4^2" in r and "5A" in r for r in rows)
    assert any("A1*A2*A5" in r and "6A" in r for r in rows)


def test_trace(capture):
    status, out, _ = capture("trace", "E8", "3B")
    assert status == 0 and out.strip() == "5"
    status, out, _ = capture("trace", "E6", "3A")
    assert status == 0 and out.strip() == "-3"
    status, out, _ = capture("trace", "E8", "9Z")
    assert status == 2
    # outer classes of the automorphism-extended groups
    assert capture("trace", "AutE6", "2B") == (0, "26\n", "")
    assert capture("trace", "AutD4", "3A") == (0, "7\n", "")


def test_trace_names_its_group_canonically(capture):
    group_classes.cache_clear()
    for spelling in ("e8", " E8", "E8"):
        status, out, _ = capture("trace", spelling, "2A", "--json")
        assert status == 0 and json.loads(out)["group"] == "E8"
    assert group_classes.cache_info().currsize == 1


def test_fixdim(capture):
    status, out, _ = capture("fixdim", "--group", "E8", "--fusion", "2B^15,3B^20,5A^24")
    assert status == 0 and out.strip() == "3"
    status, out, _ = capture(
        "fixdim", "--group", "E8", "--fusion", "2A^12,2B^7,3B^8,4B^12,6A^8", "--json"
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["fixed_dimension"] == "31/3"
    assert payload["integral"] is False


def test_classify_2group(capture):
    status, out, _ = capture(
        "classify-2group", "--n", "16", "(-1^6,1^10)", "(-1^3,1^3,-1^3,1^7)"
    )
    assert status == 0
    assert out.strip() == "Q8, centralizer B1^3*B3"


def test_classical_centralizer(capture):
    status, out, _ = capture("classical-centralizer", "--ambient", "Sp10", "4", "6")
    assert status == 0 and out.strip() == "C2*C3"
    status, _, err = capture("classical-centralizer", "--ambient", "Sp10", "3", "7")
    assert status == 2 and "odd" in err


def test_branch(capture):
    status, out, _ = capture("branch", "E8", "b2^3", "--json")
    assert status == 0
    payload = json.loads(out)
    assert payload["dimension"] == 248
    assert payload["has_trivial_factor"] is False
    dims = sorted(f["dimension"] for f in payload["factors"])
    assert dims == [5, 5, 5, 10, 10, 10, 25, 25, 25, 64]
    status, out, _ = capture("branch", "E8")
    assert status == 0 and "b2^3" in out


def test_solve_traces(capture):
    status, out, _ = capture("solve-traces", "AutE6", "--json")
    assert status == 0
    payload = json.loads(out)
    rows = {r["class"]: (r["trace"], r["provenance"]) for r in payload["traces"]}
    assert rows["2B"] == ("26", "twisted-diagram")
    assert rows["3A"] == ("-3", "kac-computed")
    assert set(payload) == {"schema_version", "group", "traces"}


@pytest.mark.parametrize(
    "argv, want",
    [
        (("fixdim", "--group", "AutE6", "--fusion", "2B"), "52"),
        (("solve-traces", "AutD4"), "| 6A | -1 | twisted-diagram |"),
    ],
    ids=["fixdim", "solve-traces"],
)
def test_trace_verbs_need_no_tables(tmp_path, monkeypatch, capture, argv, want):
    # one group's traces come from Kac coordinates alone; no table is read,
    # and none was read by an earlier test warming the per-process values
    group_classes.cache_clear()
    eigenvalue_profile.cache_clear()
    monkeypatch.setenv("LCA_DATA_DIR", str(tmp_path))
    status, out, err = capture(*argv)
    assert (status, err) == (0, "")
    assert want in out.splitlines()


def test_torsion_enum_reads_only_the_elements_table(tmp_path, monkeypatch, capture):
    shutil.copy(os.path.join(DATA, "table_elements.txt"), tmp_path)
    monkeypatch.setenv("LCA_DATA_DIR", str(tmp_path))
    status, out, err = capture("torsion-enum", "G2", "--json")
    assert (status, err) == (0, "")
    assert [c["class"] for c in json.loads(out)["classes"]] == ["2A", "3A"]


def test_verify_exit_codes(capture):
    status, out, _ = capture("verify", "--all")
    assert status == 0
    assert "ok: True" in out
    status, out, _ = capture("verify", "--table", "e8")
    assert status == 0
    status, out, _ = capture("verify", "--table", "10")
    assert status == 0
    status, _, err = capture("verify", "--table", "nonsense")
    assert status == 2


def test_verify_json_schema(capture):
    status, out, _ = capture("verify", "--table", "g2", "--json")
    assert status == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["ok"] is True
    assert all(e["status"] == "pass" for e in payload["entries"])


def test_deterministic_output(capture):
    first = capture("verify", "--all")
    second = capture("verify", "--all")
    assert first == second
    first = capture("torsion-enum", "E7", "--json")
    second = capture("torsion-enum", "E7", "--json")
    assert first == second


def test_usage_errors(capture):
    status, _, _ = capture("no-such-verb")
    assert status == 2
    status, _, _ = capture()
    assert status == 2
    for argv, message in [
        (("classify-2group", "--n", "-2", "(1^2)"), "argument --n: must be positive, got -2"),
        (("classify-2group", "--n", "0", "(1^2)"), "argument --n: must be positive, got 0"),
        (("classical-centralizer", "--ambient", "SO8", "0"),
         "argument blocks: must be positive, got 0"),
        (("classical-centralizer", "--ambient", "SO8", "-3", "11"),
         "argument blocks: must be positive, got -3"),
    ]:
        status, out, err = capture(*argv)
        assert (status, out) == (2, "")
        assert err.endswith(f"error: {message}\n"), err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["branch", "E8", "nonsense"], "no chain named 'nonsense' for E8"),
        (["branch", "Q9"], "no chains registered for Q9"),
        (["fixdim", "--group", "E8", "--fusion", "2Z^3"], "no trace for class 2Z of E8"),
        (["trace", "E8", "9Z"], "no class '9Z' in E8"),
        (["verify", "--table", "nonsense"], "unknown table 'nonsense'"),
        (["fixdim", "--group", "E8", "--fusion", "2A,,^2"],
         "empty class label in fusion token '^2'"),
        (["fixdim", "--group", "E8", "--fusion", "^3"], "empty class label in fusion token '^3'"),
        (["classical-centralizer", "--ambient", "SO", "4"], "ambient must be Sp2n or SOn, got 'SO'"),
        (["classical-centralizer", "--ambient", "Sp", "4"], "ambient must be Sp2n or SOn, got 'Sp'"),
    ],
    ids=[
        "unknown-chain",
        "group-without-chains",
        "fixdim-unknown-class",
        "trace-unknown-class",
        "verify-unknown-table",
        "fusion-empty-label",
        "fusion-lone-count",
        "ambient-SO-without-dimension",
        "ambient-Sp-without-dimension",
    ],
)
def test_lookup_errors_are_unquoted(capture, argv, message):
    assert capture(*argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "vectors, text, torus_blocks",
    [
        (["(-1^2,1^2)", "(1^2,-1^2)", "(-1,1,-1,1)"], "Q8x2, centralizer 1\n", 0),
        (["(-1^2,1^2)", "(-1^4)"], "4x2, centralizer 1, 2 torus block(s)\n", 2),
    ],
    ids=["Q8x2", "4x2"],
)
def test_classify_2group_empty_centralizer_is_printed_as_1(capture, vectors, text, torus_blocks):
    assert capture("classify-2group", "--n", "4", *vectors) == (0, text, "")
    status, out, _ = capture("classify-2group", "--n", "4", *vectors, "--json")
    assert status == 0
    payload = json.loads(out)
    assert payload["centralizer"] == "1"
    assert payload["torus_blocks"] == torus_blocks


def test_verify_exit_one_when_flags_removed(tmp_path, monkeypatch, capsys):
    import shutil

    for name in os.listdir(DATA):
        text = open(os.path.join(DATA, name)).read().replace("|expect-dim-mismatch", "|")
        (tmp_path / name).write_text(text)
    monkeypatch.setenv("LCA_DATA_DIR", str(tmp_path))
    status = run(["verify", "--all"])
    out = capsys.readouterr().out
    assert status == 1
    assert "ok: False" in out
    shutil.rmtree(tmp_path, ignore_errors=True)


@pytest.mark.parametrize(
    "name,line,new,where",
    [
        ("table_e8.txt", "E8|2^2|4|D4^2|2B^3|||", "E8|2^2|4|D4^2|2B^x|||",
         "table_e8.txt line 6: field fusion:"),
        ("table_e8.txt", "E8|2^2|4|D4^2|2B^3|||", "E8|2^2|4|D4^2|^3|||",
         "table_e8.txt line 6: field fusion: empty class label in fusion token '^3'"),
        ("table_elements.txt", "E8|2B|2|D8||", "E8|2B|two|D8||",
         "table_elements.txt line 8: field order:"),
        ("table_elements.txt", "E8|3A|3|A8||", "E8|3A|3|H8||",
         "table_elements.txt line 9: field centralizer:"),
    ],
    ids=["fusion", "fusion-empty-label", "order", "centralizer"],
)
def test_malformed_table_field_is_located(tmp_path, monkeypatch, capture, name, line, new, where):
    for fname in os.listdir(DATA):
        text = open(os.path.join(DATA, fname)).read()
        if fname == name:
            assert line + "\n" in text
            text = text.replace(line + "\n", new + "\n")
        (tmp_path / fname).write_text(text)
    monkeypatch.setenv("LCA_DATA_DIR", str(tmp_path))
    status, out, err = capture("verify", "--all")
    assert status == 2
    assert out == ""
    assert err.startswith(f"error: {where}")


ROW_COLUMNS = (
    "group", "F_name", "F_order", "centralizer", "fusion", "p_constraint", "overgroup", "flags"
)
ELEMENT_COLUMNS = ("group", "class", "order", "centralizer", "annotation", "p_constraint")


def _shipped_lines():
    """(file name, line number, column names) of every shipped data line."""
    out = []
    for name in sorted(os.listdir(DATA)):
        columns = ELEMENT_COLUMNS if name == "table_elements.txt" else ROW_COLUMNS
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if line.strip() and not line.startswith("#"):
                    out.append((name, lineno, columns))
    return out


SHIPPED_LINES = _shipped_lines()


@pytest.mark.parametrize(
    "field",
    [
        "group", "F_name", "F_order", "centralizer", "fusion", "p_constraint", "overgroup",
        "order", "class",
    ],
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_corrupted_field_of_any_shipped_line_is_located(field, data):
    name, lineno, columns = data.draw(
        st.sampled_from([line for line in SHIPPED_LINES if field in line[2]])
    )
    # each token fails every field's parser or cross-field check
    bad = data.draw(st.sampled_from(("?^?", "^x", "x^")))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for fname in os.listdir(DATA):
            with open(os.path.join(DATA, fname), encoding="utf-8") as fh:
                lines = fh.read().split("\n")
            if fname == name:
                parts = lines[lineno - 1].split("|")
                parts[columns.index(field)] = bad
                lines[lineno - 1] = "|".join(parts)
            with open(os.path.join(tmp, fname), "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines))
        env = mock.patch.dict(os.environ, {"LCA_DATA_DIR": tmp})
        with env, redirect_stdout(out), redirect_stderr(err):
            status = run(["verify", "--all"])
    assert (status, out.getvalue()) == (2, "")
    assert err.getvalue().startswith(f"error: {name} line {lineno}: field {field}:"), err.getvalue()


def test_verify_all_json_matches_golden(capture):
    """``verify --all --json`` byte for byte, as captured before any speedup."""
    path = os.path.join(os.path.dirname(__file__), "golden", "verify_all.json")
    with open(path, encoding="utf-8") as fh:
        frozen = fh.read()
    assert capture("verify", "--all", "--json") == (0, frozen, "")


def test_missing_table_files_are_an_error(tmp_path, monkeypatch, capture):
    monkeypatch.setenv("LCA_DATA_DIR", str(tmp_path))
    status, out, err = capture("verify", "--all")
    assert status == 2
    assert out == ""
    assert err.startswith("error: ") and "No such file" in err


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def test_module_invocation_runs_the_cli():
    result = subprocess.run(
        [sys.executable, "-m", "lca.cli", "roots", "G2"],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("G2: rank 2, 12 roots, adjoint dimension 14\n")


def test_closed_stdout_ends_the_cli_by_sigpipe():
    # a reader that stops early, like `lca ... | head -0`, is not a usage error
    proc = subprocess.Popen(
        [sys.executable, "-m", "lca.cli", "trace", "E8", "2A"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (-signal.SIGPIPE, b"")


# one fusion per table group, each naming more than one class
FUSIONS = {
    "E8": "2A^12,2B^7,3B^8,4B^12,6A^8",
    "E7": "2A,4A^2",
    "E6": "2A^3,3A^2",
    "F4": "2A,2B^2",
    "G2": "2A^3,3A^2",
    "AutE6": "2A,4A^2",
    "AutD4": "2A,2B,2C",
}


def _clear_process_caches():
    group_classes.cache_clear()
    eigenvalue_profile.cache_clear()
    build_parser.cache_clear()


def test_answers_in_one_process_equal_fresh_answers(capture):
    """Warm answers, twice over, equal answers computed after clearing every cache."""
    usage_error = ["fixdim", "--group", "E9", "--fusion", "2A"]
    lookup_error = ["trace", "E8", "9Z"]
    argvs = [["fixdim", "--group", g, "--fusion", f] for g, f in FUSIONS.items()]
    argvs.append(usage_error)
    argvs += [["solve-traces", g] for g in FUSIONS]
    argvs.append(lookup_error)
    argvs += [
        ["trace", g, c.name, "--power", str(power)]
        for g in FUSIONS
        for c in group_classes(g)
        for power in range(c.order + 1)
    ]
    argvs += [["torsion-enum", g, "--json"] for g in FUSIONS]
    fresh = []
    for argv in argvs:
        _clear_process_caches()
        fresh.append(capture(*argv))
    errors = [(argv, rc) for argv, (rc, _, _) in zip(argvs, fresh) if rc]
    assert errors == [(usage_error, 2), (lookup_error, 2)]
    _clear_process_caches()
    for _ in range(2):
        assert [capture(*argv) for argv in argvs] == fresh


def test_cached_classes_are_shared_and_frozen():
    classes = group_classes("E8")
    assert group_classes("E8") is classes
    with pytest.raises(dataclasses.FrozenInstanceError):
        classes[0].name = "2Z"
    with pytest.raises(dataclasses.FrozenInstanceError):
        classes[0].kac.labels = (1,) * 9


# The CLI grammar: a well-formed query of any verb, or one with one token
# replaced or appended by a malformed one.  Simple types stop at rank 8, so
# every drawn query stays cheap.
CLASSES = sorted(load_elements())  # (table group, class label)
SIMPLE_TYPES = [
    f"{family}{rank}" for family in "ABCDEFG" for rank in range(1, 9) if is_admissible(family, rank)
]
TABLE_GROUP = st.sampled_from(sorted(ADJOINT_DIMENSION))
TYPE = st.sampled_from(SIMPLE_TYPES + sorted(ADJOINT_DIMENSION) + ["e8", " G2 "])
MALFORMED = st.sampled_from(
    ["", "x", "-", "--", "^", "(", "(1,", "-1", "0", "9Z", "2A^0", "2A^-1", "E9", "A0", "D2",
     "Q3", "AutE7", "SO", "Sp7", "--power", "--json", "--all", "--bogus"]
)


def _fusion(group, counts):
    labels = [label for g, label in CLASSES if g == group]
    return ",".join(f"{labels[i % len(labels)]}^{c}" for i, c in counts)


def _sign_vectors(n):
    vector = st.lists(st.sampled_from(["-1", "1"]), min_size=n, max_size=n)
    return st.lists(vector.map(lambda signs: f"({','.join(signs)})"), min_size=1, max_size=3)


def _blocks(ambient, blocks):
    # SO blocks may leave one dimension over
    dim = sum(blocks) + (ambient == "SO+1")
    return (f"{ambient[:2]}{dim}", *map(str, blocks))


VALID = st.one_of(
    st.tuples(st.just("roots"), TYPE),
    st.tuples(st.just("torsion-enum"), TYPE),
    st.builds(lambda key: ("trace", *key), st.sampled_from(CLASSES)),
    st.builds(
        lambda key, power: ("trace", *key, "--power", str(power)),
        st.sampled_from(CLASSES), st.integers(-3, 12),
    ),
    st.builds(lambda key: ("branch", *key), st.sampled_from(sorted(_CHAINS))),
    st.builds(lambda group: ("branch", group), st.sampled_from(sorted({g for g, _ in _CHAINS}))),
    st.builds(
        lambda group, fusion: ("fixdim", "--group", group, "--fusion", fusion),
        TABLE_GROUP,
        st.builds(
            _fusion, TABLE_GROUP,
            st.lists(st.tuples(st.integers(0, 7), st.integers(1, 30)), min_size=1, max_size=4),
        ),
    ),
    st.integers(1, 8).flatmap(
        lambda n: _sign_vectors(n).map(lambda vs: ("classify-2group", "--n", str(n), *vs))
    ),
    st.builds(
        lambda blocks: ("classical-centralizer", "--ambient", *blocks),
        st.builds(
            _blocks, st.sampled_from(["Sp", "SO", "SO+1"]),
            st.lists(st.integers(1, 8), min_size=1, max_size=3),
        ),
    ),
    st.tuples(st.just("solve-traces"), TABLE_GROUP),
    st.tuples(st.just("verify"), st.just("--table"), st.sampled_from([*TABLE_ALIASES, *AUDITED_TABLES])),
    st.just(("verify", "--all")),
)


def _corrupt(argv, index, token):
    argv = list(argv)
    index %= len(argv) + 1
    argv[index:index + 1] = [token]
    return argv


ARGV = st.one_of(
    VALID.map(list),
    VALID.map(lambda argv: [*argv, "--json"]),
    st.builds(_corrupt, VALID, st.integers(0, 7), MALFORMED),
)


@settings(max_examples=200, deadline=None)
@given(argv=ARGV)
def test_every_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = run(argv)
    assert status in (0, 1, 2)
    assert (status == 2) == bool(err.getvalue()), err.getvalue()
