import gc
import io
import json
import os
import re
import runpy
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lca import cli, tabver, torsion
from lca.cli import _table_groups, _verbs, build_parser, run
from lca.embed import _CHAINS
from lca.fixdim import ADJOINT_DIMENSION, solve_traces
from lca.repth import _freudenthal_multiplicities, adjoint_character
from lca.rootsys import (
    TWISTED_GROUPS, SimpleType, _classified, build_root_system, cartan_matrix, is_admissible
)
from lca.tabver import (
    AUDITED_TABLES, TABLE_ALIASES, _read_table, element_annotations, load_elements
)
from lca.torsion import (
    _twisted_fixed_subsystem, adjoint_trace, eigenvalue_profile, graded_weights
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
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
    # AutE6's entry reuses E6's, so its spellings fill two entries, not four
    for group, cls, spellings, entries in (
        ("E8", "2A", ("e8", " E8"), 1),
        ("AutE6", "2B", ("aute6", " AutE6"), 2),
    ):
        solve_traces.cache_clear()
        for spelling in (*spellings, group):
            status, out, _ = capture("trace", spelling, cls, "--json")
            assert status == 0 and json.loads(out)["group"] == group
        assert solve_traces.cache_info().currsize == entries


def test_only_table_groups_keep_their_classes(capture):
    """A type named on the command line is enumerated per query, never kept."""
    solve_traces.cache_clear()
    for n in range(1, 11):
        assert capture("trace", f"A{n}", "2A")[0] == 2  # A_n names its classes 2?, 3?, ...
    assert capture("trace", "D4", "2A") == (0, "-4\n", "")
    assert solve_traces.cache_info().currsize == 0
    for group in ADJOINT_DIMENSION:
        assert capture("torsion-enum", group)[0] == 0
    assert solve_traces.cache_info().currsize == 7


PER_TYPE_CACHES = (build_root_system, cartan_matrix, _classified, eigenvalue_profile, graded_weights)


def test_per_type_caches_hold_the_working_set_and_stay_bounded(capture):
    """The audit's and the calculator's entries all fit; types named on the
    command line beyond them evict the least recently used."""
    _clear_process_caches()
    for cached in PER_TYPE_CACHES:
        cached.cache_clear()
    assert capture("verify", "--all", "--json")[0] == 0
    for group in ADJOINT_DIMENSION:
        assert capture("torsion-enum", group, "--json")[0] == 0
        assert capture("solve-traces", group)[0] == 0
        for c in solve_traces(group).values():
            for power in range(1, c.order + 1):
                assert capture("trace", group, c.name, "--power", str(power))[0] == 0
    for cached in PER_TYPE_CACHES:
        info = cached.cache_info()
        assert info.misses == info.currsize, cached.__wrapped__  # nothing evicted
    for name in [f"B{n}" for n in range(2, 12)] + [f"C{n}" for n in range(3, 9)]:
        assert capture("trace", name, "2?")[0] == 0  # classical types name their classes 2?, ...
        assert capture("torsion-enum", name)[0] == 0
    for cached in PER_TYPE_CACHES:
        info = cached.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, cached.__wrapped__
    twisted_diagrams = sum(len(fixed) for _, fixed in TWISTED_GROUPS.values())
    assert _twisted_fixed_subsystem.cache_info().currsize <= twisted_diagrams


def test_a_rebuilt_root_system_equals_the_evicted_one():
    old = build_root_system(SimpleType.parse("E8"))
    build_root_system.cache_clear()
    new = build_root_system(SimpleType.parse("E8"))
    assert new is not old and new == old and hash(new) == hash(old)
    assert new != build_root_system(SimpleType.parse("E7"))


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


@pytest.mark.parametrize("fusion, count", [("2A^x", "'x'"), ("2A^", "''"), ("2B^3,2A^x", "'x'")])
def test_fixdim_names_a_malformed_count(capture, fusion, count):
    token = fusion.rpartition(",")[2]
    assert capture("fixdim", "--group", "E8", "--fusion", fusion) == (
        2, "", f"error: bad count {count} in fusion token '{token}'\n"
    )


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
    solve_traces.cache_clear()
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


def test_torsion_enum_reads_the_elements_table_once_per_directory(tmp_path, monkeypatch, capture):
    """Three queries read the file once; another LCA_DATA_DIR is read afresh, and a
    malformed file fails with its located error on every query."""
    element_annotations.cache_clear()
    reads = Counter()

    def counted(path, fields):
        reads[os.path.basename(path)] += 1
        return _read_table(path, fields)

    monkeypatch.setattr(tabver, "_read_table", counted)
    answers = [capture("torsion-enum", "E7", "--json") for _ in range(3)]
    assert reads == {"table_elements.txt": 1}
    assert answers[0] == answers[1] == answers[2] and answers[0][0] == 0
    assert '"component_annotation": ".2"' in answers[0][1]
    edited, malformed = tmp_path / "edited", tmp_path / "malformed"
    for directory, new in ((edited, "E7|2B|2|A7|.4|"), (malformed, "E7|2B|two|A7|.2|")):
        directory.mkdir()
        text = open(os.path.join(DATA, "table_elements.txt")).read()
        (directory / "table_elements.txt").write_text(text.replace("E7|2B|2|A7|.2|", new))
    monkeypatch.setenv("LCA_DATA_DIR", str(edited))
    status, out, _ = capture("torsion-enum", "E7")
    assert status == 0 and "| A7.4 | -7 |" in out
    monkeypatch.setenv("LCA_DATA_DIR", str(malformed))
    for _ in range(2):
        assert capture("torsion-enum", "E7") == (
            2, "", "error: table_elements.txt line 16: field order: invalid literal for int()"
            " with base 10: 'two'\n"
        )
    assert reads == {"table_elements.txt": 4}


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
        (("fixdim", "--group", "E8", "--fusion", "2A", "extra"), "unrecognized arguments: extra"),
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


@pytest.mark.parametrize("flags", ["shipped", "removed"])
def test_verify_table_is_a_slice_of_all(tmp_path, monkeypatch, capture, flags):
    """``verify --table t --json``, for every table id and alias, answers the ``--all``
    entries of that table, with the ``ok`` and exit status those entries give."""
    if flags == "removed":
        for name in os.listdir(DATA):
            text = open(os.path.join(DATA, name)).read().replace("|expect-dim-mismatch", "|")
            (tmp_path / name).write_text(text)
        monkeypatch.setenv("LCA_DATA_DIR", str(tmp_path))
    everything = json.loads(capture("verify", "--all", "--json")[1])["entries"]
    oks = {}
    for table in (*AUDITED_TABLES, *TABLE_ALIASES):
        name = TABLE_ALIASES.get(table, table)
        entries = [e for e in everything if e["table"] == name]
        oks[name] = all(e["status"] != "fail" for e in entries)
        status, out, err = capture("verify", "--table", table, "--json")
        assert entries and json.loads(out) == {"ok": oks[name], "entries": entries, "schema_version": 1}
        assert (status, err) == (0 if oks[name] else 1, ""), table
    failing = {name for name, ok in oks.items() if not ok}
    assert failing == (set() if flags == "shipped" else {"e8", "e6", "aute6"})


@pytest.mark.parametrize(
    "name,line,new,where",
    [
        ("table_e8.txt", "E8|2^2|4|D4^2|2B^3|||", "E8|2^2|4|D4^2|2B^x|||",
         "table_e8.txt line 6: field fusion: bad count 'x' in fusion token '2B^x'"),
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


def test_calculator_matches_golden(capture):
    """``solve-traces`` and ``torsion-enum``, as text and ``--json``, for every table
    group (``torsion-enum`` for D4 too), byte for byte, as captured before a refactor."""
    path = os.path.join(os.path.dirname(__file__), "golden", "calculator.txt")
    with open(path, encoding="utf-8") as fh:
        sections = re.split(r"^### (.+)\n", fh.read(), flags=re.M)
    frozen = dict(zip(sections[1::2], sections[2::2]))
    queries = [("solve-traces", g) for g in ADJOINT_DIMENSION]
    queries += [("torsion-enum", g) for g in (*ADJOINT_DIMENSION, "D4")]
    assert sections[0] == "" and len(frozen) == 30
    assert set(frozen) == {" ".join(q + tail) for q in queries for tail in ((), ("--json",))}
    for heading, out in frozen.items():
        assert capture(*heading.split()) == (0, out, ""), heading


JSON_STRINGS = st.text() | st.text(st.sampled_from('a "\\/\x00\x1f\x7f\u00e9\u2028\u2029\U0001f600'))
JSON_VALUES = st.recursive(
    JSON_STRINGS | st.integers() | st.integers(-2**70, 2**70) | st.booleans() | st.none()
    | st.just([]) | st.just({}),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_STRINGS, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_emitter_writes_what_the_stdlib_encoder_writes(value):
    assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, {"a": [0.0]}, {1, 2}, (1, 2), {1: "a"}, {"a": 1, 2: "b"}])
def test_emitter_refuses_what_no_answer_holds(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


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


def _fresh_modules(code):
    """Run ``code`` in a fresh interpreter; each lca module, and fractions, as
    "executed" or "lazy" (registered, its code not yet run) or absent."""
    probe = code + (
        "\nimport json, sys, types\n"
        "print(json.dumps({n: 'executed' if type(m) is types.ModuleType else 'lazy'"
        " for n, m in sys.modules.items() if n == 'fractions' or n.startswith('lca.')}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_cli_env(), timeout=60
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_importing_the_cli_registers_every_traced_module_and_runs_none():
    # perfbench/tracer.py patches these modules right after `import lca.cli`
    boundaries = runpy.run_path(os.path.join(ROOT, "perfbench", "tracer.py"))["BOUNDARIES"]
    # each is also an attribute of the package, so `import lca.x; lca.x.f` works
    modules = _fresh_modules(
        "import sys\nimport lca.cli\n"
        "assert all(getattr(lca, n[4:]) is m for n, m in sys.modules.items() if n[:4] == 'lca.')"
    )
    assert {f"lca.{m}" for m in boundaries} <= set(modules)
    assert {n for n, state in modules.items() if state == "executed"} == {"lca.cli"}


def test_branch_runs_only_the_modules_it_needs():
    modules = _fresh_modules(
        "import contextlib, io\nfrom lca.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(['branch', 'E8', 'b2^3', '--json']) == 0"
    )
    for name in ("lca.fixdim", "lca.torsion", "lca.tabver", "lca.spin2"):
        assert modules[name] == "lazy", name
    assert "fractions" not in modules


def test_a_fresh_audit_loads_neither_dataclasses_nor_inspect():
    probe = (
        "import contextlib, io, sys\nfrom lca.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(['verify', '--all', '--json']) == 0\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_cli_env(), timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


# counts each ArgumentParser a fresh process constructs, by prog; the full grammar is ten
COUNT_PARSERS = (
    "import argparse\n"
    "progs = []\n"
    "init = argparse.ArgumentParser.__init__\n"
    "def counted(self, *args, **kwargs):\n"
    "    init(self, *args, **kwargs)\n"
    "    progs.append(self.prog)\n"
    "argparse.ArgumentParser.__init__ = counted\n"
)


def _fresh_report(argv, prelude, report):
    """The last line a fresh process prints of ``report`` after ``prelude``, importing
    lca.cli and running ``argv`` (None: import only)."""
    probe = (
        f"{prelude}import contextlib, io, sys\n"
        "from lca.cli import run\n"
        f"if {argv!r} is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert run({argv!r}) == 0\n"
        f"print({report})"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_cli_env(), timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [None, ["branch", "E8", "b2^3", "--json"], ["verify", "--all", "--json"]],
    ids=["import", "branch", "verify"],
)
def test_a_fresh_query_builds_only_its_verb_parser(argv):
    """A plain query is parsed by the matcher alone: it builds no ArgumentParser and
    does not even import argparse, or the gettext that argparse imports."""
    assert _fresh_report(argv, COUNT_PARSERS, "progs") == "[]"
    assert _fresh_report(argv, "", "sorted({'argparse', 'gettext'} & set(sys.modules))") == "[]"


def test_table_group_verbs_take_any_case_and_spaces(capture):
    for canonical, spelled in (
        (("solve-traces", "AutE6"), ("solve-traces", " aute6")),
        (("fixdim", "--group", "E8", "--fusion", "2A"), ("fixdim", "--group", "e8", "--fusion", "2A")),
        (("branch", "E8", "b2^3"), ("branch", "e8", "b2^3")),
    ):
        for json_flag in ((), ("--json",)):
            expected = capture(*canonical, *json_flag)
            assert expected[0] == 0, canonical
            assert capture(*spelled, *json_flag) == expected, spelled


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

# generators in SO16 of Q8, 2^{1+4}-, an unrecognized abelian group and 2^2
SIGN_VECTOR_SETS = (
    ("(-1^6,1^10)", "(-1^3,1^3,-1^3,1^7)"),
    ("(-1^6,1^10)", "(1^6,-1^4,1^6)", "(1^6,-1,1^3,-1^3,1^3)", "(-1^3,1^3,-1,1^9)", "--json"),
    ("(-1^2,1^14)", "(1^2,-1^4,1^10)", "(1^6,-1^4,1^6)"),
    ("(-1^8,1^8)", "(-1^4,1^4,1^8)", "--json"),
)


def _clear_process_caches():
    solve_traces.cache_clear()
    eigenvalue_profile.cache_clear()
    build_parser.cache_clear()
    _verbs.cache_clear()
    _table_groups.cache_clear()
    element_annotations.cache_clear()
    _classified.cache_clear()
    _freudenthal_multiplicities.cache_clear()
    adjoint_character.cache_clear()


GC_QUERIES = [
    ["roots", "E8"],
    ["torsion-enum", "E7"],
    ["trace", "AutE6", "2B", "--power", "2"],
    ["branch", "E8", "b2^3"],
    ["fixdim", "--group", "E8", "--fusion", FUSIONS["E8"]],
    ["classify-2group", "--n", "16", *SIGN_VECTOR_SETS[1][:-1]],
    ["classical-centralizer", "--ambient", "Sp10", "4", "6"],
    ["solve-traces", "AutE6"],
    ["verify", "--all"],
]


@pytest.mark.parametrize("argv", GC_QUERIES, ids=lambda argv: argv[0])
def test_warm_json_answers_leave_no_cyclic_garbage(argv):
    """An answer leaves nothing that only the cyclic collector can free, whose full
    passes set the warm calculator's tail (the indenting json encoder left 33 objects)."""
    with redirect_stdout(io.StringIO()):
        assert run([*argv, "--json"]) in (0, 1)
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            with redirect_stdout(io.StringIO()):
                run([*argv, "--json"])
        assert gc.collect() == 0
    finally:
        gc.enable()


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
        for c in solve_traces(g).values()
        for power in range(c.order + 1)
    ]
    argvs += [["torsion-enum", g, "--json"] for g in FUSIONS]
    argvs += [["classify-2group", "--n", "16", *vectors] for vectors in SIGN_VECTOR_SETS]
    argvs += [["classical-centralizer", "--ambient", "SO16", "3", "3", "9"],
              ["classical-centralizer", "--ambient", "Sp10", "4", "6", "--json"]]
    fresh = []
    for argv in argvs:
        _clear_process_caches()
        fresh.append(capture(*argv))
    errors = [(argv, rc) for argv, (rc, _, _) in zip(argvs, fresh) if rc]
    assert errors == [(usage_error, 2), (lookup_error, 2)]
    _clear_process_caches()
    for _ in range(2):
        assert [capture(*argv) for argv in argvs] == fresh


def test_trace_queries_compute_each_class_trace_once(monkeypatch, capture):
    """Repeated fixdim and solve-traces queries reuse one trace table per group."""
    calls = Counter()

    def counted(kac, power=1):
        calls[kac, power] += 1
        return adjoint_trace(kac, power)

    monkeypatch.setattr(torsion, "adjoint_trace", counted)
    _clear_process_caches()
    for _ in range(3):
        for group, spellings in (("E8", ("E8", "e8")), ("AutE6", ("AutE6", " aute6"))):
            for spelling in spellings:
                assert capture("fixdim", "--group", spelling, "--fusion", FUSIONS[group])[0] == 0
                assert capture("solve-traces", spelling, "--json")[0] == 0
    assert calls and set(calls.values()) == {1}
    assert solve_traces.cache_info().currsize == 3  # AutE6 keeps E6's classes as E6's


def test_cached_classes_are_shared_and_frozen():
    classes = solve_traces("E8")
    assert solve_traces("E8") is classes
    with pytest.raises(AttributeError):
        classes["2A"].name = "2Z"
    with pytest.raises(AttributeError):
        classes["2A"].kac.labels = (1,) * 9


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


# the verbs whose positional words take '+' or '?': an option between two of their
# words leaves the later ones to no argument
BRANCH_CHAIN = st.builds(lambda key: ("branch", *key), st.sampled_from(sorted(_CHAINS)))
CLASSIFY_2GROUP = st.integers(1, 8).flatmap(
    lambda n: _sign_vectors(n).map(lambda vs: ("classify-2group", "--n", str(n), *vs))
)
CLASSICAL_CENTRALIZER = st.builds(
    lambda blocks: ("classical-centralizer", "--ambient", *blocks),
    st.builds(
        _blocks, st.sampled_from(["Sp", "SO", "SO+1"]),
        st.lists(st.integers(1, 8), min_size=1, max_size=3),
    ),
)
VALID = st.one_of(
    st.tuples(st.just("roots"), TYPE),
    st.tuples(st.just("torsion-enum"), TYPE),
    st.builds(lambda key: ("trace", *key), st.sampled_from(CLASSES)),
    st.builds(
        lambda key, power: ("trace", *key, "--power", str(power)),
        st.sampled_from(CLASSES), st.integers(-3, 12),
    ),
    BRANCH_CHAIN,
    st.builds(lambda group: ("branch", group), st.sampled_from(sorted({g for g, _ in _CHAINS}))),
    st.builds(
        lambda group, fusion: ("fixdim", "--group", group, "--fusion", fusion),
        TABLE_GROUP,
        st.builds(
            _fusion, TABLE_GROUP,
            st.lists(st.tuples(st.integers(0, 7), st.integers(1, 30)), min_size=1, max_size=4),
        ),
    ),
    CLASSIFY_2GROUP,
    CLASSICAL_CENTRALIZER,
    st.tuples(st.just("solve-traces"), TABLE_GROUP),
    st.tuples(st.just("verify"), st.just("--table"), st.sampled_from([*TABLE_ALIASES, *AUDITED_TABLES])),
    st.just(("verify", "--all")),
)


def _corrupt(argv, index, token):
    argv = list(argv)
    index %= len(argv) + 1
    argv[index:index + 1] = [token]
    return argv


def _take_option(argv, pick):
    """``argv`` without one of its options and the option's value if it takes one, and
    the tokens taken."""
    argv = list(argv)
    starts = [i for i, token in enumerate(argv) if token.startswith("--")]
    start = starts[pick % len(starts)]
    width = 1 if argv[start] in ("--json", "--all") else 2
    moved = argv[start:start + width]
    del argv[start:start + width]
    return argv, moved


def _move_option(argv, pick, index):
    """``argv`` with one of its options, and the option's value if it takes one, moved to
    another place, before the verb or between any two tokens."""
    argv, moved = _take_option(argv, pick)
    index %= len(argv) + 1
    argv[index:index] = moved
    return argv


def _word_gaps(argv):
    """The places between two adjacent positional words of a drawn query."""
    words = [
        i for i in range(1, len(argv))
        if argv[i][:1] != "-" and (argv[i - 1][:2] != "--" or argv[i - 1] in ("--json", "--all"))
    ]
    return [j for i, j in zip(words, words[1:]) if j == i + 1]


def _split_words(argv, pick, gap):
    """``argv`` with one of its options, and its value, moved between two positional words."""
    argv, moved = _take_option(argv, pick)
    gaps = _word_gaps(argv)
    index = gaps[gap % len(gaps)]
    argv[index:index] = moved
    return argv


# a table group's slot given a name that is not one: argparse rejects it by type or choice
NOT_A_TABLE_GROUP = st.sampled_from(["E9", "AutE7", "A2", "D4", "e9", "x", ""])
WITH_JSON = VALID.map(lambda argv: [*argv, "--json"])
SPLITTABLE = st.one_of(BRANCH_CHAIN, CLASSIFY_2GROUP, CLASSICAL_CENTRALIZER).map(
    lambda argv: [*argv, "--json"]
).filter(_word_gaps)
ARGV = st.one_of(
    VALID.map(list),
    WITH_JSON,
    st.builds(_corrupt, VALID, st.integers(0, 7), MALFORMED),
    st.builds(_move_option, WITH_JSON, st.integers(0, 3), st.integers(0, 7)),
    st.builds(_split_words, SPLITTABLE, st.integers(0, 3), st.integers(0, 3)),
    st.builds(lambda group: ["solve-traces", group], NOT_A_TABLE_GROUP),
    st.builds(
        lambda group, chain: ["branch", group, chain],
        NOT_A_TABLE_GROUP, st.sampled_from(sorted({name for _, name in _CHAINS})),
    ),
)


def _answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = run(argv)
    return status, out.getvalue(), err.getvalue()


def _full_grammar_answer(argv):
    """The answer when every query is parsed by ``build_parser()`` alone."""
    with mock.patch.object(cli, "_plain_args", return_value=None):
        return _answer(argv)


@settings(max_examples=200, deadline=None)
@given(argv=ARGV)
def test_every_argv_exits_0_1_or_2(argv):
    """Every drawn query exits 0, 1 or 2, writes to stderr exactly when it exits 2,
    and answers byte for byte as parsing with the full grammar alone does."""
    status, out, err = _answer(argv)
    assert status in (0, 1, 2)
    assert (status == 2) == bool(err), err
    assert _full_grammar_answer(argv) == (status, out, err)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["fixdim", "-h"],
        ["--json", "fixdim", "--group", "E8", "--fusion", "2A"],
        ["fixdim", "--group", "E8", "--fusion", "2A", "extra"],
        ["no-such-verb", "E8"],
        ["fixdim", "--group=E8", "--fusion", "2A"],
        ["fixdim", "--gr", "E8", "--fusion", "2A"],
        ["fixdim", "--", "--group"],
        ["solve-traces", "E9"],
        ["branch", "E9", "d8"],
        ["branch", "--json", "E8", "b2^3"],
        ["branch", "E8", "--json", "b2^3"],
        ["trace", "E8", "--power", "2", "2A"],
        ["trace", "E8", "2A", "--power", "-1"],
        ["fixdim", "--group", "E8", "--fusion", "2A", "--json", "--json"],
        ["verify", "--all", "--table", "e8"],
        ["classical-centralizer", "--ambient", "Sp10", "4", "-6"],
        ["classify-2group", "--n", "0", "(-1^6,1^10)"],
        ["fixdim", "--fusion", "2A"],
        ["fixdim", "--group", "E8", "--fusion", "--json"],
    ],
    ids=[
        "no-argv", "-h", "--help", "verb-help", "option-before-verb", "extra-word",
        "unknown-verb", "option=value", "abbreviated-option", "double-dash",
        "positional-choice", "unknown-branch-group", "option-before-words", "words-split-by-option",
        "option-between-words", "negative-option-value", "repeated-flag", "exclusive-options",
        "negative-word", "non-positive-size", "missing-required", "option-as-value",
    ],
)
def test_dispatch_answers_as_the_full_grammar(argv):
    assert _answer(argv) == _full_grammar_answer(argv)
