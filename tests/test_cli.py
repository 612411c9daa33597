"""CLI contract: document schema, exit codes, determinism, formats."""

import hashlib
import importlib.util
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from edgebounds import _kernel, audits, cli, dirichlet, primes, run_audit, special
from edgebounds.cli import run
from edgebounds.errors import ResourceBudgetError


def cap(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_constants_document():
    code, text, _ = cap(["constants", "--d", "2"])
    assert code == 0
    doc = json.loads(text)
    assert list(doc)[0] == "schema"
    assert doc["schema"] == "edgebounds-report/1"
    assert doc["command"] == "constants"
    assert doc["constants"]["K"] == pytest.approx(5.008692232654434, rel=1e-14)
    assert doc["constants"]["J2"] == pytest.approx(22.349326622131038, rel=1e-14)


def test_bound_document_frozen():
    code, text, _ = cap(["bound", "--d", "1", "--log-conductor", "23"])
    assert code == 0
    doc = json.loads(text)
    rep = doc["report"]
    assert rep["valid"] is True
    assert rep["upper"] == pytest.approx(11.763399641775765, rel=1e-13)
    assert rep["lower_reciprocal"] == pytest.approx(10.33519243755692, rel=1e-13)
    assert rep["littlewood"]["upper"] == pytest.approx(11.169084529518422, rel=1e-13)


def test_bound_nonfinite_rendered_null():
    code, text, _ = cap(["bound", "--d", "1", "--log-conductor", "2"])
    assert code == 0
    rep = json.loads(text)["report"]
    assert rep["upper"] is None  # +inf serialized as null
    assert rep["valid"] is False


def test_bound_t_flag_is_unrecognized():
    # the t-aspect conductor needs the local parameters: LFunctionInstance with
    # kappa_j + it through analytic_conductor, not a flag on `bound`
    code, text, err = cap(["bound", "--d", "1", "--log-conductor", "23", "--t", "3"])
    assert code == 2 and text == ""
    assert "unrecognized arguments: --t" in err


def test_bound_domain_error_exit_two():
    for argv in (
        ["bound", "--d", "1", "--log-conductor", "0.5"],
        ["bound", "--d", "1", "--log-conductor", "nan"],
        ["bound", "--d", "1", "--log-conductor", "inf"],
        ["bound", "--d", "0", "--log-conductor", "23"],
    ):
        code, text, err = cap(argv)
        assert code == 2 and text == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv


def test_audit_pass_exit_zero():
    code, text, _ = cap(["audit", "--id", "bconst"])
    assert code == 0
    doc = json.loads(text)
    assert list(doc["params"]) == ["id", "grid_steps", "qmax", "x"]
    assert doc["n_fail"] == 0
    assert doc["records"][0]["verdict"] == "PASS"


def test_audit_designed_failures_exit_one():
    code, text, _ = cap(["audit", "--id", "lemma26", "--sieve-limit", "1000000"])
    assert code == 1
    doc = json.loads(text)
    assert doc["n_fail"] == 2
    verdicts = [r["verdict"] for r in doc["records"]]
    assert verdicts == ["FAIL", "PASS", "FAIL", "PASS"]
    # without the flag the audit sizes its own 10^6 table: same document
    assert cap(["audit", "--id", "lemma26"]) == (code, text, "")


def test_audit_unknown_id_exit_two():
    code, _, _ = cap(["audit", "--id", "bogus"])
    assert code == 2


def test_usage_error_exit_two():
    code, _, _ = cap(["frobnicate"])
    assert code == 2
    code, text, err = cap(["audit", "--id", "trig", "--tol", "0.5"])  # no such option
    assert code == 2 and text == "" and "--tol" in err


def test_table_from_nonfinite_or_oversized_x_exit_two(monkeypatch):
    def no_sieve(limit):
        raise AssertionError("built a sieve to %d" % (limit,))

    monkeypatch.setattr(_kernel, "_odd_primes", no_sieve)
    big = str(primes.MAX_SIEVE_LIMIT + 1)
    for argv in (
        ["window", "--q", "5", "--x", "inf"],
        ["window", "--q", "5", "--x", "nan"],
        ["primesums", "--x", "inf"],
        ["primesums", "--x", "nan"],
        ["audit", "--id", "window", "--x", "inf"],
        ["audit", "--id", "window", "--x", "nan"],
        ["window", "--q", "5", "--x", big],
        ["primesums", "--x", big],
        ["audit", "--id", "window", "--x", big],
    ):
        code, text, err = cap(argv)
        assert code == 2 and text == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
    with pytest.raises(ResourceBudgetError):
        run_audit("window", x=float(big))


@pytest.mark.parametrize(
    "limit", [[], ["--sieve-limit", "1000"]], ids=["sized_by_x", "sieve_limit"]
)
@pytest.mark.parametrize(
    "command",
    [["primesums"], ["window", "--q", "5"], ["audit", "--id", "window", "--qmax", "5"]],
    ids=["primesums", "window", "audit_window"],
)
def test_bad_x_refused_before_any_sieve(monkeypatch, command, limit):
    def no_sieve(n):
        raise AssertionError("built a sieve to %d" % (n,))

    monkeypatch.setattr(_kernel, "_odd_primes", no_sieve)
    # the --x= form, so that argparse does not read -inf as an option
    xs = ["nan", "inf", "-inf", "1e400", "0", "1"]
    if command[0] != "primesums":
        xs.append("131.9")  # below the window floor of 132
    for x in xs:
        argv = command + ["--x=" + x] + limit
        code, text, err = cap(argv)
        assert (code, text) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "Traceback" not in err, argv


def test_sieve_limit_below_x_exit_two():
    for argv, limit in (
        (["audit", "--id", "lemma24", "--sieve-limit", "999999"], 999999),
        (["window", "--q", "5", "--x", "1000", "--sieve-limit", "999"], 999),
        (["primesums", "--x", "1000", "--sieve-limit", "999"], 999),
    ):
        code, text, err = cap(argv)
        assert code == 2 and text == "", argv
        assert err.startswith("error: x=") and err.count("\n") == 1, argv
        assert err.endswith("beyond table limit %d\n" % (limit,)), argv


def test_x_refused_before_sieving(monkeypatch):
    def no_sieve(limit):
        raise AssertionError("built a sieve to %d" % (limit,))

    monkeypatch.setattr(_kernel, "_odd_primes", no_sieve)
    for argv in (
        ["window", "--q", "5", "--x", "3e7", "--sieve-limit", "29999999"],
        ["primesums", "--x", "3e7", "--sieve-limit", "29999999"],
        ["audit", "--id", "window", "--x", "3e7", "--sieve-limit", "29999999"],
    ):
        assert cap(argv) == (2, "", "error: x=30000000.0 beyond table limit 29999999\n"), argv
    err = "error: x=1000000.0 beyond table limit 999999\n"
    assert cap(["audit", "--id", "lemma24", "--sieve-limit", "999999"]) == (2, "", err)
    for argv, err in (
        (["primesums", "--x", "0.5", "--sieve-limit", "29999999"], "need x > 1, got 0.5"),
        (["window", "--q", "5", "--x", "100", "--sieve-limit", "29999999"], "windows need x >= 132"),
        (["audit", "--id", "window", "--x", "100", "--sieve-limit", "29999999"], "windows need x >= 132"),
    ):
        assert cap(argv) == (2, "", "error: %s\n" % (err,)), argv


def test_window_empty_selection_builds_no_table(monkeypatch):
    def no_sieve(limit):
        raise AssertionError("built a sieve to %d" % (limit,))

    monkeypatch.setattr(_kernel, "_odd_primes", no_sieve)
    # no primitive character mod 6: the document once sieved to 2e7 first
    code, text, err = cap(["window", "--q", "6", "--x", "2e7"])
    assert (code, err) == (0, "")
    assert text == (
        '{\n  "schema": "edgebounds-report/1",\n  "command": "window",\n'
        '  "params": {\n    "q": 6,\n    "index": null,\n    "x": 20000000.0,\n'
        '    "sieve_limit": 20000000\n  },\n  "records": []\n}\n'
    )
    # an explicit limit below x is not checked against an empty selection
    code, text, err = cap(["window", "--q", "6", "--x", "1000", "--sieve-limit", "999"])
    assert (code, err) == (0, "") and json.loads(text)["params"]["sieve_limit"] == 999
    # nor against a sweep with no modulus
    argv = ["audit", "--id", "window", "--qmax", "2", "--x", "1000", "--sieve-limit", "10"]
    code, text, err = cap(argv)
    assert (code, err) == (0, "")
    assert text == (
        '{\n  "schema": "edgebounds-report/1",\n  "command": "audit",\n'
        '  "params": {\n    "id": "window",\n    "grid_steps": 512,\n    "qmax": 2,\n'
        '    "x": 1000.0\n  },\n  "records": [],\n  "n_fail": 0\n}\n'
    )
    # the budget is checked before the selection, the selection before the sieve
    big = str(primes.MAX_SIEVE_LIMIT + 1)
    code, text, err = cap(["window", "--q", "6", "--x", big])
    assert code == 2 and text == "" and "budget" in err
    code, text, err = cap(["window", "--q", "5", "--index", "99", "--x", "2e7"])
    assert code == 2 and text == "" and "with index 99" in err


def test_csv_rejected_outside_survey(monkeypatch):
    code, _, err = cap(["constants", "--d", "1", "--format", "csv"])
    assert code == 2
    assert "error:" in err

    # refused right after parsing, before the audit or the window runs
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the csv check")

    monkeypatch.setattr(audits, "run_audit", no_work)
    monkeypatch.setattr(audits, "window_records", no_work)
    want = "error: --format csv is only available for 'dirichlet survey'\n"
    for argv in (
        ["audit", "--id", "window", "--format", "csv"],
        ["window", "--q", "5", "--x", "1000", "--format", "csv"],
    ):
        assert cap(argv) == (2, "", want), argv


def test_dirichlet_l1_single_index():
    code, text, _ = cap(["dirichlet", "l1", "--q", "5", "--index", "1"])
    assert code == 0
    (row,) = json.loads(text)["characters"]
    assert row["re_L1"] == pytest.approx(0.86480626597721, rel=1e-13)
    assert row["im_L1"] == pytest.approx(0.20415306613838524, rel=1e-13)
    assert row["conductor"] == 5 and row["parity"] == 1


def test_dirichlet_l1_all_primitive_default():
    code, text, _ = cap(["dirichlet", "l1", "--q", "5"])
    assert code == 0
    rows = json.loads(text)["characters"]
    assert [r["char_index"] for r in rows] == [1, 2, 3]


def test_dirichlet_l1_bad_index_exit_two():
    code, _, err = cap(["dirichlet", "l1", "--q", "5", "--index", "9"])
    assert code == 2
    assert "error:" in err


def test_index_builds_one_character(monkeypatch):
    built = []
    characters = dirichlet._characters

    def counting(g, keys):
        built.extend(exps for exps, _cond, _parity in keys)
        return characters(g, keys)

    monkeypatch.setattr(dirichlet, "_characters", counting)
    code, text, _ = cap(["window", "--q", "397", "--index", "5", "--x", "1000"])
    assert code == 0 and len(json.loads(text)["records"]) == 1
    assert built == [(5,)]
    # negative, past phi(q), principal (q = 1) and imprimitive (conductor 3 mod 9)
    for q, index in ((397, -1), (397, 396), (1, 0), (9, 3)):
        code, text, err = cap(["dirichlet", "l1", "--q", str(q), "--index", str(index)])
        want = "error: no primitive non-principal character mod %d with index %d\n" % (q, index)
        assert (code, text, err) == (2, "", want)


def test_survey_csv_shape(tmp_path):
    code, text, _ = cap(["dirichlet", "survey", "--qmax", "8", "--format", "csv"])
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == (
        "q,char_index,conductor,parity,re_L1,im_L1,abs_L1,C_chi,bound_upper,bound_valid,ratio"
    )
    assert len(lines) == 13  # 12 primitive non-principal characters below 9
    assert lines[1].split(",")[0] == "3"
    assert lines[1].endswith(",,false,")
    # --out writes the same document to a file
    argv = ["dirichlet", "survey", "--qmax", "8", "--format", "csv"]
    assert cap(argv + ["--out", str(tmp_path / "s.csv")]) == (0, "", "")
    assert (tmp_path / "s.csv").read_text() == text


def test_l1_rows_are_the_survey_rows_first_seven_columns():
    rows = dirichlet.survey(40)
    for q in range(3, 41):
        code, text, _ = cap(["dirichlet", "l1", "--q", str(q)])
        assert code == 0
        want = [dict(list(r.items())[:7]) for r in rows if r["q"] == q]
        assert json.dumps(json.loads(text)["characters"]) == json.dumps(want), q
    _, text, _ = cap(["dirichlet", "survey", "--qmax", "8", "--format", "csv"])
    _, doc, _ = cap(["dirichlet", "survey", "--qmax", "8"])
    header = text.split("\n", 1)[0].split(",")
    assert all(list(row) == header for row in json.loads(doc)["records"])


def test_survey_json_frozen_row():
    code, text, _ = cap(["dirichlet", "survey", "--qmax", "9"])
    assert code == 0
    recs = json.loads(text)["records"]
    r9 = [r for r in recs if r["q"] == 9 and r["char_index"] == 1][0]
    assert r9["bound_upper"] == pytest.approx(-5.384243052573376, rel=1e-12)
    assert r9["bound_valid"] is False


def test_window_subcommand_frozen():
    code, text, _ = cap(["window", "--q", "4", "--x", "100000", "--sieve-limit", "100000"])
    assert code == 0
    (rec,) = json.loads(text)["records"]
    assert rec["verdict"] == "PASS"
    assert rec["params"]["lo"] == pytest.approx(-0.24159498944669316, rel=1e-12)
    assert rec["params"]["hi"] == pytest.approx(-0.24150200802510394, rel=1e-12)
    assert rec["lhs"] == pytest.approx(-0.2415644752704905, rel=1e-13)
    # without the flag the table is sized to x, and params say so
    code, sized, _ = cap(["window", "--q", "4", "--x", "100000"])
    assert code == 0
    doc = json.loads(sized)
    assert doc["records"] == [rec]
    assert doc["params"]["sieve_limit"] == 100000


def _traced(argv):
    """Exit code and perfbench tracer report of one in-process CLI run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        code, _, _ = cap(argv)
    finally:
        tracer.restore()
    return code, tracer.report()


def test_window_sweep_trace_contract():
    # perfbench's outside tracer patches the package's import sites; the
    # window audit must keep them and build one prime-power grid in all.
    code, rep = _traced(["audit", "--id", "window", "--qmax", "7", "--x", "1000"])
    assert code == 0
    assert rep["primes.prime_power_grid.calls"] == 1
    assert rep["lfunc.coefficient.calls"] == 0
    assert rep["primes.sieve_entries"] == 1001  # one table, sized to x
    assert rep["special.kappa_series_direct.calls"] == 0  # odd characters go through digamma
    # the survey enumerates each modulus 3..12 once; --index builds one row
    code, rep = _traced(["dirichlet", "survey", "--qmax", "12"])
    assert code == 0
    assert rep["dirichlet.enumerate_characters.calls"] == 10
    code, rep = _traced(["dirichlet", "l1", "--q", "397", "--index", "5"])
    assert code == 0
    assert rep.get("dirichlet.enumerate_characters.calls", 0) == 0
    # each audit that reads primes builds its one table, sized by
    # --sieve-limit when given; the others ignore the option
    for argv, entries in (
        (["audit", "--id", "lemma24"], 1000001),
        (["audit", "--id", "lemma26", "--sieve-limit", "2000000"], 2000001),
        (["audit", "--id", "trig", "--sieve-limit", "5000"], 0),
        (["audit", "--id", "window", "--qmax", "5", "--x", "1000", "--sieve-limit", "4000"], 4001),
    ):
        code, rep = _traced(argv)
        assert code in (0, 1), argv
        assert rep.get("primes.build_table.calls", 0) == (1 if entries else 0), argv
        assert rep["primes.sieve_entries"] == entries, argv
    assert rep["primes.prime_power_grid.calls"] == 1


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["audit", "--id", "window"],
            "f4c892ff6a7e1228f8194498afabc41429a09233e0d7847606d59db364f0e51f",
        ),
        (
            ["audit", "--id", "window", "--qmax", "12", "--x", "2000", "--sieve-limit", "2000"],
            "c981ab5b49771050983a92f8ca19ea1928f3b186d502338b0ba238fef8281aec",
        ),
        (
            ["window", "--q", "397", "--index", "5", "--x", "1000"],
            "518e122e9a0b2e30988dae419d0d60e266f9893098d550d163a5d6c1be7a5cc8",
        ),
        (
            ["audit", "--id", "chandee"],
            "f647268652e9b83a2a9ed6e60cd43c1c9c48e064a96c511a5ec451e6b845fb17",
        ),
    ],
)
def test_window_documents_pinned(argv, digest):
    # frozen bit for bit: the prime sums' kernel may change, their values may not
    code, text, err = cap(argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, want_code, digest",
    [
        (["audit", "--id", "trig"], 0,
         "7934f88f3fd16125ecebcf0d66d0c92522a61963ed3a3ccc9edf191117b310ef"),
        (["audit", "--id", "p2"], 0,
         "0a1474125fbcaf2c48ffc19c760636d6efd595506049261bb4678e1f0b3df420"),
        (["audit", "--id", "hmax"], 0,
         "a1a972dc04c258811b4df3b0ac6bd83719cd56835c955d803315f94109225f61"),
        (["audit", "--id", "logratio"], 0,
         "d84fb9bd80463df1d064f085fb10f4e31fc778ffb422c30b694c106bb6df264a"),
        (["audit", "--id", "techlem1"], 0,
         "4fed04790f44c4202b7749fe91e7552e529919d9c4b2adb7c2a12c130c988cf5"),
        (["audit", "--id", "techlem2"], 0,
         "d5a125e04a101ba24afd919a7fe704a79a7ccb6f9c75894c5fd0ce696b3a87af"),
        (["audit", "--id", "bconst"], 0,
         "61720d7af9908ac26f281009001aaa7f08e19cf50253883aa3906d6fa06777da"),
        (["audit", "--id", "aterms"], 0,
         "cb9d256ffce5169f468a94393bd2a6bf070465ff6ef4d599919448c768f637f6"),
        # both lemma audits have a model variant that fails by design
        (["audit", "--id", "lemma24"], 1,
         "5ce77b65bd2b83c7fc60e679b06cb4844aa33cd775afcfcfb28536f3ae4696b9"),
        (["audit", "--id", "lemma26"], 1,
         "7ae4b590122a088cf31846298c8faa3545736ce9d395f5dd403f9dda602e19e1"),
        (["primesums", "--x", "10000"], 0,
         "8e87635d1d6d36c424bddd0640afa187296d2d0871fca57bfe61b53364cebb66"),
    ],
)
def test_audit_documents_pinned(argv, want_code, digest):
    # frozen bit for bit: the margin records, grids and prime tables may be
    # rebuilt, the documents may not
    code, text, err = cap(argv)
    assert (code, err) == (want_code, "")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["dirichlet", "survey", "--qmax", "200"],
            "2e44a9c41f6200867e0e4471de9afe46fed4d09c9295c7213ff9883c7d2e6020",
        ),
        (
            ["dirichlet", "survey", "--qmax", "60", "--format", "csv"],
            "00e893c83b159c7c3b4ba9db294ce77d806b445378d6863477caae1abbc71dea",
        ),
    ],
)
def test_survey_documents_pinned(argv, digest):
    # frozen bit for bit: the L(1) kernel and the JSON writer may change, the bytes may not
    code, text, err = cap(argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "q, digest",
    [
        (199, "ad9760c9a2ab613e22d5b6230e2eb06434207619f66bf59b07574b5375c7a501"),
        (2003, "b5e7e88992f209bba14b1cb34fa2d69693c3d97fbca6bdef73ecf5d0149da686"),
    ],
)
def test_dirichlet_l1_documents_pinned(q, digest):
    # every primitive character of the modulus, as the one-at-a-time
    # l1_value printed them: one block of rows at q = 199, many at q = 2003
    code, text, err = cap(["dirichlet", "l1", "--q", str(q)])
    assert code == 0 and err == ""
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_parser_built_once_per_process():
    cli._build_parser.cache_clear()
    assert cap(["constants", "--d", "1"])[0] == 0
    assert cap(["bound", "--d", "1", "--log-conductor", "23"])[0] == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("audit_id", ["trig", "p2", "hmax", "logratio"])
def test_grid_budget_exit_two_before_any_array(monkeypatch, audit_id):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid array was requested")

    monkeypatch.setattr(audits.np, "linspace", no_grid)
    code, text, err = cap(["audit", "--id", audit_id, "--grid-steps", "100000000"])
    assert code == 2 and text == ""
    assert err.startswith("error: ") and "cell budget" in err
    audits._check_grid(audits.MAX_GRID_CELLS, 1)
    with pytest.raises(ResourceBudgetError):
        audits._check_grid(audits.MAX_GRID_CELLS + 1, 1)


def test_value_matrix_budget_exit_two_before_any_array(monkeypatch):
    # 10,005 primitive characters mod the prime 10007: 1.6 GB of values
    for argv in (["dirichlet", "l1", "--q", "10007"], ["window", "--q", "10007"]):
        tracemalloc.start()
        try:
            code, text, err = cap(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and text == "", argv
        assert err.startswith("error: ") and "cell budget" in err, argv
        assert peak < 64 * 2 ** 20, argv
    # the 4 x 5 matrix of the characters mod 5 is 20 cells
    monkeypatch.setattr(dirichlet, "MAX_VALUE_CELLS", 20)
    assert len(dirichlet.enumerate_characters(5)) == 4
    monkeypatch.setattr(dirichlet, "MAX_VALUE_CELLS", 19)
    with pytest.raises(ResourceBudgetError, match="cell budget"):
        dirichlet.enumerate_characters(5)


def test_modulus_and_digamma_row_budgets_exit_two_before_the_work(monkeypatch):
    def no_group(q):
        raise AssertionError("built the unit group mod %d" % (q,))

    # no value row of length q fits the budget: the group is never built
    monkeypatch.setattr(dirichlet, "_UnitGroup", no_group)
    for argv in (
        ["window", "--q", "99999999999", "--index", "0", "--x", "200"],
        ["dirichlet", "l1", "--q", "10000019", "--index", "1"],
    ):
        code, text, err = cap(argv)
        assert code == 2 and text == "", argv
        assert err.startswith("error: modulus ") and err.count("\n") == 1, argv
    monkeypatch.undo()

    def no_work(*args):
        raise AssertionError("built the unit group, a prime table or the digamma tables")

    # psi(a/q) for a < q = 1000003 is 5e11 closed-form terms, hours of work; the
    # row is refused before the unit group, the sieve or the cosine table is built
    monkeypatch.setattr(special, "_cos_log_sin", no_work)
    monkeypatch.setattr(dirichlet, "_UnitGroup", no_work)
    monkeypatch.setattr(primes, "build_table", no_work)
    for argv in (
        ["dirichlet", "l1", "--q", "1000003", "--index", "1"],
        ["window", "--q", "1000003", "--index", "1"],
        ["dirichlet", "l1", "--q", "1000003"],
        ["window", "--q", "1000003", "--x", "200"],
    ):
        code, text, err = cap(argv)
        assert code == 2 and text == "", argv
        assert err == (
            "error: 1000002 digamma values at denominator 1000003 exceed the "
            "200000000-term budget\n"
        ), argv


def test_no_primitive_character_needs_no_psi_row(monkeypatch):
    # q = 2 mod 4 has no primitive character, so a q past the psi-row budget
    # still prints its empty document
    code, text, err = cap(["dirichlet", "l1", "--q", "20002"])
    assert code == 0 and err == ""
    assert json.loads(text)["characters"] == []

    def no_group(q):
        raise AssertionError("built the unit group mod %d" % (q,))

    # nor does it build the unit group: mod 9999998 that took 1.2 GB
    monkeypatch.setattr(dirichlet, "_UnitGroup", no_group)
    code, text, err = cap(["dirichlet", "l1", "--q", "9999998"])
    assert (code, err) == (0, "") and json.loads(text)["characters"] == []
    code, text, err = cap(["window", "--q", "9999998", "--x", "200"])
    assert (code, err) == (0, "") and json.loads(text)["records"] == []
    want = "error: no primitive non-principal character mod 9999998 with index 5\n"
    assert cap(["dirichlet", "l1", "--q", "9999998", "--index", "5"]) == (2, "", want)


def test_sweep_past_the_value_budget_exit_two_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("built the unit group or a prime table")

    # the 3165 primitive characters mod the prime 3167 are the first matrix past
    # the budget; a sweep to it is refused before q = 3 is worked on
    monkeypatch.setattr(dirichlet, "_UnitGroup", no_work)
    monkeypatch.setattr(audits, "build_table", no_work)
    want = "error: a 3165 x 3167 character value matrix exceeds the 10000000-cell budget\n"
    for argv in (
        ["dirichlet", "survey", "--qmax", "3167"],
        ["audit", "--id", "window", "--qmax", "3167"],
    ):
        assert cap(argv) == (2, "", want), argv
    dirichlet.check_sweep(3166)


def test_primesums_document():
    code, text, _ = cap(["primesums", "--x", "100", "--sieve-limit", "1000"])
    assert code == 0
    doc = json.loads(text)
    assert doc["psi_total"] == pytest.approx(94.0453112293574, rel=1e-14)
    assert doc["linear"]["two_pi"]["within_window"] is False
    assert doc["linear"]["log_two_pi"]["within_window"] is True
    assert "log" in doc and "alternating" in doc
    # x = 2 is below e (no log sum) and a prime power (no alternating sum);
    # x = 1.5 is below 2, and its table holds no prime
    for x, psi in (("2", math.log(2.0)), ("1.5", 0.0)):
        code, text, err = cap(["primesums", "--x", x])
        assert (code, err) == (0, ""), x
        doc = json.loads(text)
        assert doc["params"] == {"x": float(x), "sieve_limit": 2}, x
        assert doc["psi_total"] == psi, x
        assert doc["log"] is None and doc["alternating"] is None, x


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    code, text, _ = cap(["constants", "--d", "1", "--out", str(target)])
    assert code == 0
    assert text == ""
    doc = json.loads(target.read_text())
    assert doc["constants"]["K"] == pytest.approx(3.516873328245897, rel=1e-14)


def test_out_flag_unwritable_exit_two(tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, text, err = cap(["constants", "--d", "1", "--out", str(target)])
    assert code == 2 and text == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not target.exists()


def test_overflowing_degree_exit_two():
    for argv in (
        ["bound", "--d", "209", "--log-conductor", "4807"],  # Littlewood power
        ["bound", "--d", "600", "--log-conductor", "2"],  # (2 e^gamma)^d
        ["constants", "--d", "1029"],  # expm1(0.69 d)
    ):
        code, text, err = cap(argv)
        assert code == 2 and text == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
    # the largest degrees that evaluate keep working
    code, text, _ = cap(["bound", "--d", "208", "--log-conductor", "4807"])
    assert code == 0 and json.loads(text)["report"]["littlewood"]["upper"] > 1e307
    assert cap(["constants", "--d", "1028"])[0] == 0


def test_text_format_renders():
    code, text, _ = cap(["constants", "--d", "1", "--format", "text"])
    assert code == 0
    assert "schema" in text and "{" not in text.splitlines()[0]
    # a document with a list: its entries render as [i] blocks
    code, text, err = cap(["audit", "--id", "trig", "--format", "text"])
    assert (code, err) == (0, "")
    assert "records:\n  [0]:\n    id: 'trig'\n" in text
    digest = "d837e676655bd61b189808b15941ff884741adf444122ab77e7da2dd982a6ae5"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_option_floors_exit_two():
    for argv, want in (
        (["primesums", "--x", "100", "--sieve-limit", "1"], "sieve-limit must be >= 2"),
        (["window", "--q", "5", "--x", "1000", "--sieve-limit", "1"], "sieve-limit must be >= 2"),
        (["audit", "--id", "trig", "--sieve-limit", "1"], "sieve-limit must be >= 2"),
        (["audit", "--id", "trig", "--grid-steps", "7"], "grid-steps must be >= 8"),
    ):
        assert cap(argv) == (2, "", "error: %s\n" % (want,)), argv


def test_json_documents_byte_identical_on_rerun():
    for argv in (
        ["constants", "--d", "3"],
        ["audit", "--id", "trig"],
        ["bound", "--d", "2", "--log-conductor", "46"],
        ["dirichlet", "survey", "--qmax", "8", "--format", "csv"],
    ):
        _, first, _ = cap(argv)
        _, second, _ = cap(argv)
        assert first == second, argv


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("edgebounds ")]


def test_readme_cli_block_runs_as_written():
    lines = _readme_cli_lines()
    assert len(lines) >= 7
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        code, text, err = cap(argv)
        assert (code, err) == (0, ""), line
        if "csv" in argv:
            assert text.startswith("q,char_index,") and text.endswith("\n"), line
        else:
            assert json.loads(text)["schema"] == "edgebounds-report/1", line


def test_readme_library_tour_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(block, names)
    # the values the comment prints for upper_bound(1, 23.0)
    (line,) = [ln for ln in block.splitlines() if ln.startswith("rep.upper,")]
    printed = [v.strip() for v in line.split("#", 1)[1].split(",")]
    assert printed == [repr(names["rep"].upper), repr(names["rep"].lower_reciprocal)]


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "edgebounds", "constants", "--d", "1"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["constants"]["d"] == 1


def _pinned_commands():
    """(argv, exit code, digest) of every command the parametrized pins above freeze."""

    def params(test):
        (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
        return mark.args[1]

    cmds = [(argv, 0, d) for argv, d in params(test_window_documents_pinned)]
    cmds += params(test_audit_documents_pinned)
    cmds += [(argv, 0, d) for argv, d in params(test_survey_documents_pinned)]
    cmds += [(["dirichlet", "l1", "--q", str(q)], 0, d)
             for q, d in params(test_dirichlet_l1_documents_pinned)]
    return cmds


_DIGESTS_OF_ARGVS = """
import hashlib, io, json, sys
from contextlib import redirect_stdout
from edgebounds.cli import run
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    out.append([code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()])
print(json.dumps(out))
"""


def test_pinned_documents_do_not_depend_on_simd_dispatch(capsys):
    # NumPy picks its SIMD kernels at run time; with every dispatch group this
    # CPU offers switched off, every pinned document keeps its bytes
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    groups = [g for g in __cpu_dispatch__ if __cpu_features__.get(g)]
    cmds = _pinned_commands()
    proc = subprocess.run(
        [sys.executable, "-c", _DIGESTS_OF_ARGVS],
        input=json.dumps([argv for argv, _code, _digest in cmds]),
        env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(groups)),
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert json.loads(proc.stdout) == [[code, digest] for _argv, code, digest in cmds]
    with capsys.disabled():
        if groups:
            print("\n%d pinned documents unchanged with NumPy's %s switched off"
                  % (len(cmds), ", ".join(groups)))
        else:
            print("\nno NumPy SIMD dispatch group to switch off on this CPU; "
                  "%d pinned documents checked with the default dispatch" % (len(cmds),))
