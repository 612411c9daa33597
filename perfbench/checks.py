"""Correctness checks applied to every operation's output.

Each check returns None when the output is right, otherwise a one-line
reason; run.py counts every reason as a failed operation.
"""

import json
import statistics

SCHEMA = "edgebounds-report/1"
ORACLE_GAP = 1e-8
# Relative slack on the window_sweep width gate: room for error budgets
# folded into the intervals, none for a looser enclosure.
WIDTH_SLACK = 1e-6


def primitive_count(q):
    """Number of primitive characters mod q (multiplicative, from q's factors)."""
    count, m, p = 1, q, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            count *= p - 2 if e == 1 else p ** (e - 2) * (p - 1) ** 2
        p += 1
    if m > 1:
        count *= m - 2
    return count


def characters_up_to(qmax):
    """Primitive non-principal characters with 3 <= q <= qmax."""
    return sum(primitive_count(q) for q in range(3, qmax + 1))


def describe(op):
    if op["kind"] == "cli":
        return " ".join(op["argv"])
    return "dual-oracle sweep q<=%d" % op["qmax"]


def check(op, res, sweep, widths):
    """Check one result; window widths found are appended to widths."""
    if "error" in res:
        return "raised " + res["error"].strip().splitlines()[-1]
    if op["kind"] == "dual_sweep":
        return _check_sweep(op, res)
    if res["exit"] != op["exit"]:
        return "exit code %d, expected %d" % (res["exit"], op["exit"])
    try:
        doc = json.loads(res["stdout"])
    except ValueError:
        return "stdout is not one JSON document"
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return "schema is not %s" % SCHEMA
    exp = op["expect"]
    records = doc.get("records")
    if not isinstance(records, list):
        return "no records"
    if "verdicts" in exp:
        got = [r.get("verdict") for r in records]
        if got != exp["verdicts"]:
            return "verdicts %s, expected %s" % (got, exp["verdicts"])
    if "windows" in exp:
        if len(records) != exp["windows"]:
            return "%d window records, expected %d" % (len(records), exp["windows"])
        if any(r.get("verdict") != "PASS" for r in records):
            return "window record not PASS"
        ws = [r["params"]["hi"] - r["params"]["lo"] for r in records]
        widths.extend(ws)
        ref = exp.get("width_med_max")
        if ref is not None and statistics.median(ws) > ref * (1.0 + WIDTH_SLACK):
            return "median window width %r above reference %r" % (statistics.median(ws), ref)
    if "char" in exp:
        q, index = exp["char"]
        if [(r["params"]["q"], r["params"]["char_index"]) for r in records] != [(q, index)]:
            return "records do not match q=%d index=%d" % (q, index)
    if "survey" in exp:
        return _check_survey(exp["survey"], records, sweep)
    return None


def _check_sweep(op, res):
    rows = res["rows"]
    want = characters_up_to(op["qmax"])
    if len(rows) != want:
        return "%d characters, expected %d" % (len(rows), want)
    for q, index, closed, series in rows:
        if not abs(closed - series) <= ORACLE_GAP:
            return "oracle gap %r at q=%d index=%d" % (abs(closed - series), q, index)
    return None


def _check_survey(count, records, sweep):
    if len(records) != count:
        return "%d survey rows, expected %d" % (len(records), count)
    if sweep is None or "rows" not in sweep or len(sweep["rows"]) != count:
        return "survey row count does not match the dual-oracle sweep"
    series = {(q, i): s for q, i, _c, s in sweep["rows"]}
    for r in records:
        s = series.get((r["q"], r["char_index"]))
        if s is None:
            return "survey row q=%d index=%d not in the sweep" % (r["q"], r["char_index"])
        if not abs(complex(r["re_L1"], r["im_L1"]) - s) <= ORACLE_GAP:
            return "survey L(1,chi) off the series oracle at q=%d" % r["q"]
    return None
