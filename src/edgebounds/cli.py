"""Command-line entry point.

Every invocation prints exactly one document (JSON by default) to stdout
or --out. JSON output is byte-identical across reruns with the same argv:
keys are emitted in fixed insertion order, floats in shortest round-trip
form, non-finite values as null. Exit status: 0 when no record FAILs,
1 when any audit record has verdict FAIL, 2 on usage or domain errors.
"""

import argparse
import functools
import sys
from typing import Callable, List, Optional, Tuple

from . import audits, bounds, dirichlet, primes, special
from ._jsonio import dumps_report, json_ready
from .errors import DomainError, EdgeboundsError

SCHEMA = "edgebounds-report/1"

# What a subcommand's handler returns: its document, and the audit records
# whose verdicts set the exit status.
_Result = Tuple[dict, List[audits.AuditRecord]]


def _add_common(p: argparse.ArgumentParser, handler: Callable[..., _Result]) -> None:
    p.set_defaults(handler=handler)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--out", default=None, help="write the document here instead of stdout")


@functools.lru_cache(maxsize=None)  # built on the first run, not at import
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="edgebounds",
        description="Conditional bounds for degree-d edge values and their audits.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("constants", help="degree-dependent envelope constants")
    p.add_argument("--d", type=int, required=True)
    _add_common(p, _constants)

    p = sub.add_parser("bound", help="both envelope values at (d, logC)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--log-conductor", type=float, required=True)
    _add_common(p, _bound)

    p = sub.add_parser("primesums", help="weighted prime sums at x")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--sieve-limit", type=int, default=None)
    _add_common(p, _primesums)

    p = sub.add_parser("audit", help="run one audit id")
    p.add_argument("--id", required=True, choices=audits.AUDIT_IDS)
    p.add_argument("--grid-steps", type=int, default=512)
    p.add_argument("--qmax", type=int, default=50)
    p.add_argument("--x", type=float, default=1e5)
    p.add_argument("--sieve-limit", type=int, default=None)
    _add_common(p, _audit)

    p = sub.add_parser("window", help="two-sided window for log|L(1,chi)|")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--x", type=float, default=1e5)
    p.add_argument("--sieve-limit", type=int, default=None)
    _add_common(p, _window)

    pd = sub.add_parser("dirichlet", help="degree-1 laboratory")
    dsub = pd.add_subparsers(dest="dirichlet_command", required=True)

    p = dsub.add_parser("l1", help="L(1, chi) for primitive non-principal chi mod q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--index", type=int, default=None)
    _add_common(p, _dirichlet_l1)

    p = dsub.add_parser("survey", help="envelope-comparison survey over 3 <= q <= qmax")
    p.add_argument("--qmax", type=int, required=True)
    _add_common(p, _dirichlet_survey)

    return ap


def _doc(command: str, params: dict, payload: dict) -> dict:
    out = {"schema": SCHEMA, "command": command, "params": params}
    out.update(payload)
    return out


def _weighted(r: primes.WeightedSumResult) -> dict:
    return {
        "x": r.x,
        "lhs": r.lhs,
        "main": r.main,
        "window": r.window,
        "residual": r.residual,
        "within_window": r.within_window(),
    }


def _check_sieve_limit(limit: Optional[int]) -> None:
    if limit is not None and limit < 2:
        raise DomainError("sieve-limit must be >= 2")


def _selected_chars(q: int, index: Optional[int]):
    # q = 2 mod 4 has no primitive character and is answered before the group is
    # built; any other q first has its psi row a = 1..q-1, read by each L(1, chi), checked
    dirichlet.check_modulus(q)
    none_primitive = q % 4 == 2
    if not none_primitive:
        special.check_digamma_row(q)
    if index is None:
        return [] if none_primitive else [
            c
            for c in dirichlet.enumerate_characters(q, primitive_only=True)
            if not c.is_principal
        ]
    chi = None if none_primitive else dirichlet.primitive_character(q, index)
    if chi is None or chi.is_principal:
        raise EdgeboundsError(
            "no primitive non-principal character mod %d with index %r" % (q, index)
        )
    return [chi]


def _constants(ns: argparse.Namespace) -> _Result:
    c = bounds.constants(ns.d)
    payload = {"constants": {"d": c.d, "K": c.K, "J1": c.J1, "J2": c.J2}}
    return _doc("constants", {"d": ns.d}, payload), []


def _bound(ns: argparse.Namespace) -> _Result:
    rep = bounds.upper_bound(ns.d, ns.log_conductor)
    params = {"d": ns.d, "log_conductor": ns.log_conductor}
    return _doc("bound", params, {"report": rep.to_json_dict()}), []


def _primesums(ns: argparse.Namespace) -> _Result:
    _check_sieve_limit(ns.sieve_limit)
    limit = primes.table_limit(ns.x, ns.sieve_limit)
    primes.check_table_x(primes.check_linear_x(ns.x), limit)  # before sieving
    tbl = primes.build_table(limit)
    lin = primes.smoothed_sum_linear(tbl, ns.x)
    payload = {
        "psi_total": primes.psi_total(tbl, ns.x),
        "linear": {k: _weighted(v) for k, v in lin.items()},
    }
    try:
        lg = primes.smoothed_sum_log(tbl, ns.x)
        payload["log"] = {k: _weighted(v) for k, v in lg.items()}
    except EdgeboundsError:
        payload["log"] = None
    try:
        payload["alternating"] = primes.alternating_prime_power_sum(tbl, ns.x)
    except EdgeboundsError:
        payload["alternating"] = None
    params = {"x": ns.x, "sieve_limit": tbl.limit}
    return _doc("primesums", params, payload), []


def _audit(ns: argparse.Namespace) -> _Result:
    if ns.grid_steps < 8:
        raise DomainError("grid-steps must be >= 8")
    _check_sieve_limit(ns.sieve_limit)
    recs = audits.run_audit(ns.id, ns.grid_steps, ns.qmax, ns.x, ns.sieve_limit)
    params = {"id": ns.id, "grid_steps": ns.grid_steps, "qmax": ns.qmax, "x": ns.x}
    n_fail = sum(1 for r in recs if r.verdict == "FAIL")
    payload = {"records": [r.to_json_dict() for r in recs], "n_fail": n_fail}
    return _doc("audit", params, payload), recs


def _window(ns: argparse.Namespace) -> _Result:
    _check_sieve_limit(ns.sieve_limit)
    limit = primes.table_limit(ns.x, ns.sieve_limit)
    recs = audits.window_records(_selected_chars(ns.q, ns.index), ns.x, limit)
    rows = [r.to_json_dict() for r in recs]
    params = {"q": ns.q, "index": ns.index, "x": ns.x, "sieve_limit": limit}
    return _doc("window", params, {"records": rows}), recs


def _dirichlet_l1(ns: argparse.Namespace) -> _Result:
    chars = _selected_chars(ns.q, ns.index)
    rows = [dirichlet.l1_row(chi, dirichlet.l1_value(chi)) for chi in chars]
    params = {"q": ns.q, "index": ns.index}
    return _doc("dirichlet.l1", params, {"characters": rows}), []


def _dirichlet_survey(ns: argparse.Namespace) -> _Result:
    rows = dirichlet.survey(ns.qmax)
    return _doc("dirichlet.survey", {"qmax": ns.qmax}, {"records": rows}), []


def _render_text(obj: object, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines: List[str] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (pad, k))
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append("%s%s: %r" % (pad, k, v))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            if isinstance(v, (dict, list)):
                lines.append("%s[%d]:" % (pad, i))
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append("%s[%d]: %r" % (pad, i, v))
    else:
        lines.append("%s%r" % (pad, obj))
    return lines


def run(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return int(code) if code is not None else 0
    if ns.format == "csv" and ns.handler is not _dirichlet_survey:
        print(
            "error: --format csv is only available for 'dirichlet survey'",
            file=sys.stderr,
        )
        return 2
    try:
        doc, recs = ns.handler(ns)
    except EdgeboundsError as e:
        print("error: %s" % (e,), file=sys.stderr)
        return 2
    if ns.format == "csv":
        text = dirichlet.survey_csv(doc["records"])
    elif ns.format == "text":
        text = "\n".join(_render_text(json_ready(doc))) + "\n"
    else:
        text = dumps_report(doc)
    if ns.out is not None:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print("error: %s" % (e,), file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 1 if any(r.verdict == "FAIL" for r in recs) else 0


def main() -> None:
    sys.exit(run())
