"""Command-line entry point.

Every invocation prints exactly one document (JSON by default) to stdout
or --out. JSON output is byte-identical across reruns with the same argv:
keys are emitted in fixed insertion order, floats in shortest round-trip
form, non-finite values as null. Exit status: 0 when no record FAILs,
1 when any audit record has verdict FAIL, 2 on usage or domain errors.
"""

import argparse
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import audits, bounds, dirichlet, primes
from ._jsonio import dumps_report, json_ready
from .errors import DomainError, EdgeboundsError

SCHEMA = "edgebounds-report/1"


@dataclass(frozen=True)
class RunConfig:
    """Validated flag set for one invocation."""

    subcommand: str
    audit_id: Optional[str] = None
    d: Optional[int] = None
    log_conductor: Optional[float] = None
    t: Optional[float] = None
    x: Optional[float] = None
    q: Optional[int] = None
    index: Optional[int] = None
    qmax: Optional[int] = None
    grid_steps: int = 512
    sieve_limit: Optional[int] = None
    format: str = "json"
    out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.format not in ("json", "csv", "text"):
            raise DomainError("format must be json, csv, or text")
        if self.grid_steps < 8:
            raise DomainError("grid-steps must be >= 8")
        if self.t is not None and not math.isfinite(self.t):
            raise DomainError("t must be finite")
        if self.sieve_limit is not None and self.sieve_limit < 2:
            raise DomainError("sieve-limit must be >= 2")


def _config(ns: argparse.Namespace) -> RunConfig:
    sub = ns.subcommand
    if sub == "dirichlet":
        sub = "dirichlet." + ns.dirichlet_command
    kw = {}
    if hasattr(ns, "id"):
        kw["audit_id"] = ns.id
    for name in (
        "d",
        "log_conductor",
        "t",
        "x",
        "q",
        "index",
        "qmax",
        "grid_steps",
        "sieve_limit",
        "format",
        "out",
    ):
        if hasattr(ns, name):
            kw[name] = getattr(ns, name)
    return RunConfig(subcommand=sub, **kw)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--out", default=None, help="write the document here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="edgebounds",
        description="Conditional bounds for degree-d edge values and their audits.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("constants", help="degree-dependent envelope constants")
    p.add_argument("--d", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("bound", help="both envelope values at (d, logC)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--log-conductor", type=float, required=True)
    p.add_argument(
        "--t",
        type=float,
        default=None,
        help="shift to the conductor on the vertical line (all-zero local parameters)",
    )
    _add_common(p)

    p = sub.add_parser("primesums", help="weighted prime sums at x")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--sieve-limit", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("audit", help="run one audit id")
    p.add_argument("--id", required=True, choices=audits.AUDIT_IDS)
    p.add_argument("--grid-steps", type=int, default=512)
    p.add_argument("--qmax", type=int, default=50)
    p.add_argument("--x", type=float, default=1e5)
    p.add_argument("--sieve-limit", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("window", help="two-sided window for log|L(1,chi)|")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--x", type=float, default=1e5)
    p.add_argument("--sieve-limit", type=int, default=None)
    _add_common(p)

    pd = sub.add_parser("dirichlet", help="degree-1 laboratory")
    dsub = pd.add_subparsers(dest="dirichlet_command", required=True)

    p = dsub.add_parser("l1", help="L(1, chi) for primitive non-principal chi mod q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--index", type=int, default=None)
    _add_common(p)

    p = dsub.add_parser("survey", help="envelope-comparison survey over 3 <= q <= qmax")
    p.add_argument("--qmax", type=int, required=True)
    _add_common(p)

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


def _selected_chars(q: int, index: Optional[int]):
    if index is None:
        return [
            c
            for c in dirichlet.enumerate_characters(q, primitive_only=True)
            if not c.is_principal
        ]
    chi = dirichlet.primitive_character(q, index)
    if chi is None or chi.is_principal:
        raise EdgeboundsError(
            "no primitive non-principal character mod %d with index %r" % (q, index)
        )
    return [chi]


def _dispatch(cfg: RunConfig) -> Tuple[dict, List[audits.AuditRecord]]:
    cmd = cfg.subcommand
    if cmd == "constants":
        c = bounds.constants(cfg.d)
        return (
            _doc(
                "constants",
                {"d": cfg.d},
                {"constants": {"d": c.d, "K": c.K, "J1": c.J1, "J2": c.J2}},
            ),
            [],
        )

    if cmd == "bound":
        log_c = cfg.log_conductor
        if cfg.t is not None:
            log_c = log_c + cfg.d * 0.5 * math.log1p(cfg.t * cfg.t)
        rep = bounds.upper_bound(cfg.d, log_c)
        params = {"d": cfg.d, "log_conductor": cfg.log_conductor, "t": cfg.t}
        return _doc("bound", params, {"report": rep.to_json_dict()}), []

    if cmd == "primesums":
        tbl = primes.build_table(cfg.sieve_limit or primes.table_limit(cfg.x))
        lin = primes.smoothed_sum_linear(tbl, cfg.x)
        payload = {
            "psi_total": primes.psi_total(tbl, cfg.x),
            "linear": {k: _weighted(v) for k, v in lin.items()},
        }
        try:
            lg = primes.smoothed_sum_log(tbl, cfg.x)
            payload["log"] = {k: _weighted(v) for k, v in lg.items()}
        except EdgeboundsError:
            payload["log"] = None
        try:
            payload["alternating"] = primes.alternating_prime_power_sum(tbl, cfg.x)
        except EdgeboundsError:
            payload["alternating"] = None
        params = {"x": cfg.x, "sieve_limit": tbl.limit}
        return _doc("primesums", params, payload), []

    if cmd == "audit":
        tbl = None
        if cfg.sieve_limit is not None and cfg.audit_id in audits.TABLE_AUDIT_IDS:
            tbl = primes.build_table(cfg.sieve_limit)
        recs = audits.run_audit(
            cfg.audit_id, tbl=tbl, grid_steps=cfg.grid_steps, q_max=cfg.qmax, x=cfg.x
        )
        params = {
            "id": cfg.audit_id,
            "grid_steps": cfg.grid_steps,
            "qmax": cfg.qmax,
            "x": cfg.x,
        }
        n_fail = sum(1 for r in recs if r.verdict == "FAIL")
        payload = {"records": [r.to_json_dict() for r in recs], "n_fail": n_fail}
        return _doc("audit", params, payload), recs

    if cmd == "window":
        limit = primes.checked_limit(cfg.sieve_limit or primes.table_limit(cfg.x))
        chars = _selected_chars(cfg.q, cfg.index)
        recs = []  # an empty selection prints its document without sieving
        if chars:
            recs = audits.window_records(primes.build_table(limit), chars, cfg.x)
        rows = [r.to_json_dict() for r in recs]
        params = {"q": cfg.q, "index": cfg.index, "x": cfg.x, "sieve_limit": limit}
        return _doc("window", params, {"records": rows}), recs

    if cmd == "dirichlet.l1":
        rows = []
        for chi in _selected_chars(cfg.q, cfg.index):
            val = dirichlet.l1_value(chi)
            rows.append(
                {
                    "q": cfg.q,
                    "char_index": chi.index,
                    "conductor": chi.conductor,
                    "parity": chi.parity,
                    "re_L1": val.real,
                    "im_L1": val.imag,
                    "abs_L1": abs(val),
                }
            )
        params = {"q": cfg.q, "index": cfg.index}
        return _doc("dirichlet.l1", params, {"characters": rows}), []

    if cmd == "dirichlet.survey":
        records = dirichlet.survey(cfg.qmax, out=None)
        rows = [r.to_json_dict() for r in records]
        params = {"qmax": cfg.qmax}
        return _doc("dirichlet.survey", params, {"records": rows}), []

    raise EdgeboundsError("unknown subcommand %r" % (cmd,))


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


def _emit(cfg: RunConfig, doc: dict) -> Optional[str]:
    if cfg.format == "json":
        return dumps_report(doc)
    if cfg.format == "text":
        return "\n".join(_render_text(json_ready(doc))) + "\n"
    if cfg.format == "csv":
        if doc.get("command") == "dirichlet.survey":
            return dirichlet.survey_csv(doc["records"])
        return None
    return None


def run(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return int(code) if code is not None else 0
    try:
        cfg = _config(ns)
        doc, recs = _dispatch(cfg)
    except EdgeboundsError as e:
        print("error: %s" % (e,), file=sys.stderr)
        return 2
    text = _emit(cfg, doc)
    if text is None:
        print(
            "error: --format csv is only available for 'dirichlet survey'",
            file=sys.stderr,
        )
        return 2
    if cfg.out is not None:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print("error: %s" % (e,), file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 1 if any(r.verdict == "FAIL" for r in recs) else 0


def main() -> None:
    sys.exit(run())
