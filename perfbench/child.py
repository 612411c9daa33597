"""One workload pass in a fresh interpreter; started by run.py.

Reads a JSON spec on stdin ({"ops": [...], "trace": bool, "probe": bool,
"inject_failure": bool}), runs every operation back to back, then checks the
outputs and writes one JSON result line to stdout. The import of edgebounds
is the first thing it does, so ``t_import`` marks the end of set-up.
"""

import resource
import time

import edgebounds  # noqa: E402  (set-up ends when this import is done)
import edgebounds.cli  # noqa: E402

T_IMPORT = time.monotonic()
_RU = resource.getrusage(resource.RUSAGE_SELF)
SETUP_CPU_S = _RU.ru_utime + _RU.ru_stime

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = edgebounds.cli.run(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _dual_sweep(qmax):
    """Both L(1, chi) oracles over every primitive non-principal chi mod q <= qmax."""
    rows = []
    for q in range(3, qmax + 1):
        for chi in edgebounds.enumerate_characters(q, primitive_only=True):
            if chi.is_principal:
                continue
            rows.append((q, chi.index, edgebounds.l1_value(chi), edgebounds.l1_value_series(chi)))
    return {"rows": rows}


def _execute(op, tracer):
    if op["kind"] == "cli":
        fn, arg, name = _run_cli, op["argv"], "cli.run"
    else:
        fn, arg, name = _dual_sweep, op["qmax"], "bench.dual_sweep"
    if tracer is None:
        return fn(arg)
    return tracer.span(name, fn, arg)


def main():
    spec = json.load(sys.stdin)
    if spec.get("probe"):
        print(json.dumps({"t_import": T_IMPORT, "setup_cpu_s": SETUP_CPU_S}))
        return
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    # Each op is timed as [start, end] on time.monotonic (which run.py's
    # speed probe shares) plus the CPU seconds it used.
    results, op_times = [], []
    clock, cpu = time.monotonic, time.process_time
    try:
        for op in spec["ops"]:
            t0, c0 = clock(), cpu()
            try:
                res = _execute(op, tracer)
            except Exception:
                res = {"error": traceback.format_exc()}
            op_times.append((t0, clock(), cpu() - c0))
            results.append(res)
    finally:
        if tracer is not None:
            tracer.restore()

    failures, widths, digests, stdout_bytes = [], [], [], 0
    sweep = next((r for r in results if "rows" in r), None)
    for i, (op, res) in enumerate(zip(spec["ops"], results)):
        if "stdout" in res:
            stdout_bytes += len(res["stdout"].encode())
            if op.get("fixed"):
                digests.append((" ".join(op["argv"]),
                                hashlib.sha256(res["stdout"].encode()).hexdigest()))
        msg = checks.check(op, res, sweep, widths)
        if msg is None and spec.get("inject_failure") and i == 0:
            msg = "failure injected by --inject-failure"
        if msg is not None:
            failures.append("%s: %s" % (checks.describe(op), msg))

    out = {
        "t_import": T_IMPORT,
        "setup_cpu_s": SETUP_CPU_S,
        "ops": op_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(spec["ops"]),
        "failures": failures,
        "digests": digests,
        "layers": None,
        "kernel_backend": edgebounds.kernel_backend(),
    }
    if tracer is not None:
        layers = tracer.report()
        layers["cli.stdout_bytes"] = stdout_bytes
        built = layers.pop("dirichlet.characters_built")
        used = layers.get("dirichlet.l1_value.calls", 0)
        layers["dirichlet.char_use_ratio"] = used / built if built else 0.0
        layers["audits.window_width_med"] = statistics.median(widths) if widths else 0.0
        out["layers"] = layers
    print(json.dumps(out, allow_nan=False))


if __name__ == "__main__":
    main()
