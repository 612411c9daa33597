"""Self-test of the benchmark harness at reduced sizes.

    python3 perfbench/selftest.py

Runs every workload once with ``--size small`` and checks that:
every end-to-end and per-layer metric is printed with its unit (and agrees
with BENCHMARK.json when it is present), counts repeat exactly across two
traced runs, a check forced to fail raises the failure count, and the tracer
patches every required import site and restores the originals.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

COUNT_UNITS = ("count", "bytes")


def _expect(cond, msg):
    if not cond:
        raise AssertionError(msg)


def _bench(workload, trace, *extra):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "0", "--trace", str(trace), "--size", "small", *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=str(HERE.parent))
    _expect(proc.returncode == 0, "%s exited %d:\n%s" % (argv, proc.returncode, proc.stderr))
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def _check_metrics(res, table, text, label):
    _expect(set(res["metrics"]) == {n for n, _u in table}, "%s: metric names differ" % label)
    for name, unit in table:
        m = res["metrics"][name]
        _expect(m["unit"] == unit and isinstance(m["value"], (int, float)),
                "%s: %s printed as %r" % (label, name, m))
        _expect(name in text, "%s: %s missing from the summary" % (label, name))


def check_benchmark_json():
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    _expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
            "BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        got = [(m["name"], m["unit"]) for m in spec[key]]
        _expect(got == list(table), "BENCHMARK.json %s differs from run.py" % key)


def check_tracer_sites():
    import edgebounds  # noqa: F401
    import edgebounds.cli  # noqa: F401

    originals = {site: getattr(sys.modules[site[0]], site[1]) for site in tracer.REQUIRED_SITES}
    coeff = edgebounds.LFunctionInstance.coefficient
    t = tracer.Tracer()
    t.install()
    try:
        for (mod, attr), orig in originals.items():
            _expect(getattr(sys.modules[mod], attr) is not orig, "%s.%s not patched" % (mod, attr))
        _expect(edgebounds.LFunctionInstance.coefficient is not coeff, "coefficient not patched")
    finally:
        t.restore()
    for (mod, attr), orig in originals.items():
        _expect(getattr(sys.modules[mod], attr) is orig, "%s.%s not restored" % (mod, attr))
    _expect(edgebounds.LFunctionInstance.coefficient is coeff, "coefficient not restored")


def main():
    check_benchmark_json()
    check_tracer_sites()
    for workload in sorted(run.WORKLOADS):
        text, res = _bench(workload, 0)
        _expect(res["correct"] and res["failed"] == 0, "%s: %s" % (workload, text))
        _check_metrics(res, run.END_TO_END, text, workload)
        _expect("fail_ratio" in text, "%s: fail_ratio missing from the summary" % workload)
        text1, first = _bench(workload, 1)
        _, second = _bench(workload, 1)
        _check_metrics(first, run.PER_LAYER, text1, workload + " traced")
        for name, unit in run.PER_LAYER:
            if unit in COUNT_UNITS:
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                _expect(a == b, "%s: %s is %r then %r" % (workload, name, a, b))
        print("ok %s" % workload)
    _, res = _bench("window_sweep", 0, "--inject-failure")
    _expect(not res["correct"] and res["failed"] >= 1, "an injected failure was not counted")
    print("ok injected failure counted: %d of %d" % (res["failed"], res["attempted"]))


if __name__ == "__main__":
    main()
