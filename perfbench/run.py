"""edgebounds benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Closed loop, one client: the harness
starts one fresh interpreter per workload pass (module caches cold, as for a
CLI user), waits for it, and starts the next while it should end nearer to
--seconds than not (at least one pass). With --trace 1 every untraced pass
is followed by a traced pass, whose layer spans give the per-layer metrics.
Times are scaled to a reference machine speed (see Runner). Human-readable
lines come first; the last stdout line is the JSON result. See README.md.
"""

import argparse
import bisect
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

TIME_LIMIT_S = 170.0  # whole run, leaving margin under a 180 s cap
PROBES = 9  # import-only children per run, for setup_s
REF_LOOP_S = 0.8e-3  # reference CPU time of one speed-probe round
MIN_SAMPLES = 25  # speed-probe samples behind each scaled time
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = {
    "window_sweep": "audit --id window with defaults: 470 characters, explicit-formula path",
    "dirichlet_lab": "dirichlet survey --qmax 200 plus the dual-oracle sweep; no sieve, no prime sums",
    "audit_suite": "the 11 other audit ids; kappa series, grids, extremum searches, lemma sieves",
    "window_queries": "seeded single-character window queries; sieve set-up dominates each query",
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p75_ms", "ms"),
)

# Fixed here rather than read from edgebounds.audits, so that a new audit id
# changes the benchmark only by an edit to this file.
AUDIT_IDS = (
    "trig", "p2", "hmax", "logratio", "techlem1", "techlem2",
    "chandee", "bconst", "lemma24", "lemma26", "aterms", "window",
)


def _layer_metrics():
    out = []
    for name in (
        "kernel.spf_array", "primes.build_table", "primes.prime_power_grid",
        "lfunc.coefficient", "audits.explicit_formula_window",
        "special.kappa_series_direct", "special.digamma", "special.digamma_rational",
        "dirichlet.enumerate_characters", "dirichlet.l1_value",
        "dirichlet.l1_value_series", "dirichlet.survey", "bounds.upper_bound",
        "jsonio.dumps_report", "cli.run", "bench.dual_sweep",
    ):
        out += [(name + ".calls", "count"), (name + ".self_s", "s")]
    out += [("audits.run_audit.%s.self_s" % i, "s") for i in AUDIT_IDS]
    out += [
        ("primes.sieve_entries", "count"),
        ("primes.sieve_use_ratio", "ratio"),
        ("primes.prime_powers", "count"),
        ("dirichlet.char_use_ratio", "ratio"),
        ("audits.window_width_med", "log"),
        ("cli.stdout_bytes", "bytes"),
        ("trace_overhead_s", "s"),
        ("trace.coverage", "ratio"),
    ]
    return tuple(out)


PER_LAYER = _layer_metrics()

# (audit id, exit code, verdicts): lemma24 and lemma26 exit 1 by design,
# each with its fixed PASS/FAIL variant pattern; hmax and techlem1 REPORT.
AUDIT_SUITE = (
    ("trig", 0, ["PASS"]),
    ("p2", 0, ["PASS"] * 3),
    ("hmax", 0, ["REPORT"]),
    ("logratio", 0, ["PASS"]),
    ("techlem1", 0, ["REPORT"]),
    ("techlem2", 0, ["PASS"]),
    ("chandee", 0, ["PASS"]),
    ("bconst", 0, ["PASS"]),
    ("lemma24", 1, ["FAIL", "PASS", "FAIL", "PASS", "PASS", "PASS", "PASS", "PASS"]),
    ("lemma26", 1, ["FAIL", "PASS", "FAIL", "PASS"]),
    ("aterms", 0, ["PASS", "PASS"]),
)

# "full" is the benchmark; "small" is for selftest.py only.
SIZES = {
    "full": {
        "sweep_args": [], "sweep_qmax": 50,
        # median log|L(1,chi)| window width of the default sweep at the seed
        "sweep_width_med": 0.0005311277019318661,
        "lab_qmax": 200, "audit_args": [], "lemma_args": [],
        "queries": 32, "query_q": (3, 400), "query_logx": (3.0, 6.0), "query_args": [],
    },
    "small": {
        "sweep_args": ["--qmax", "12", "--x", "2000", "--sieve-limit", "2000"],
        "sweep_qmax": 12, "sweep_width_med": None,
        "lab_qmax": 40, "audit_args": ["--grid-steps", "64"],
        "lemma_args": ["--sieve-limit", "1000000"],
        "queries": 6, "query_q": (3, 60), "query_logx": (3.0, 4.0),
        "query_args": ["--sieve-limit", "10000"],
    },
}


def _cli(argv, exit_code, expect, fixed):
    return {"kind": "cli", "argv": argv, "exit": exit_code, "expect": expect, "fixed": fixed}


def build_ops(workload, seed, size):
    """The operations of one pass, all inputs derived from seed."""
    from checks import characters_up_to

    z = SIZES[size]
    if workload == "window_sweep":
        expect = {"windows": characters_up_to(z["sweep_qmax"]),
                  "width_med_max": z["sweep_width_med"]}
        return [_cli(["audit", "--id", "window"] + z["sweep_args"], 0, expect, True)]
    if workload == "dirichlet_lab":
        n = characters_up_to(z["lab_qmax"])
        return [
            _cli(["dirichlet", "survey", "--qmax", str(z["lab_qmax"])], 0, {"survey": n}, True),
            {"kind": "dual_sweep", "qmax": z["lab_qmax"]},
        ]
    if workload == "audit_suite":
        ops = []
        for audit_id, code, verdicts in AUDIT_SUITE:
            extra = z["lemma_args"] if audit_id in ("lemma24", "lemma26") else z["audit_args"]
            ops.append(_cli(["audit", "--id", audit_id] + extra, code, {"verdicts": verdicts}, True))
        return ops
    if workload == "window_queries":
        return _window_queries(seed, z)
    raise ValueError(workload)


def _window_queries(seed, z):
    # Character indices are the library's own labels, so they are read from
    # the checkout's enumerate_characters before any timed pass starts.
    sys.path.insert(0, str(SRC))
    from edgebounds import enumerate_characters
    from checks import primitive_count

    rng = random.Random(seed)
    ops = []
    lo_q, hi_q = z["query_q"]
    while len(ops) < z["queries"]:
        q = rng.randint(lo_q, hi_q)
        if primitive_count(q) == 0:
            continue
        chars = [c.index for c in enumerate_characters(q, primitive_only=True)
                 if not c.is_principal]
        index = rng.choice(chars)
        x = "%.1f" % 10 ** rng.uniform(*z["query_logx"])
        argv = ["window", "--q", str(q), "--index", str(index), "--x", x] + z["query_args"]
        ops.append(_cli(argv, 0, {"windows": 1, "char": [q, index]}, False))
    return ops


class Runner:
    """Runs children one at a time on one CPU, next to the speed probe.

    Times are CPU seconds of a child (single-threaded, pinned, no I/O: its
    wall time when alone on the CPU) multiplied by REF_LOOP_S over the
    probe's mean loop time in the same interval, i.e. seconds at a fixed
    reference machine speed. This takes out most of the slow-down that other
    tenants of a shared host cause, which moves raw wall time by 20-50%.
    """

    def __init__(self):
        self.t_start = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", **THREAD_ENV)
        # Children and the probe inherit this affinity.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.probe = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        self.probe.stdout.readline()
        self.samples = self.ends = None

    def close(self):
        """Stop the speed probe and keep its samples."""
        if self.probe.poll() is None:
            self.probe.terminate()
        try:
            out, _ = self.probe.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.probe.kill()
            self.probe.communicate()
            raise
        self.samples = [tuple(map(float, line.split())) for line in out.splitlines()]
        self.ends = [e for e, _c in self.samples]

    def child(self, spec):
        left = TIME_LIMIT_S - (time.monotonic() - self.t_start)
        if left <= 0:
            raise RuntimeError("time limit reached before a child could start")
        t_spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(CHILD)], input=json.dumps(spec), env=self.env,
            cwd=str(ROOT), capture_output=True, text=True, timeout=left,
        )
        if proc.returncode != 0:
            raise RuntimeError("child exited %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["t_spawn"] = t_spawn
        return out

    def scaled(self, t0, t1, cpu_s):
        """cpu_s at reference speed, from the probe samples ending in [t0, t1]."""
        ends = self.ends
        lo, hi = bisect.bisect_left(ends, t0), bisect.bisect_right(ends, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(ends)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(ends))
        loop_s = statistics.fmean(c for _e, c in self.samples[lo:hi])
        return cpu_s * REF_LOOP_S / loop_s


def _quantile(values, which):
    """Inclusive-method quartile (1, 2 or 3) of values; the value itself when alone."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[which - 1]


def _summary(name, values, unit):
    return "  %-34s %-14.6g q1 %-12.6g q3 %-12.6g n %-4d %s" % (
        name, statistics.median(values), _quantile(values, 1), _quantile(values, 3),
        len(values), unit)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="'small' shrinks every workload for the self-test")
    ap.add_argument("--inject-failure", action="store_true",
                    help="fail the first check of every pass (self-test of the gate)")
    args = ap.parse_args(argv)
    if not (SRC / "edgebounds" / "__init__.py").is_file():
        print("error: %s has no edgebounds sources" % SRC, file=sys.stderr)
        return 2

    runner = Runner()
    try:
        plain, traced, setups = _measure(runner, args)
    finally:
        runner.close()
    scaled = runner.scaled

    children = plain + traced
    attempted = sum(c["attempted"] for c in children)
    failures = [f for c in children for f in c["failures"]]
    for c in children:
        c["wall_s"] = sum(scaled(*op) for op in c["ops"])
        c["raw_wall_s"] = c["ops"][-1][1] - c["ops"][0][0]
    walls = [c["wall_s"] for c in plain]
    lat_ms = [1000.0 * scaled(*op) for c in plain for op in c["ops"]]
    e2e = {
        "wall_s": walls,
        "setup_s": [scaled(c["t_spawn"], c["t_import"], c["setup_cpu_s"]) for c in setups],
        "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
        "query_p50_ms": lat_ms,
    }

    print("workload %s (%s)" % (args.workload, WORKLOADS[args.workload]))
    print("  seed %d, %d untraced + %d traced passes, %d ops each, size %s" % (
        args.seed, len(plain), len(traced), len(plain[0]["ops"]), args.size))
    print("  kernel_backend %s, python %s, %s" % (
        plain[0]["kernel_backend"], sys.version.split()[0],
        " ".join("%s=%s" % kv for kv in sorted(THREAD_ENV.items()))))
    print(_summary("raw wall_s (not normalised)", [c["raw_wall_s"] for c in plain], "s"))
    for name, unit in END_TO_END:
        if name == "query_p75_ms":
            beyond = sum(1 for v in lat_ms if v > _quantile(lat_ms, 3))
            print("  %-34s %-14.6g (%d of %d samples beyond) %s" % (
                name, _quantile(lat_ms, 3), beyond, len(lat_ms), unit))
        else:
            print(_summary(name, e2e[name], unit))
    print("  %-34s %-14.6g (%d of %d ops) ratio" % (
        "fail_ratio", len(failures) / attempted, len(failures), attempted))
    for f in failures[:20]:
        print("  FAILED %s" % f)
    for argv_s, digest in plain[0]["digests"]:
        print("  sha256 %s  %s" % (digest, argv_s))

    if args.trace:
        metrics = _layers(traced, walls)
        for name, unit in PER_LAYER:
            print("  %-44s %-14.6g %s" % (name, metrics[name], unit))
        units = dict(PER_LAYER)
    else:
        metrics = {name: statistics.median(e2e[name]) for name in ("wall_s", "setup_s", "peak_rss_mb")}
        metrics["query_p50_ms"] = statistics.median(lat_ms)
        metrics["query_p75_ms"] = _quantile(lat_ms, 3)
        units = dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def _measure(runner, args):
    """(untraced passes, traced passes, set-up samples) of one run."""
    base = {"ops": build_ops(args.workload, args.seed, args.size),
            "inject_failure": args.inject_failure}
    runner.child({"probe": True})  # discarded: compiles bytecode on a fresh checkout
    setups = [runner.child({"probe": True}) for _ in range(PROBES)]
    plain, traced, rounds = [], [], []
    t_measure = time.monotonic()
    while True:
        t0 = time.monotonic()
        plain.append(runner.child(dict(base, trace=False)))
        if args.trace:
            traced.append(runner.child(dict(base, trace=True)))
        rounds.append(time.monotonic() - t0)
        # Start another round only if it should end nearer to --seconds than not.
        if time.monotonic() - t_measure + statistics.median(rounds) / 2 >= args.seconds:
            break
    return plain, traced, setups + plain + traced


def _layers(traced, plain_walls):
    """Median over traced passes of every per-layer metric (0 when a layer is unused)."""
    per_pass = []
    for c in traced:
        layers = c["layers"]
        self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        layers["trace.coverage"] = self_total / c["raw_wall_s"]
        per_pass.append(layers)
    out = {}
    for name, _unit in PER_LAYER:
        out[name] = statistics.median(p.get(name, 0) for p in per_pass)
    out["trace_overhead_s"] = (
        statistics.median(c["wall_s"] for c in traced) - statistics.median(plain_walls))
    return out


if __name__ == "__main__":
    sys.exit(main())
