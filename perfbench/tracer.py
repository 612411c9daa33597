"""Span tracer that wraps edgebounds' public layer functions from outside.

``Tracer.install()`` replaces each traced function at every place the
package holds a reference to it (its defining module and every module that
imported it by name), plus ``LFunctionInstance.coefficient`` on the class.
Spans are aggregated in memory per name (calls and self time)
and handed back by ``Tracer.report()``; ``Tracer.restore()`` puts every
original back. Self time is a span's duration minus its child spans.
"""

import sys
import time
import weakref

# (span name, defining module, attribute). Every module-level binding of the
# same function object inside the package is patched too.
FUNCTIONS = (
    ("kernel.spf_array", "edgebounds._kernel", "spf_array"),
    ("primes.build_table", "edgebounds.primes", "build_table"),
    ("primes.prime_power_grid", "edgebounds.primes", "prime_power_grid"),
    ("audits.explicit_formula_window", "edgebounds.audits", "explicit_formula_window"),
    ("audits.run_audit", "edgebounds.audits", "run_audit"),
    ("special.kappa_series_direct", "edgebounds.special", "kappa_series_direct"),
    ("special.digamma", "edgebounds.special", "digamma"),
    ("special.digamma_rational", "edgebounds.special", "digamma_rational"),
    ("dirichlet.enumerate_characters", "edgebounds.dirichlet", "enumerate_characters"),
    ("dirichlet.l1_value", "edgebounds.dirichlet", "l1_value"),
    ("dirichlet.l1_value_series", "edgebounds.dirichlet", "l1_value_series"),
    ("dirichlet.survey", "edgebounds.dirichlet", "survey"),
    ("bounds.upper_bound", "edgebounds.bounds", "upper_bound"),
    ("jsonio.dumps_report", "edgebounds._jsonio", "dumps_report"),
)

# Import sites that must be patched for the trace to be complete; checked by
# install() so that a refactor moving a call site fails loudly.
REQUIRED_SITES = (
    ("edgebounds.audits", "prime_power_grid"),
    ("edgebounds.audits", "kappa_series_direct"),
    ("edgebounds.audits", "digamma"),
    ("edgebounds.special", "digamma"),
    ("edgebounds.dirichlet", "digamma_rational"),
    ("edgebounds.dirichlet", "upper_bound"),
    ("edgebounds.cli", "dumps_report"),
    ("edgebounds._kernel", "spf_array"),
)


def _totient(n):
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


class Tracer:
    """Aggregated spans and layer counters for one child process."""

    def __init__(self):
        self.stats = {}  # name -> [calls, self_s]
        self.counters = {
            "primes.sieve_entries": 0,
            "primes.prime_powers": 0,
            "dirichlet.characters_built": 0,
        }
        self._stack = [[0.0]]  # child-time accumulators; [0] is the root
        self._patched = []  # (owner, attribute, original)
        # table -> largest x any prime-power grid asked of it
        self._tables = weakref.WeakKeyDictionary()
        self._table_limits = []  # [limit, max_x] per table built

    # -- spans ---------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0]
        frame = [0.0]
        stack = self._stack
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            st[0] += 1
            st[1] += dur - frame[0]
            stack[-1][0] += dur

    def _wrap(self, name, fn):
        span = self.span

        if name == "audits.run_audit":
            def wrapper(audit_id, *args, **kwargs):
                return span("audits.run_audit." + audit_id, fn, audit_id, *args, **kwargs)
        elif name == "primes.build_table":
            def wrapper(*args, **kwargs):
                tbl = span(name, fn, *args, **kwargs)
                rec = [tbl.limit, 0.0]
                self._table_limits.append(rec)
                self._tables[tbl] = rec
                self.counters["primes.sieve_entries"] += tbl.limit + 1
                return tbl
        elif name == "primes.prime_power_grid":
            def wrapper(tbl, x, *args, **kwargs):
                out = span(name, fn, tbl, x, *args, **kwargs)
                rec = self._tables.get(tbl)
                if rec is not None and float(x) > rec[1]:
                    rec[1] = float(x)
                self.counters["primes.prime_powers"] += sum(len(p) for p, _pk, _k in out)
                return out
        elif name == "dirichlet.enumerate_characters":
            def wrapper(q, *args, **kwargs):
                self.counters["dirichlet.characters_built"] += _totient(int(q))
                return span(name, fn, q, *args, **kwargs)
        else:
            # Hot path (LFunctionInstance.coefficient runs millions of times):
            # the span is inlined rather than routed through self.span.
            stack, perf = self._stack, time.perf_counter
            st = self.stats.setdefault(name, [0, 0.0])

            def wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    stack.pop()
                    st[0] += 1
                    st[1] += dur - frame[0]
                    stack[-1][0] += dur

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Patch every traced function at all its bindings in the package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "edgebounds" or n.startswith("edgebounds."))
        ]
        for name, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapper)
        lfunc = sys.modules["edgebounds.lfunc"]
        cls = lfunc.LFunctionInstance
        self._set(cls, "coefficient", self._wrap("lfunc.coefficient", cls.coefficient))
        missing = [
            "%s.%s" % site for site in REQUIRED_SITES
            if not hasattr(getattr(sys.modules[site[0]], site[1]), "__wrapped__")
        ]
        if missing:
            self.restore()
            raise RuntimeError("import sites not patched: " + ", ".join(missing))

    def restore(self):
        """Put every original function back, last patch first."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def report(self):
        """Flat {metric name: value} of spans and counters."""
        out = {}
        for name, (calls, self_s) in sorted(self.stats.items()):
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        out.update(self.counters)
        limits = sum(lim for lim, _x in self._table_limits)
        used = sum(x for _lim, x in self._table_limits)
        out["primes.sieve_use_ratio"] = used / limits if limits else 0.0
        return out
