"""Machine-speed probe; started by run.py next to the workload passes.

Sums a fixed slice of LOOP_ITERS floats from an 8 MiB Python list, over and
over at lowered priority on the same CPU as the passes, and records for
each round its end time (time.monotonic) and the CPU time it took. When
terminated (SIGTERM) it prints every sample as "end cpu_s" lines.

The CPU time of the fixed round rises and falls with contention from other
tenants of the host; run.py divides the passes' CPU times by it. A list walk
that misses the core's own caches tracked the workloads' slow-downs better
than a register-only loop or a loop of function calls (seed-to-seed
variation left after scaling: 1.6-1.9% against 2.4-4.4% and 1.6-4.4%).
"""

import os
import signal
import sys
import time

LOOP_ITERS = 20000
DATA_LEN = 1 << 18  # 8 MiB of float objects and pointers
NICE = 10  # about a tenth of the CPU beside a nice-0 pass

_stop = False


def _on_term(_signum, _frame):
    global _stop
    _stop = True


_DATA = [float(i) for i in range(DATA_LEN)]


def _round(start):
    s = 0.0
    for v in _DATA[start:start + LOOP_ITERS]:
        s += v
    return s


def main():
    signal.signal(signal.SIGTERM, _on_term)
    os.nice(NICE)
    samples = []
    clock, cpu = time.monotonic, time.thread_time
    print("ready", flush=True)
    start = 0
    while not _stop:
        c0 = cpu()
        _round(start)
        samples.append((clock(), cpu() - c0))
        start = (start + LOOP_ITERS) % (DATA_LEN - LOOP_ITERS)
    sys.stdout.write("".join("%.6f %.9f\n" % s for s in samples))


if __name__ == "__main__":
    main()
