"""One fresh benchmark process: import rppg, run CLI calls, write the record.

Usage: python3 worker.py JOB.json

JOB.json holds ``src`` (the directory that contains the ``rppg`` package),
``calls`` (argument lists for ``rppg.cli.main``), ``min_s``, ``trace``
(bool) and ``out`` (where the result record is written). The calls run in
order, and again until at least ``min_s`` seconds have passed, so that a
short call is timed more than once; a pass in which a call fails is the
last. The record carries the monotonic time at which ``import rppg``
returned; per call and pass the exit code, the wall time and the host's
speed; the process's ``ru_maxrss``; and, when traced, the spans.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

PROBE_PERIOD_S = 0.1


class SpeedProbe:
    """Measures how fast the host runs while a call runs.

    On a shared virtual machine the same work can take 1.5x longer from one
    stretch of seconds to the next, so a wall time alone does not repeat
    between runs. The probe times a fixed ~2 ms kernel, which mixes the
    three kinds of work the package does (interpreted loops, many small
    NumPy calls, and one pass over a large array), right before a call,
    every PROBE_PERIOD_S during it from a timer signal, and right after
    it. The median kernel time is the host's speed over the call (the
    median, because a kernel run that the scheduler interrupts reads far
    too slow). The time the probe takes during the call is kept apart, so
    that it can be taken off the call's wall time, and off the self time of
    the span it interrupts (``on_sample``).
    """

    def __init__(self, on_sample=None):
        import numpy as np

        self._on_sample = on_sample
        rng = np.random.default_rng(0)
        self._small = rng.random(256)
        self._large = rng.random(131_072).astype(np.float32)
        self._exp = np.exp
        self.samples: list[float] = []
        self.spent = 0.0

    def kernel(self) -> None:
        t0 = time.perf_counter()
        x = 0
        for k in range(15_000):
            x += k
        for i in range(60):
            self._small[i : i + 128].std()
        self._exp(-self._large * self._large)
        self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        elapsed = time.perf_counter() - t0
        self.spent += elapsed
        if self._on_sample is not None:
            self._on_sample(elapsed)

    def start(self) -> None:
        self.samples = self.samples[-1:]  # the run right before the call
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def median_after(self) -> float:
        """Median kernel time over the call, counting one run right after it."""
        self.kernel()
        return statistics.median(self.samples)


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, job["src"])
    import rppg  # noqa: F401  (the import is what setup time measures)
    import rppg.cli

    imported = time.monotonic()
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    probe = SpeedProbe(tracer.exclude if tracer else None)
    probe.kernel()
    calls = [{"rc": [], "wall_s": [], "probe_s": []} for _ in job["calls"]]
    started = time.perf_counter()
    while True:
        for argv, call in zip(job["calls"], calls):
            probe.start()
            t0 = time.perf_counter()
            try:
                rc = rppg.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # the CLI would end in a traceback with exit 1
                traceback.print_exc()
                rc = 1
            probe.stop()
            call["wall_s"].append(time.perf_counter() - t0 - probe.spent)
            call["probe_s"].append(probe.median_after())
            call["rc"].append(rc)
        failed = any(call["rc"][-1] != 0 for call in calls)
        if failed or time.perf_counter() - started >= job["min_s"]:
            break
    record = {
        "imported": imported,
        "calls": calls,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.dump() if tracer else None,
    }
    Path(job["out"]).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
