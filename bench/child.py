"""One benchmark case: a fresh interpreter running one ``admissible`` command.

Usage: python -I -S child.py SRC_DIR SPEC_JSON

SPEC_JSON holds ``argv`` (the CLI arguments), ``case`` (the case id) and
``trace`` (whether to record per-layer spans).  The package is imported
first, so that the parent can time interpreter start and imports apart from
the work; then ``admissible.cli.main(argv)`` runs with stdout and stderr
captured.  One JSON line on the real stdout reports the exit code, the
captured stdout, the clock reading at which the CLI was ready, the work
time, per-verify-case times, this process's own peak RSS and, when traced,
the layer totals and spans.

Times are reported as measured and scaled to the reference speed (see
Speedometer).
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import admissible.cli as cli  # noqa: E402  (set-up ends once this import is done)

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

# Seconds one speed sample takes at the reference speed.
REFERENCE_SAMPLE_S = 0.0003
SAMPLE_INTERVAL_S = 0.025


def _reference_loop(n=1000):
    """Fixed pure-Python work: tuple-keyed dict updates and integer arithmetic,
    the operations the package spends its time on.  Its data stay small, so
    a sample taken in the middle of the work is not slowed by the cache
    lines the work evicted."""
    acc, big = {}, 3
    for i in range(n):
        key = (i % 3, i % 7)
        acc[key] = acc.get(key, 0) + i * (i & 15)
        if i % 8 == 0:
            big = (big * 1000003 + i) % (1 << 256)


class Speedometer:
    """Samples the machine's momentary speed during the work.

    On the shared host this was built on, one vCPU's speed drifts by 10-20%
    within a second and does not track the other vCPU's, so the speed is
    sampled in the same thread as the work: a short fixed loop runs before
    and after the work, before each verify case, and every
    SAMPLE_INTERVAL_S from a timer signal while the work runs.  Sample time
    is counted in ``stolen`` and taken out of the work's time.  A stretch of
    work is scaled by REFERENCE_SAMPLE_S over the mean of the samples taken
    from just before it to just after it.
    """

    def __init__(self):
        self.samples = []
        self.stolen = 0.0
        self.tracer = None

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        _reference_loop()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.stolen += elapsed
        if self.tracer is not None:
            self.tracer.paused += elapsed

    def burst(self, n=8):
        for _ in range(n):
            self.sample()

    def scale(self, first: int, last: int) -> float:
        """Reference-speed factor from samples first..last inclusive."""
        return REFERENCE_SAMPLE_S / statistics.mean(self.samples[first:last + 1])

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> None:
    spec = json.loads(sys.argv[2])
    speed = Speedometer()
    _reference_loop(4000)  # warm the loop's bytecode before the first sample
    speed.burst()
    setup_scale = speed.scale(0, len(speed.samples) - 1)

    tracer = None
    entry = cli.main
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli", "main", cli.main)
        speed.tracer = tracer

    # Verify suites run their cases serially through cli._run_case; timing it
    # gives one sample per verify case, each preceded by a speed sample.
    cases = []  # [report case id, measured seconds, index of its speed sample]
    if spec["argv"][0] == "verify":
        run_case = cli._run_case

        def timed_case(case):
            if tracer is not None:
                tracer.start_case(f"{spec['case']}/{case['id']}")
            speed.sample()
            own = len(speed.samples) - 1
            stolen, t0 = speed.stolen, time.perf_counter()
            result = run_case(case)
            seconds = time.perf_counter() - t0 - (speed.stolen - stolen)
            cases.append([result[0]["case"], seconds, own])
            return result

        cli._run_case = timed_case
    elif tracer is not None:
        tracer.start_case(spec["case"])

    out, err = io.StringIO(), io.StringIO()
    error = None
    first = len(speed.samples) - 1
    stolen, t0 = speed.stolen, time.perf_counter()
    speed.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = entry(spec["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        error = traceback.format_exc(limit=-3)
    finally:
        speed.stop()
    work_s = time.perf_counter() - t0 - (speed.stolen - stolen)
    last = len(speed.samples)
    speed.burst()
    scale = speed.scale(first, last)

    # A verify case is scaled by the samples from its own to the next case's.
    case_times = []
    for i, (name, seconds, own) in enumerate(cases):
        following = cases[i + 1][2] if i + 1 < len(cases) else last
        case_times.append([name, seconds * speed.scale(own, following), seconds])

    report = {
        "code": code,
        "error": error,
        "stdout": out.getvalue(),
        "stderr_tail": err.getvalue()[-2000:],
        "ready": READY,
        "setup_scale": setup_scale,
        "raw_work_s": work_s,
        "work_s": work_s * scale,
        "case_times": case_times,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = {
            key: value * scale if key.endswith("_s") else value
            for key, value in tracer.summary().items()
        }
        report["spans"] = tracer.spans
    sys.stdout.write(json.dumps(report) + "\n")


main()
