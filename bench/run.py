"""Benchmark of the admissible CLI: end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each case is one fresh single-process ``admissible`` invocation (see
child.py), so interpreter start and imports are timed apart from the work.
A run makes passes over the workload's case pool, each in an order drawn
from the seed.  The number of passes is S over the nominal pass time
(workloads.PASS_SECONDS), so that every run of a workload takes the same
number of samples.  Every output is checked against the digests in reference.json; a case whose
output is wrong counts as failed and contributes no timing.

With ``--trace 0`` every pass is untraced and the result holds the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes alternate;
the result holds the per-layer metrics of the traced passes and the tracing
overhead (traced minus untraced wall time).  The last stdout line is the
result JSON; the full record, with the environment and, when traced, every
span, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(BENCH, "child.py")
REFERENCE = os.path.join(BENCH, "reference.json")
CASE_TIMEOUT_S = 120

sys.path.insert(0, BENCH)
from workloads import PASS_SECONDS, WORKLOADS, case_id  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "case_p50_s": "s",
    "case_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {"calls": "count", "cases": "count", "kept_ratio": "ratio",
               "max_coeff_bits": "bits"}
# A span's id and parent are numbered within its process; start and end are
# that process's perf_counter readings less the tracer's own bookkeeping.
SPAN_FIELDS = ("pass", "process", "id", "parent", "case", "layer", "name", "start", "end")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def spawn(argv, cid: str, trace: bool) -> dict:
    """Run one case in a fresh interpreter and return its report."""
    spec = json.dumps({"argv": argv, "case": cid, "trace": trace})
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", "-S", CHILD, SRC, spec],
            capture_output=True, text=True, timeout=CASE_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"failure": f"timed out after {CASE_TIMEOUT_S} s"}
    lines = proc.stdout.splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"failure": f"exit {proc.returncode}, no report: {proc.stderr.strip()[-300:]}"}
    rep["raw_setup_s"] = rep["ready"] - t_spawn
    rep["setup_s"] = rep["raw_setup_s"] * rep["setup_scale"]
    if proc.returncode != 0:
        rep["failure"] = f"process exit {proc.returncode}"
    elif rep["error"]:
        rep["failure"] = "exception: " + rep["error"].strip().splitlines()[-1]
    return rep


def replay(argv, report=None) -> str:
    """A one-line command that reproduces a failing case, or the first method
    of a failing verify report."""
    prefix = "PYTHONPATH=src python3 -m admissible.cli"
    if report is not None:
        p, kind = report["params"], report["case"].split()[0]
        method = report["methods"][0] if report["methods"] else None
        if kind in ("r2", "r3"):
            b = p["b0"] if kind == "r2" else f"{p['b0']},{p['k']}"
            return (f"{prefix} char --method {method} --k {p['k']} --r {kind[1]} "
                    f"--b {b} --qmax {p['qmax']} --zmax {p['zmax']}")
        if kind == "special":
            return (f"{prefix} char --method {method} --k {p['k']} --r 3 "
                    f"--qmax {p['qmax']} --zmax {p['zmax']}")
        if kind in ("oracle-r2", "oracle-r3", "conjecture-10.2"):
            b1 = f" --b1 {p['b1']}" if "b1" in p else ""
            return (f"{prefix} dims --r {3 if b1 else 2} --k {p['k']} --b0 {p['b0']}{b1} "
                    f"--n {p['n']} --cap {p['cap']}")
    return f"{prefix} {' '.join(argv)}"


def check(argv, cid: str, rep: dict, ref: dict):
    """Judge one invocation against its reference.

    Returns (attempted, failures, samples): failures is a list of one-line
    messages, samples the (case key, seconds) timings of passing cases.  A
    verify invocation counts each of its reports as a case; any other
    invocation is one case.
    """
    expected = ref.get("reports")
    attempted = len(expected) if expected is not None else 1

    def fail_all(why):
        return attempted, [f"{cid}: {why} | replay: {replay(argv)}"] * attempted, []

    if "failure" in rep:
        return fail_all(rep["failure"])
    exit_failure = None
    if rep["code"] != 0:
        last = (rep["stderr_tail"].strip().splitlines() or [""])[-1]
        exit_failure = f"cli exit {rep['code']}: {last[:200]}"
    if expected is None:
        if exit_failure or sha256(rep["stdout"]) != ref["sha256"]:
            return fail_all(exit_failure or "output differs from reference")
        return 1, [], [(cid, rep["work_s"])]

    try:
        reports = {r["case"]: r for r in json.loads(rep["stdout"])["reports"]}
    except (ValueError, KeyError, TypeError):
        return fail_all(exit_failure or "unreadable report")
    failures, passed = [], set()
    for name in sorted(expected.keys() | reports.keys()):
        report = reports.get(name)
        if report is None:
            failures.append(f"{cid}/{name}: report missing | replay: {replay(argv)}")
        elif name not in expected or sha256(canonical(report)) != expected[name]:
            failures.append(f"{cid}/{name}: report differs from reference "
                            f"(status {report['status']}) | replay: {replay(argv, report)}")
        elif report["status"] != "match" and not report["experimental"]:
            failures.append(f"{cid}/{name}: status {report['status']} | replay: {replay(argv, report)}")
        else:
            passed.add(name)
    attempted = max(attempted, len(expected.keys() | reports.keys()))
    if not failures and (exit_failure or sha256(rep["stdout"]) != ref["sha256"]):
        return fail_all(exit_failure or "output differs from reference")
    samples = [(f"{cid}/{name}", t) for name, t, _ in rep["case_times"] if name in passed]
    return attempted, failures, samples


def run_pass(cases, reference, traced: bool) -> dict:
    """Run every case once, in the given order."""
    result = {"traced": traced, "wall_s": 0.0, "raw_wall_s": 0.0, "attempted": 0,
              "failures": [], "samples": [], "setup_s": [], "rss_mb": [], "layers": {},
              "spans": [], "executions": []}
    for argv in cases:
        cid = case_id(argv)
        rep = spawn(argv, cid, traced)
        attempted, failures, samples = check(argv, cid, rep, reference[cid])
        result["attempted"] += attempted
        result["failures"] += failures
        result["samples"] += samples
        if "setup_s" in rep:
            result["setup_s"].append(rep["setup_s"])
            result["rss_mb"].append(rep["rss_mb"])
            result["executions"].append([cid, rep["raw_work_s"], rep["work_s"],
                                         rep["raw_setup_s"], rep["setup_s"]])
        if not failures:
            result["wall_s"] += rep["work_s"]
            result["raw_wall_s"] += rep["raw_work_s"]
            if traced:
                result["layers"][cid] = rep["layers"]
                position = len(result["executions"]) - 1
                result["spans"] += [[position, *span] for span in rep["spans"]]
    return result


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer the
    maximum is returned as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(passes) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    clean = [p for p in untraced if not p["failures"]]
    samples, per_case = [], {}
    for p in untraced:
        for key, seconds in p["samples"]:
            samples.append(seconds)
            per_case.setdefault(key, []).append(seconds)
    # The median over cases of each case's median: pools mix case sizes, and
    # the median of raw samples would jump between neighbouring case sizes.
    medians = [statistics.median(v) for v in per_case.values()]
    setups = [s for p in passes for s in p["setup_s"]]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in clean) if clean else None,
        "case_p50_s": statistics.median(medians) if medians else None,
        "case_tail_s": None,
        "setup_s": statistics.median(setups) if setups else None,
        "peak_rss_mb": max((r for p in untraced for r in p["rss_mb"]), default=None),
    }
    info = {"passes": len(untraced), "clean_passes": len(clean),
            "raw_wall_s": statistics.median(p["raw_wall_s"] for p in clean) if clean else None}
    if samples:
        metrics["case_tail_s"], info["tail_percentile"], info["tail_samples"] = tail(samples)
    return metrics, info


def per_layer(passes) -> tuple[dict, list[str]]:
    """Median per-layer timings and the counters of the traced passes.

    Counters must repeat exactly from pass to pass; each case whose counters
    differ is returned as a failure.
    """
    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        totals: dict[str, float] = {}
        for layers in p["layers"].values():
            for key, value in layers.items():
                totals[key] = totals.get(key, 0) + value
        per_pass.append(totals)
    keys = sorted({k for t in per_pass for k in t})
    metrics = {}
    for key in keys:
        values = [t.get(key, 0) for t in per_pass]
        if key.endswith("_s"):
            metrics[key] = statistics.median(values)
        elif key.endswith("max_coeff_bits"):
            metrics[key] = max(values)
        else:
            metrics[key] = values[0]
    visited = metrics.get("fermionic.vectors_visited", 0)
    metrics["fermionic.kept_ratio"] = (
        metrics.get("fermionic.vectors_kept", 0) / visited if visited else 0.0
    )
    walls = [p["wall_s"] for p in traced if not p["failures"]]
    bases = [p["wall_s"] for p in passes if not p["traced"] and not p["failures"]]
    if walls and bases:
        metrics["trace.wall_s"] = statistics.median(walls)
        metrics["trace.untraced_wall_s"] = statistics.median(bases)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]

    failures = []
    first: dict[str, dict] = {}
    for p in traced:
        for cid, layers in p["layers"].items():
            counts = {k: v for k, v in layers.items() if not k.endswith("_s")}
            if first.setdefault(cid, counts) != counts:
                failures.append(f"{cid}: counters differ between passes")
    return metrics, failures


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    field = name.rsplit(".", 1)[1]
    if field.endswith("_s"):
        return "s"
    return LAYER_UNITS.get(field, "count")


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "admissible")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_workload(cases, reference, seed: int, passes: int, trace: bool) -> dict:
    """Run the passes; with trace, untraced and traced passes alternate."""
    rng = random.Random(seed)
    if trace:
        passes = max(2, passes + passes % 2)
    passes = [
        run_pass(rng.sample(cases, len(cases)), reference, trace and i % 2 == 1)
        for i in range(passes)
    ]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    if trace:
        metrics, counter_failures = per_layer(passes)
        failures += counter_failures
        info = {"passes": len(passes)}
    else:
        metrics, info = end_to_end(passes)
    info["failed_frac"] = len(failures) / attempted
    info["pass_wall_s"] = [p["wall_s"] for p in passes]
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "info": info,
        "failures": failures,
        "spans": [[i, *s] for i, p in enumerate(passes) for s in p["spans"]],
        "executions": [[i, *e] for i, p in enumerate(passes) for e in p["executions"]],
    }


def warm_up():
    """Import the package once (compiling its bytecode); refuse a tree without it."""
    if not os.path.isfile(os.path.join(SRC, "admissible", "cli.py")):
        sys.exit(f"error: no admissible package under {SRC}")
    rep = spawn(["table", "--k", "1", "--which", "A"], "warm-up", False)
    if "failure" in rep:
        sys.exit(f"error: admissible does not run: {rep['failure']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    warm_up()
    with open(REFERENCE) as fh:
        reference = json.load(fh)["cases"]
    passes = max(1, round(args.seconds / PASS_SECONDS))
    result = run_workload(WORKLOADS[args.workload], reference, args.seed,
                          passes, bool(args.trace))

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}{'.trace' if args.trace else ''}")
    record = {"workload": args.workload, "trace": args.trace, **environment(args.seed),
              **{k: v for k, v in result.items() if k != "spans"}}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.jsonl", "w") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")

    for failure in result["failures"][:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    for key, value in result["info"].items():
        print(f"# {key} = {value}{' ratio' if key == 'failed_frac' else ''}")
    metrics = {
        name: {"value": value, "unit": unit(name)}
        for name, value in sorted(result["metrics"].items())
    }
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
