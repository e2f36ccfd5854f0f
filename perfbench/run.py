"""regcert benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload {main,regbound,betti} --seed N
        --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload W --record

Each repetition certifies every instance of the workload in a fresh,
single-threaded interpreter (rep.py), so regcert's caches start empty as
they do for a command-line user.  Repetitions run until the next one would
end after S seconds, with at least one.  Every result is checked; at a
workload's default seed its values must also equal the committed
reference in perfbench/reference/.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.  End-to-end times are scaled to a reference host speed
measured while they run (speed.py); the line before the result gives the
raw medians.  The exit code is 0 only when every output is correct.
"""

import argparse
import copy
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER, layer_value  # noqa: E402

WORKLOADS = ("main", "regbound", "betti")
DEFAULT_SEED = {"main": 42, "regbound": 3, "betti": 1}
# a few light instances per workload, for the self-test
LIGHT = {
    "main": ["main-2-2-2", "main-3-2-2"],
    "regbound": ["regbound-2-3v-3-3", "regbound-3-3v-2-2-3"],
    "betti": ["betti-0-4v-2-2-3-3", "betti-lex-4-2-1"],
}
END_TO_END = [("wall_norm_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("pass_share", "share")]
SETUP_PROBES = 19       # extra set-up-only children per untraced run
DEADLINE_S = 170        # the whole run, however long repetitions take
SPAN_DIR = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RepFailed(RuntimeError):
    pass


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(workload, seed, deadline, trace_file=None, only=None,
              setup_only=False, check=False):
    """Start rep.py, wait for it, and return its JSON report."""
    opts = ["--check"] if check else []
    if trace_file:
        SPAN_DIR.mkdir(exist_ok=True)
        opts += ["--trace", str(trace_file)]
    if only:
        opts += ["--only", ",".join(only)]
    if setup_only:
        opts.append("--setup-only")
    cmd = [sys.executable, str(HERE / "rep.py"), workload, str(seed),
           repr(_now())] + opts
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - _now()))
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps it
        raise RepFailed(f"repetition of {workload} timed out") from exc
    if proc.returncode != 0:
        raise RepFailed(f"repetition of {workload} exited "
                        f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference(workload):
    with open(HERE / "reference" / f"{workload}.json") as fh:
        return json.load(fh)


def check_reps(reps, reference):
    """Count attempted and failed instances over all repetitions.  An
    instance fails when it raised, a check found a problem, its values
    differ from those of the first (checked) repetition, or they differ
    from the reference."""
    attempted = failed = 0
    problems = []
    first = {}
    for rep in reps:
        idents = {res["id"] for res in rep["results"]}
        if reference is not None and idents != set(reference):
            problems.append(f"instances {sorted(idents)} do not match the "
                            f"reference {sorted(reference)}")
        for res in rep["results"]:
            attempted += 1
            bad = list(res["problems"])
            ident, values = res["id"], res["values"]
            if ident in first and values != first[ident]:
                bad.append("values differ between repetitions")
            first.setdefault(ident, values)
            if reference is not None and values != reference.get(ident):
                bad.append("values differ from the reference")
            if bad:
                failed += 1
                problems.append(f"{ident}: {'; '.join(bad)}")
    return attempted, failed, problems


def end_to_end_metrics(reps, setups, attempted, failed):
    values = {
        "wall_norm_s": statistics.median(r["wall_norm_s"] for r in reps),
        "setup_s": statistics.median(s * k for s, k in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "pass_share": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer_metrics(plain, traced):
    counts = traced[0]["counts"]
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = (statistics.median(r["wall_s"] for r in traced)
                     - statistics.median(r["work_s"] for r in plain))
        elif name.endswith(".self_s"):
            value = statistics.median(layer_value(name, counts, r["self_s"])
                                      for r in traced)
        else:
            value = layer_value(name, counts, {})
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run(workload, seed, seconds, trace, only=None):
    """Repetitions for one benchmark run; returns the result object, the
    problems found and the environment record."""
    start = _now()
    deadline = start + DEADLINE_S
    run_child(workload, seed, deadline, only=only, setup_only=True)  # warm
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = run_child(workload, seed, deadline, only=only,
                              setup_only=True)
            setups.append((probe["setup_s"], probe["setup_scale"]))
    modes = (False, True) if trace else (False,)
    reps = {mode: [] for mode in modes}
    while True:
        mode = modes[sum(map(len, reps.values())) % len(modes)]
        spans = (SPAN_DIR / f"{workload}-seed{seed}-rep{len(reps[mode])}"
                 f".jsonl") if mode else None
        t = _now()
        rep = run_child(workload, seed, deadline, spans, only,
                        check=not any(reps.values()))
        rep["elapsed"] = _now() - t
        reps[mode].append(rep)
        setups.append((rep["setup_s"], rep["setup_scale"]))
        nxt = modes[sum(map(len, reps.values())) % len(modes)]
        estimate = (reps[nxt] or reps[mode])[-1]["elapsed"]
        if all(reps.values()) and _now() + estimate - start > seconds:
            break

    reference = load_reference(workload) if seed == DEFAULT_SEED[workload] \
        else None
    if reference is not None and only is not None:
        reference = {k: v for k, v in reference.items() if k in only}
    every = [r for mode in modes for r in reps[mode]]
    attempted, failed, problems = check_reps(every, reference)
    if trace:
        counts = [r["counts"] for r in reps[True]]
        if any(c != counts[0] for c in counts):
            problems.append("work counters differ between traced "
                            "repetitions of one seed")
        metrics = per_layer_metrics(reps[False], reps[True])
    else:
        metrics = end_to_end_metrics(every, setups, attempted, failed)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    env = environment(every[0]["numpy"], len(every))
    if not trace:
        env["wall_s"] = statistics.median(r["wall_s"] for r in every)
        env["setup_s"] = statistics.median(s for s, _ in setups)
    return result, problems, env


def environment(numpy_version, reps):
    """Machine and code identity printed beside the metrics."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + data)
        lines += data.count(b"\n")
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "src_lines": lines, "repetitions": reps}


def record(workload):
    """Write the reference values of the workload's default seed."""
    seed = DEFAULT_SEED[workload]
    rep = run_child(workload, seed, _now() + 3600, check=True)
    bad = [r for r in rep["results"] if r["problems"]]
    if bad:
        sys.exit(f"not recording a reference with problems: {bad}")
    path = HERE / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({r["id"]: r["values"]
                                for r in rep["results"]},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)} ({rep['wall_s']:.1f} s)")


def self_test():
    """Light instances of every workload through the whole pipeline:
    metric names and units against BENCHMARK.json, the reference check,
    one deliberately altered reference, and repeatable work counters."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in WORKLOADS:
        only = LIGHT[workload]
        seed = DEFAULT_SEED[workload]
        for trace in ("0", "1"):
            result, problems, _ = run(workload, seed, 0, trace == "1", only)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                failures.append(f"{workload} --trace {trace}: metrics "
                                f"{got} != BENCHMARK.json {want[trace]}")
            if problems or not result["correct"]:
                failures.append(f"{workload} --trace {trace}: {problems}")
            print(f"{workload} --trace {trace}: {result['attempted']} "
                  f"attempted, {result['failed']} failed")
        # two traced repetitions of one seed must count the same work
        a, b = (run_child(workload, seed, _now() + 120, SPAN_DIR / "st.jsonl",
                          only, check=True) for _ in range(2))
        if a["counts"] != b["counts"] or not a["counts"]:
            failures.append(f"{workload}: counters differ between runs")
        # a reference with one altered value must be caught
        altered = copy.deepcopy(load_reference(workload))
        ident = only[0]
        altered[ident] = copy.deepcopy(altered[ident])
        altered[ident]["altered"] = True
        _, failed, _ = check_reps([a], {k: altered[k] for k in only})
        if failed != 1:
            failures.append(f"{workload}: altered reference not caught")
    for line in failures:
        print("FAIL", line)
    print("self-test", "failed" if failures else "ok")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="write the reference of the default seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "regcert" / "__init__.py").is_file():
        print(f"no regcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.record:
        record(args.workload)
        return 0
    seed = DEFAULT_SEED[args.workload] if args.seed is None else args.seed
    try:
        result, problems, env = run(args.workload, seed, args.seconds,
                                    args.trace == "1")
    except RepFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    for line in problems:
        print("problem:", line, file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
