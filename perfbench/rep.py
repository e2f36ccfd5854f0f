"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD SEED SPAWNED_AT [--trace SPANS_FILE]
        [--only ID,ID] [--setup-only] [--check]

SPAWNED_AT is the CLOCK_MONOTONIC time at which run.py started this
process, so set-up time covers interpreter start, `import regcert` and
input generation.  Prints one JSON object: set-up time and the host-speed
factor measured after it, wall time, peak RSS, and per instance the
output values and any problems found.  An untraced repetition also runs
the speedometer (speed.py) while it works and reports its wall time at
the reference host speed.  run.py passes --check to the first repetition
of a run; later ones must reproduce its values exactly.
"""

import argparse
import json
import os
import resource
import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("spawned_at", type=float)
    parser.add_argument("--trace", metavar="SPANS_FILE")
    parser.add_argument("--only")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--check", action="store_true",
                        help="also check the outputs by independent routes")
    args = parser.parse_args()

    import numpy
    import regcert
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if not os.path.abspath(regcert.__file__).startswith(src + os.sep):
        sys.exit(f"regcert imported from {regcert.__file__}, not {src}")
    import speed
    import tracer
    import workloads

    only = set(args.only.split(",")) if args.only else None
    instances = workloads.build(args.workload, args.seed, only)
    traced = tracer.Tracer() if args.trace else None
    if traced:
        traced.install()
    t0 = _now()
    out = {"setup_s": t0 - args.spawned_at, "numpy": numpy.__version__}
    after_setup = speed.Speedometer()
    after_setup.top_up()
    out["setup_scale"] = after_setup.scale()
    if args.setup_only:
        print(json.dumps(out))
        return

    meter = None if traced else speed.Speedometer()
    raw = []
    if meter:
        meter.start()
    t0 = _now()
    for inst in instances:
        try:
            raw.append((inst.call(), None))
        except Exception as exc:  # a failed instance is counted, not fatal
            raw.append((None, f"{type(exc).__name__}: {exc}"))
    out["wall_s"] = _now() - t0
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if meter:
        meter.stop()
        meter.top_up()
        out["work_s"] = out["wall_s"] - meter.spent
        out["wall_norm_s"] = out["work_s"] * meter.scale()

    if traced:
        traced.uninstall()
        out["counts"] = traced.counts
        out["self_s"] = traced.self_times()
        traced.write_spans(args.trace)

    results = []
    for inst, (result, error) in zip(instances, raw):
        values, problems = None, [error] if error else []
        if not error:
            try:
                values = inst.values(result)
                if args.check:
                    problems = inst.check(result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        results.append({"id": inst.ident, "values": values,
                        "problems": problems})
    out["results"] = results
    print(json.dumps(out))


if __name__ == "__main__":
    main()
