"""One benchmark solve, in a process of its own.

run.py starts this script once per solve with PYTHONPATH pointing at the
checkout's ``src`` and the BLAS thread counts set to 1.  It reads and
validates the instance file (the set-up a ``gubcover solve`` pays), solves
once with a fixed seed and iteration budget, and prints one JSON record on
stdout.  With --spans it first wraps the solver's public functions, and
adds the per-function call counts and self times to the record.

usage: child.py --instance PATH --format gub|orlib --seed N
                --max-iterations I --setup-repeats R [--spans OUT.jsonl]
"""

from __future__ import annotations

import argparse
import json
import resource
import time

# Finite, and far beyond any run, so neither solve's nor wls's deadline fires.
TIME_LIMIT_S = 1e6


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB.

    Read as VmHWM from /proc/self/status where there is one: Linux carries
    ru_maxrss over from the forking parent across exec, so ru_maxrss would
    report the harness's own size whenever the solve needs less.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--instance", required=True)
    ap.add_argument("--format", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--max-iterations", type=int, required=True)
    ap.add_argument("--setup-repeats", type=int, default=1)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    recorder = None
    if args.spans:
        from spans import Recorder

        recorder = Recorder(run_id=f"{args.instance}:{args.seed}:{time.time_ns()}")
        recorder.install()
    from gubcover import driver, model
    from gubcover import io as gio

    setup_s = []
    for _ in range(args.setup_repeats):
        inst = None  # release the previous copy so peak memory holds one instance
        t0 = time.perf_counter()
        inst = gio.read_instance(args.instance, args.format)
        problems = model.validate(inst)
        setup_s.append(time.perf_counter() - t0)
        if problems:
            raise SystemExit(f"invalid instance: {problems[0]}")

    cfg = driver.SolverConfig(seed=args.seed, max_iterations=args.max_iterations,
                              time_limit=TIME_LIMIT_S)
    t0 = time.perf_counter()
    res = driver.solve(inst, cfg)
    solve_s = time.perf_counter() - t0

    record = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "peak_rss_mb": peak_rss_mb(),
        "result": {
            "selected": res.selected,
            "objective": res.objective,
            "feasible": res.feasible,
            "lower_bound": res.lower_bound,
            "iterations": res.iterations,
            "core_fractions": res.core_fractions,
            "fix_exhaustions": res.fix_exhaustions,
            "relink_fallbacks": res.relink_fallbacks,
            "build": res.build,
        },
    }
    if recorder is not None:
        span_s, self_sum_s = recorder.subtree_self_sum("driver.solve")
        record["trace"] = {
            "layers": recorder.layers(),
            "returns": recorder.returns,
            "missing": recorder.missing,
            "solve_span_s": span_s,
            "solve_self_sum_s": self_sum_s,
            "spans": len(recorder.spans),
        }
        recorder.write_jsonl(args.spans)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
