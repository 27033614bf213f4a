"""Fixed-budget solve benchmark for gubcover.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the solver is imported from its ``src``.
The seed picks the generated instance (made once per workload and seed and
cached under perfbench/.cache with its LP value) and the workload's batch of
solver seeds.  Each solve has a fixed outer-iteration budget and a time
limit that never binds, so objective and bound repeat exactly at a given
seed and only times move.

Closed loop, one client: solves run one after another, each in a fresh
single-threaded process (perfbench/child.py), through the batch and then
round it again while another solve fits in S seconds.  How long the
weighted search runs differs between solver seeds, so a run reports
medians over its batch.  Every result is checked against the instance file
by the benchmark's own code.  With --trace 0 the last stdout line reports the
end-to-end metrics; with --trace 1 one more solve runs with every public
solver function wrapped in spans and the last line reports per-layer call
counts, self times and counters instead, while ratios, defined only where
their base is not zero, are printed above it with that base.  Full records, including the
machine they ran on, go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import instances

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE_DIR = BENCH_DIR / ".cache"
RESULTS_DIR = BENCH_DIR / "results"

RUN_LIMIT_S = 170.0     # a whole run, generation included, ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_child(wl, inst_path, solver_seed, timeout, spans_path=None):
    """Solve once in a fresh process; returns (record, None) or (None, error)."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"),
           "--instance", str(inst_path), "--format", wl.fmt,
           "--seed", str(solver_seed), "--max-iterations", str(wl.max_iterations),
           "--setup-repeats", "1" if spans_path else str(wl.setup_repeats)]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    # numpy backs large arrays with transparent huge pages when the host has
    # some free, which moved peak RSS by tens of MB between otherwise equal runs
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"solve process killed after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"solve process exited {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, "solve process printed no record"


def judge(problem, ref, rec, err, first):
    """Errors of one solve: process failure, failed check, or a result that
    differs from an earlier solve with the same solver seed (`first`)."""
    if err:
        return [err]
    res = rec["result"]
    errors = instances.check_result(problem, res, ref["lp"])
    if first is not None and (res["objective"], res["lower_bound"]) != first:
        errors.append(f"objective/bound {res['objective']}/{res['lower_bound']} "
                      f"differ from the earlier {first[0]}/{first[1]}")
    return errors


def end_to_end(good, attempted):
    """Medians over the run's solves; objective and gap once per solver seed."""
    distinct = {r["seed"]: r["result"] for r in good}.values()
    return {
        "setup_s": (statistics.median(s for r in good for s in r["setup_s"]), "s"),
        "solve_s": (statistics.median(r["solve_s"] for r in good), "s"),
        "objective": (statistics.median(r["objective"] for r in distinct), "cost"),
        "gap_pct": (statistics.median(
            100.0 * (r["objective"] - r["lower_bound"]) / r["objective"]
            for r in distinct), "%"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in good), "MB"),
        "ok_share": (len(good) / attempted, "ratio"),
    }


def per_layer(traced, untraced_solve_s):
    """Per-function calls and self time, plus counters read off the returns."""
    trace, res = traced["trace"], traced["result"]
    out = {}
    for name, v in trace["layers"].items():
        out[f"{name}.calls"] = (v["calls"], "count")
        out[f"{name}.self_s"] = (v["self_s"], "s")
    kept = trace["returns"]
    if "relaxation.subgradient_method" in kept:
        runs = kept["relaxation.subgradient_method"]
        out["relaxation.subgradient.iterations"] = (sum(r[0] for r in runs), "count")
        out["relaxation.subgradient.evaluations"] = (sum(r[1] for r in runs), "count")
        out["relaxation.subgradient.step_final"] = (runs[-1][2] if runs else 0.0, "ratio")
    trials, undos = _calls(trace, "trial_flip_down"), _calls(trace, "undo_trial")
    if trials is not None and undos is not None:
        out["localsearch.swap_scan.accepted"] = (trials - undos, "count")
    if "weighting.wls" in kept:
        out["weighting.wls.rounds"] = (sum(kept["weighting.wls"]), "count")
    if "weighting.decrease_weights" in kept:
        out["weighting.decrease_weights.noops"] = (
            sum(kept["weighting.decrease_weights"]), "count")
    out["reduction.fix_exhaustions"] = (res["fix_exhaustions"], "count")
    if "pathrelink.ReferenceSet.update" in kept:
        out["pathrelink.update.accepted"] = (
            sum(kept["pathrelink.ReferenceSet.update"]), "count")
    out["pathrelink.relink_fallbacks"] = (res["relink_fallbacks"], "count")
    out["driver.outer_iterations"] = (res["iterations"], "count")
    out["driver.tracing_overhead_s"] = (traced["solve_s"] - untraced_solve_s, "s")
    return out


def ratios(traced, lp):
    """{name: (value, base)} of the traced solve's ratios.

    A ratio whose base is zero or missing is left out, so these stay out of
    the result line, which must hold the same metrics on every workload.
    """
    trace, res = traced["trace"], traced["result"]
    out = {}
    if lp:
        out["relaxation.bound_lp_ratio"] = (res["lower_bound"] / lp, lp)
    trials, undos = _calls(trace, "trial_flip_down"), _calls(trace, "undo_trial")
    if trials and undos is not None:
        out["localsearch.swap_scan.accept_ratio"] = (1.0 - undos / trials, trials)
    if res["core_fractions"]:
        out["reduction.core_fraction"] = (statistics.fmean(res["core_fractions"]),
                                          len(res["core_fractions"]))
    updates = trace["returns"].get("pathrelink.ReferenceSet.update")
    if updates:
        out["pathrelink.update.accept_ratio"] = (statistics.fmean(updates), len(updates))
    return out


def _calls(trace, method):
    layer = trace["layers"].get(f"localsearch.SearchState.{method}")
    return None if layer is None else layer["calls"]


def machine_record():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    revision = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            revision = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gubcover").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_revision": revision,
        "source_sha256": digest.hexdigest(),
    }


def measure(wl, seed, seconds, trace):
    """One benchmark run; returns (the result line, the full record).

    Solves the whole batch of solver seeds once, then keeps cycling through
    it while another solve is expected to end within `seconds`.  With
    `trace`, one more solve of the first solver seed runs with spans on.
    """
    start = time.monotonic()
    inst_path, ref = instances.ensure_instance(wl, seed, CACHE_DIR)
    problem = instances.parse_instance(inst_path, wl.fmt)
    solver_seeds = wl.solver_seeds(seed)

    attempts, good, first = [], [], {}
    t0 = time.monotonic()
    while True:
        now = time.monotonic()
        remaining = RUN_LIMIT_S - (now - start)
        if len(attempts) >= len(solver_seeds):
            per_solve = (now - t0) / len(attempts)
            if (now - t0 + per_solve > seconds
                    or remaining < (2.5 if trace else 1.2) * per_solve):
                break
        if remaining < 1.0:
            break
        solver_seed = solver_seeds[len(attempts) % len(solver_seeds)]
        rec, err = run_child(wl, inst_path, solver_seed, remaining)
        errors = judge(problem, ref, rec, err, first.get(solver_seed))
        attempts.append({"seed": solver_seed, "errors": errors, "record": rec})
        if not errors:
            good.append(dict(rec, seed=solver_seed))
            first.setdefault(solver_seed, (rec["result"]["objective"],
                                           rec["result"]["lower_bound"]))
    if not good:
        last = attempts[-1]["errors"][0] if attempts else "no time left"
        raise RuntimeError(f"no solve succeeded: {last}")

    if trace:
        RESULTS_DIR.mkdir(exist_ok=True)
        spans_path = RESULTS_DIR / f"{wl.name}-seed{seed}.spans.jsonl"
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        rec, err = run_child(wl, inst_path, solver_seeds[0], remaining, spans_path)
        errors = judge(problem, ref, rec, err, first.get(solver_seeds[0]))
        attempts.append({"seed": solver_seeds[0], "errors": errors, "record": rec,
                         "traced": True})
        if rec is None:
            raise RuntimeError("traced solve failed: " + err)
        same_seed = [r["solve_s"] for r in good if r["seed"] == solver_seeds[0]]
        if not same_seed:
            raise RuntimeError("no untraced solve of the traced seed succeeded")
        metrics = per_layer(rec, statistics.median(same_seed))
        derived = ratios(rec, ref["lp"])
    else:
        metrics = end_to_end(good, len(attempts))
        derived = {}

    failed = sum(1 for a in attempts if a["errors"])
    line = {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for a in attempts:
        if a["record"]:
            a["record"]["result"].pop("selected")
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_record(), "reference": ref,
        "failed_share": failed / len(attempts), "attempts": attempts,
        "ratios": {k: {"value": v, "base": b} for k, (v, b) in derived.items()},
        **line,
    }
    return line, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the solve
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "gubcover" / "__init__.py").is_file():
        print(f"error: no solver sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = instances.WORKLOADS[args.workload]
    try:
        line, record = measure(wl, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    m = record["machine"]
    print(f"# {m['cpu']}, nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, revision {m['git_revision'] or 'unknown'}")
    print(f"# {wl.name} seed {args.seed}: {line['attempted']} solves, "
          f"failed_share {record['failed_share']:.3f} (record: {out.relative_to(ROOT)})")
    for name, v in line["metrics"].items():
        print(f"# {name} = {v['value']} {v['unit']}")
    for name, v in record["ratios"].items():
        print(f"# {name} = {v['value']} ratio, base {v['base']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
