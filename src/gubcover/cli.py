"""Command line entry points.

Subcommands: solve an instance file, generate benchmark-style instances,
check a solution file against an instance, and bench a directory of
instances over a config grid into a CSV.  Exit codes: 0 success/feasible,
1 bad input or usage, 2 the run (or checked solution) ended without
feasibility.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import glob
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import io as gio
from . import model
from .driver import SCORE_SCHEMES, RunResult, SolverConfig, build_id, solve

# benchmark families: class -> (rows, cols, density); type -> (cap, block size)
CLASS_SHAPES = {
    "G": (1000, 10000, 0.02),
    "H": (1000, 10000, 0.05),
    "I": (1000, 50000, 0.01),
    "J": (1000, 100000, 0.01),
    "K": (2000, 100000, 0.005),
    "L": (2000, 200000, 0.005),
    "M": (5000, 500000, 0.0025),
    "N": (5000, 1000000, 0.0025),
}
CLASS_BLOCKS = {
    "G": {1: (1, 10), 2: (10, 100), 3: (5, 10), 4: (50, 100)},
    "H": {1: (1, 10), 2: (10, 100), 3: (5, 50), 4: (50, 100)},
    "I": {1: (1, 50), 2: (10, 500), 3: (5, 50), 4: (50, 500)},
    "J": {1: (1, 50), 2: (10, 500), 3: (5, 50), 4: (50, 500)},
    "K": {1: (1, 50), 2: (10, 500), 3: (5, 50), 4: (50, 500)},
    "L": {1: (1, 50), 2: (10, 500), 3: (5, 50), 4: (50, 500)},
    "M": {1: (1, 50), 2: (10, 500), 3: (5, 50), 4: (50, 500)},
    "N": {1: (1, 100), 2: (10, 1000), 3: (5, 100), 4: (50, 1000)},
}
CLASS_TIME_LIMITS = {
    "G": 600, "H": 600, "I": 600, "J": 600,
    "K": 1200, "L": 1200, "M": 3000, "N": 3000,
}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _check_out(path):
    """FileNotFoundError unless --out's directory exists; checked before any run."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"--out directory {folder!r} does not exist")


def _load(path, fmt):
    inst = gio.read_instance(path, fmt)
    problems = model.validate(inst)
    if problems:
        raise gio.FormatError("; ".join(str(p) for p in problems))
    return inst


@functools.lru_cache(maxsize=1)
def _load_once(path, fmt):
    """_load for bench tasks: each process reads and validates a file once.

    Tasks come grouped by path and an Instance is immutable, so one slot
    serves every (scheme, seed) run of a file; cmd_bench clears it.
    """
    return _load(path, fmt)


def _solve_config(args) -> SolverConfig:
    return SolverConfig(
        score=args.score,
        time_limit=args.time_limit,
        seed=args.seed,
        neighborhood=args.neighborhood,
        path_relinking=not args.no_path_relinking,
        greedy="uniform" if args.uniform_greedy else "randomized",
        target=args.target,
        max_iterations=args.max_iterations,
    )


def cmd_solve(args) -> int:
    try:
        cfg = _solve_config(args).check()
        if args.out:
            _check_out(args.out)
        inst = _load(args.instance, args.format)
    except (OSError, ValueError) as err:
        return _fail(str(err))
    result = solve(inst, cfg)
    print(f"instance: {args.instance} (m={inst.m}, n={inst.n}, k={inst.k})")
    print(f"objective: {result.objective}")
    print(f"bound: {result.lower_bound:.4f}")
    print(f"feasible: {'yes' if result.feasible else 'no'}")
    print(f"iterations: {result.iterations}  elapsed: {result.elapsed:.2f}s  build: {result.build}")
    if args.out:
        write = gio.write_result_json if args.emit == "json" else gio.append_result_csv
        try:
            write(result, args.out, instance_name=args.instance)
        except OSError as err:
            return _fail(str(err))
        print(f"wrote {args.out}")
    if result.infeasibility_signal:
        print("no feasible solution found (penalized value above total cost)")
        return 2
    return 0


def cmd_generate(args) -> int:
    if args.klass:
        if args.klass not in CLASS_SHAPES:
            return _fail(f"unknown class {args.klass!r}")
        if args.seed < 0 or args.index < 0:
            return _fail("--seed and --index must be non-negative")
        rows, cols, density = CLASS_SHAPES[args.klass]
        cap, block = CLASS_BLOCKS[args.klass][args.type]
        # each (class, type, index, seed) combination gets its own stream
        mix = np.random.SeedSequence(
            [args.seed, ord(args.klass), args.type, args.index]
        )
        seed = int(mix.generate_state(1)[0])
        params = gio.GeneratorParams(rows=rows, cols=cols, density=density,
                                     block_size=block, cap=cap, seed=seed)
    else:
        required = [args.rows, args.cols, args.density, args.block_size, args.cap]
        if any(v is None for v in required):
            return _fail("either --class or all of --rows/--cols/--density/--block-size/--cap")
        params = gio.GeneratorParams(
            rows=args.rows, cols=args.cols, density=args.density,
            block_size=args.block_size, cap=args.cap,
            cost_lo=args.cost_range[0], cost_hi=args.cost_range[1],
            demand_lo=args.demand_range[0], demand_hi=args.demand_range[1],
            seed=args.seed,
        )
    try:
        _check_out(args.out)
        inst, stats = gio.generate(params)
        gio.write_gub(inst, args.out)
    except (OSError, ValueError) as err:
        return _fail(str(err))
    print(f"wrote {args.out} (m={inst.m}, n={inst.n}, k={inst.k})")
    print(
        "density: {achieved_density:.4f} (target {target_density}, "
        "within 10%: {density_within_10pct}), repairs: "
        "{empty_column_repairs} columns, {row_coverage_repairs} rows".format(**stats)
    )
    return 0


def cmd_check(args) -> int:
    try:
        inst = _load(args.instance, args.format)
        chosen = gio.parse_solution(args.solution)
    except (OSError, ValueError) as err:
        return _fail(str(err))
    if chosen.size and chosen.max() >= inst.n:
        return _fail(f"column index {int(chosen.max()) + 1} out of range (n={inst.n})")
    x = model.as_bool(inst.n, chosen)
    problems = []
    s = model.coverage_counts(inst, x)
    for i in np.flatnonzero(s < inst.demand):
        problems.append(f"coverage violated: row {i + 1} ({s[i]} < {inst.demand[i]})")
    counts = np.bincount(inst.block_of[x], minlength=inst.k)
    for h in np.flatnonzero(counts > inst.cap):
        problems.append(f"GUB cap violated: block {h + 1}")
    z = model.objective(inst, x)
    print(f"objective: {z}")
    for line in problems:
        print(line)
    if problems:
        return 2
    if args.expect is not None and z != args.expect:
        return _fail(f"objective mismatch: got {z}, expected {args.expect}")
    print("ok")
    return 0


def _family(path) -> tuple[int, str]:
    """(default time limit, class) of an instance file for bench.

    The class is the name up to its first '_' or '.', suffixes aside.  A
    name that starts with a G-N letter (either case) and then a digit, '_',
    '.', '-' or nothing is of that family: it gets the family's limit and
    its class the letter in upper case.  Any other name gets 600 s.
    """
    stem = name = Path(path).name
    for suffix in (".gz", ".gub", ".txt"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
    stem = stem.split(".")[0].split("_")[0] or stem
    family = re.match(r"([G-N])(?:[0-9_.-]|$)", name, re.IGNORECASE)
    if family is None:
        return 600, stem
    letter = family[1].upper()
    return CLASS_TIME_LIMITS[letter], letter + stem[1:]


def _bench_one(task):
    """One (path, class, fmt, config) run; module-level for pickling."""
    path, cls, fmt, cfg = task
    result = solve(_load_once(path, fmt), cfg)
    return {
        "kind": "run",
        "class": cls,
        "instance": Path(path).name,
        "scheme": cfg.score,
        "seed": cfg.seed,
        "objective": result.objective,
        "feasible": int(result.feasible),
        "penalized": result.penalized,
        "lower_bound": f"{result.lower_bound:.4f}",
        "elapsed": f"{result.elapsed:.3f}",
        "time_limit": cfg.time_limit,
    }


BENCH_FIELDS = [
    "kind", "class", "instance", "scheme", "seed", "objective", "feasible",
    "penalized", "lower_bound", "gap_pct", "elapsed", "time_limit",
]


def _read_best_known(path):
    """Instance name -> best known value, from `name,value` lines; lines
    starting with # are comments.  ValueError names the first bad line."""
    best = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            where = f"{path} line {reader.line_num}"
            if len(row) < 2:
                raise ValueError(f"{where}: expected name,value")
            try:
                value = float(row[1])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{where}: value {row[1].strip()!r} is not a finite number")
            best[row[0].strip()] = value
    return best


def cmd_bench(args) -> int:
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        return _fail("--schemes names no scheme")
    if args.seeds < 1:
        return _fail("--seeds must be at least 1")
    if args.workers < 1:
        return _fail("--workers must be at least 1")
    try:
        _check_out(args.out)
        best_known = _read_best_known(args.best_known) if args.best_known else {}
    except (OSError, ValueError) as err:
        return _fail(str(err))
    paths = sorted(glob.glob(os.path.join(args.instances, args.glob)))
    if not paths:
        return _fail(f"no instances matching {args.glob!r} under {args.instances}")
    tasks = []
    for path in paths:
        default, cls = _family(path)
        limit = default if args.time_limit is None else args.time_limit
        for scheme in schemes:
            for seed in range(args.seeds):
                try:
                    cfg = SolverConfig(score=scheme, time_limit=float(limit), seed=seed).check()
                except ValueError as err:
                    return _fail(str(err))
                tasks.append((path, cls, args.format, cfg))
    try:
        if args.workers > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
                rows = list(pool.map(_bench_one, tasks))
        else:
            rows = [_bench_one(t) for t in tasks]
    except (OSError, ValueError) as err:
        return _fail(str(err))
    finally:
        _load_once.cache_clear()
    rows.sort(key=lambda r: (r["instance"], r["scheme"], r["seed"]))

    for row in rows:
        ref = best_known.get(row["instance"]) or best_known.get(
            os.path.splitext(row["instance"])[0]
        )
        if ref and row["objective"] and row["feasible"]:
            row["gap_pct"] = f"{(row['objective'] - ref) / row['objective'] * 100:.3f}"
        else:
            row["gap_pct"] = ""

    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault((row["class"], row["scheme"]), []).append(row)
    summary = []
    for (klass, scheme), members in sorted(groups.items()):
        avg = {
            "kind": "avg",
            "class": klass,
            "instance": "",
            "scheme": scheme,
            "seed": "",
            "objective": f"{np.mean([r['objective'] for r in members]):.2f}",
            "feasible": f"{np.mean([r['feasible'] for r in members]):.2f}",
            "penalized": "",
            "lower_bound": "",
            "elapsed": "",
            "time_limit": "",
        }
        gaps = [float(r["gap_pct"]) for r in members if r["gap_pct"] != ""]
        avg["gap_pct"] = f"{np.mean(gaps):.3f}" if gaps else ""
        summary.append(avg)

    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(f"# gubcover-bench-v1 build={build_id()}\n")
            writer = csv.DictWriter(fh, fieldnames=BENCH_FIELDS)
            writer.writeheader()
            for row in rows + summary:
                writer.writerow(row)
    except OSError as err:
        return _fail(str(err))
    print(f"wrote {args.out} ({len(rows)} runs, {len(summary)} averages)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gubcover",
        description="Set multicover with block caps: heuristic solver and tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--format", choices=gio.FORMATS, default="gub")
    p.add_argument("--score", choices=SCORE_SCHEMES, default="pseudo")
    p.add_argument("--time-limit", type=float, default=600.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--neighborhood", choices=("1flip", "2flip"), default="2flip")
    p.add_argument("--no-path-relinking", action="store_true")
    p.add_argument("--uniform-greedy", action="store_true")
    p.add_argument("--target", type=float, default=None,
                   help="stop early when a feasible solution reaches this value")
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--emit", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="write a random instance in native format")
    p.add_argument("--class", dest="klass", default=None,
                   help="benchmark family letter G..N")
    p.add_argument("--type", type=int, choices=(1, 2, 3, 4), default=1)
    p.add_argument("--index", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--density", type=float, default=None)
    p.add_argument("--block-size", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--cost-range", type=int, nargs=2, default=(1, 100),
                   metavar=("LO", "HI"))
    p.add_argument("--demand-range", type=int, nargs=2, default=(1, 5),
                   metavar=("LO", "HI"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="verify a solution file against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--format", choices=gio.FORMATS, default="gub")
    p.add_argument("--solution", required=True)
    p.add_argument("--expect", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="run a config grid over an instance directory")
    p.add_argument("--instances", required=True, help="directory of instance files")
    p.add_argument("--glob", default="*.gub")
    p.add_argument("--format", choices=gio.FORMATS, default="gub")
    p.add_argument("--schemes", default="pseudo",
                   help="comma-separated score schemes")
    p.add_argument("--seeds", type=int, default=1, help="seeds 0..N-1 per config")
    p.add_argument("--time-limit", type=float, default=None,
                   help="per-run limit; defaults per class family")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--best-known", default=None,
                   help="CSV of instance,value used for gap columns")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
