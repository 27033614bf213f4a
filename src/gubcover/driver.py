"""Top-level solve loop.

Order of operations: randomized greedy runs fill the two reference pools,
one subgradient run prices the columns, then until the deadline: fix
agreed columns, carve out a scored core, run the weighted local search on
the core compacted into a sub-instance (residual demands and caps, the
core columns only), map its solutions back to full width with the fixed
columns added, refresh the pools and relink a new starting point.  The
incumbent is always re-evaluated on the original instance.
"""

from __future__ import annotations

import functools
import math
import subprocess
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

from . import model, reduction
from .localsearch import SearchState, greedy_construct
from .pathrelink import ReferenceSet, draw_pair, walk
from .relaxation import subgradient_method
from .weighting import wls

SCORE_SCHEMES = ("lagrangian", "normalized", "pseudo", "none")


@dataclass
class SolverConfig:
    score: str = "pseudo"           # column scoring scheme, or "none" to skip reduction
    time_limit: float = 600.0       # seconds
    seed: int = 0
    neighborhood: str = "2flip"     # "2flip" | "1flip"
    path_relinking: bool = True
    greedy: str = "randomized"      # "randomized" | "uniform"
    target: float | None = None     # stop early at this objective (optional)
    max_iterations: int | None = None  # outer-loop cap (optional)

    def check(self):
        if self.score not in SCORE_SCHEMES:
            raise ValueError(f"unknown score scheme {self.score!r}")
        if self.neighborhood not in ("1flip", "2flip"):
            raise ValueError(f"unknown neighborhood {self.neighborhood!r}")
        if self.greedy not in ("randomized", "uniform"):
            raise ValueError(f"unknown greedy mode {self.greedy!r}")
        if math.isnan(self.time_limit) or self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if math.isinf(self.time_limit) and self.max_iterations is None:
            raise ValueError("an infinite time_limit needs max_iterations")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        return self


@dataclass
class RunResult:
    selected: list        # chosen column indices, 0-based
    objective: int
    feasible: bool
    penalized: float      # value under the initial weights
    cost_sum: int
    infeasibility_signal: bool  # penalized > cost_sum: no feasible solution found
    lower_bound: float
    iterations: int
    timeline: list        # (outer iteration, penalized value, elapsed seconds)
    core_fractions: list  # per-iteration |core| / n
    fix_exhaustions: int
    relink_fallbacks: int
    elapsed: float
    seed: int
    config: dict
    instance: dict
    build: str


@functools.cache
def build_id() -> str:
    """Package version, with the git revision when running from a checkout.

    Computed once per process: the git call costs milliseconds per solve.
    """
    try:
        version = metadata.version("gubcover")
    except metadata.PackageNotFoundError:
        version = "0+unknown"
    tag = f"gubcover-{version}"
    try:
        out = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            tag += "+" + out.stdout.strip()
    except Exception:
        pass
    return tag


def solve(inst, config: SolverConfig | None = None) -> RunResult:
    """Run the solver on inst; ValueError for a bad config or for the
    violations model.validate reports on inst."""
    cfg = (config or SolverConfig()).check()
    problems = model.validate(inst)
    if problems:
        raise ValueError("; ".join(str(p) for p in problems))
    t0 = time.monotonic()
    deadline = t0 + cfg.time_limit
    rng = np.random.default_rng(cfg.seed)
    wbar_vec = model.initial_weights(inst)
    cost_sum = inst.cost_sum
    uniform = cfg.greedy == "uniform"

    r1, r2 = ReferenceSet(), ReferenceSet()
    for pool in (r1, r2):
        for _ in range(pool.capacity):
            pool.add_initial(greedy_construct(inst, wbar_vec, rng, uniform=uniform).x)

    x_hat = None
    star_val = np.inf
    for member in r1.members + r2.members:
        v = model.penalized_objective(inst, member, wbar_vec)
        if v < star_val:
            star_val = v
            x_hat = member
    x_hat = x_hat.copy()
    x_star = x_hat.copy()
    timeline = [(0, star_val, time.monotonic() - t0)]

    sres = subgradient_method(inst, star_val)

    w_cur = wbar_vec.copy()
    core_fractions: list[float] = []
    fix_exhaustions = 0
    relink_fallbacks = 0
    outer = 0

    def finished():
        if time.monotonic() - t0 >= cfg.time_limit:
            return True
        if cfg.max_iterations is not None and outer >= cfg.max_iterations:
            return True
        if cfg.target is not None and star_val <= cost_sum and star_val <= cfg.target:
            return True
        return False

    while not finished():
        outer += 1
        if cfg.score != "none":
            base = w_cur if cfg.score == "pseudo" else sres.u
            fres = reduction.fix_columns(inst, x_star, x_hat, base, rng)
            if fres.exhausted:
                fix_exhaustions += 1
            red = reduction.apply_fixing(inst, fres.fixed)
            if cfg.score == "normalized":
                scores = reduction.normalized_scores(red, fres.scores_u)
            else:
                scores = reduction.pseudo_scores(inst, fres.scores_u)
            core = reduction.build_core(red, scores, x_star, x_hat)
            core_fractions.append(core.sum() / inst.n if inst.n else 0.0)
            sub, cols = red.restrict(core)
            fixed_mask = ~red.free
        else:
            sub, cols, fixed_mask = inst, np.arange(inst.n), np.zeros(inst.n, dtype=bool)

        wres = wls(SearchState(sub, wbar_vec, x0=x_hat[cols]),
                   one_flip_only=(cfg.neighborhood == "1flip"),
                   deadline=deadline)
        w_cur = wres.w
        # back to full width: sub column j is column cols[j], fixed ones stay in
        x_hat, x_best = fixed_mask.copy(), fixed_mask.copy()
        x_hat[cols], x_best[cols] = wres.x_hat, wres.x_best
        v = model.penalized_objective(inst, x_best, wbar_vec)
        if v < star_val:
            star_val = v
            x_star = x_best.copy()
            timeline.append((outer, star_val, time.monotonic() - t0))

        if cfg.path_relinking:
            def weval(x):
                return model.penalized_objective(inst, x, w_cur)

            r1.update(x_hat, weval(x_hat), [weval(mm) for mm in r1.members])
            r2.update(x_best, v, [model.penalized_objective(inst, mm, wbar_vec)
                                  for mm in r2.members])
            init, guide, fallback = draw_pair(r1, r2, model.solution_key(x_hat),
                                              weval, rng)
            if fallback is not None:
                relink_fallbacks += 1
                x_hat = fallback.copy()
            else:
                x_hat = walk(inst, w_cur, init, guide)

    elapsed = time.monotonic() - t0
    feasible = model.is_feasible(inst, x_star)
    penalized = star_val
    return RunResult(
        selected=[int(j) for j in np.flatnonzero(x_star)],
        objective=int(inst.cost[x_star].sum()),
        feasible=bool(feasible),
        penalized=penalized,
        cost_sum=cost_sum,
        infeasibility_signal=penalized > cost_sum,
        lower_bound=sres.bound,
        iterations=outer,
        timeline=[(int(i), float(v), float(e)) for i, v, e in timeline],
        core_fractions=[float(f) for f in core_fractions],
        fix_exhaustions=fix_exhaustions,
        relink_fallbacks=relink_fallbacks,
        elapsed=elapsed,
        seed=cfg.seed,
        config=asdict(cfg),
        instance={"m": inst.m, "n": inst.n, "k": inst.k, "nnz": inst.nnz},
        build=build_id(),
    )
