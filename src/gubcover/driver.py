"""Top-level solve loop.

Order of operations: randomized greedy runs fill the two reference pools,
one subgradient run gives the lower bound and the multipliers, then until
the deadline: fix agreed columns, carve out a scored core, run the
weighted local search on the core compacted into a sub-instance (residual
demands and caps, the core columns only), map its solutions back to full
width with the fixed columns added and, when another iteration follows,
refresh the pools and relink its starting point.  The incumbent is always
re-evaluated on the original instance.

The subgradient reads only the instance and the best construction value,
and it always runs in a forked child.  Under lagrangian and normalized,
and with no outer iteration, its result is read right after the builds:
each strictly new best among them kills and reaps the running child and
forks a new one, so the child started with the final value overlaps the
builds after the best.  Otherwise it is forked once the pools are full
and runs beside the search, which outlasts it, and is collected before
the RunResult is built: restarts there saved nothing and cost g1-tight
about 10% of solve_s (forks, copy-on-write faults and killed runs).
Builds and loop run inside one `with` block, which kills and reaps a
child not collected when it exits.  Each pool scores its own members
with the function the loop passes to ReferenceSet.update.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import pickle
import signal
import subprocess
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

from . import model, pathrelink, reduction
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

    def check(self) -> SolverConfig:
        """A copy with plain Python values; ValueError for a field it would misread."""
        if self.score not in SCORE_SCHEMES:
            raise ValueError(f"unknown score scheme {self.score!r}")
        if self.neighborhood not in ("1flip", "2flip"):
            raise ValueError(f"unknown neighborhood {self.neighborhood!r}")
        if self.greedy not in ("randomized", "uniform"):
            raise ValueError(f"unknown greedy mode {self.greedy!r}")
        if not isinstance(self.path_relinking, (bool, np.bool_)):
            raise ValueError("path_relinking must be True or False")
        if not model.is_real(self.time_limit):
            raise ValueError("time_limit must be a number")
        if math.isnan(self.time_limit) or self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if math.isinf(self.time_limit) and self.max_iterations is None:
            raise ValueError("an infinite time_limit needs max_iterations")
        if not model.is_int(self.seed) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.max_iterations is not None and (
                not model.is_int(self.max_iterations) or self.max_iterations < 0):
            raise ValueError("max_iterations must be an integer >= 0")
        if self.target is not None and not model.is_real(self.target):
            raise ValueError("target must be a number")
        if self.target is not None and math.isnan(self.target):
            raise ValueError("target must not be NaN")
        return model.plain(self)


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
    stats: dict           # "subgradient": iterations, evaluations, step_final


@functools.cache
def build_id() -> str:
    """Package version, with the git revision when a checkout tracks this
    file (a copy in some other repository's ignored virtualenv gets none).

    Computed once per process: the git calls cost milliseconds per solve.
    """
    try:
        version = metadata.version("gubcover")
    except metadata.PackageNotFoundError:
        version = "0+unknown"
    tag = f"gubcover-{version}"
    here = Path(__file__).resolve()

    def git(*args):
        return subprocess.run(["git", "-C", str(here.parent), *args], capture_output=True,
                              text=True, timeout=5, check=True).stdout.strip()

    try:
        git("ls-files", "--error-unmatch", here.name)  # raises unless tracked
        tag += "+" + git("describe", "--always", "--dirty")
    except (OSError, subprocess.SubprocessError):
        pass
    return tag


@contextlib.contextmanager
def _beside(fn, *args):
    """Run fn(*args) in a forked child; yield result().

    result() returns fn's result.  The first call reads the child's pickled
    reply from a pipe to EOF, then reaps the child, and later calls return
    the same object or raise the same exception: the one raised in the
    child, or RuntimeError with the wait status of a child that exits
    without a reply.  A child not reaped when the block exits, by any path,
    is killed and reaped.  When os.fork is missing, or os.pipe or os.fork
    raises OSError, no child is made: the first result() call runs fn here,
    and a block left before that call never runs it.
    """
    pid = None
    if hasattr(os, "fork"):
        with contextlib.suppress(OSError):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
    if pid is None:
        yield functools.cache(lambda: fn(*args))
        return
    if pid == 0:  # the child never returns into the caller's code
        status = 1
        try:
            os.close(r)
            try:
                reply = pickle.dumps((True, fn(*args)))
            except BaseException as exc:
                reply = pickle.dumps((False, exc))
            with open(w, "wb") as out:
                out.write(reply)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    got = []

    def result():
        nonlocal pid
        if not got:
            reply = reader.read()
            status = os.waitpid(pid, 0)[1]
            pid = None
            got.append(pickle.loads(reply) if reply else (False, RuntimeError(
                f"{fn.__name__} child exited without a result (wait status {status})")))
        ok, value = got[0]
        if not ok:
            raise value
        return value

    with open(r, "rb") as reader:
        try:
            yield result
        finally:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


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

    def zbar(x):
        return model.penalized_objective(inst, x, wbar_vec)

    w_cur = wbar_vec.copy()
    core_fractions: list[float] = []
    fix_exhaustions = 0
    relink_fallbacks = 0
    outer = 0
    star_val = math.inf

    def finished():
        if time.monotonic() >= deadline:
            return True
        if cfg.max_iterations is not None and outer >= cfg.max_iterations:
            return True
        if cfg.target is not None and star_val <= cost_sum and star_val <= cfg.target:
            return True
        return False

    r1, r2 = ReferenceSet(), ReferenceSet()
    empty = SearchState(inst, wbar_vec)
    # restarts overlap the builds where the bound is read right after them
    restart = cfg.score in ("lagrangian", "normalized") or cfg.max_iterations == 0
    with contextlib.ExitStack() as child:
        for pool in (r1, r2):
            for _ in range(pathrelink.POOL_SIZE):
                x = greedy_construct(empty, rng, uniform=uniform).x
                if pool.add_initial(x) and (v := zbar(x)) < star_val:
                    if restart:
                        child.close()  # kills and reaps the superseded child
                        bound = child.enter_context(_beside(subgradient_method, inst, v))
                    star_val, x_hat = v, pool.members[-1].copy()
        del empty  # not held by the parent through the search
        if not restart:
            bound = child.enter_context(_beside(subgradient_method, inst, star_val))
        x_star = x_hat.copy()
        timeline = [(0, star_val, time.monotonic() - t0)]

        while not finished():
            outer += 1
            if cfg.score != "none":
                base = w_cur if cfg.score == "pseudo" else bound().u
                red, exhausted = reduction.fix_columns(inst, x_star, x_hat, base, rng)
                fix_exhaustions += exhausted
                if cfg.score == "normalized":
                    scores = reduction.normalized_scores(red, base)
                else:
                    scores = reduction.pseudo_scores(red, base)
                core = reduction.build_core(red, scores, x_star, x_hat)
                core_fractions.append(core.sum() / inst.n if inst.n else 0.0)
                sub, cols = red.restrict(core)
                fixed_mask = ~red.free
            else:
                sub, cols, fixed_mask = inst, np.arange(inst.n), np.zeros(inst.n, dtype=bool)

            wres = wls(sub, x_hat[cols], one_flip_only=(cfg.neighborhood == "1flip"),
                       deadline=deadline)
            w_cur = wres.w
            # back to full width: sub column j is column cols[j], fixed ones stay in
            x_hat, x_best = fixed_mask.copy(), fixed_mask.copy()
            x_hat[cols], x_best[cols] = wres.x_hat, wres.x_best
            v = zbar(x_best)
            if v < star_val:
                star_val = v
                x_star = x_best.copy()
                timeline.append((outer, star_val, time.monotonic() - t0))

            if cfg.path_relinking and not finished():
                def weval(x):
                    return model.penalized_objective(inst, x, w_cur)

                r1.update(x_hat, weval)
                r2.update(x_best, zbar)
                init, guide, fallback = draw_pair(r1, r2, model.solution_key(x_hat),
                                                  weval, rng)
                if fallback is not None:
                    relink_fallbacks += 1
                    x_hat = fallback.copy()
                else:
                    x_hat = walk(inst, w_cur, init, guide)

        sres = bound()

    elapsed = time.monotonic() - t0
    feasible = model.is_feasible(inst, x_star)
    penalized = star_val
    return RunResult(
        selected=[int(j) for j in np.flatnonzero(x_star)],
        objective=model.objective(inst, x_star),
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
        stats={"subgradient": {"iterations": int(sres.iterations),
                               "evaluations": int(sres.evaluations),
                               "step_final": float(sres.step_final)}},
    )
