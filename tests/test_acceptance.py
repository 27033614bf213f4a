"""Acceptance gate: one test per release criterion.

Each test prints a single `criterion NN <label>: PASS/FAIL` line (visible
under `pytest -s` and in failure output) and then asserts.  Two criteria
exercise benchmark-scale runs measured in minutes; they are opt-in:

* criterion 07 needs GUBCOVER_RUN_SLOW=1 (per-run seconds via
  GUBCOVER_SLOW_BUDGET, instance count via GUBCOVER_SLOW_INSTANCES);
* criterion 08 needs GUBCOVER_SCPLIB pointing at a directory of
  OR-Library scpg*.txt files, which are not redistributed here.
"""

import csv
import glob
import os
import time

import numpy as np
import pytest

from gubcover import cli, localsearch, relaxation
from gubcover import io as gio
from gubcover.driver import SolverConfig
from gubcover.model import Instance

import oracle
from conftest import (
    all_pair_deltas,
    build_t1,
    dense_arrays,
    nb1_state,
    random_gub_feasible,
    random_instance,
    random_weights,
    solve_checked,
    solver_pair_move,
)


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {label}: {status}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_lemma_suite():
    """Pruning lemmas hold at single-flip optima of 200 random instances."""
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    states = same_value = uncovered = argmin_blocks = 0
    for _ in range(200):
        inst = random_instance(rng)
        state = nb1_state(rng, inst, w=random_weights(rng, inst))
        deltas, ok = all_pair_deltas(inst, state.x.astype(np.int64), state.w)
        improving = ok & (deltas < 0)
        states += 1

        x = state.x
        same = x[:, None] == x[None, :]
        same_value += int((improving & same).sum())

        a, _ = dense_arrays(inst)
        exact = a[state.s == state.b]
        shares_me = (exact.T @ exact) > 0 if exact.size else np.zeros((inst.n, inst.n), bool)
        sat_col = (state.blk == state.d)[inst.block_of]
        cond_i = (inst.block_of[:, None] == inst.block_of[None, :]) & sat_col[:, None]
        mixed = improving & ~same
        uncovered += int((mixed & ~cond_i & ~shares_me).sum())

        # blocks holding a pair that improves through the cap alone must
        # already improve at their (argmin drop, argmin add) pair
        only_i = mixed & cond_i & ~shares_me
        for h in set(inst.block_of[np.unique(np.nonzero(only_i)[0])]):
            members = inst.block_cols[h]
            ins = members[x[members]]
            outs = members[~x[members]]
            j1 = ins[np.argmin([state.delta_down(j) for j in ins])]
            j2 = outs[np.argmin([state.delta_up(j) for j in outs])]
            argmin_blocks += 1
            assert deltas[min(j1, j2), max(j1, j2)] < 0

    elapsed = time.monotonic() - t0
    ok = same_value == 0 and uncovered == 0 and elapsed < 60.0
    _report(1, "lemma suite", ok,
            f"{states} states, {same_value} same-value / {uncovered} uncovered "
            f"violations, {argmin_blocks} argmin-pair blocks, {elapsed:.1f}s")


def test_criterion_02_pruning_completeness():
    """Pruned search and the exhaustive pair scan agree on move existence."""
    rng = np.random.default_rng(202)
    disagree = 0
    for _ in range(1000):
        inst = random_instance(rng, m=int(rng.integers(3, 13)),
                               n=int(rng.integers(6, 25)))
        state = nb1_state(rng, inst, w=random_weights(rng, inst))
        pruned = solver_pair_move(state)
        full = oracle.exhaustive_2flip_scan(inst, state.x, state.w)
        if (pruned is None) != (full is None):
            disagree += 1
        elif pruned is not None:
            delta, j1, j2 = pruned
            assert delta == pytest.approx(
                oracle.two_flip_delta(inst, state.x, state.w, j1, j2))
    _report(2, "pruning completeness", disagree == 0,
            f"1000 states, {disagree} disagreements")


def test_criterion_03_incremental_exactness():
    """Caches survive 10,000 random flips bit-exactly / to 1e-9 relative."""
    rng = np.random.default_rng(303)
    flips = 0
    worst = 0.0
    for case in range(50):
        integer = case < 25
        inst = random_instance(rng)
        w = random_weights(rng, inst, integer=integer)
        state = localsearch.SearchState(inst, w, x0=random_gub_feasible(rng, inst))
        applied = 0
        while applied < 200:
            j = int(rng.integers(inst.n))
            h = inst.block_of[j]
            if not state.x[j] and state.blk[h] >= state.d[h]:
                continue
            state.flip(j)
            applied += 1
            flips += 1
            fresh = localsearch.SearchState(inst, w, x0=state.x)
            assert np.array_equal(state.s, fresh.s)
            if integer:
                assert state.zhat == fresh.zhat
                assert np.array_equal(state.dp_up, fresh.dp_up)
                assert np.array_equal(state.dp_down, fresh.dp_down)
            else:
                rel = abs(state.zhat - fresh.zhat) / max(1.0, abs(fresh.zhat))
                worst = max(worst, rel)
                assert rel <= 1e-9
                for mine, theirs in ((state.dp_up, fresh.dp_up),
                                     (state.dp_down, fresh.dp_down)):
                    scale = np.maximum(1.0, np.abs(theirs))
                    worst = max(worst, float(np.max(np.abs(mine - theirs) / scale)))
                    assert np.all(np.abs(mine - theirs) <= 1e-9 * scale)
    _report(3, "incremental exactness", flips == 10000,
            f"{flips} flips, worst real drift {worst:.2e}")


def test_criterion_04_lagrangian_correctness():
    """Closed-form relaxation matches enumeration; bounds never exceed z."""
    rng = np.random.default_rng(404)
    duality_checks = 0
    for case in range(500):
        inst = random_instance(rng, m=int(rng.integers(3, 11)),
                               n=int(rng.integers(6, 17)))
        u = rng.uniform(0.0, 10.0, size=inst.m)
        if case % 5 == 0:
            u = np.floor(u)
        _, got = relaxation.solve_lr(inst, u)
        _, want = oracle.brute_force_lr(inst, u)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        if case < 100:
            _, opt = oracle.brute_force_optimum(inst)
            if opt is not None:
                duality_checks += 1
                assert got <= opt + 1e-9
    _report(4, "relaxation correctness", True,
            f"500 value matches, {duality_checks} weak-duality checks")


def test_criterion_05_small_instance_optimality():
    """The full solver finds known optima on tiny feasible instances."""
    rng = np.random.default_rng(505)
    hits = 0
    for seed in range(50):
        opt = None
        while opt is None:
            inst = random_instance(rng, m=int(rng.integers(4, 11)),
                                   n=int(rng.integers(8, 17)))
            _, opt = oracle.brute_force_optimum(inst)
        res = solve_checked(inst, SolverConfig(score="pseudo", time_limit=2.0,
                                               seed=seed, target=float(opt)))
        hits += int(res.feasible and res.objective == opt)

    t1 = build_t1()
    t1_hits = 0
    for seed in range(50):
        res = solve_checked(t1, SolverConfig(score="pseudo", time_limit=2.0,
                                             seed=seed, target=8.0))
        t1_hits += int(res.feasible and res.objective == 8)

    ok = hits >= 45 and t1_hits == 50
    _report(5, "small-instance optimality", ok,
            f"random {hits}/50, canonical {t1_hits}/50")


def _conflict_instance(rng):
    """Feasible multicover whose caps are unsatisfiable.

    One victim row is covered only by the columns of a single block and
    demands one more copy than that block's cap admits; extra rows and
    blocks are noise.  Enumeration confirms infeasibility below.
    """
    cap = int(rng.integers(1, 3))
    gadget = cap + 1 + int(rng.integers(0, 2))
    noise_cols = int(rng.integers(2, 6))
    m = 1 + int(rng.integers(1, 4))
    col_rows = []
    for _ in range(gadget):
        extra = set(np.flatnonzero(rng.random(m - 1) < 0.3) + 1)
        col_rows.append(sorted({0} | extra))
    for _ in range(noise_cols):
        extra = set(np.flatnonzero(rng.random(m - 1) < 0.5) + 1)
        col_rows.append(sorted(extra or {1 + int(rng.integers(m - 1))}))
    n = gadget + noise_cols
    demand = np.ones(m, dtype=np.int64)
    demand[0] = cap + 1
    for i in range(1, m):
        if not any(i in rows for rows in col_rows[gadget:]):
            col_rows[gadget + int(rng.integers(noise_cols))].append(i)
    col_rows = [sorted(set(rows)) for rows in col_rows]
    blocks = [(cap, list(range(gadget))),
              (noise_cols, list(range(gadget, n)))]
    cost = rng.integers(1, 10, size=n)
    return Instance.from_columns(cost, col_rows, demand, blocks)


def test_criterion_06_infeasibility_signal():
    """Cap-conflicted instances terminate with the penalized value above
    total cost, the documented no-feasible-solution signal."""
    rng = np.random.default_rng(606)
    flagged = 0
    for _ in range(20):
        inst = _conflict_instance(rng)
        x, opt = oracle.brute_force_optimum(inst)
        assert x is None and opt is None
        res = solve_checked(inst, SolverConfig(score="pseudo", time_limit=2.0,
                                               seed=0, max_iterations=25))
        assert not res.feasible
        assert res.penalized > res.cost_sum
        flagged += int(res.infeasibility_signal)
    _report(6, "infeasibility signal", flagged == 20, f"{flagged}/20 flagged")


def _benchmark_instance(index):
    params = gio.GeneratorParams(rows=1000, cols=10000, density=0.02,
                                 block_size=10, cap=1, seed=1000 + index)
    inst, _ = gio.generate(params)
    return inst


@pytest.mark.skipif(not os.environ.get("GUBCOVER_RUN_SLOW"),
                    reason="set GUBCOVER_RUN_SLOW=1 for the 600s benchmark runs")
def test_criterion_07_benchmark_reproduction():
    """Tight-cap benchmark family: pseudo score lands near 2319.4 and the
    scheme ordering pseudo <= normalized <= lagrangian holds on averages."""
    budget = float(os.environ.get("GUBCOVER_SLOW_BUDGET", "600"))
    count = int(os.environ.get("GUBCOVER_SLOW_INSTANCES", "5"))
    averages = {}
    for scheme in ("pseudo", "normalized", "lagrangian"):
        values = []
        for index in range(count):
            inst = _benchmark_instance(index)
            res = solve_checked(inst, SolverConfig(score=scheme, time_limit=budget, seed=0))
            assert res.feasible
            values.append(res.objective)
        averages[scheme] = float(np.mean(values))
    rel = abs(averages["pseudo"] - 2319.4) / 2319.4
    ordered = averages["pseudo"] <= averages["normalized"] <= averages["lagrangian"]
    ok = rel <= 0.05 and ordered
    _report(7, "benchmark reproduction", ok,
            f"averages {averages}, pseudo off reference by {rel * 100:.2f}%")


@pytest.mark.skipif(not os.environ.get("GUBCOVER_SCPLIB"),
                    reason="set GUBCOVER_SCPLIB to a directory of scpg*.txt files")
def test_criterion_08_scp_mode():
    """Plain set-cover files: average near 166.4, bound near the LP value."""
    budget = float(os.environ.get("GUBCOVER_SLOW_BUDGET", "600"))
    values, bounds = _scp_runs(os.environ["GUBCOVER_SCPLIB"], budget)
    avg, bound = float(np.mean(values)), float(np.mean(bounds))
    ok = abs(avg - 166.4) / 166.4 <= 0.03 and bound >= 0.95 * 149.48
    _report(8, "set-cover mode", ok, f"avg {avg:.2f}, bound {bound:.2f}")


def _scp_runs(directory, budget, max_iterations=None):
    """Solve every scpg* file in directory; returns (objectives, bounds)."""
    paths = sorted(glob.glob(os.path.join(directory, "scpg*")))
    assert paths, "no scpg* files found"
    values, bounds = [], []
    for path in paths:
        inst = gio.read_instance(path, "orlib")
        res = solve_checked(inst, SolverConfig(score="pseudo", time_limit=budget, seed=0,
                                               max_iterations=max_iterations))
        assert res.feasible
        values.append(res.objective)
        bounds.append(res.lower_bound)
    return values, bounds


def test_criterion_08_code_path_offline(tmp_path):
    """The criterion 08 reader and solve calls on a tiny OR-Library file."""
    # 3 rows, 4 columns; rows list their covering columns, 1-based.
    # Optimum {1, 4} (1-based) at cost 4 + 1 = 5.
    (tmp_path / "scpg_tiny.txt").write_text(
        "3 4\n4 3 5 1\n2 1 3\n2 1 2\n3 2 3 4\n")
    values, bounds = _scp_runs(str(tmp_path), budget=10.0, max_iterations=2)
    assert values == [5]
    assert bounds[0] <= 5 + 1e-9


def test_criterion_09_core_size():
    """Core problems stay a small fraction of the full column set."""
    inst = _benchmark_instance(0)
    res = solve_checked(inst, SolverConfig(score="pseudo", time_limit=25.0, seed=0))
    assert res.core_fractions
    avg = float(np.mean(res.core_fractions))
    _report(9, "core size", 0.05 <= avg <= 0.45,
            f"avg |C|/|N| {avg:.3f} over {len(res.core_fractions)} cores")


def test_criterion_10_determinism(tmp_path):
    """Same seed and config reproduce the incumbent timeline, in-process
    and across bench worker counts."""
    params = gio.GeneratorParams(rows=60, cols=240, density=0.1,
                                 block_size=8, cap=2, seed=3)
    inst, _ = gio.generate(params)
    cfg = SolverConfig(score="pseudo", time_limit=30.0, seed=11, max_iterations=12)
    first = solve_checked(inst, cfg)
    second = solve_checked(inst, cfg)
    trace = lambda r: [(it, val) for it, val, _ in r.timeline]
    same_run = (trace(first) == trace(second)
                and first.objective == second.objective
                and first.selected == second.selected)

    gio.write_gub(build_t1(), tmp_path / "t1.gub")
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"bench{workers}.csv"
        rc = cli.main(["bench", "--instances", str(tmp_path),
                       "--schemes", "pseudo", "--seeds", "2",
                       "--time-limit", "0.3", "--workers", str(workers),
                       "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        for row in rows:
            row.pop("elapsed")
            row.pop("cpu_s")
        outs.append(rows)
    same_bench = outs[0] == outs[1]
    _report(10, "determinism", same_run and same_bench,
            f"timeline len {len(first.timeline)}, bench rows {len(outs[0])}")
