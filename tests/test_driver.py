"""End-to-end solver runs on hand-checkable instances."""

import dataclasses
import errno
import os
import subprocess
import time

import numpy as np
import pytest

from gubcover import driver, model, pathrelink, relaxation, weighting
from gubcover import io as gio
from gubcover.driver import SolverConfig
from gubcover.localsearch import greedy_construct
from gubcover.model import Instance, as_bool

import oracle
from conftest import live_children, random_instance, solve_checked


def quick(score="pseudo", **kw):
    kw.setdefault("time_limit", 10.0)
    kw.setdefault("max_iterations", 3)
    kw.setdefault("seed", 42)
    return SolverConfig(score=score, **kw)


def test_t1_every_scheme_finds_optimum(t1):
    for score in ("pseudo", "lagrangian", "normalized", "none"):
        res = solve_checked(t1, quick(score))
        assert res.objective == 8, score
        assert res.feasible
        assert sorted(res.selected) == [1, 2]
        assert not res.infeasibility_signal


def test_reported_objective_revalidates(t1):
    res = solve_checked(t1, quick())
    x = as_bool(t1.n, res.selected)
    assert model.objective(t1, x) == res.objective
    assert model.is_feasible(t1, x) == res.feasible


def test_solve_rejects_invalid_instance(capsys):
    # costs that overflow int64 together, and a cap above its block size
    inst = Instance.from_columns([2**63 - 1, 5], [[0], [0]], [1], [(3, [0, 1])])
    with pytest.raises(ValueError) as err:
        solve_checked(inst, quick())
    assert str(err.value) == ("cost_sum_overflow: costs sum to 9223372036854775812, beyond int64; "
                              "cap_exceeds_block_size: block 0 cap 3 > size 2")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("options", [{}, {"neighborhood": "1flip"}, {"score": "none"},
                                     {"path_relinking": False}])
def test_solve_when_fixing_leaves_an_empty_core(options):
    # fixing takes every column, so the search runs on a sub-instance
    # with no column at all
    single = Instance.from_columns([3], [[0]], [1], [(1, [0])])
    zero_demand, _ = gio.generate(gio.GeneratorParams(
        rows=30, cols=60, density=0.1, block_size=6, cap=1, demand_lo=0, demand_hi=0))
    for inst, selected in ((single, [0]), (zero_demand, [])):
        res = solve_checked(inst, quick(max_iterations=2, **options))
        assert res.selected == selected and res.feasible and res.iterations == 2


def test_infeasible_demand_sets_signal():
    inst = Instance.from_columns([4, 3, 5, 1], [[0, 1], [1, 2], [0, 2], [2]],
                                 [1, 1, 4], [(1, [0, 1]), (2, [2, 3])])
    res = solve_checked(inst, quick(max_iterations=2))
    assert not res.feasible
    assert res.infeasibility_signal
    assert res.penalized > res.cost_sum


def test_infeasible_caps_set_signal():
    # the only two columns covering the row share a cap-1 block
    inst = Instance.from_columns([2, 3, 4], [[0], [0], [1]], [2, 1],
                                 [(1, [0, 1]), (1, [2])])
    res = solve_checked(inst, quick(max_iterations=2))
    assert res.infeasibility_signal


def test_score_none_skips_reduction(t1):
    res = solve_checked(t1, quick("none"))
    assert res.core_fractions == []
    assert res.objective == 8


def test_reduction_schemes_track_core_sizes(t1):
    res = solve_checked(t1, quick("pseudo"))
    assert len(res.core_fractions) >= 1
    assert all(0 < f <= 1 for f in res.core_fractions)


def test_bound_below_objective_when_feasible(t1):
    res = solve_checked(t1, quick())
    assert res.lower_bound <= res.objective + 1e-9


def test_determinism_same_seed(t1):
    a = solve_checked(t1, quick(max_iterations=5))
    b = solve_checked(t1, quick(max_iterations=5))
    assert a.objective == b.objective
    assert a.selected == b.selected
    assert [(it, val) for it, val, _ in a.timeline] == \
           [(it, val) for it, val, _ in b.timeline]


def test_determinism_on_random_instance():
    rng = np.random.default_rng(71)
    inst = random_instance(rng, m=15, n=40)
    cfg = SolverConfig(seed=7, time_limit=10.0, max_iterations=4)
    a = solve_checked(inst, cfg)
    b = solve_checked(inst, cfg)
    assert a.selected == b.selected
    assert [(it, val) for it, val, _ in a.timeline] == \
           [(it, val) for it, val, _ in b.timeline]


def test_seeds_differ():
    rng = np.random.default_rng(72)
    inst = random_instance(rng, m=15, n=40)
    runs = {tuple(solve_checked(inst, SolverConfig(
        seed=s, time_limit=10.0, max_iterations=2)).selected)
        for s in range(6)}
    # not a hard guarantee, but six seeds agreeing on every intermediate
    # would mean the seed is ignored somewhere
    assert len(runs) >= 1


def test_ablation_switches_still_solve(t1):
    for kw in ({"neighborhood": "1flip"}, {"path_relinking": False},
               {"greedy": "uniform"}):
        res = solve_checked(t1, quick(**kw))
        assert res.objective == 8, kw


def test_target_stops_early(t1):
    res = solve_checked(t1, quick(target=8, max_iterations=None))
    assert res.objective == 8
    assert res.iterations <= 2


def test_timeline_is_monotone(t1):
    res = solve_checked(t1, quick(max_iterations=5))
    values = [val for _, val, _ in res.timeline]
    assert values == sorted(values, reverse=True)
    assert values[-1] == res.penalized


def test_result_metadata(t1):
    cfg = quick()
    res = solve_checked(t1, cfg)
    assert res.seed == 42
    assert res.config["score"] == "pseudo"
    assert res.instance["m"] == 3
    assert res.instance["n"] == 4
    assert res.build.startswith("gubcover-")
    assert res.cost_sum == 13


@pytest.fixture()
def fresh_build_id():
    driver.build_id.cache_clear()
    yield
    driver.build_id.cache_clear()


def test_build_id_names_only_a_repo_that_tracks_the_package(tmp_path, monkeypatch,
                                                            fresh_build_id):
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                               "-c", "user.email=t@example.com", *args],
                              check=True, capture_output=True, text=True).stdout.strip()

    # a copy of the package in an ignored virtualenv of some other repository
    git("init", "-q")
    (tmp_path / ".gitignore").write_text(".venv/\n")
    git("add", ".gitignore")
    git("commit", "-q", "-m", "first")
    copy = tmp_path / ".venv" / "gubcover" / "driver.py"
    copy.parent.mkdir(parents=True)
    copy.write_text("")
    monkeypatch.setattr(driver, "__file__", str(copy))
    untracked = driver.build_id()
    assert untracked.startswith("gubcover-")
    assert git("rev-parse", "--short", "HEAD") not in untracked

    git("add", "-f", str(copy))
    git("commit", "-q", "-m", "second")
    driver.build_id.cache_clear()
    assert driver.build_id() == f"{untracked}+{git('describe', '--always', '--dirty')}"


# -- the bound computed beside the search ---------------------------------


def test_stats_carry_the_subgradient_counters(t1):
    res = solve_checked(t1, quick())
    star = res.timeline[0][1]
    sres = relaxation.subgradient_method(t1, star)
    assert res.stats == {"subgradient": {"iterations": sres.iterations,
                                         "evaluations": sres.evaluations,
                                         "step_final": sres.step_final}}
    assert res.lower_bound == sres.bound


def _five_new_bests():
    # solver seed 42's 20 greedy builds reach a new best value 5 times
    inst, _ = gio.generate(gio.GeneratorParams(rows=30, cols=120, density=0.1,
                                               block_size=6, cap=2, seed=1))
    return inst


@pytest.mark.parametrize("options,restarts", [
    ({"score": "pseudo"}, False), ({"score": "none"}, False),
    ({"max_iterations": 0}, True), ({"target": 1e6}, False),
    ({"score": "lagrangian"}, True), ({"score": "normalized"}, True)])
def test_bound_child_restarts_only_where_read_after_the_builds(tmp_path, monkeypatch,
                                                               options, restarts):
    # the target is met by the greedy pools, so no outer iteration runs,
    # but that is known only once they are full
    inst = _five_new_bests()
    calls = []  # calls made in a child do not reach this process's list
    ubs = tmp_path / "ubs"

    def recorded(inst, ub):
        calls.append(ub)
        # one write call, so a child killed at any point leaves whole lines
        fd = os.open(ubs, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(fd, f"{ub!r}\n".encode())
        os.close(fd)
        return relaxation.subgradient_method(inst, ub)

    starts = []
    beside = driver._beside

    def started(fn, *args):
        starts.append(args[-1])
        return beside(fn, *args)

    monkeypatch.setattr(driver, "subgradient_method", recorded)
    monkeypatch.setattr(driver, "_beside", started)
    res = solve_checked(inst, quick(**options))
    assert calls == []
    final = res.timeline[0][1]
    if restarts:  # one start per new best, the last with the final value
        assert len(starts) == 5 and all(a > b for a, b in zip(starts, starts[1:]))
        assert starts[-1] == final
    else:
        assert starts == [final]
    # a child superseded before it writes leaves no line
    got = [float(line) for line in ubs.read_text().split()]
    assert got[-1] == final and set(got) <= set(starts)
    assert all(a > b for a, b in zip(got, got[1:]))
    assert res.stats["subgradient"]["iterations"] > 0

    def slow_unless_final(inst, ub):
        if ub != final:
            time.sleep(60)
        return relaxation.subgradient_method(inst, ub)

    monkeypatch.setattr(driver, "subgradient_method", slow_unless_final)
    t0 = time.monotonic()
    again = solve_checked(inst, quick(**options))
    assert time.monotonic() - t0 < 30  # superseded children killed, not waited for
    assert _without_seconds(again) == _without_seconds(res)

    builds = []

    def third_fails(*args, **kwargs):
        builds.append(None)
        if len(builds) == 3:
            raise RuntimeError("third build")
        return greedy_construct(*args, **kwargs)

    monkeypatch.setattr(driver, "greedy_construct", third_fails)
    with pytest.raises(RuntimeError, match="third build") as caught:
        driver.solve(inst, quick(**options))
    # reaped on the way out, not when the frames in caught's traceback go;
    # the autouse no_child_left fixture checks again where /proc has no list
    assert live_children() in ([], None)
    del caught


def test_child_exception_is_raised_in_solve(t1, monkeypatch):
    def broken(inst, ub):
        raise ValueError("no bound here")

    monkeypatch.setattr(driver, "subgradient_method", broken)
    with pytest.raises(ValueError, match="no bound here"):
        driver.solve(t1, quick())


def test_interrupted_search_kills_the_child(t1, monkeypatch):
    def slow(inst, ub):
        time.sleep(60)
        return relaxation.subgradient_method(inst, ub)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(driver, "subgradient_method", slow)
    monkeypatch.setattr(driver, "wls", interrupted)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        driver.solve(t1, quick())
    assert time.monotonic() - t0 < 30  # killed, not waited for


def test_child_reply_larger_than_a_pipe_buffer():
    big = np.arange(1 << 17, dtype=np.float64)  # 1 MB, far past 64 KB
    with driver._beside(lambda: relaxation.SubgradientResult(
            u=big, bound=1.5, iterations=3, evaluations=1, step_final=0.25)) as result:
        got = result()
        assert np.array_equal(got.u, big) and got.bound == 1.5
        assert result() is got


def test_child_without_a_reply_raises():
    with driver._beside(os._exit, 3) as result:
        for _ in range(2):  # the child is reaped once; the error stays
            with pytest.raises(RuntimeError, match="wait status 768"):
                result()


def _without_seconds(res):
    return dataclasses.replace(res, elapsed=0.0,
                               timeline=[(i, v) for i, v, _ in res.timeline])


@pytest.mark.parametrize("how", ["raises", "missing"])
def test_solve_without_fork_gives_the_same_result(t1, monkeypatch, how):
    want = _without_seconds(solve_checked(t1, quick()))
    if how == "raises":
        def refuse():
            raise OSError("no fork")

        monkeypatch.setattr(os, "fork", refuse)
    else:
        monkeypatch.delattr(os, "fork")
    assert _without_seconds(solve_checked(t1, quick())) == want


def test_solve_without_a_pipe_gives_the_same_result(monkeypatch):
    # no child without a pipe: the one subgradient run happens here, once,
    # with the final best construction value, not at each of the 5 new bests
    inst = _five_new_bests()
    want = _without_seconds(solve_checked(inst, quick("lagrangian")))
    calls = []

    def counted(inst, ub):
        calls.append(ub)
        return relaxation.subgradient_method(inst, ub)

    def no_pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(driver, "subgradient_method", counted)
    monkeypatch.setattr(os, "pipe", no_pipe)
    assert _without_seconds(solve_checked(inst, quick("lagrangian"))) == want
    assert calls == [want.timeline[0][1]]


def test_no_relink_after_the_last_iteration(monkeypatch):
    # a relink makes the next iteration's start point, so the last
    # iteration makes none
    walks = []

    def counted(*args):
        walks.append(args)
        return pathrelink.walk(*args)

    monkeypatch.setattr(driver, "walk", counted)
    inst, _ = gio.generate(gio.GeneratorParams(rows=60, cols=300, density=0.1,
                                               block_size=10, cap=3, seed=5))
    for iterations in (1, 2):
        walks.clear()
        res = solve_checked(inst, SolverConfig(seed=0, max_iterations=iterations,
                                               time_limit=1e6))
        assert res.relink_fallbacks == 0
        assert len(walks) == iterations - 1


def test_small_random_instances_reach_optimum():
    rng = np.random.default_rng(73)
    hits = 0
    total = 0
    while total < 10:
        inst = random_instance(rng, m=6, n=12)
        x_opt, z_opt = oracle.brute_force_optimum(inst)
        if x_opt is None:
            continue
        total += 1
        res = solve_checked(inst, SolverConfig(
            seed=1, time_limit=2.0, target=float(z_opt)))
        assert res.feasible
        assert res.objective >= z_opt
        hits += res.objective == z_opt
    assert hits >= 8


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(score="banana").check()
    with pytest.raises(ValueError):
        SolverConfig(time_limit=0).check()
    with pytest.raises(ValueError):
        SolverConfig(neighborhood="3flip").check()
    nan, inf = float("nan"), float("inf")
    for bad in ({"time_limit": nan}, {"time_limit": nan, "max_iterations": 3},
                {"time_limit": inf}, {"max_iterations": -1},
                {"greedy": "fancy"}):
        with pytest.raises(ValueError):
            SolverConfig(**bad).check()
    for bad, message in (({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"),
                         ({"seed": True}, "seed"),
                         ({"max_iterations": 1.5}, "max_iterations"),
                         ({"max_iterations": True}, "max_iterations"),
                         ({"target": nan}, "target")):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**bad).check()
    SolverConfig(seed=np.int64(3), max_iterations=np.int32(2), target=5.0).check()
    # an iteration cap bounds the run on its own
    SolverConfig(time_limit=inf, max_iterations=2).check()


def test_config_rejects_values_it_would_misread(t1):
    # each of these used to pass check(): "no" turned relinking on, True
    # read as 1, and "5" escaped as a TypeError
    for bad, message in (({"path_relinking": "no"}, "path_relinking"),
                         ({"path_relinking": 0}, "path_relinking"),
                         ({"path_relinking": None}, "path_relinking"),
                         ({"time_limit": True}, "time_limit"),
                         ({"time_limit": "5"}, "time_limit"),
                         ({"target": True}, "target"),
                         ({"target": "5"}, "target")):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**bad).check()
        with pytest.raises(ValueError, match=message):
            driver.solve(t1, SolverConfig(**bad))
    SolverConfig(path_relinking=np.bool_(False), time_limit=np.float32(2.5),
                 target=np.int64(7)).check()


# Values frozen from the full-width search, before the core was compacted
# into a sub-instance; any drift in fixing, core, search or relinking order
# shows up here.
PINNED = {
    ("pseudo", 0): dict(
        objective=681, lower_bound=631.7308621162692, penalized=681.0,
        timeline=[(0, 1214.0), (1, 957.0), (2, 694.0), (3, 681.0)],
        core_fractions=[0.6066666666666667, 0.5733333333333334,
                        0.7333333333333333, 0.6],
        selected=[0, 3, 6, 12, 14, 19, 24, 25, 29, 35, 38, 39, 44, 47, 51, 53,
                  61, 62, 64, 70, 76, 78, 80, 88, 95, 98, 99, 103, 105, 115, 117, 123,
                  140]),
    ("pseudo", 1): dict(
        objective=701, lower_bound=631.7296748005786, penalized=701.0,
        timeline=[(0, 1189.0), (1, 883.0), (2, 715.0), (3, 701.0)],
        core_fractions=[0.5333333333333333, 0.35,
                        0.5, 0.6],
        selected=[3, 6, 8, 10, 15, 19, 20, 24, 25, 31, 36, 39, 40, 47, 53, 56,
                  59, 62, 64, 70, 80, 88, 95, 98, 99, 105, 107, 117, 120, 123, 140, 235]),
    ("normalized", 0): dict(
        objective=692, lower_bound=631.7308621162692, penalized=692.0,
        timeline=[(0, 1214.0), (1, 876.0), (2, 721.0), (3, 692.0)],
        core_fractions=[0.5766666666666667, 0.6333333333333333,
                        0.51, 0.4766666666666667],
        selected=[0, 5, 6, 10, 15, 19, 20, 24, 25, 31, 34, 35, 41, 44, 53, 55,
                  57, 61, 62, 64, 70, 80, 88, 95, 98, 99, 107, 117, 120, 123, 135, 140,
                  143]),
    ("normalized", 1): dict(
        objective=687, lower_bound=631.7296748005786, penalized=687.0,
        timeline=[(0, 1189.0), (1, 763.0), (2, 687.0)],
        core_fractions=[0.5766666666666667, 0.38,
                        0.7333333333333333, 0.4666666666666667],
        selected=[0, 3, 6, 10, 11, 19, 20, 23, 24, 30, 31, 32, 41, 46, 52, 58,
                  59, 61, 62, 68, 70, 76, 78, 80, 88, 89, 98, 99, 115, 123, 135, 140,
                  205]),
    ("lagrangian", 0): dict(
        objective=692, lower_bound=631.7308621162692, penalized=692.0,
        timeline=[(0, 1214.0), (1, 876.0), (2, 721.0), (3, 692.0)],
        core_fractions=[0.5766666666666667, 0.6333333333333333,
                        0.51, 0.4766666666666667],
        selected=[0, 5, 6, 10, 15, 19, 20, 24, 25, 31, 34, 35, 41, 44, 53, 55,
                  57, 61, 62, 64, 70, 80, 88, 95, 98, 99, 107, 117, 120, 123, 135, 140,
                  143]),
    ("lagrangian", 1): dict(
        objective=687, lower_bound=631.7296748005786, penalized=687.0,
        timeline=[(0, 1189.0), (1, 763.0), (2, 687.0)],
        core_fractions=[0.5766666666666667, 0.38666666666666666,
                        0.7333333333333333, 0.4666666666666667],
        selected=[0, 3, 6, 10, 11, 19, 20, 23, 24, 30, 31, 32, 41, 46, 52, 58,
                  59, 61, 62, 68, 70, 76, 78, 80, 88, 89, 98, 99, 115, 123, 135, 140,
                  205]),
}


@pytest.mark.parametrize("score,seed", sorted(PINNED))
def test_pinned_runs(score, seed, monkeypatch):
    # frozen with 10 non-improving rounds per search call, not the default 50
    monkeypatch.setattr(weighting, "WINDOW", 10)
    inst, _ = gio.generate(gio.GeneratorParams(rows=60, cols=300, density=0.1,
                                               block_size=10, cap=3, seed=5))
    res = solve_checked(inst, SolverConfig(score=score, seed=seed, max_iterations=4,
                                           time_limit=1e6))
    assert_pinned(res, PINNED[(score, seed)])


# the search options at their non-default values, pseudo scores, seed 0
PINNED_OPTIONS = {
    "neighborhood": ("1flip", dict(
        objective=723, lower_bound=631.7308621162692, penalized=723.0,
        timeline=[(0, 1214.0), (1, 973.0), (2, 744.0), (4, 723.0)],
        core_fractions=[0.6066666666666667, 0.4866666666666667, 0.8, 0.6666666666666666],
        selected=[0, 3, 9, 10, 14, 18, 20, 24, 25, 32, 38, 39, 51, 53, 57, 62, 64, 70,
                  76, 78, 80, 88, 95, 99, 103, 105, 107, 115, 123, 140, 154, 205])),
    "greedy": ("uniform", dict(
        objective=722, lower_bound=631.568383239349, penalized=722.0,
        timeline=[(0, 1623.0), (1, 954.0), (2, 722.0)],
        core_fractions=[0.7766666666666666, 0.5733333333333334, 0.7, 0.8],
        selected=[3, 6, 9, 10, 12, 19, 20, 23, 24, 31, 34, 39, 41, 44, 46, 53, 57, 59,
                  61, 62, 66, 70, 76, 80, 88, 95, 98, 99, 105, 107, 114, 117, 123, 135,
                  140])),
    "path_relinking": (False, dict(
        objective=682, lower_bound=631.7308621162692, penalized=682.0,
        timeline=[(0, 1214.0), (1, 957.0), (2, 688.0), (3, 682.0)],
        core_fractions=[0.6066666666666667, 0.6066666666666667, 0.7333333333333333,
                        0.8333333333333334],
        selected=[0, 3, 6, 10, 12, 19, 24, 25, 31, 35, 38, 46, 53, 59, 61, 62, 64, 70,
                  76, 78, 80, 84, 88, 98, 99, 105, 117, 120, 123, 140, 205])),
}


@pytest.mark.parametrize("option", sorted(PINNED_OPTIONS))
def test_pinned_option_runs(option, monkeypatch):
    monkeypatch.setattr(weighting, "WINDOW", 10)
    inst, _ = gio.generate(gio.GeneratorParams(rows=60, cols=300, density=0.1,
                                               block_size=10, cap=3, seed=5))
    value, want = PINNED_OPTIONS[option]
    res = solve_checked(inst, SolverConfig(seed=0, max_iterations=4, time_limit=1e6,
                                           **{option: value}))
    assert_pinned(res, want)


def assert_pinned(res, want):
    assert res.objective == want["objective"]
    assert res.lower_bound == want["lower_bound"]
    assert res.penalized == want["penalized"]
    assert res.selected == want["selected"]
    assert [(it, val) for it, val, _ in res.timeline] == want["timeline"]
    assert res.core_fractions == want["core_fractions"]


# type-4 blocks (cap 50 of 100): the subgradient ranks crowded blocks with
# tied reduced costs on almost every call; frozen at the default config
PINNED_CAP50 = {
    "pseudo": dict(
        objective=720, lower_bound=715.8219899707891, penalized=720.0,
        timeline=[(0, 1224.0), (1, 788.0), (2, 720.0)], core_fractions=[0.7, 0.435],
        selected=[0, 1, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15, 18, 24, 25, 26, 27, 28,
                  29, 31, 33, 34, 37, 39, 40, 47, 49, 52, 53, 55, 60, 63, 64, 73, 76, 77,
                  90, 96, 98, 107, 126, 132, 138, 152, 181, 191, 226]),
    "normalized": dict(
        objective=724, lower_bound=715.8219899707891, penalized=724.0,
        timeline=[(0, 1224.0), (1, 800.0), (2, 724.0)], core_fractions=[0.5275, 0.3525],
        selected=[0, 1, 4, 5, 7, 8, 9, 10, 12, 13, 14, 15, 16, 18, 24, 25, 26, 27, 28,
                  29, 33, 34, 37, 38, 39, 40, 47, 49, 52, 53, 55, 58, 60, 63, 64, 66, 73,
                  76, 90, 96, 98, 107, 121, 126, 138, 144, 152, 194, 246]),
}


@pytest.mark.parametrize("score", sorted(PINNED_CAP50))
def test_pinned_cap50_run(score):
    inst, _ = gio.generate(gio.GeneratorParams(rows=40, cols=400, density=0.05,
                                               block_size=100, cap=50, seed=0))
    res = solve_checked(inst, SolverConfig(score=score, seed=0, max_iterations=2,
                                           time_limit=1e6))
    assert_pinned(res, PINNED_CAP50[score])
