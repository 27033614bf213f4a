"""Closed-form, screened pair moves against the searches they replace.

The references here are the swap scan that drops each candidate in place,
reads its partner off the updated dp table and undoes the drop, and the
saturated-block pass that prices every saturated block.  The solver's
versions must reach the same decisions bit for bit, and its screens must
never drop a candidate the exact pricing would accept.
"""

import itertools

import numpy as np
import pytest

from gubcover import localsearch as ls

from conftest import (nb1_state, random_gub_feasible, random_instance, random_state,
                      random_weights, restricted_state, state_key)


def trial_best_swap_for(state, j1, d1, opened):
    """Best partner to add after j1 has been dropped in place."""
    if len(opened) == 0:
        return None
    cols = np.unique(np.concatenate([state.inst.row_cols[i] for i in opened]))
    cols = cols[~state.x[cols]]
    if cols.size == 0:
        return None
    hb = state.inst.block_of[cols]
    cols = cols[state.blk[hb] < state.d[hb]]
    if cols.size == 0:
        return None
    deltas = d1 + state.costf[cols] - state.dp_up[cols]
    pos = int(np.argmin(deltas))
    return float(deltas[pos]), int(cols[pos])


def trial_partner(state, j1):
    """(best, gain floor) of the in-place trial; the state is left as it was."""
    d1 = state.delta_down(j1)
    opened, undo = state.trial_flip_down(j1)
    best = trial_best_swap_for(state, j1, d1, opened)
    tol = ls.gain_tol(state)
    state.undo_trial(undo)
    return best, tol


def trial_swap_scan(state, budget):
    """The swap scan as a drop, partner search and undo per candidate."""
    for j1 in ls._scan_candidates(state):
        if budget[0] <= 0:
            break
        d1 = state.delta_down(j1)
        opened, undo = state.trial_flip_down(j1)
        best = trial_best_swap_for(state, j1, d1, opened)
        if best is not None and best[0] < -ls.gain_tol(state):
            state.flip(best[1])
            budget[0] -= 1
            return True
        state.undo_trial(undo)
    return False


def block_argmin_pair(state, h):
    """Best drop and best add inside block h, which has both kinds of member."""
    members = state.inst.block_cols[h]
    selected = members[state.x[members]]
    addable = members[~state.x[members]]
    j1 = selected[int(np.argmin(-state.costf[selected] + state.dp_down[selected]))]
    j2 = addable[int(np.argmin(state.costf[addable] - state.dp_up[addable]))]
    return int(j1), int(j2)


def unbounded_swap_saturated(state, budget):
    """The saturated-block pass that prices every saturated block."""
    moved = False
    while budget[0] > 0:
        updated = False
        for h in np.flatnonzero(state.blk == state.d):
            if budget[0] <= 0:
                break
            members = state.inst.block_cols[h]
            if state.x[members].all() or not state.x[members].any():
                continue
            j1, j2 = block_argmin_pair(state, h)
            if state.two_flip_delta(j1, j2) < -ls.gain_tol(state):
                state.flip(j1)
                state.flip(j2)
                budget[0] -= 1
                updated = moved = True
        if not updated:
            break
    return moved


def test_closed_form_partner_equals_trial():
    rng = np.random.default_rng(120)
    own = reopened = compared = 0
    for _ in range(300):
        state = random_state(rng)
        before = state_key(state)
        for j1 in np.flatnonzero(state.x):
            d1 = state.delta_down(j1)
            got = ls._best_partner(state, j1, d1)
            want, tol = trial_partner(state, j1)
            assert got == want
            assert tol == ls.gain_tol(state, state.zhat + d1)
            compared += 1
            if got is None:
                continue
            h1 = state.inst.block_of[j1]
            own += got[1] == j1
            reopened += (got[1] != j1 and state.inst.block_of[got[1]] == h1
                         and state.blk[h1] == state.d[h1])
        assert state_key(state) == before
    assert compared > 1000 and own > 20 and reopened > 20


def test_swap_scan_matches_trial_scan():
    rng = np.random.default_rng(121)
    moved = 0
    for _ in range(200):
        inst = random_instance(rng)
        state = nb1_state(rng, inst, w=random_weights(rng, inst, integer=bool(rng.integers(2))))
        if rng.integers(2):
            state.scale_weights(float(rng.uniform(0.3, 0.99)))
        ref = state.copy()
        ref_budget = [5]
        got = len(list(itertools.islice(ls._step_swap_scan(state), 5)))
        want = trial_swap_scan(ref, ref_budget)
        assert got == 5 - ref_budget[0] and (got > 0) == want
        assert state_key(state) == state_key(ref)
        moved += got
    assert moved > 20


@pytest.mark.parametrize("restricted", [False, True])
def test_saturated_screen_matches_argmin_pair(restricted):
    rng = np.random.default_rng(122 + restricted)
    checked = tied = 0
    for _ in range(400):
        integer = bool(rng.integers(2))
        # few distinct costs and weights make tied gains common
        few = bool(rng.integers(2))
        cost_hi = 2 if few else 20
        state = (restricted_state(rng, integer, cost_hi) if restricted
                 else random_state(rng, random_instance(rng, cost_hi=cost_hi), integer))
        if few:
            state.set_weights(rng.integers(1, 3, size=state.inst.m).astype(float))
        want = np.array([h for h, members in enumerate(state.inst.block_cols)
                         if state.blk[h] == state.d[h]
                         and state.x[members].any() and not state.x[members].all()],
                        dtype=np.int64)
        j1, j2, low = ls._saturated_screen(state, want)
        assert j1.size == j2.size == low.size == want.size
        for h, a, b, g in zip(want, j1, j2, low):
            assert (a, b) == block_argmin_pair(state, h)
            exact = state.two_flip_delta(a, b)
            assert g <= exact and exact - g < 1e-6 * max(1.0, abs(exact))
            members = state.inst.block_cols[h]
            picked, rest = members[state.x[members]], members[~state.x[members]]
            down = -state.costf[picked] + state.dp_down[picked]
            up = state.costf[rest] - state.dp_up[rest]
            tied += (np.count_nonzero(down == down.min()) > 1
                     or np.count_nonzero(up == up.min()) > 1)
            checked += 1
    assert checked > 150 and tied > 15


@pytest.mark.parametrize("restricted", [False, True])
def test_scan_screen_keeps_every_improving_candidate(restricted):
    rng = np.random.default_rng(126 + restricted)
    kept = dropped = 0
    for _ in range(300):
        integer = bool(rng.integers(2))
        state = (restricted_state(rng, integer) if restricted
                 else random_state(rng, integer=integer))
        if rng.integers(3) == 0:
            w = state.w.copy()
            w[rng.random(w.size) < 0.4] = 0.0
            state.set_weights(w)
        cand = np.flatnonzero(state.x)
        screened = ls._scan_screen(state, cand)
        assert np.all(np.isin(screened, cand)) and np.all(np.diff(screened) > 0)
        for j1 in np.setdiff1d(cand, screened):
            d1 = state.delta_down(j1)
            best = ls._best_partner(state, j1, d1)
            assert best is None or not best[0] < -ls.gain_tol(state, state.zhat + d1)
        kept += screened.size
        dropped += cand.size - screened.size
    assert kept > 200 and dropped > 200


def test_swap_scan_with_zero_weights_matches_trial_scan():
    """A zero-weight opened row adds no entry to the screen's product."""
    rng = np.random.default_rng(128)
    moved = zero_opened = 0
    for _ in range(200):
        inst = random_instance(rng)
        w = random_weights(rng, inst, integer=bool(rng.integers(2)))
        w[rng.random(inst.m) < 0.4] = 0.0
        if rng.integers(2):
            state = nb1_state(rng, inst, w=w)
        else:
            state = ls.SearchState(inst, w, x0=random_gub_feasible(rng, inst))
        ref = state.copy()
        sel = np.flatnonzero(state.x)
        zero_opened += any(np.any((state.s[r] == state.b[r]) & (state.w[r] == 0))
                           for r in (inst.col_rows[j] for j in sel))
        ref_budget = [5]
        got = len(list(itertools.islice(ls._step_swap_scan(state), 5)))
        want = trial_swap_scan(ref, ref_budget)
        assert got == 5 - ref_budget[0] and (got > 0) == want
        assert state_key(state) == state_key(ref)
        moved += got
    assert moved > 20 and zero_opened > 50


@pytest.mark.parametrize("restricted", [False, True])
def test_bounded_saturated_pass_matches_unbounded(restricted):
    rng = np.random.default_rng(124 + restricted)
    moved = 0
    for _ in range(200):
        state = restricted_state(rng) if restricted else random_state(
            rng, integer=bool(rng.integers(2)))
        ref = state.copy()
        cap = int(rng.integers(1, 6))
        ref_budget = [cap]
        got = len(list(itertools.islice(ls._step_swap_saturated(state), cap)))
        want = unbounded_swap_saturated(ref, ref_budget)
        assert got == cap - ref_budget[0] and (got > 0) == want
        assert state_key(state) == state_key(ref)
        moved += got > 0
    assert moved > 20


def test_saturated_pass_screens_once_per_swap(monkeypatch):
    """One screen up front and one after each swap.  Every pass that swaps
    walks the blocks again to find nothing left, and that walk reuses the
    screen in hand, since the state has not moved since it was taken.  A
    pass with no saturated block screens nothing."""
    rng = np.random.default_rng(130)
    calls = [0]
    screen = ls._saturated_screen

    def counted(*args):
        calls[0] += 1
        return screen(*args)

    monkeypatch.setattr(ls, "_saturated_screen", counted)
    moved = empty = 0
    for _ in range(200):
        state = random_state(rng, integer=bool(rng.integers(2)))
        size = np.diff(state.inst.block_cols.ptr)
        saturated = np.any((state.blk == state.d) & (state.blk > 0) & (size > state.blk))
        calls[0] = 0
        swaps = len(list(itertools.islice(ls._step_swap_saturated(state), 1 << 20)))
        assert calls[0] == (1 + swaps if saturated else 0)
        moved += swaps > 0
        empty += not saturated
    assert moved > 20 and empty > 0
