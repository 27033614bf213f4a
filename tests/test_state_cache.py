"""SearchState's incremental caches against a fresh rebuild and against the
mirrored reference kernels, under random sequences of flips, in-place
trial drops with and without undo, uniform weight rescaling and new weight
vectors."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gubcover import localsearch as ls

from conftest import (random_gub_feasible, random_instance, random_state, random_weights,
                      restricted_state, state_key)
from search_reference import ReferenceState

OPS = ("flip", "trial", "trial_undo", "scale", "set")


def assert_matches_rebuild(state, exact):
    fresh = ls.SearchState(state.inst, state.w, x0=state.x)
    assert np.array_equal(state.s, fresh.s)
    assert np.array_equal(state.blk, fresh.blk)
    assert (state.cost, state.viol) == (fresh.cost, fresh.viol)
    if exact:
        assert np.array_equal(state.dp_up, fresh.dp_up)
        assert np.array_equal(state.dp_down, fresh.dp_down)
        assert state.zhat == fresh.zhat
    else:
        scale = max(1.0, float(np.abs(state.w).sum()))
        np.testing.assert_allclose(state.dp_up, fresh.dp_up, rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(state.dp_down, fresh.dp_down, rtol=0, atol=1e-9 * scale)
        assert abs(state.zhat - fresh.zhat) <= 1e-9 * max(scale, abs(fresh.zhat))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), integer=st.booleans(),
       ops=st.lists(st.sampled_from(OPS), max_size=60))
def test_caches_match_rebuild(seed, integer, ops):
    """Exact for integer weights, which integer and power-of-two rescaling
    keep exactly representable; within a tolerance for real-valued ones."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    state = ls.SearchState(inst, random_weights(rng, inst, integer=integer),
                           x0=random_gub_feasible(rng, inst))
    for op in ops:
        sel = np.flatnonzero(state.x)
        if op == "flip":
            j = int(rng.integers(inst.n))
            h = inst.block_of[j]
            if state.x[j] or state.blk[h] < state.d[h]:
                state.flip(j)
        elif op.startswith("trial") and sel.size:
            _, undo = state.trial_flip_down(int(sel[rng.integers(sel.size)]))
            if op == "trial_undo":
                state.undo_trial(undo)
        elif op == "scale":
            state.scale_weights(float(rng.choice([0.5, 2.0])) if integer
                                else float(rng.uniform(0.3, 1.5)))
        elif op == "set":
            state.set_weights(random_weights(rng, inst, integer=integer))
        assert_matches_rebuild(state, exact=integer)


def test_flip_kernel_matches_mirrored_kernels():
    """Bit-equal to the one-kernel-per-direction reference under random
    flips, trial drops with and without undo, rescaled and new weights,
    with real-valued weights and on sub-instances with empty blocks."""
    rng = np.random.default_rng(140)
    flips = 0
    for case in range(300):
        integer = case % 3 == 0
        state = (restricted_state(rng, integer) if case % 2
                 else random_state(rng, integer=integer))
        ref = ReferenceState(state.inst, state.w, x0=state.x)
        ref.dp_up, ref.dp_down, ref.zhat = (state.dp_up.copy(), state.dp_down.copy(),
                                            state.zhat)
        inst = state.inst
        for op in rng.choice(OPS, size=40, p=[0.6, 0.15, 0.15, 0.05, 0.05]):
            sel = np.flatnonzero(state.x)
            if op == "flip" and inst.n:
                j = int(rng.integers(inst.n))
                if state.x[j] or state.addable(j):
                    state.flip(j)
                    ref.flip(j)
                    flips += 1
            elif op.startswith("trial") and sel.size:
                j = int(sel[rng.integers(sel.size)])
                opened, undo = state.trial_flip_down(j)
                ref_opened, ref_undo = ref.trial_flip_down(j)
                assert np.array_equal(opened, ref_opened)
                if op == "trial_undo":
                    state.undo_trial(undo)
                    ref.undo_trial(ref_undo)
            elif op == "scale":
                factor = float(rng.uniform(0.3, 1.5))
                state.scale_weights(factor)
                ref.scale_weights(factor)
            elif op == "set":
                w = random_weights(rng, inst, integer=integer)
                state.set_weights(w)
                ref.set_weights(w)
            assert state_key(state) == state_key(ref)
    assert flips > 3000
