"""Adaptive penalty weights around the local search.

The search minimizes cost plus weighted shortfall.  Between search rounds
the weights move: up on violated rows when the current solution still
looks better than the best known (pushing the search toward coverage),
down uniformly when the penalized value has drifted above the best known
value (letting the search shed expensive columns).  Progress is always
measured against the initial weights, which never change.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .localsearch import SearchState, two_fnls
from .model import initial_weights

INCREASE_DELTA = 0.2      # the most violated row's weight grows by this factor
DECREASE_FRACTION = 0.15  # share of selected columns a decrease makes worth dropping
WINDOW = 50               # rounds without improvement before wls stops


def decrease_factor(state):
    """Uniform shrink factor eta for w <- (1 - eta) w.

    Chosen minimally so that at least ceil(DECREASE_FRACTION * n') of the
    selected columns end up with a negative drop gain, n' being the number
    of selected columns.  Columns already improving to drop count toward the
    quota; if the quota is already met (or nothing is selected) returns
    None and the weights should stay put.
    """
    sel = np.flatnonzero(state.x)
    if sel.size == 0:
        return None
    quota = math.ceil(DECREASE_FRACTION * sel.size)
    c = state.costf[sel]
    dpd = state.dp_down[sel]
    # dp_down <= 0 means the drop gain is -c, negative at any scale
    always = int((dpd <= 0).sum())
    need = quota - always
    if need <= 0:
        return None
    pos = dpd > 0
    # drop gain after scaling is -c + (1-eta) dpd, negative iff eta > 1 - c/dpd
    thresholds = np.sort(1.0 - c[pos] / dpd[pos])
    if thresholds.size == 0:
        return None
    v = float(thresholds[min(need, thresholds.size) - 1])
    eta = v + 1e-9 * max(1.0, abs(v))
    if eta <= 0:
        return None
    return min(eta, 1.0 - 1e-12)


def decrease_weights(state):
    eta = decrease_factor(state)
    if eta is not None:
        state.scale_weights(1.0 - eta)
    return eta


def increase_weights(state):
    """Raise weights on violated rows, proportionally to their shortfall.

    The most violated row gains the full factor (1 + INCREASE_DELTA),
    others less, and nothing ever exceeds the initial weight.  No
    violation, no change.
    """
    y = np.maximum(state.b - state.s, 0).astype(float)
    ymax = float(y.max()) if y.size else 0.0
    if ymax == 0.0:
        return False
    w_new = np.minimum(state.w * (1.0 + INCREASE_DELTA * y / ymax), state.wbar)
    state.set_weights(w_new)
    return True


@dataclass
class WlsResult:
    x_hat: np.ndarray       # where the search stopped
    x_best: np.ndarray      # best seen under the initial weights
    w: np.ndarray           # final weight vector
    iterations: int


def wls(inst, x0, one_flip_only=False, deadline=None):
    """Weighted local search from x0: repeat two_fnls, adapting weights in between.

    Starts a SearchState at the initial weights, then loops: search,
    compare the best solution the round visited against the incumbent of
    this call (always under the initial weights), and stop after WINDOW
    rounds without improvement or when the deadline passes.  After each
    round the weights decrease when the round's end state is no better
    than that incumbent, and increase on the violated rows otherwise.
    """
    state = SearchState(inst, initial_weights(inst), x0=x0)
    best_val, best_x = state.zbar(), state.x.copy()
    fails = rounds = 0
    while True:
        rounds += 1
        value, x = two_fnls(state, one_flip_only=one_flip_only, deadline=deadline)
        if value < best_val:
            best_val, best_x = value, x
            fails = 0
        else:
            fails += 1
        if fails >= WINDOW:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        if state.zhat >= best_val:
            decrease_weights(state)
        else:
            increase_weights(state)
    return WlsResult(x_hat=state.x.copy(), x_best=best_x, w=state.w.copy(),
                     iterations=rounds)
