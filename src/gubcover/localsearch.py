"""Two-flip neighborhood local search with incremental evaluation.

The search works on the penalized objective: cost of the selected columns
plus, for every row, weight times the remaining shortfall.  SearchState
keeps per-column flip gains current under single flips, so evaluating a
move is O(1) and applying one costs time proportional to the adjacency of
the touched rows.

Moves never violate the block caps; the covering constraints are the soft
part handled by the weights.

The cached quantities, for the current solution x:

  s[i]        selected columns covering row i
  dp_up[j]    sum of w[i] over covered rows with s[i] <  demand[i]
  dp_down[j]  sum of w[i] over covered rows with s[i] <= demand[i]

so flipping j up changes the penalized value by cost[j] - dp_up[j] and
flipping it down by -cost[j] + dp_down[j].  A flip of j shifts s on its
rows by one; only rows crossing the demand threshold require touching the
dp entries of their adjacent columns.

Pair moves are priced from the same tables without flipping anything:
dropping j1 and adding j2 gains the two single-flip gains less the weight
of the rows both cover at s == demand.  The swap scan adds those rows into
each partner's gain in closed form, and the saturated-block pass skips the
blocks whose lower bound (_pair_bounds) rules out an improving swap.
"""

from __future__ import annotations

import time

import numpy as np

from .model import coverage_counts


class SearchState:
    """One working solution plus everything needed to evaluate flips fast.

    Every column of inst is a candidate.  A reduced problem is searched as
    the compacted sub-instance from ReducedProblem.restrict, which carries
    the residual demands and caps and the full instance's wbar.  The weight
    vector is owned by the state (copied in) because the weighting scheme
    rescales it in place between search rounds.
    """

    def __init__(self, inst, weights, x0=None):
        self.inst = inst
        self.b = inst.demand
        self.d = inst.cap
        self.w = np.array(weights, dtype=float)
        self.wbar = inst.wbar
        self.costf = inst.cost.astype(float)
        self.x = np.zeros(inst.n, dtype=bool)
        if x0 is not None:
            self.x |= np.asarray(x0, dtype=bool)
        self._rebuild()
        if np.any(self.blk > self.d):
            raise ValueError("initial solution violates a block cap")

    # -- construction / resync -------------------------------------------

    def _rebuild(self):
        inst = self.inst
        self.s = coverage_counts(inst, self.x)
        sel = np.flatnonzero(self.x)
        self.blk = np.bincount(inst.block_of[sel], minlength=inst.k).astype(np.int64)
        self.cost = int(inst.cost[sel].sum())
        short = np.maximum(self.b - self.s, 0)
        self.viol = int(short.sum())
        self.zhat = self.cost + float(np.dot(self.w, short))
        a = inst.matrix()
        self.dp_up = (self.w * (self.s < self.b)) @ a
        self.dp_down = (self.w * (self.s <= self.b)) @ a

    def resync_zhat(self):
        """Recompute the scalar penalized value from s; cheap drift guard."""
        short = np.maximum(self.b - self.s, 0)
        self.zhat = self.cost + float(np.dot(self.w, short))

    def set_weights(self, w):
        """Install a new weight vector and rebuild the dp tables."""
        self.w = np.array(w, dtype=float)
        a = self.inst.matrix()
        self.dp_up = (self.w * (self.s < self.b)) @ a
        self.dp_down = (self.w * (self.s <= self.b)) @ a
        self.resync_zhat()

    def scale_weights(self, factor):
        """Uniform rescaling; the dp tables scale along, no rebuild needed."""
        self.w *= factor
        self.dp_up *= factor
        self.dp_down *= factor
        self.resync_zhat()

    # -- evaluation -------------------------------------------------------

    def zbar(self) -> float:
        """Penalized value under the initial uniform weights."""
        return self.cost + self.wbar * self.viol

    def delta_up(self, j) -> float:
        return self.costf[j] - self.dp_up[j]

    def delta_down(self, j) -> float:
        return -self.costf[j] + self.dp_down[j]

    def two_flip_delta(self, j1, j2) -> float:
        """Gain of dropping selected j1 and adding unselected j2.

        The single-flip gains double-count rows both columns cover that sit
        exactly at their demand, hence the correction term.
        """
        inst = self.inst
        common = np.intersect1d(inst.col_rows[j1], inst.col_rows[j2], assume_unique=True)
        corr = 0.0
        if common.size:
            at = common[self.s[common] == self.b[common]]
            corr = float(self.w[at].sum())
        return self.delta_down(j1) + self.delta_up(j2) - corr

    # -- mutation ---------------------------------------------------------

    def flip(self, j):
        if self.x[j]:
            self._flip_down(j)
        else:
            self._flip_up(j)

    def _flip_up(self, j):
        inst = self.inst
        h = inst.block_of[j]
        assert not self.x[j] and self.blk[h] < self.d[h]
        self.zhat += self.costf[j] - self.dp_up[j]
        self.x[j] = True
        self.cost += int(inst.cost[j])
        self.blk[h] += 1
        w, b, s = self.w, self.b, self.s
        for i in inst.col_rows[j]:
            si = s[i] + 1
            s[i] = si
            if si <= b[i]:
                self.viol -= 1
            if si == b[i]:
                self.dp_up[inst.row_cols[i]] -= w[i]
            elif si == b[i] + 1:
                self.dp_down[inst.row_cols[i]] -= w[i]

    def _flip_down(self, j, patches=None):
        inst = self.inst
        assert self.x[j]
        self.zhat += -self.costf[j] + self.dp_down[j]
        self.x[j] = False
        self.cost -= int(inst.cost[j])
        self.blk[inst.block_of[j]] -= 1
        w, b, s = self.w, self.b, self.s
        for i in inst.col_rows[j]:
            si = s[i] - 1
            s[i] = si
            if si < b[i]:
                self.viol += 1
            if si == b[i] - 1:
                dp = self.dp_up
            elif si == b[i]:
                dp = self.dp_down
            else:
                continue
            cols = inst.row_cols[i]
            if patches is not None:
                patches.append((dp, cols, dp[cols].copy()))
            dp[cols] += w[i]

    def trial_flip_down(self, j):
        """Flip selected j down, remembering enough to undo it exactly.

        Returns (opened_rows, undo).  opened_rows are the covered rows that
        drop to demand-1, whose adjacent columns get more attractive to add.
        undo restores every touched cell from saved copies, so undo_trial is
        bit-exact even with real-valued weights.  The swap scan applies its
        accepted swaps through this method, and perfbench's traced run counts
        them as its calls less those of undo_trial.
        """
        rows = self.inst.col_rows[j]
        undo = {"j": j, "cost": self.cost, "viol": self.viol, "zhat": self.zhat,
                "s": self.s[rows].copy(), "patches": []}
        opened = rows[self.s[rows] == self.b[rows]]
        self._flip_down(j, undo["patches"])
        return opened, undo

    def undo_trial(self, undo):
        j = undo["j"]
        for arr, idx, saved in reversed(undo["patches"]):
            arr[idx] = saved
        self.s[self.inst.col_rows[j]] = undo["s"]
        self.x[j] = True
        self.blk[self.inst.block_of[j]] += 1
        self.cost = undo["cost"]
        self.viol = undo["viol"]
        self.zhat = undo["zhat"]

    def copy_solution(self) -> np.ndarray:
        return self.x.copy()


class BestTracker:
    """Remembers the best solution under the initial weights seen so far."""

    def __init__(self):
        self.value = np.inf
        self.x = None

    def observe(self, state: SearchState):
        v = state.zbar()
        if v < self.value:
            self.value = v
            self.x = state.x.copy()


def _observe(tracker, state):
    if tracker is not None:
        tracker.observe(state)


def _add_candidates(state: SearchState):
    open_blocks = state.blk < state.d
    return ~state.x & open_blocks[state.inst.block_of]


def gain_tol(state, zhat=None) -> float:
    """Minimum gain a move must clear to count as improving.

    Relative to the current penalized value, or to zhat, the value after a
    drop that the caller has priced but not made.  The weight-decrease step
    parks weights a whisker below exact break-even ratios on purpose;
    without this floor the swap scan can chew through endless chains of
    break-even-minus-epsilon moves that change nothing.  Integer-weight
    gains are whole numbers and sit far above the floor.
    """
    return 1e-6 * max(1.0, abs(state.zhat if zhat is None else zhat))


def _step_add(state, tracker, budget):
    """Flip the best improving unselected column until none improves."""
    moved = False
    while budget[0] > 0:
        deltas = np.where(_add_candidates(state), state.costf - state.dp_up, np.inf)
        j = int(np.argmin(deltas))
        if not deltas[j] < -gain_tol(state):
            break
        state._flip_up(j)
        _observe(tracker, state)
        budget[0] -= 1
        moved = True
    return moved


def _step_drop(state, tracker, budget):
    """Flip the best improving selected column until none improves."""
    moved = False
    while budget[0] > 0:
        deltas = np.where(state.x, -state.costf + state.dp_down, np.inf)
        j = int(np.argmin(deltas))
        if not deltas[j] < -gain_tol(state):
            break
        state._flip_down(j)
        _observe(tracker, state)
        budget[0] -= 1
        moved = True
    return moved


def _block_min(state, values):
    """Minimum of values[:, members] per block, as a (len(values), k) array.

    A segment reduction over block_csr; an empty block, which restrict can
    leave behind, gets +inf.
    """
    csr = state.inst.block_csr
    starts = csr.ptr[:-1]
    full = starts < csr.ptr[1:]
    out = np.full((len(values), csr.count), np.inf)
    if csr.ind.size:
        out[:, full] = np.minimum.reduceat(values[:, csr.ind], starts[full], axis=1)
    return out


def _block_argmin_pair(state, h):
    """Best drop and best add inside block h, which has both kinds of member."""
    members = state.inst.block_cols[h]
    selected = members[state.x[members]]
    addable = members[~state.x[members]]
    j1 = selected[int(np.argmin(-state.costf[selected] + state.dp_down[selected]))]
    j2 = addable[int(np.argmin(state.costf[addable] - state.dp_up[addable]))]
    return int(j1), int(j2)


def _pair_bounds(state):
    """Per block, a lower bound on the gain of its argmin pair, and a margin.

    The bound is (least drop gain) + (least add gain) - (largest weight of
    exactly-covered rows, dp_down - dp_up, over the selected members).  The
    pair's shared exactly-covered rows weigh at most as much as all of the
    dropped column's, so the bound never exceeds the pair's gain.  The
    margin covers the rounding that the dp tables carry.
    """
    x = state.x
    parts = _block_min(state, np.stack([
        np.where(x, -state.costf + state.dp_down, np.inf),
        np.where(x, np.inf, state.costf - state.dp_up),
        np.where(x, state.dp_up - state.dp_down, np.inf)]))
    return parts.sum(axis=0), 1e-9 * np.abs(parts).sum(axis=0)


def _step_swap_saturated(state, tracker, budget):
    """Swap inside saturated blocks while any such swap improves.

    Inside a block at its cap, a single add is never allowed, so the only
    candidate is the pair (cheapest drop, cheapest add); if some improving
    swap exists there with no shared exactly-covered row, that pair is
    improving too, which is what makes checking one pair per block enough.
    A block whose _pair_bounds bound clears the gain floor cannot improve
    and is skipped; the bounds are recomputed after every accepted swap.
    """
    moved = False
    while budget[0] > 0:
        updated = False
        bound, margin = _pair_bounds(state)
        for h in np.flatnonzero(state.blk == state.d):
            if budget[0] <= 0:
                break
            if not bound[h] < -gain_tol(state) + margin[h]:
                continue  # also every block with an empty side: its bound is +inf
            j1, j2 = _block_argmin_pair(state, h)
            if state.two_flip_delta(j1, j2) < -gain_tol(state):
                state._flip_down(j1)
                state._flip_up(j2)
                _observe(tracker, state)
                budget[0] -= 1
                updated = True
                moved = True
                bound, margin = _pair_bounds(state)
        if not updated:
            break
    return moved


def _best_partner(state, j1, d1):
    """Best (gain, j2) for dropping selected j1 (gain d1) and adding j2.

    Dropping j1 opens its rows at s == b.  Only columns covering an opened
    row can gain beyond the two single flips, so those are the candidates:
    the unselected ones and j1 itself, with caps checked as if j1's block
    had one member fewer.  j2's gain is d1 + c_j2 - (dp_up[j2] + the w_i of
    the opened rows it covers), summed row by row in j1's row order, so it
    is the same float that dropping j1 in place would leave in dp_up.
    Returns None when no column qualifies.
    """
    inst = state.inst
    rows = inst.col_rows[j1]
    opened = rows[state.s[rows] == state.b[rows]]
    if opened.size == 0:
        return None
    lists = [inst.row_cols[i] for i in opened]
    cols = np.concatenate(lists)
    lost = np.empty(inst.n)
    lost[cols] = state.dp_up[cols]
    for i, c in zip(opened, lists):
        lost[c] += state.w[i]
    h = inst.block_of[cols]
    keep = ((~state.x[cols] | (cols == j1))
            & (state.blk[h] - (h == inst.block_of[j1]) < state.d[h]))
    if not keep.any():
        return None
    cols = cols[keep]
    deltas = d1 + state.costf[cols] - lost[cols]
    best = deltas.min()
    return float(best), int(cols[deltas == best].min())


def _scan_candidates(state):
    """Selected columns that could anchor an improving swap, scan-ordered.

    For selected j1 the best conceivable pair gain is bounded below by
    Δẑ_j1↓ + (cheapest add gain) − (total weight of j1's exactly-covered
    rows), the last term being dp_down − dp_up.  The add-gain floor is the
    minimum over cap-open blocks, or over j1's own block mates, which the
    drop itself reopens.  Columns whose bound is nonnegative cannot start
    an improving swap and are dropped before any partner search.
    """
    inst = state.inst
    sel = np.flatnonzero(state.x)
    if sel.size == 0:
        return sel
    gains = np.where(~state.x, state.costf - state.dp_up, np.inf)
    open_blocks = state.blk < state.d
    open_gain = gains[open_blocks[inst.block_of]].min(initial=np.inf)
    block_gain = _block_min(state, gains[None])[0]
    floor = np.minimum(open_gain, block_gain[inst.block_of[sel]])
    d1 = -state.costf[sel] + state.dp_down[sel]
    bound = d1 + floor - (state.dp_down[sel] - state.dp_up[sel])
    keep = sel[bound < 0]
    return keep[np.lexsort((keep, -state.costf[keep] + state.dp_down[keep]))]


def _step_swap_scan(state, tracker, budget):
    """Drop/add swaps over the selected columns, first hit wins.

    Visits the candidate columns by ascending drop gain (order frozen at
    entry) and applies the first one's best partner that beats the gain
    floor of the state after the drop, as trial_flip_down then _flip_up.
    The caller then restarts from the single-flip phases, so at most one
    swap lands here.
    """
    for j1 in _scan_candidates(state):
        if budget[0] <= 0:
            break
        d1 = state.delta_down(j1)
        best = _best_partner(state, j1, d1)
        if best is not None and best[0] < -gain_tol(state, state.zhat + d1):
            state.trial_flip_down(j1)
            state._flip_up(best[1])
            _observe(tracker, state)
            budget[0] -= 1
            return True
    return False


def two_fnls(state: SearchState, one_flip_only=False, tracker=None, move_cap=None,
             deadline=None):
    """Drive the state to a local optimum of the penalized objective.

    Phase order: exhaust improving adds, exhaust improving drops, swap
    inside saturated blocks, then scan for general drop/add swaps; any
    accepted pair move restarts the cycle, so on exit no phase has an
    improving move left.  Single-flip phases always run to completion
    before the pair phases, and the routine only ever accepts strictly
    improving moves.  Pair gains come in closed form (see the module notes).

    deadline (time.monotonic seconds) cuts the run short between phases;
    near-uniform weights can make the swap scan grind through long chains
    of tiny gains, and the caller's time budget outranks local optimality.
    move_cap bounds the total accepted flips as insurance against
    float-induced cycling after weight rescaling.
    """
    state.resync_zhat()
    _observe(tracker, state)
    budget = [move_cap if move_cap is not None else 200 * state.inst.n + 1000]
    while True:
        # alternate the single-flip phases until quiet: under small weights
        # an accepted drop can uncover rows and re-enable adds
        while budget[0] > 0:
            _step_add(state, tracker, budget)
            if not _step_drop(state, tracker, budget):
                break
        if one_flip_only or budget[0] <= 0:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        if _step_swap_saturated(state, tracker, budget):
            continue
        if not _step_swap_scan(state, tracker, budget):
            break
    return state


def lowest_k(values, k):
    """Indices of the k smallest values, ties to the lowest index.

    The order is part of the contract, because the randomized greedy draws
    by position in it: first every index whose value is strictly below the
    k-th smallest, ascending, then the ascending indices tied with it, cut
    at k.  With k >= values.size it is simply arange(values.size).
    """
    if k >= values.size:
        return np.arange(values.size)
    kth = np.partition(values, k - 1)[k - 1]
    strict = np.flatnonzero(values < kth)
    tied = np.flatnonzero(values == kth)
    return np.concatenate([strict, tied[: k - strict.size]])


# Negative-gain columns the greedy shortlist keeps (more when ties straddle
# the cut).  Large enough that a list survives many adds, small enough
# that re-scoring it on every add costs next to nothing.
SHORTLIST = 256


def _shortlist(state, size):
    """Add candidates of the greedy that can still matter, and their bound.

    Returns (cols, tau): cols, ascending, are the candidates with add gain
    below tau, where tau is the smallest negative gain above the size-th
    smallest, so that all columns tied at the cut are in.  When no such
    gain exists, tau is 0 and cols holds every negative candidate.
    """
    gains = np.where(_add_candidates(state), state.costf - state.dp_up, np.inf)
    cols = np.flatnonzero(gains < 0)
    tau = 0.0
    if cols.size > size:
        g = gains[cols]
        kth = np.partition(g, size - 1)[size - 1]
        tau = float(g[g > kth].min(initial=0.0))
        cols = cols[g < tau]
    return cols, tau


def greedy_construct(inst, weights, rng, width=5, uniform=False):
    """Randomized greedy start: noisy add phase, then a clean drop phase.

    Adds improving (negative-gain) columns one at a time, picking uniformly
    among the `width` best candidates (or among all of them when
    uniform=True), then removes redundant columns the usual way so no
    selected column has a negative drop gain.  Returns the SearchState.

    The adds do not rescan all columns.  During the build the weights are
    fixed and nonnegative and columns are only added, so _flip_up only
    lowers dp_up: every add gain can only rise and the candidate set only
    shrinks.  A column left out of the shortlist (see _shortlist) was at
    or above tau and stays there, so each add re-scores just the list and
    keeps the members still addable and below tau.  While more than
    `width` are left, the `width` best of all columns are among them in
    the same lowest_k order, so the pick and its rng draw equal a full
    scan's.  With `width` or fewer left the list is rebuilt from a full
    scan; at exactly `width`, lowest_k would return them in index order,
    which need not be the full scan's order.  A list with tau = 0 holds
    every negative candidate and needs no rebuild; uniform=True always
    builds it that way.
    """
    state = SearchState(inst, weights)
    # a fresh list with tau < 0 has at least `size` > `width` members, so a
    # rebuild is never followed by another before the next add
    size = inst.n if uniform else max(SHORTLIST, width + 1)
    cols, tau = _shortlist(state, size)
    while True:
        gains = state.costf[cols] - state.dp_up[cols]
        h = inst.block_of[cols]
        live = (gains < tau) & ~state.x[cols] & (state.blk[h] < state.d[h])
        cols, gains = cols[live], gains[live]
        if tau < 0 and cols.size <= width:
            cols, tau = _shortlist(state, size)
            continue
        if cols.size == 0:
            break
        pool = cols if uniform else cols[lowest_k(gains, width)]
        state._flip_up(int(pool[rng.integers(pool.size)]))
    _step_drop(state, None, [1 << 60])
    return state
