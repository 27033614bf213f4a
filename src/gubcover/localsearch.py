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

so adding j changes the penalized value by its add gain cost[j] - dp_up[j]
and dropping it by its drop gain -cost[j] + dp_down[j]; add_gains() and
drop_gains() give them for every column, inf where the flip is not
allowed.  A flip of j by step (+1 adds, -1 drops) moves s by step on j's
rows, and a row crosses a threshold on the lower t of its old and new
counts: at t == demand - 1 the dp_up of its columns moves by -step * w[i],
at t == demand their dp_down does.  No other entry changes.

That scatter runs in scipy's compiled csc_matvec, a one-column product
over row i's slice of row_cols and the matrices' read-only ones.  It adds
1.0 * (-step * w[i]), the same float as subtracting step * w[i], once per
column, rows in ascending order, so the tables match an element-wise
update bit for bit.

Pair moves are priced from the same tables without flipping anything:
dropping j1 and adding j2 gains the two single-flip gains less the weight
of the rows both cover at s == demand.  Each pair phase first screens all
of its candidates at once: the swap scan with one sparse product that
gives every candidate's best partner gain (_scan_screen), the
saturated-block pass with segment argmins over the blocks and a sorted-key
match of the shared rows (_saturated_screen).  A screen sums in another
order than the exact pricing, so it lowers each gain by a margin of 1e-9
times the magnitudes of its terms, far more than the order can change.
Only the candidates that still beat the gain floor are priced exactly, by
_best_partner or by two_flip_delta, and the exact gain decides, so the
moves made are those of pricing every candidate.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec

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
        self._scatter = (inst.row_cols.ptr, inst.row_cols.ind, inst.col_matrix().data)
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
        self.viol = int(np.maximum(self.b - self.s, 0).sum())
        self._build_tables()

    def _build_tables(self):
        """Rebuild the dp tables and zhat from s and the current weights."""
        a = self.inst.col_matrix()
        self.dp_up = a @ (self.w * (self.s < self.b))
        self.dp_down = a @ (self.w * (self.s <= self.b))
        self.resync_zhat()

    def resync_zhat(self):
        """Recompute the scalar penalized value from s; cheap drift guard."""
        short = np.maximum(self.b - self.s, 0)
        self.zhat = self.cost + float(np.dot(self.w, short))

    def set_weights(self, w):
        """Install a new weight vector and rebuild the dp tables."""
        self.w = np.array(w, dtype=float)
        self._build_tables()

    def scale_weights(self, factor):
        """Uniform rescaling; the dp tables scale along, no rebuild needed."""
        self.w *= factor
        self.dp_up *= factor
        self.dp_down *= factor
        self.resync_zhat()

    def copy(self) -> SearchState:
        """An independent state: copies what flips and weights write, no rebuild."""
        new = object.__new__(SearchState)
        new.__dict__.update(self.__dict__)
        for name in ("w", "x", "s", "blk", "dp_up", "dp_down"):
            setattr(new, name, getattr(self, name).copy())
        return new

    # -- evaluation -------------------------------------------------------

    def zbar(self) -> float:
        """Penalized value under the initial uniform weights."""
        return self.cost + self.wbar * self.viol

    def delta_up(self, j):
        """Add gain of j, an index or an index array, caps aside."""
        return self.costf[j] - self.dp_up[j]

    def delta_down(self, j):
        """Drop gain of j, an index or an index array."""
        return -self.costf[j] + self.dp_down[j]

    def addable(self, cols=slice(None)):
        """For each of cols: unselected, with room left in its block."""
        return ~self.x[cols] & (self.blk < self.d)[self.inst.block_of[cols]]

    def add_gains(self) -> np.ndarray:
        """Every column's add gain, inf where it is not addable."""
        return np.where(self.addable(), self.delta_up(slice(None)), np.inf)

    def drop_gains(self) -> np.ndarray:
        """Every column's drop gain, inf where it is not selected."""
        return np.where(self.x, self.delta_down(slice(None)), np.inf)

    def opened(self, j) -> np.ndarray:
        """The rows of j at s == b, which a drop of j would leave short."""
        rows = self.inst.col_rows[j]
        return rows[self.s[rows] == self.b[rows]]

    def two_flip_delta(self, j1, j2) -> float:
        """Gain of dropping selected j1 and adding unselected j2.

        The single-flip gains double-count the rows j1 opens that j2 also
        covers, hence the correction term.
        """
        common = np.intersect1d(self.opened(j1), self.inst.col_rows[j2], assume_unique=True)
        return self.delta_down(j1) + self.delta_up(j2) - float(self.w[common].sum())

    # -- mutation ---------------------------------------------------------

    def flip(self, j):
        """Add j if it is unselected, else drop it."""
        self._flip(j, -1 if self.x[j] else 1)

    def _flip(self, j, step):
        """Flip j by step, +1 to add it and -1 to drop it (module notes)."""
        inst = self.inst
        h = inst.block_of[j]
        assert self.x[j] == (step < 0) and (step < 0 or self.blk[h] < self.d[h])
        self.zhat += self.delta_up(j) if step > 0 else self.delta_down(j)
        self.x[j] = step > 0
        self.cost += step * int(inst.cost[j])
        self.blk[h] += step
        w, b, s = self.w, self.b, self.s
        # t is the lower of the row's old and new counts, as a Python int:
        # item() and int arithmetic cost less than numpy scalars
        low, rise = (0, 1) if step > 0 else (-1, 0)
        ptr, ind, ones = self._scatter
        v = np.empty(1)
        for i in inst.col_rows[j].tolist():
            t = s.item(i) + low
            s[i] = t + rise
            gap = b.item(i) - t
            if gap > 0:
                self.viol -= step
            if gap == 1 or gap == 0:
                v[0] = -step * w.item(i)
                csc_matvec(inst.n, 1, ptr[i:i + 2], ind, ones, v,
                           self.dp_up if gap else self.dp_down)

    def trial_flip_down(self, j):
        """Flip selected j down, remembering enough to undo it exactly.

        Returns (opened(j), undo).  undo holds copies of the dp tables and
        of j's coverage counts, so undo_trial is bit-exact even with
        real-valued weights.  The swap scan applies its accepted swaps
        through this method, and perfbench's traced run counts them as its
        calls less those of undo_trial.
        """
        rows = self.inst.col_rows[j]
        undo = {"j": j, "cost": self.cost, "viol": self.viol, "zhat": self.zhat,
                "s": self.s[rows].copy(),
                "dp_up": self.dp_up.copy(), "dp_down": self.dp_down.copy()}
        opened = self.opened(j)
        self._flip(j, -1)
        return opened, undo

    def undo_trial(self, undo):
        j = undo["j"]
        self.dp_up[:] = undo["dp_up"]
        self.dp_down[:] = undo["dp_down"]
        self.s[self.inst.col_rows[j]] = undo["s"]
        self.x[j] = True
        self.blk[self.inst.block_of[j]] += 1
        self.cost = undo["cost"]
        self.viol = undo["viol"]
        self.zhat = undo["zhat"]


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


def _descend(state, gains):
    """Make the best single flip by gains() until none beats the gain floor.

    gains is state.add_gains or state.drop_gains; ties go to the lowest
    column.  An instance with no column moves nothing.  Like every move
    maker here, it yields after each move and returns whether it moved.
    """
    moved = False
    while (g := gains()).size:
        j = int(np.argmin(g))
        if not g[j] < -gain_tol(state):
            break
        state.flip(j)
        yield
        moved = True
    return moved


def _first_argmin(values, starts):
    """Per segment of values, the first index holding the segment minimum.

    The segments start at starts, ascending and all nonempty.  Ties go to
    the lowest index, as np.argmin breaks them.
    """
    low = np.minimum.reduceat(values, starts)
    at = np.repeat(low, np.diff(np.append(starts, values.size)))
    index = np.where(values == at, np.arange(values.size), values.size)
    return np.minimum.reduceat(index, starts)


def _saturated_screen(state, blocks):
    """The argmin pair of each of the given blocks, and its screened gain.

    Returns (j1, j2, low).  (j1[p], j2[p]) is block blocks[p]'s argmin
    pair, its cheapest drop and its cheapest add: a segment argmin of the
    drop and the add gains over block_cols, ties to the lowest member, as
    np.argmin breaks them.  Every block must have both kinds of member.
    low[p] is the pair's gain, drop gain plus add gain less the weight of
    the rows both columns cover at s == b, lowered by a margin.  That is
    the gain two_flip_delta computes, summed in another order, and the
    margin, 1e-9 times the magnitudes of the terms, is far above what the
    order can change.  So a block whose low clears the gain floor has no
    improving argmin pair.
    """
    inst = state.inst
    grouped = inst.block_cols.gather(blocks)
    members, starts = grouped.ind, grouped.ptr[:-1]
    picked = state.x[members]
    down = np.where(picked, state.delta_down(members), np.inf)
    up = np.where(picked, np.inf, state.delta_up(members))
    a1 = _first_argmin(down, starts)
    a2 = _first_argmin(up, starts)
    # the rows of j1 at s == b that j2 covers too, matched on sorted
    # (pair, row) keys
    rows1 = inst.col_rows.gather(members[a1])
    p1, r1 = rows1.owners(), rows1.ind
    at = state.s[r1] == state.b[r1]
    key1 = p1[at] * inst.m + r1[at]
    rows2 = inst.col_rows.gather(members[a2])
    p2, r2 = rows2.owners(), rows2.ind
    key2 = p2 * inst.m + r2
    hit = np.zeros(key2.size, dtype=bool)
    if key1.size:
        hit = key1[np.minimum(np.searchsorted(key1, key2), key1.size - 1)] == key2
    w = state.w[r2[hit]]
    corr = np.bincount(p2[hit], weights=w, minlength=blocks.size)
    spread = np.bincount(p2[hit], weights=np.abs(w), minlength=blocks.size)
    gain = down[a1] + up[a2] - corr
    margin = 1e-9 * (np.abs(down[a1]) + np.abs(up[a2]) + spread)
    return members[a1], members[a2], gain - margin


def _step_swap_saturated(state):
    """Swap inside saturated blocks while any such swap improves.

    Inside a block at its cap, a single add is never allowed, so the only
    candidate is the pair (cheapest drop, cheapest add); if some improving
    swap exists there with no shared exactly-covered row, that pair is
    improving too, which is what makes checking one pair per block enough.

    A swap inside a block leaves every block count as it was, so the
    blocks are listed once, and the pass walks them again while a walk
    swaps.  _saturated_screen gives every block's pair and a gain at most
    its own; only a block whose screened gain beats the gain floor is
    priced exactly, by two_flip_delta, which decides.  The screen is taken
    again after each swap, the only time the state moves, so the pass makes
    the same swaps, in the same order, as pricing every saturated block.
    It yields after a swap, before that screen.  With no saturated block
    the pass returns before any screen.
    """
    size = np.diff(state.inst.block_cols.ptr)
    blocks = np.flatnonzero((state.blk == state.d) & (state.blk > 0) & (size > state.blk))
    if blocks.size == 0:
        return False
    j1, j2, low = _saturated_screen(state, blocks)
    p, moved, swapped = 0, False, False
    while True:
        ahead = np.flatnonzero(low[p:] < -gain_tol(state))
        if ahead.size == 0:
            if not swapped:
                return moved
            p, swapped = 0, False
            continue
        p += int(ahead[0])
        drop, add = int(j1[p]), int(j2[p])
        p += 1
        if state.two_flip_delta(drop, add) < -gain_tol(state):
            state.flip(drop)
            state.flip(add)
            yield
            moved = swapped = True
            j1, j2, low = _saturated_screen(state, blocks)


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
    opened = state.opened(j1)
    if opened.size == 0:
        return None
    grouped = inst.row_cols.gather(opened)
    cols = grouped.ind
    lost = np.empty(inst.n)
    lost[cols] = state.dp_up[cols]
    # in place and in entry order, so each column adds its rows' weights
    # in j1's row order
    np.add.at(lost, cols, state.w[opened][grouped.owners()])
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
    """The selected columns in scan order: by drop gain, ties to the lowest index."""
    sel = np.flatnonzero(state.x)
    return sel[np.argsort(state.delta_down(sel), kind="stable")]


def _scan_screen(state, cand):
    """The scan candidates whose best partner could beat their gain floor.

    Gives every candidate's _best_partner gain at once.  E[c, i] = w_i for
    the rows candidate c opens (its rows at s == b), so L = E @ A holds,
    for each column j2 covering one of those rows, the weight of the
    opened rows it covers.  Over the partners _best_partner keeps, the
    gain is d1 + c_j2 - dp_up[j2] - L[c, j2], summed in another order
    than _best_partner's, so each gain is lowered by a margin of 1e-9
    times the magnitudes of its terms, far above what the order can
    change.  A candidate is kept, in scan order, when its least screened
    gain is below gain_tol(state, zhat + d1)'s floor.

    The pattern of L is what tells the partners apart, and a sparse
    product drops an entry whose sum is 0; that only happens when some
    opened row weighs 0 or less, so such a candidate is always kept.
    """
    inst = state.inst
    cand_rows = inst.col_rows.gather(cand)
    rows = cand_rows.ind
    at = state.s[rows] == state.b[rows]
    pos, rows = cand_rows.owners()[at], rows[at]
    w = state.w[rows]
    ptr = np.searchsorted(pos, np.arange(cand.size + 1))
    lost = sp.csr_matrix((w, rows, ptr), shape=(cand.size, inst.m)) @ inst.matrix()
    # every term moves down by 1e-9 of its magnitude: per candidate, per
    # column and per entry of L
    d1 = state.delta_down(cand)
    add = state.delta_up(slice(None)) - 1e-9 * (state.costf + np.abs(state.dp_up))
    owner = np.repeat(np.arange(cand.size), np.diff(lost.indptr))
    j2 = lost.indices
    part = np.where(state.addable(), add, np.inf)[j2]
    # in j1's own block, which the drop reopens, every unselected member
    # and j1 itself qualify
    own = np.flatnonzero(inst.block_of[j2] == inst.block_of[cand][owner])
    mate, j1 = j2[own], cand[owner[own]]
    part[own] = np.where(~state.x[mate] | (mate == j1), add[mate], np.inf)
    gain = ((d1 - 1e-9 * np.abs(d1))[owner] + part
            - (lost.data + 1e-9 * np.abs(lost.data)))
    low = np.full(cand.size, np.inf)
    full = np.flatnonzero(np.diff(lost.indptr))
    if full.size:
        low[full] = np.minimum.reduceat(gain, lost.indptr[full])
    floor = -1e-6 * np.maximum(1.0, np.abs(state.zhat + d1))
    unsure = np.zeros(cand.size, dtype=bool)
    unsure[pos[w <= 0]] = True
    return cand[(low < floor) | unsure]


def _step_swap_scan(state):
    """Drop/add swaps over the selected columns, first hit wins.

    Visits the candidate columns by ascending drop gain (order frozen at
    entry) and applies the first one's best partner that beats the gain
    floor of the state after the drop, as trial_flip_down then flip.
    The caller then restarts from the single-flip phases, so at most one
    swap lands here.

    The state does not change before that swap, so _scan_screen runs once,
    up front, and gives every candidate's best partner gain, up to float
    summation order and less a margin that covers it.  _best_partner then
    prices, in scan order, only the candidates the screen keeps, and its
    exact gain decides.  A dropped candidate has no improving partner, so
    the first hit is the one pricing every candidate would find.
    """
    for j1 in _scan_screen(state, _scan_candidates(state)):
        d1 = state.delta_down(j1)
        best = _best_partner(state, j1, d1)
        if best is not None and best[0] < -gain_tol(state, state.zhat + d1):
            state.trial_flip_down(j1)
            state.flip(best[1])
            yield
            return True
    return False


def _moves(state, one_flip_only, deadline):
    """The phase cycle of two_fnls, yielding after each move.

    Phase order: exhaust improving adds, exhaust improving drops, swap
    inside saturated blocks, then scan for general drop/add swaps; any
    accepted pair move restarts the cycle, so on exit no phase has an
    improving move left.  Single-flip phases always run to completion
    before the pair phases.  The deadline is checked between them.
    """
    while True:
        # alternate the single-flip phases until quiet: under small weights
        # an accepted drop can uncover rows and re-enable adds
        while True:
            yield from _descend(state, state.add_gains)
            if not (yield from _descend(state, state.drop_gains)):
                break
        if one_flip_only or (deadline is not None and time.monotonic() >= deadline):
            return
        if (yield from _step_swap_saturated(state)):
            continue
        if not (yield from _step_swap_scan(state)):
            return


def two_fnls(state: SearchState, one_flip_only=False, move_cap=None, deadline=None):
    """Drive the state toward a local optimum of the penalized objective.

    Makes the moves of _moves, which only ever accepts strictly improving
    ones; pair gains come in closed form (see the module notes).  Returns
    (value, x): the least zbar() visited, the start included, and a copy of
    the first x that reached it.

    deadline (time.monotonic seconds) cuts the run short between phases;
    near-uniform weights can make the swap scan grind through long chains
    of tiny gains, and the caller's time budget outranks local optimality.
    move_cap bounds the accepted moves, a pair counting as one, as
    insurance against float-induced cycling after weight rescaling.
    """
    state.resync_zhat()
    best, best_x = state.zbar(), state.x.copy()
    cap = move_cap if move_cap is not None else 200 * state.inst.n + 1000
    for _ in itertools.islice(_moves(state, one_flip_only, deadline), cap):
        value = state.zbar()
        if value < best:
            best, best_x = value, state.x.copy()
    return best, best_x


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
    gains = state.add_gains()
    cols = np.flatnonzero(gains < 0)
    tau = 0.0
    if cols.size > size:
        g = gains[cols]
        kth = np.partition(g, size - 1)[size - 1]
        tau = float(g[g > kth].min(initial=0.0))
        cols = cols[g < tau]
    return cols, tau


def greedy_construct(empty, rng, width=5, uniform=False):
    """Randomized greedy start: noisy add phase, then a clean drop phase.

    Builds on a copy of empty, a SearchState at x = 0, which stays as it
    was for the next build.  Adds improving (negative-gain) columns one at
    a time, picking uniformly among the `width` best candidates (or among
    all of them when uniform=True), then removes redundant columns the
    usual way so no selected column has a negative drop gain.  Returns the
    new SearchState.

    The adds do not rescan all columns.  During the build the weights are
    fixed and nonnegative and columns are only added, so a flip only
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
    state = empty.copy()
    # a fresh list with tau < 0 has at least `size` > `width` members, so a
    # rebuild is never followed by another before the next add
    size = state.inst.n if uniform else max(SHORTLIST, width + 1)
    cols, tau = _shortlist(state, size)
    while True:
        gains = state.delta_up(cols)
        live = (gains < tau) & state.addable(cols)
        cols, gains = cols[live], gains[live]
        if tau < 0 and cols.size <= width:
            cols, tau = _shortlist(state, size)
            continue
        if cols.size == 0:
            break
        pool = cols if uniform else cols[lowest_k(gains, width)]
        state.flip(int(pool[rng.integers(pool.size)]))
    for _ in _descend(state, state.drop_gains):
        pass
    return state
