"""The flip kernels and the relinking walk as they were first written.

ReferenceState flips through two mirrored kernels, one per direction, each
spelling out its own threshold tests; SearchState has one kernel for both,
keyed on the lower of a row's old and new counts.  walk_reference collects
the drop and the addable add candidates, prices them with their own gain
formulas and picks the best with a lexsort, where pathrelink.walk takes an
argmin of the state's masked gains.  The tests require the two sides to
agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from gubcover.localsearch import SearchState


class ReferenceState(SearchState):
    """SearchState whose flips, trial drops included, run the mirrored kernels."""

    def _flip(self, j, step):
        if step > 0:
            self._flip_up(j)
        else:
            self._flip_down(j)

    def _flip_up(self, j):
        inst = self.inst
        h = inst.block_of[j]
        assert not self.x[j] and self.blk[h] < self.d[h]
        self.zhat += self.costf[j] - self.dp_up[j]
        self.x[j] = True
        self.cost += int(inst.cost[j])
        self.blk[h] += 1
        w, b, s = self.w, self.b, self.s
        ptr, ind = inst.row_cols.ptr, inst.row_cols.ind
        for i in inst.col_rows[j].tolist():
            si = s[i] + 1
            s[i] = si
            if si <= b[i]:
                self.viol -= 1
            if si == b[i]:
                self.dp_up[ind[ptr[i]:ptr[i + 1]].astype(np.intp)] -= w[i]
            elif si == b[i] + 1:
                self.dp_down[ind[ptr[i]:ptr[i + 1]].astype(np.intp)] -= w[i]

    def _flip_down(self, j):
        inst = self.inst
        assert self.x[j]
        self.zhat += -self.costf[j] + self.dp_down[j]
        self.x[j] = False
        self.cost -= int(inst.cost[j])
        self.blk[inst.block_of[j]] -= 1
        w, b, s = self.w, self.b, self.s
        ptr, ind = inst.row_cols.ptr, inst.row_cols.ind
        for i in inst.col_rows[j].tolist():
            si = s[i] - 1
            s[i] = si
            if si < b[i]:
                self.viol += 1
            if si == b[i] - 1:
                self.dp_up[ind[ptr[i]:ptr[i + 1]].astype(np.intp)] += w[i]
            elif si == b[i]:
                self.dp_down[ind[ptr[i]:ptr[i + 1]].astype(np.intp)] += w[i]


def walk_reference(inst, w, init, guide) -> np.ndarray:
    """pathrelink.walk with the candidates listed and priced one by one."""
    state = ReferenceState(inst, w, x0=init)
    guide = np.asarray(guide, dtype=bool)
    while True:
        diff = np.flatnonzero(state.x != guide)
        if diff.size == 0:
            return state.x.copy()
        drops = diff[state.x[diff]]
        adds = diff[~state.x[diff]]
        hb = inst.block_of[adds]
        adds = adds[state.blk[hb] < state.d[hb]]
        if drops.size == 0 and adds.size == 0:
            return state.x.copy()
        cand = np.concatenate([drops, adds])
        deltas = np.concatenate([
            -state.costf[drops] + state.dp_down[drops],
            state.costf[adds] - state.dp_up[adds],
        ])
        pos = np.lexsort((cand, deltas))[0]
        if not deltas[pos] < 0:
            return state.x.copy()
        state.flip(int(cand[pos]))
