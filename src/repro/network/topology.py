"""2-D mesh topology and hop counting.

The paper's machine (Table 2) uses a 2-D grid with dimension-ordered
routing; the only topological quantity the timing model needs is the hop
count between two nodes, which for XY routing is the Manhattan distance.
"""

from __future__ import annotations

import math
from typing import List, Tuple


class MeshTopology:
    """An ``rows x cols`` mesh over ``n_nodes`` consecutive node ids.

    The grid is chosen as close to square as possible (e.g. 64 nodes →
    8x8, 32 → 8x4 or 4x8, 2 → 1x2); trailing grid slots beyond
    ``n_nodes`` are simply unused.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.n_nodes = n_nodes
        self.cols = self._best_cols(n_nodes)
        self.rows = math.ceil(n_nodes / self.cols)
        #: ``hop_table[src][dst]``: hop counts are pure Manhattan distance,
        #: so the full n x n table is tiny (64 nodes -> 4096 ints) and
        #: saves the send path two divmods and four abs/compares per
        #: packet.  Read-only.
        cols = self.cols
        coords = [divmod(node, cols) for node in range(n_nodes)]
        self.hop_table: List[List[int]] = [
            [abs(ra - rb) + abs(ca - cb) for (rb, cb) in coords]
            for (ra, ca) in coords
        ]

    @staticmethod
    def _best_cols(n_nodes: int) -> int:
        """Widest factor ≤ sqrt(n); falls back to a near-square overlay."""
        best = 1
        for cols in range(1, int(math.isqrt(n_nodes)) + 1):
            if n_nodes % cols == 0:
                best = cols
        if best == 1 and n_nodes > 3:
            # Prime node count: use a near-square non-exact grid.
            return max(1, int(math.isqrt(n_nodes)))
        return max(best, 1) if n_nodes <= 3 else n_nodes // best if best > 1 else best

    def coordinates(self, node: int) -> Tuple[int, int]:
        """(row, col) of a node id."""
        self._check(node)
        return divmod(node, self.cols)

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance — the link traversals of an XY-routed packet."""
        if 0 <= src < self.n_nodes and 0 <= dst < self.n_nodes:
            return self.hop_table[src][dst]
        self._check(src)
        self._check(dst)
        raise AssertionError("unreachable")  # pragma: no cover

    @property
    def diameter(self) -> int:
        """Maximum hop count between any two populated nodes."""
        last = self.n_nodes - 1
        row, col = divmod(last, self.cols)
        return row + max(col, self.cols - 1 if row > 0 else col)

    def average_hops(self) -> float:
        """Mean hop count over all ordered pairs of distinct nodes."""
        if self.n_nodes == 1:
            return 0.0
        total = sum(sum(row) for row in self.hop_table)
        return total / (self.n_nodes * (self.n_nodes - 1))

    def neighbors(self, node: int) -> List[int]:
        """Directly connected nodes (mesh edges, no wraparound)."""
        self._check(node)
        row, col = divmod(node, self.cols)
        found = []
        for d_row, d_col in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            n_row, n_col = row + d_row, col + d_col
            if 0 <= n_row < self.rows and 0 <= n_col < self.cols:
                neighbor = n_row * self.cols + n_col
                if neighbor < self.n_nodes:
                    found.append(neighbor)
        return found

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} outside [0, {self.n_nodes})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MeshTopology({self.n_nodes} nodes as {self.rows}x{self.cols})"
