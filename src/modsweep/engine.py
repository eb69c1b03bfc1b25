"""Agglomerative resolution sweep producing merge-stable partitions.

Starting from singletons, the engine repeatedly works at the current
resolution, the largest ratio of observed to expected mass over adjacent
community pairs.  Pairs achieving that ratio exactly have zero merge gain
there; merging them one at a time keeps the score unchanged at the current
resolution while strictly shrinking the zero set.  When the zero set
empties, the resolution has strictly dropped and one trace record is
emitted.  The sweep stops once the resolution falls below ``t_min``, at
which point the partition is merge-stable (no coarsening scores higher) at
every resolution down to ``t_min``.

Exactness: all control flow compares integer ratios by cross multiplication.
The candidate heap is ordered by the correctly rounded float image of each
exact ratio, which is monotone, and the whole top group of equal floats is
re-compared exactly before anything is committed, so float rounding can
never reorder or hide a tie.  Heap entries are lazily invalidated: each
entry carries the pair's degrees at push time, and any later merge touching
the pair changes a degree, so a stale entry can never match current state.
The final certificate does not trust this bookkeeping: it is recomputed
from the input graph and the returned partition.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import NamedTuple

from .errors import IllegalStateError
from .graph import Graph
from .modularity import is_merge_stable
from .partition import Partition
from .rational import positive_fraction


class TraceRecord(NamedTuple):
    """Snapshot taken each time a new resolution is reached."""
    step: int
    t: float
    t_exact: Fraction
    k: int
    q_t: float
    q_1: float
    alpha: float


TRACE_COLUMNS = "step,t,k,q_t,q_1,alpha"


def format_trace_csv(trace: list[TraceRecord]) -> str:
    """CSV with the fixed column set, 12 significant digits."""
    lines = [TRACE_COLUMNS]
    for r in trace:
        lines.append(
            f"{r.step},{r.t:.12g},{r.k},{r.q_t:.12g},{r.q_1:.12g},{r.alpha:.12g}"
        )
    return "\n".join(lines) + "\n"


class SweepEngine:
    """Mutable sweep state over community aggregates.

    Communities start as one per vertex and keep the smallest member id
    when merged.  ``adj`` holds cross weights between live communities
    (internal weight is tracked separately), so the state is its own
    quotient graph.  The sweep never reads the input ``graph`` after
    construction; only ``check_stable`` does, to certify the result.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        n = graph.n
        self.n = n
        self.z = graph.z
        self.adj: list[dict[int, int] | None] = [dict(nbrs) for nbrs in graph.adj]
        self.loop = [0] * n
        self.deg = list(graph.deg)
        for v in range(n):
            row = self.adj[v]
            w = row.pop(v, 0)
            self.loop[v] = w
        self.members: list[list[int] | None] = [[v] for v in range(n)]
        self.community_count = n
        self.w_internal = sum(self.loop)
        self.deg_sq = sum(d * d for d in self.deg)
        self.merges = 0
        self.trace: list[TraceRecord] = []
        # candidate heap entries: (-float_key, a, b, w, deg[a], deg[b]) with a < b
        heap = []
        z = self.z
        for u in range(n):
            du = self.deg[u]
            row = self.adj[u]
            for v, w in row.items():
                if v > u:
                    heap.append((-((z * w) / (du * self.deg[v])), u, v, w, du, self.deg[v]))
        heapq.heapify(heap)
        self._heap = heap
        # zero-gain pairs at the current resolution, ordered by (a, b)
        self._bucket: list[tuple[int, int, int, int, int]] = []
        self._t_num = 0
        self._t_den = 1

    # -- resolution bookkeeping -------------------------------------------

    def _valid(self, a: int, b: int, da: int, db: int) -> bool:
        return self.deg[a] == da and self.deg[b] == db

    def _refill(self) -> tuple[int, int]:
        """Return the current resolution as an integer pair.

        Ensures the bucket fronts a valid zero-gain pair whenever the
        resolution is positive.  Returns (0, 1) when no distinct pair
        carries edge mass.
        """
        bucket = self._bucket
        while bucket:
            a, b, w, da, db = bucket[0]
            if self._valid(a, b, da, db):
                return self._t_num, self._t_den
            heapq.heappop(bucket)
        heap = self._heap
        while heap:
            _, a, b, w, da, db = heap[0]
            if self._valid(a, b, da, db):
                break
            heapq.heappop(heap)
        if not heap:
            self._t_num, self._t_den = 0, 1
            return 0, 1
        top = heap[0][0]
        group = []
        while heap and heap[0][0] == top:
            e = heapq.heappop(heap)
            if self._valid(e[1], e[2], e[4], e[5]):
                group.append(e)
        z = self.z
        best_num, best_den = 0, 1
        for e in group:
            num = z * e[3]
            den = e[4] * e[5]
            if num * best_den > best_num * den:
                best_num, best_den = num, den
        fresh = []
        for e in group:
            if z * e[3] * best_den == best_num * e[4] * e[5]:
                fresh.append((e[1], e[2], e[3], e[4], e[5]))
            else:
                heapq.heappush(heap, e)
        heapq.heapify(fresh)
        self._bucket = fresh
        self._t_num, self._t_den = best_num, best_den
        return best_num, best_den

    def resolution(self) -> Fraction:
        """Exact resolution of the current partition (0 for no live pair)."""
        num, den = self._refill()
        return Fraction(num, den)

    def zero_pairs(self, t=None) -> list[tuple[int, int]]:
        """Distinct community pairs whose excess mass at t is exactly zero.

        Defaults to the current resolution, where the set is nonempty
        whenever the resolution is positive.
        """
        if t is None:
            tn, td = self._refill()
        else:
            tf = positive_fraction(t)
            tn, td = tf.numerator, tf.denominator
        if tn == 0:
            return []
        z = self.z
        deg = self.deg
        out = []
        for a, row in enumerate(self.adj):
            if row is None or not deg[a]:
                continue
            da = deg[a]
            for b, w in row.items():
                if b > a and z * w * td == tn * da * deg[b]:
                    out.append((a, b))
        out.sort()
        return out

    # -- aggregate queries --------------------------------------------------

    def alpha(self) -> Fraction:
        """Null-model mass concentrated on the diagonal."""
        return Fraction(self.deg_sq, self.z * self.z)

    def q_at(self, t) -> Fraction:
        """Exact score of the current partition at resolution t."""
        tf = positive_fraction(t)
        z = self.z
        return Fraction(self.w_internal, z) - tf * Fraction(self.deg_sq, z * z)

    def partition(self) -> Partition:
        raw = [0] * self.n
        for c, mem in enumerate(self.members):
            if mem is None:
                continue
            for v in mem:
                raw[v] = c
        return Partition(raw)

    def record_trace(self) -> TraceRecord:
        """Append a snapshot of the current state at its own resolution."""
        tn, td = self._refill()
        t_exact = Fraction(tn, td)
        z = self.z
        w_frac = Fraction(self.w_internal, z)
        alpha = Fraction(self.deg_sq, z * z)
        q_t = w_frac - t_exact * alpha
        q_1 = w_frac - alpha
        rec = TraceRecord(len(self.trace), float(t_exact), t_exact,
                          self.community_count, float(q_t), float(q_1), float(alpha))
        self.trace.append(rec)
        return rec

    # -- merging --------------------------------------------------------------

    def _merge(self, a: int, b: int) -> None:
        """Merge community b into a (a < b), updating aggregates and heap.

        Caller guarantees the pair has zero gain at the current resolution;
        refreshed candidate entries route back into the zero bucket when
        their ratio still equals it.
        """
        adj = self.adj
        deg = self.deg
        z = self.z
        da, db = deg[a], deg[b]
        row_a = adj[a]
        row_b = adj[b]
        wab = row_a.pop(b)
        row_b.pop(a)
        self.loop[a] += self.loop[b] + 2 * wab
        self.loop[b] = 0
        self.w_internal += 2 * wab
        self.deg_sq += 2 * da * db
        for v, w in row_b.items():
            row_v = adj[v]
            del row_v[b]
            nw = row_a.get(v, 0) + w
            row_a[v] = nw
            row_v[a] = nw
        adj[b] = None
        deg[a] = da + db
        deg[b] = 0
        ma, mb = self.members[a], self.members[b]
        if len(mb) > len(ma):
            ma, mb = mb, ma
        ma.extend(mb)
        self.members[a] = ma
        self.members[b] = None
        self.community_count -= 1
        self.merges += 1
        tn, td = self._t_num, self._t_den
        dnew = deg[a]
        heap = self._heap
        bucket = self._bucket
        for v, w in row_a.items():
            dv = deg[v]
            num = z * w
            den = dnew * dv
            lhs = num * td
            rhs = tn * den
            if lhs == rhs:
                if a < v:
                    heapq.heappush(bucket, (a, v, w, dnew, dv))
                else:
                    heapq.heappush(bucket, (v, a, w, dv, dnew))
            else:
                if lhs > rhs:
                    raise IllegalStateError("pair ratio exceeded the current resolution")
                key = -(num / den)
                if a < v:
                    heapq.heappush(heap, (key, a, v, w, dnew, dv))
                else:
                    heapq.heappush(heap, (key, v, a, w, dv, dnew))

    def merge_step(self) -> tuple[int, int]:
        """Merge the lexicographically smallest zero-gain pair.

        The score at the current resolution is unchanged, the community
        count drops by one, and the zero set strictly shrinks.  Raises
        IllegalStateError when the resolution is zero (empty zero set).
        """
        tn, _ = self._refill()
        if tn == 0:
            raise IllegalStateError("resolution is zero, there is nothing to merge")
        a, b, _, _, _ = heapq.heappop(self._bucket)
        self._merge(a, b)
        return a, b

    def resolution_sweep(self) -> TraceRecord:
        """Merge zero-gain pairs until the resolution strictly drops.

        Appends and returns one trace record for the newly reached
        resolution.
        """
        tn, td = self._refill()
        if tn == 0:
            raise IllegalStateError("resolution is zero, there is nothing to sweep")
        while True:
            a, b, _, _, _ = heapq.heappop(self._bucket)
            self._merge(a, b)
            if self._refill() != (tn, td):
                break
        return self.record_trace()

    def check_stable(self, t) -> Partition:
        """Certify the current partition on the input graph at resolution t.

        Raises IllegalStateError naming a pair of blocks with positive
        excess mass at t; otherwise returns the certified partition.
        """
        part = self.partition()
        stable, witness = is_merge_stable(self.graph, part, t)
        if not stable:
            raise IllegalStateError(f"blocks {witness} are not merge-stable at t={t}")
        return part


def detect_communities(graph: Graph, t_min=1.0) -> tuple[Partition, list[TraceRecord]]:
    """Run the full resolution sweep down to ``t_min``.

    Returns the final partition, merge-stable at ``t_min`` (certified
    exactly on the input graph before returning), together with one trace
    record per resolution reached, starting with the singleton partition.
    When even the singleton partition resolves below ``t_min`` it is
    returned unchanged.
    """
    tf = positive_fraction(t_min, "t_min")
    tn_min, td_min = tf.numerator, tf.denominator
    eng = SweepEngine(graph)
    eng.record_trace()
    while True:
        tn, td = eng._refill()
        if tn * td_min < tn_min * td:
            break
        eng.resolution_sweep()
    return eng.check_stable(tf), list(eng.trace)
