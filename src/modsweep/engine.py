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
A heap key is ``-floor(ratio * B**2)``, from ``_key``, where B bounds the
ratio's denominator: distinct ratios differ by at least 1/B**2, so the
integer keys order them exactly.  Trace records hold exact integers too,
so ``detect_communities`` runs at any resolution; only ``TraceRecord.t``
and ``format_trace_csv`` round.  Both raise ``OverflowError`` outside the
float range, above it or nonzero below ``sys.float_info.min``.

Orientation: the ratio of an adjacent pair is ``z*w / (d_low * d_owner)``.
Each pair is filed in the candidate row of its owner, the endpoint of
higher degree (equal degrees go to the higher slot), keyed by
``w / d_low``.  Two places file a pair by this rule: ``_merge``'s loop,
for each pair the absorbed community moves, and ``_publish``, for a lapsed
entry filed again.  The second is what bounds re-keys: re-keyed in the row
of its low endpoint, a pair would lapse again at every merge of its
partner.  Degrees only grow, so an owner stays the owner when
it grows, and its row keeps its order: every ratio in it scales by the same
factor.  So a community that absorbs many others one at a time never
re-keys its own row.  The pairs where it was the low endpoint keep their
old keys, which now overestimate their ratios; each is re-keyed only when
it reaches the front of its row.

Two levels: a row is a heap ordered by row key, then partner id.  Within a
row the partner order is the lexicographic order of the pairs, so a current
front is the row's lexicographically smallest pair at its exact maximum
ratio.  A global heap holds one entry per row for that pair: the key of
``w / (d_low * d_owner)`` (``z`` is common to every ratio and left out),
then the pair.  So the heap orders rows by largest ratio, then smallest
pair, and its front is the lexicographically smallest zero pair overall.

Slots: internal arrays are indexed by slot.  A merge keeps the slot of the
endpoint whose adjacency row is larger and moves only the smaller row into
it.  A community's public id, used by every argument and result, is its
smallest member id; an absorbed id links to its absorber.

Entries are invalidated lazily.  A row entry carries the low endpoint's
degree and the pair weight it was keyed with, and is current while that
degree is unchanged.  An entry that is not current is popped when it
reaches its row's front.  If the pair still has the entry's weight, only
the partner grew: the entry has lapsed, and ``_publish`` files the pair
again under its current owner.  Otherwise the entry is superseded, because
the merge that grew the weight filed a newer entry in its loop or the pair
is gone, and it is dropped.  Degrees only grow and a pair is filed again
as soon as its weight grows, so no stored key underestimates its pair's
current ratio.
A row enters the global heap only with a current front, whenever its
owner grows or a pair is filed in front of it, and a row whose published
front has since gone stale is republished when its entry reaches the
global front.  So a global front whose row front is current carries the
exact maximum ratio, and any stale entry that sorts ahead of the smallest
pair at that ratio is repaired first.  Each republication bumps the row's
stamp, which retires its older global entries.  The final certificate
does not trust this bookkeeping: it is recomputed from the input graph
and the returned partition.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .errors import IllegalStateError
from .graph import Graph
from .modularity import is_merge_stable
from .partition import Partition
from .rational import positive_fraction, rounded, to_float


def _key(num: int, den: int, scale: int) -> int:
    """Heap key that orders ratios num/den exactly, largest first.

    ``scale`` is B*B, where B bounds every denominator the heap holds: z
    for row keys w/d_low, z**2 for global keys w/(d_low*d_owner).  Two
    distinct ratios with denominators at most B differ by at least 1/B**2,
    so their scaled floors differ by at least 1; equal ratios get equal
    keys.
    """
    return -(num * scale // den)


class TraceRecord(NamedTuple):
    """Snapshot taken each time a new resolution is reached, as the engine's
    integers (``internal`` and ``deg_sq`` are its two running sums); the
    exact values are Fractions built when read."""
    step: int
    k: int
    tn: int
    td: int
    internal: int
    deg_sq: int
    z: int

    def ratios(self) -> tuple[tuple[int, int], ...]:
        """``t_exact``, ``q_t``, ``q_1`` and ``alpha`` as unreduced
        (numerator, positive denominator) pairs."""
        tn, td, s, z = self.tn, self.td, self.deg_sq, self.z
        w, z2 = self.internal * z, z * z
        return (tn, td), (w * td - tn * s, z2 * td), (w - s, z2), (s, z2)

    @property
    def t_exact(self) -> Fraction:
        return Fraction(*self.ratios()[0])

    @property
    def q_t(self) -> Fraction:
        return Fraction(*self.ratios()[1])

    @property
    def q_1(self) -> Fraction:
        return Fraction(*self.ratios()[2])

    @property
    def alpha(self) -> Fraction:
        return Fraction(*self.ratios()[3])

    @property
    def t(self) -> float:
        """The resolution rounded to a float, for callers that plot it;
        raises OverflowError outside the float range, as the CSV does."""
        return to_float(self.tn, self.td)


TRACE_COLUMNS = "step,t,k,q_t,q_1,alpha"


def format_trace_csv(trace: list[TraceRecord]) -> str:
    """CSV with the fixed column set, 12 significant digits."""
    rows = []
    for r in trace:
        t, q_t, q_1, alpha = (rounded(*ratio) for ratio in r.ratios())
        rows.append(f"{r.step},{t},{r.k},{q_t},{q_1},{alpha}")
    return "\n".join([TRACE_COLUMNS, *rows]) + "\n"


class SweepEngine:
    """Mutable sweep state over community aggregates.

    Communities start as one per vertex.  ``deg``, ``merge_step`` and
    ``partition`` speak in public ids, the smallest member id of each
    community; ``deg`` is 0 for an id merged away.  Internally a community
    lives in a slot, whose public id is ``_pid[slot]``.  ``_adj[slot]``
    holds its cross weights to the other live slots and ``w_internal`` the
    total internal weight, so the state is its own quotient graph with the
    diagonal summed; ``deg_sq`` is the sum of squared community degrees.
    The trace reads these two sums; any other score of the partition comes
    from ``CommunityAggregates`` on ``partition()``.  ``_rows[slot]`` is
    its candidate row, a heap of ``(integer key of w/d_low, partner id,
    partner slot, d_low, w)``, or None before its first pair is filed (see
    the module docstring): ``_merge`` files the pairs it moves in its own
    loop, and ``_publish`` files a lapsed pair again.  ``_adj[slot]`` is None
    until the first merge that touches the slot; ``_own`` then builds it
    from the input arrays, keyed by the ints of ``_slots``.  A stale entry
    of a row still None has lapsed.  The sweep never writes its input;
    ``check_stable`` reads it.

    Counters, all plain ints: ``merges``; ``max_group``, the most merges in
    one ``resolution_sweep``; ``heap_pushes``, entries pushed one at a time
    into the candidate rows and the global heap; ``stale_pops``, invalidated
    entries popped, lapsed row entries filed again among them; and
    ``max_rewired``, the most adjacency entries moved in one merge.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        n = self.n = graph.n
        z = self.z = graph.z
        self._adj: list[dict[int, int] | None] = [None] * n
        self.w_internal = sum(graph.loop)
        deg = self.deg = list(graph.deg)
        ids = self._slots = list(range(n))
        self._pid = ids[:]
        # merge forest: an absorbed id links to its absorber, a smaller id
        self._parent = ids[:]
        self.deg_sq = sum(d * d for d in deg)
        self.merges = self.max_group = 0
        self.heap_pushes = self.stale_pops = self.max_rewired = 0
        self.trace: list[TraceRecord] = []
        scale = self._scale = z * z
        gscale = self._gscale = scale * scale
        rows: list[list | None] = [None] * n
        heap = []
        owned = []
        key = cache(_key)  # equal keys share one int
        for u, du, row in zip(ids, deg, graph.rows()):
            for v, w in row:
                dv = deg[v]
                if dv < du or (dv == du and v < u):
                    owned.append((key(w, dv, scale), ids[v], ids[v], dv, w))
            if owned:
                # a copy is allocated at its exact size
                row = rows[u] = owned[:]
                owned.clear()
                heapify(row)
                _, v, _, d, w = row[0]
                a, b = (v, u) if v < u else (u, v)
                heap.append((key(w, d * du, gscale), a, b, u, 0))
        heapify(heap)
        self._rows = rows
        self._stamp = [0] * n
        # (key, a, b, slot, stamp) for each row's front pair
        self._heap = heap
        # the resolution last read; no current pair may exceed it
        self._t_num = 1
        self._t_den = 0

    # -- resolution bookkeeping -------------------------------------------

    def _refill(self) -> tuple[int, int]:
        """Return the current resolution as an integer pair.

        Pops retired entries and republishes each row whose published front
        has gone stale, until the global heap fronts a valid row with a
        current front.  That front is then the lexicographically smallest
        zero-gain pair.  Raises IllegalStateError if its ratio exceeds the
        resolution last read.  Returns (0, 1) when no distinct pair carries
        edge mass.
        """
        heap = self._heap
        stamps = self._stamp
        rows = self._rows
        deg = self.deg
        while heap:
            _, _, _, o, stamp = heap[0]
            if stamps[o] != stamp:
                heappop(heap)
                self.stale_pops += 1
                continue
            _, p, _, d, w = rows[o][0]
            if deg[p] != d:
                self._publish(o)
                continue
            tn = self.z * w
            td = d * deg[self._pid[o]]
            if tn * self._t_den > self._t_num * td:
                raise IllegalStateError("pair ratio exceeded the current resolution")
            self._t_num, self._t_den = tn, td
            return tn, td
        self._t_num, self._t_den = 0, 1
        return 0, 1

    def resolution(self) -> Fraction:
        """Exact resolution of the current partition (0 for no live pair)."""
        num, den = self._refill()
        return Fraction(num, den)

    def partition(self) -> Partition:
        """The current communities: every merge link points to a smaller
        id, so one forward pass resolves each id to its root."""
        root = self._parent[:]
        for v, p in enumerate(root):
            root[v] = root[p]
        return Partition(root)

    def record_trace(self) -> TraceRecord:
        """Append and return a snapshot of the current state at its own
        resolution, read from the engine's two running sums."""
        tn, td = self._refill()
        rec = TraceRecord(len(self.trace), self.n - self.merges, tn, td,
                          self.w_internal, self.deg_sq, self.z)
        self.trace.append(rec)
        return rec

    # -- merging --------------------------------------------------------------

    def _publish(self, o: int) -> None:
        """Enter the front pair of slot o's row in the global heap.

        Stale fronts are popped first.  A superseded pair is dropped (a row
        no merge wrote keeps its input weights).  A lapsed pair is filed
        again under its owner, keyed by w / d_low, the rule ``_merge``'s
        loop files by; a partner row where it lands in front is published
        at once.  The stamp retires the row's older global entries; an
        emptied row publishes nothing.
        """
        rows = self._rows
        row = rows[o]
        deg = self.deg
        pid = self._pid
        stamps = self._stamp
        weights = self._adj[o]
        po = pid[o]
        do = deg[po]
        while row:
            e = row[0]
            if deg[e[1]] == e[3]:
                break
            _, _, s, _, w = heappop(row)
            self.stale_pops += 1
            if weights is not None and weights.get(s) != w:
                continue
            self.heap_pushes += 1
            ps = pid[s]
            ds = deg[ps]
            if ds > do or (ds == do and s > o):
                row_s = rows[s]
                if row_s is None:
                    row_s = rows[s] = []
                e = (_key(w, do, self._scale), po, o, do, w)
                heappush(row_s, e)
                if row_s[0] is e:
                    self._publish(s)
            else:
                heappush(row, (_key(w, ds, self._scale), ps, s, ds, w))
        else:
            stamps[o] += 1
            return
        stamps[o] = stamp = stamps[o] + 1
        _, p, _, d, w = e
        lo, hi = (po, p) if po < p else (p, po)
        heappush(self._heap, (_key(w, d * do, self._gscale), lo, hi, o, stamp))
        self.heap_pushes += 1

    def _own(self, s: int) -> dict[int, int]:
        """Build slot s's row from the input arrays, keyed by the slot ints."""
        row = self._adj[s] = {}
        off, nbr, wt, ids = self.graph.off, self.graph.nbr, self.graph.wt, self._slots
        for j in range(off[s], off[s + 1]):
            row[ids[nbr[j]]] = wt[j]
        return row

    def _merge(self, a: int, b: int, o: int) -> None:
        """Merge community b into a (public ids, a < b, the current front of
        slot o's row), updating aggregates and rows.

        Caller guarantees the pair has zero gain at the current resolution.
        The smaller adjacency row moves into the larger one, and the loop
        files each of its pairs again under its owner with the merged
        community, as ``_publish`` files a lapsed pair, reading the merged
        community's id and degree once; a neighbour's row where that pair
        lands in front is republished at once.
        Pairs where the larger side was the low endpoint keep their keys
        until they reach the front of their row.  Then the grown row, whose
        ratios all fell, is republished.
        """
        adj = self._adj
        deg = self.deg
        pid = self._pid
        rows = self._rows
        # the pair leaves its row; its partner slot is the other community
        sp = heappop(rows[o])[2]
        if pid[o] == a:
            sa, sb = o, sp
        else:
            sa, sb = sp, o
        da = deg[a]
        db = deg[b]
        own = self._own
        # a live row holds its merge partner, so it is nonempty once owned
        row_a, row_b = adj[sa] or own(sa), adj[sb] or own(sb)
        if len(row_b) > len(row_a):
            big, small, row_l, row_s = sb, sa, row_b, row_a
            pid[sb] = a
        else:
            big, small, row_l, row_s = sa, sb, row_a, row_b
        moved = len(row_s) - 1
        wab = row_l.pop(small)
        self.w_internal += 2 * wab
        self.deg_sq += 2 * da * db
        d = deg[a] = da + db
        deg[b] = 0
        self._parent[b] = a
        self._stamp[small] += 1  # retires the smaller side's published entry
        adj[small] = rows[small] = None
        self.merges += 1
        if moved > self.max_rewired:
            self.max_rewired = moved
        self.heap_pushes += moved
        scale = self._scale
        publish = self._publish
        for v, w in row_s.items():
            if v == big:  # the merged pair
                continue
            row_v = adj[v] or own(v)  # holds small, so it is nonempty once owned
            del row_v[small]
            w += row_l.get(v, 0)
            row_l[v] = row_v[big] = w
            # file the pair in its owner's row, keyed by _key(w, d_low, scale)
            pv = pid[v]
            dv = deg[pv]
            if dv > d or (dv == d and v > big):
                row = rows[v]
                if row is None:
                    row = rows[v] = []
                e = (-(w * scale // d), a, big, d, w)
                heappush(row, e)
                if row[0] is e:
                    publish(v)
            else:
                row = rows[big]
                if row is None:
                    row = rows[big] = []
                heappush(row, (-(w * scale // dv), pv, v, dv, w))
        publish(big)

    def merge_step(self) -> tuple[int, int]:
        """Merge the lexicographically smallest zero-gain pair.

        The score at the current resolution is unchanged, the community
        count drops by one, and the zero set strictly shrinks.  Raises
        IllegalStateError when the resolution is zero (empty zero set).
        """
        tn, _ = self._refill()
        if tn == 0:
            raise IllegalStateError("resolution is zero, there is nothing to merge")
        _, a, b, o, _ = heappop(self._heap)
        self._merge(a, b, o)
        return a, b

    def resolution_sweep(self) -> TraceRecord:
        """Merge zero-gain pairs until the resolution strictly drops.

        Appends and returns one trace record for the newly reached
        resolution.
        """
        tn, _ = self._refill()
        if tn == 0:
            raise IllegalStateError("resolution is zero, there is nothing to sweep")
        heap = self._heap
        refill = self._refill
        merge = self._merge
        merges = self.merges
        # each refill leaves a current front at the exact maximum ratio, so
        # the resolution holds while that front keeps its key
        k = heap[0][0]
        while True:
            _, a, b, o, _ = heappop(heap)
            merge(a, b, o)
            if not refill()[0] or heap[0][0] != k:
                break
        self.max_group = max(self.max_group, self.merges - merges)
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
    num, den = tf.numerator, tf.denominator
    eng = SweepEngine(graph)
    rec = eng.record_trace()
    while rec.tn * den >= num * rec.td:
        rec = eng.resolution_sweep()
    return eng.check_stable(tf), list(eng.trace)
