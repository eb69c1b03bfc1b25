"""Resolution-parametrized modularity, stability certificates, and bounds.

For a partition, every score reads its ``quotient`` graph's rows, held by
``CommunityAggregates``: ``rows[c]`` maps block ``c`` and each block
adjacent to it to an integer weight.  The diagonal ``rows[c][c]`` is the
internal weight ``w(C)`` (ordered pairs inside ``C``, so twice the
undirected internal edge weight plus stored loop weight); ``rows[c][c']``
is the one-orientation crossing weight ``w(C, C')``, stored in both rows; a
row sums to the block degree ``d(C)``.  Zero entries are not stored.

``modularity(g, p, t)`` sums ``w(C)/z - t*(d(C)/z)**2`` over blocks; at
``t == 1`` this is the classic Newman score.  A partition is merge-stable at
resolution ``t`` when no distinct pair of blocks has positive excess mass,
which is exactly the condition that no coarsening of the partition scores
higher.  ``bounds_report`` evaluates every general inequality the score
satisfies, exactly, and is the backend of the ``verify`` CLI command.
Every quantity is an exact ``Fraction`` or integer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import DisconnectedError
from .graph import Graph, min_cut, quotient
from .partition import Partition
from .rational import positive_fraction, rounded


class CommunityAggregates:
    """Integer aggregates of a graph under a fixed partition.

    Read from the partition's quotient graph: ``rows`` is its adjacency,
    ``k`` its vertex count, ``block_degree`` its degrees and ``z`` its
    total; only ``internal``, the diagonals, is computed here.  Every
    score, certificate and bound below reads one of these.  The
    brute-force oracles sum their own, so tests can compare against them.
    """

    __slots__ = ("z", "k", "rows", "block_degree", "internal")

    def __init__(self, coarse: Graph):
        self.rows, self.k, self.block_degree, self.z = coarse.adj, coarse.n, coarse.deg, coarse.z
        self.internal = [row.get(c, 0) for c, row in enumerate(self.rows)]

    @classmethod
    def from_partition(cls, graph: Graph, partition: Partition) -> "CommunityAggregates":
        return cls(quotient(graph, partition))

    def _check(self, c: int) -> None:
        if type(c) is not int or not 0 <= c < self.k:  # a bool or a float is no id
            raise ValueError(f"unknown community id {c!r}")

    def cross_weight(self, a: int, b: int) -> int:
        """Integer one-orientation crossing weight between two blocks."""
        self._check(a)
        self._check(b)
        return self.rows[a].get(b, 0)

    def edge_fraction(self, a: int, b: int) -> Fraction:
        """Fraction of the total edge mass in the rectangle a x b."""
        return Fraction(self.cross_weight(a, b), self.z)

    def expected_fraction(self, a: int, b: int) -> Fraction:
        """Null-model mass of the rectangle a x b: d(a)*d(b)/z**2."""
        self._check(a)
        self._check(b)
        return Fraction(self.block_degree[a] * self.block_degree[b], self.z * self.z)

    def excess(self, a: int, b: int, t) -> Fraction:
        """Observed minus t times expected mass; signed and exact."""
        tf = positive_fraction(t)
        return self.edge_fraction(a, b) - tf * self.expected_fraction(a, b)

    def boundary_fraction(self, c: int) -> Fraction:
        """Edge mass leaving block c: (d(C) - w(C)) / z."""
        self._check(c)
        return Fraction(self.block_degree[c] - self.internal[c], self.z)

    def degree_fraction(self, c: int) -> Fraction:
        self._check(c)
        return Fraction(self.block_degree[c], self.z)

    def alpha(self) -> Fraction:
        """Null-model mass on the diagonal: sum(d(C)**2) / z**2."""
        return Fraction(sum(d * d for d in self.block_degree), self.z * self.z)

    def score(self, t=1) -> Fraction:
        """Exact score at resolution t: sum(w(C))/z - t * sum(d(C)**2)/z**2."""
        return Fraction(sum(self.internal), self.z) - positive_fraction(t) * self.alpha()

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """Adjacent block pairs as (a, b, crossing weight), a < b, sorted."""
        for a, row in enumerate(self.rows):
            for b in sorted(row):
                if b > a:
                    yield a, b, row[b]

    def resolution(self) -> Fraction:
        """Largest ratio observed/expected over distinct adjacent pairs.

        Returns 0 when no distinct pair carries edge mass, i.e. when the
        partition refines the connected components.
        """
        z = self.z
        bd = self.block_degree
        best_num, best_den = 0, 1
        for a, b, w in self.pairs():
            num = z * w
            den = bd[a] * bd[b]
            if num * best_den > best_num * den:
                best_num, best_den = num, den
        return Fraction(best_num, best_den)

    def _unstable_pair(self, t) -> tuple[int, int] | None:
        """The least adjacent pair with positive excess at t, else None."""
        tf = positive_fraction(t)
        tn, td, z, bd = tf.numerator, tf.denominator, self.z, self.block_degree
        for a, b, w in self.pairs():
            if z * w * td > tn * bd[a] * bd[b]:
                return a, b
        return None


def modularity(graph: Graph, partition: Partition, t=1) -> Fraction:
    """Exact score of a partition at resolution t, always a Fraction.

    A float ``t`` is read as its decimal, so 0.7 means 7/10.
    """
    return CommunityAggregates.from_partition(graph, partition).score(t)


def modularity_complement(graph: Graph, partition: Partition, t=1) -> Fraction:
    """Off-diagonal counterpart; always equals (1 - t) - modularity."""
    tf = positive_fraction(t)
    return (1 - tf) - modularity(graph, partition, tf)


def resolution(graph: Graph, partition: Partition) -> Fraction:
    """Smallest t at which the partition is merge-stable; 0 if no pair touches."""
    return CommunityAggregates.from_partition(graph, partition).resolution()


def is_merge_stable(graph: Graph, partition: Partition, t=1
                    ) -> tuple[bool, tuple[int, int] | None]:
    """Exact stability certificate at resolution t.

    Returns ``(True, None)`` when every distinct adjacent block pair has
    non-positive excess mass (equivalently: no coarsening scores higher),
    otherwise ``(False, witness_pair)``, the least such pair.
    """
    pair = CommunityAggregates.from_partition(graph, partition)._unstable_pair(t)
    return pair is None, pair


def merge_gain(aggregates: CommunityAggregates, a: int, b: int, t) -> Fraction:
    """Exact change in the score from merging two distinct blocks, a Fraction.

    A float ``t`` is read as its decimal, so 0.7 means 7/10.
    """
    if a == b:
        raise ValueError("cannot merge a block with itself")
    return 2 * aggregates.excess(a, b, t)


class CheckRow(NamedTuple):
    """One verified inequality, with its exact sides; ``passed`` is None
    when not applicable."""
    name: str
    passed: bool | None
    lhs: Fraction | int | None = None
    rhs: Fraction | None = None
    note: str = ""


class ScalingCheck(NamedTuple):
    """Per-community degree-fraction window implied by the minimum cut, exact."""
    community: int
    degree_fraction: Fraction
    lower: Fraction
    upper: Fraction
    passed: bool


class BoundsReport(NamedTuple):
    """Every general inequality of the score, evaluated exactly.

    ``checks`` holds one row per inequality family (with a witness note on
    failure); ``scaling`` holds the per-community cut-window rows.
    ``bounds_report`` computes the pass flags from the integer aggregates; a
    report only holds them.  Every number is exact; only ``render`` rounds,
    and it raises OverflowError on a value beyond the float range.
    """
    t: Fraction
    k: int
    q_t: Fraction
    stable: bool
    witness: tuple[int, int] | None
    min_cut_value: int | None
    max_blocks: Fraction | None
    scaling: list[ScalingCheck]
    checks: list[CheckRow]

    @property
    def all_pass(self) -> bool:
        return all(row.passed is not False for row in self.checks)

    def render(self) -> str:
        lines = [f"t {rounded(self.t)}", f"k {self.k}", f"q_t {rounded(self.q_t)}"]
        for row in self.checks:
            status = "SKIP" if row.passed is None else ("PASS" if row.passed else "FAIL")
            extra = ""
            if row.lhs is not None and row.rhs is not None:
                extra = f" ({rounded(row.lhs)} vs {rounded(row.rhs)})"
            note = f" [{row.note}]" if row.note else ""
            lines.append(f"{row.name} {status}{extra}{note}")
        for sc in self.scaling:
            status = "PASS" if sc.passed else "FAIL"
            lines.append(
                f"community_window c{sc.community} {status} "
                f"({rounded(sc.lower, 6)} < {rounded(sc.degree_fraction, 6)} < "
                f"{rounded(sc.upper, 6)})"
            )
        return "\n".join(lines)


def bounds_report(graph: Graph, partition: Partition, t=1) -> BoundsReport:
    """Evaluate every applicable bound of the score at resolution t.

    A row whose hypothesis fails is skipped, noting why, rather than failing
    the report: two rows need t <= 1, the stability floor a merge-stable
    partition, and the three cut-dependent rows a merge-stable partition
    with at least two blocks, the last two also a connected graph.  Every
    row, the certificate too, reads one ``CommunityAggregates``' accessors.
    """
    tf = positive_fraction(t)
    agg = CommunityAggregates.from_partition(graph, partition)
    z, k = agg.z, agg.k
    checks: list[CheckRow] = []

    def row(name, passed=None, lhs=None, rhs=None, note="", skip=""):
        """Append one row, or a skipped row noting ``skip`` when it is given."""
        if skip:
            passed, lhs, rhs, note = None, None, None, skip
        checks.append(CheckRow(name, passed, lhs, rhs, note))

    def family(name, what, items, ok, skip=""):
        """One row for an inequality family, failing at the first item not ``ok``."""
        bad = None if skip else next((x for x in items if not ok(x)), None)
        row(name, bad is None, note="" if bad is None else f"failed at {what} {bad}", skip=skip)

    # block probabilities: degree and edge fractions, boundary and excess
    m_v = [agg.degree_fraction(c) for c in range(k)]
    m_e = [agg.edge_fraction(c, c) for c in range(k)]
    rho = [agg.boundary_fraction(c) for c in range(k)]
    mu = [agg.excess(c, c, tf) for c in range(k)]
    diag_total = sum(m_e)
    q = agg.score(tf)
    t_skip = "" if tf <= 1 else "needs t <= 1"

    family("degree_split_identity", "community", range(k),
           lambda c: m_v[c] == m_e[c] + rho[c] and m_e[c] + 2 * rho[c] <= 1)
    family("diag_excess_identity", "community", range(k),
           lambda c: mu[c] == m_e[c] * (1 - tf * (m_e[c] + 2 * rho[c])) - tf * rho[c] ** 2)
    family("diag_upper_degree", "community", range(k),
           lambda c: mu[c] <= m_e[c] * (1 - tf * m_v[c]))
    family("diag_upper_boundary", "community", range(k),
           lambda c: mu[c] <= m_e[c] * (1 - 2 * tf * rho[c]))
    family("diag_lower_boundary_sq", "community", range(k),
           lambda c: mu[c] >= -tf * rho[c] ** 2, t_skip)

    upper_sum_sq = 1 - tf * agg.alpha()
    upper_fixed_k = 1 - tf / k
    upper_boundary = diag_total * (1 - 2 * tf * min(rho))
    lower_offdiag = (-tf / 2) * (1 - diag_total)
    row("q_upper_sum_sq", q <= upper_sum_sq, q, upper_sum_sq)
    row("q_upper_fixed_k", q <= upper_fixed_k, q, upper_fixed_k)
    row("q_upper_boundary_factor", q <= upper_boundary, q, upper_boundary)
    row("q_lower_offdiag", q >= lower_offdiag, q, lower_offdiag, skip=t_skip)

    witness = agg._unstable_pair(tf)
    stable = witness is None
    row("merge_stable", stable, note="" if stable else f"witness pair {witness}")
    row("q_stability_floor", q >= 1 - tf, q, 1 - tf,
        skip="" if stable else "needs a merge-stable partition")

    cut_skip = "" if stable and k >= 2 else "needs a merge-stable partition with >= 2 blocks"
    family("pair_union_degree_bound", "pair", ((a, b) for a, b, _ in agg.pairs()),
           lambda p: (m_v[p[0]] + m_v[p[1]]) ** 2 >= 4 * agg.edge_fraction(*p) / tf,
           cut_skip)
    scaling: list[ScalingCheck] = []
    mc = max_blocks = count_ok = None
    if not cut_skip:
        try:
            mc = min_cut(graph)
        except DisconnectedError:
            cut_skip = "graph is not connected"
    if not cut_skip:
        ratio = Fraction(mc, tf * z)
        cap = Fraction(1, 4) - ratio
        scaling = [ScalingCheck(c, v, ratio, 1 - ratio,
                                ratio < v < 1 - ratio and (v - Fraction(1, 2)) ** 2 <= cap)
                   for c, v in enumerate(m_v)]
        max_blocks = tf * z / mc
        count_ok = k < max_blocks and (Fraction(1, k) - Fraction(1, 2)) ** 2 <= cap
    row("cut_window", all(sc.passed for sc in scaling), skip=cut_skip)
    row("block_count_bound", count_ok, k, max_blocks, skip=cut_skip)

    return BoundsReport(t=tf, k=k, q_t=q, stable=stable, witness=witness, min_cut_value=mc,
                        max_blocks=max_blocks, scaling=scaling, checks=checks)
