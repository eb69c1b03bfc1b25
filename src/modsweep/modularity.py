"""Resolution-parametrized modularity, stability certificates, and bounds.

``modularity(g, p, t)`` sums ``w(C)/z - t*(d(C)/z)**2`` over blocks; at
``t == 1`` this is the classic Newman score.  A partition is merge-stable at
resolution ``t`` when no distinct pair of blocks has positive excess mass,
which is exactly the condition that no coarsening of the partition scores
higher.  ``bounds_report`` evaluates every general inequality the score
satisfies, exactly, and is the backend of the ``verify`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DisconnectedError
from .graph import min_cut, quotient
from .measures import CommunityAggregates
from .partition import singleton_partition
from .rational import positive_fraction, rounded

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Graph
    from .partition import Partition


def modularity(graph: "Graph", partition: "Partition", t=1) -> Fraction:
    """Exact score of a partition at resolution t, always a Fraction.

    A float ``t`` is read as its decimal, so 0.7 means 7/10.
    """
    return CommunityAggregates.from_partition(graph, partition).score(t)


def modularity_complement(graph: "Graph", partition: "Partition", t=1) -> Fraction:
    """Off-diagonal counterpart; always equals (1 - t) - modularity."""
    tf = positive_fraction(t)
    return (1 - tf) - modularity(graph, partition, tf)


def resolution(graph: "Graph", partition: "Partition") -> Fraction:
    """Smallest t at which the partition is merge-stable; 0 if no pair touches."""
    return CommunityAggregates.from_partition(graph, partition).resolution()


def is_merge_stable(graph: "Graph", partition: "Partition", t=1
                    ) -> tuple[bool, tuple[int, int] | None]:
    """Exact stability certificate at resolution t.

    Returns ``(True, None)`` when every distinct adjacent block pair has
    non-positive excess mass (equivalently: no coarsening scores higher),
    otherwise ``(False, witness_pair)``; the quotient's singletons give the same.
    """
    tf = positive_fraction(t)
    tn, td = tf.numerator, tf.denominator
    agg = CommunityAggregates.from_partition(graph, partition)
    z = agg.z
    bd = agg.block_degree
    for a, b, w in agg.pairs():
        if z * w * td > tn * bd[a] * bd[b]:
            return False, (a, b)
    return True, None


def merge_gain(aggregates: CommunityAggregates, a: int, b: int, t) -> Fraction:
    """Exact change in the score from merging two distinct blocks, a Fraction.

    A float ``t`` is read as its decimal, so 0.7 means 7/10.
    """
    if a == b:
        raise ValueError("cannot merge a block with itself")
    return 2 * aggregates.excess(a, b, t)


@dataclass(frozen=True)
class CheckRow:
    """One verified inequality, with its exact sides; ``passed`` is None
    when not applicable."""
    name: str
    passed: bool | None
    lhs: Fraction | int | None = None
    rhs: Fraction | None = None
    note: str = ""


@dataclass(frozen=True)
class ScalingCheck:
    """Per-community degree-fraction window implied by the minimum cut, exact."""
    community: int
    degree_fraction: Fraction
    lower: Fraction
    upper: Fraction
    passed: bool


@dataclass
class BoundsReport:
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
    scaling: list[ScalingCheck] = field(default_factory=list)
    checks: list[CheckRow] = field(default_factory=list)

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


def bounds_report(graph: "Graph", partition: "Partition", t=1) -> BoundsReport:
    """Evaluate every applicable bound of the score at resolution t.

    The cut-dependent entries need a connected graph and a merge-stable
    partition with at least two blocks; when unavailable they are reported
    as skipped rather than failing the report.  The certificate runs on
    the singletons of the quotient that the aggregates are read from.
    """
    tf = positive_fraction(t)
    coarse = quotient(graph, partition)
    agg = CommunityAggregates(coarse)
    z = agg.z
    k = agg.k
    checks: list[CheckRow] = []

    diag_total = Fraction(sum(agg.internal), z)
    q = agg.score(tf)

    # per-community rows, aggregated per inequality family
    def per_community(name, fn):
        bad = None
        for c in range(k):
            if not fn(c):
                bad = c
                break
        checks.append(CheckRow(name, bad is None,
                               note="" if bad is None else f"failed at community {bad}"))

    m_v = [agg.degree_fraction(c) for c in range(k)]
    m_e = [agg.edge_fraction(c, c) for c in range(k)]
    rho = [agg.boundary_fraction(c) for c in range(k)]
    mu = [agg.excess(c, c, tf) for c in range(k)]

    per_community("degree_split_identity",
                  lambda c: m_v[c] == m_e[c] + rho[c] and m_e[c] + 2 * rho[c] <= 1)
    per_community("diag_excess_identity",
                  lambda c: mu[c] == m_e[c] * (1 - tf * (m_e[c] + 2 * rho[c])) - tf * rho[c] ** 2)
    per_community("diag_upper_degree",
                  lambda c: mu[c] <= m_e[c] * (1 - tf * m_v[c]))
    per_community("diag_upper_boundary",
                  lambda c: mu[c] <= m_e[c] * (1 - 2 * tf * rho[c]))
    if tf <= 1:
        per_community("diag_lower_boundary_sq",
                      lambda c: mu[c] >= -tf * rho[c] ** 2)
    else:
        checks.append(CheckRow("diag_lower_boundary_sq", None, note="needs t <= 1"))

    upper_sum_sq = 1 - tf * agg.alpha()
    upper_fixed_k = 1 - tf / k
    checks.append(CheckRow("q_upper_sum_sq", q <= upper_sum_sq, q, upper_sum_sq))
    checks.append(CheckRow("q_upper_fixed_k", q <= upper_fixed_k, q, upper_fixed_k))
    upper_boundary = diag_total * (1 - 2 * tf * min(rho))
    checks.append(CheckRow("q_upper_boundary_factor", q <= upper_boundary, q, upper_boundary))
    if tf <= 1:
        lo = (-tf / 2) * (1 - diag_total)
        checks.append(CheckRow("q_lower_offdiag", q >= lo, q, lo))
    else:
        checks.append(CheckRow("q_lower_offdiag", None, note="needs t <= 1"))

    stable, witness = is_merge_stable(coarse, singleton_partition(coarse), tf)
    checks.append(CheckRow("merge_stable", stable,
                           note="" if stable else f"witness pair {witness}"))

    floor = 1 - tf
    if stable:
        checks.append(CheckRow("q_stability_floor", q >= floor, q, floor))
    else:
        checks.append(CheckRow("q_stability_floor", None, note="needs a merge-stable partition"))

    scaling: list[ScalingCheck] = []
    mc: int | None = None
    max_blocks: Fraction | None = None
    if stable and k >= 2:
        bad_pair = None
        for a, b, w in agg.pairs():
            lhs = (m_v[a] + m_v[b]) ** 2
            if lhs < 4 * Fraction(w, z) / tf:
                bad_pair = (a, b)
                break
        checks.append(CheckRow("pair_union_degree_bound", bad_pair is None,
                               note="" if bad_pair is None else f"failed at pair {bad_pair}"))
        try:
            mc = min_cut(graph)
        except DisconnectedError:
            checks.append(CheckRow("cut_window", None, note="graph is not connected"))
            checks.append(CheckRow("block_count_bound", None, note="graph is not connected"))
        else:
            ratio = Fraction(mc, tf * z)
            ok_sq = True
            for c in range(k):
                lo, hi = ratio, 1 - ratio
                good = lo < m_v[c] < hi and (m_v[c] - Fraction(1, 2)) ** 2 <= Fraction(1, 4) - ratio
                ok_sq = ok_sq and good
                scaling.append(ScalingCheck(c, m_v[c], lo, hi, good))
            checks.append(CheckRow("cut_window", ok_sq))
            max_blocks = tf * z / mc
            count_ok = (k < max_blocks and
                        (Fraction(1, k) - Fraction(1, 2)) ** 2 <= Fraction(1, 4) - ratio)
            checks.append(CheckRow("block_count_bound", count_ok, k, max_blocks))
    else:
        note = "needs a merge-stable partition with >= 2 blocks"
        checks.append(CheckRow("pair_union_degree_bound", None, note=note))
        checks.append(CheckRow("cut_window", None, note=note))
        checks.append(CheckRow("block_count_bound", None, note=note))

    return BoundsReport(
        t=tf, k=k, q_t=q, stable=stable, witness=witness,
        min_cut_value=mc, max_blocks=max_blocks,
        scaling=scaling, checks=checks,
    )
