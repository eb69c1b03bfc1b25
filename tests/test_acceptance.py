"""Acceptance suite: one test per shipping criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on a green run; pytest shows captured output for failures anyway.
"""

import random
import resource
import time
from fractions import Fraction

from modsweep import (
    CommunityAggregates,
    SweepEngine,
    best_partition,
    bounds_report,
    complete_binary_tree,
    daisy_graph,
    daisy_reference_modularity,
    detect_communities,
    is_coarsening_optimal,
    is_merge_stable,
    merge_gain,
    min_cut,
    modularity,
    modularity_complement,
    refine_connected,
    tree_bound,
    tree_core_modularity,
    tree_core_partition,
)
from modsweep.partition import Partition, compose

from conftest import random_graph, random_partition, zero_pairs

TREE_TABLE = [
    (3, 0.5357143, 0.505102),
    (5, 0.7620968, 0.757024),
    (6, 0.8297258, 0.824263),
    (10, 0.9562724, 0.9539936),
    (20, 0.9986194, 0.998536),
]


def _verdict(name: str, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f"  {detail}" if detail else ""))
    return ok


def test_criterion_1_tree_bounds():
    start = time.perf_counter()
    ok = True
    details = []
    for height, bound, core_score in TREE_TABLE:
        z = 2 ** (height + 2) - 4
        got_bound = tree_bound(z).bound
        got_core = float(tree_core_modularity(height))
        row_ok = abs(got_bound - bound) <= 1e-5 and abs(got_core - core_score) <= 1e-5
        if height <= 10:
            # the materialized partition must agree exactly with the closed form
            g = complete_binary_tree(height)
            p = tree_core_partition(height)
            row_ok = row_ok and modularity(g, p, Fraction(1)) == tree_core_modularity(height)
        ok = ok and row_ok
        details.append(f"h{height}:{float(got_bound):.7f}/{got_core:.7f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert _verdict("1 tree-bound-table", ok, f"{'; '.join(details)}; {elapsed:.3f}s")


def test_criterion_2_engine_on_trees():
    start = time.perf_counter()
    rows = []
    all_ok = True
    for height in (5, 6, 7, 10):
        g = complete_binary_tree(height)
        part, _ = detect_communities(g, 1)
        q1 = float(modularity(g, part, Fraction(1)))
        lo = float(tree_core_modularity(height)) - 0.002
        hi = tree_bound(g.z).bound
        in_band = lo <= q1 <= hi
        all_ok = all_ok and in_band
        rows.append(f"h{height}: q1={q1:.6f} band=[{lo:.6f},{float(hi):.7f}] {'ok' if in_band else 'OUT'}")
    elapsed = time.perf_counter() - start
    all_ok = all_ok and elapsed < 5.0
    assert _verdict("2 engine-on-trees", all_ok, f"{'; '.join(rows)}; {elapsed:.2f}s"), (
        "engine score out of the stated band: " + "; ".join(rows)
    )


def test_criterion_3_karate(karate):
    g, _ = karate
    start = time.perf_counter()
    part, _ = detect_communities(g, 1)
    elapsed = time.perf_counter() - start
    q1 = float(modularity(g, part, Fraction(1)))
    ok = 0.385 <= q1 <= 0.420 and elapsed < 0.1
    assert _verdict("3 karate", ok, f"q1={q1:.6f} k={len(part)} {elapsed * 1000:.1f}ms")


def test_criterion_4_daisy():
    ref = daisy_reference_modularity(1)
    ok = abs(ref - 0.61333) <= 1e-4
    tb = tree_bound(150)
    ok = ok and abs(tb.bound - 0.782) <= 1e-3
    g = daisy_graph(1)
    part, _ = detect_communities(g, 1)
    stable, _ = is_merge_stable(g, part, 1)
    ok = ok and stable and 20 <= len(part) <= 26
    assert _verdict(
        "4 daisy", ok,
        f"ref={float(ref):.5f} bound={float(tb.bound):.4f} k={len(part)} stable={stable}"
    )


def test_criterion_5_oracle_equivalence(barbell):
    rng = random.Random(20260810)
    ok = True
    for i in range(200):
        n = rng.randint(4, 8)
        g = random_graph(rng, n, connected=True)
        t = rng.choice((Fraction(7, 10), Fraction(1), Fraction(13, 10)))
        part, _ = detect_communities(g, t)
        if not is_coarsening_optimal(g, part, t):
            ok = False
            break
        if float(modularity(g, part, 1.0)) > best_partition(g, 1).best_q + 1e-12:
            ok = False
            break
    engine_q, _ = detect_communities(barbell, 1)
    exact = modularity(barbell, engine_q, Fraction(1))
    ok = ok and exact == Fraction(5, 14)
    assert _verdict("5 oracle-equivalence", ok, f"200 graphs; barbell q1={exact}")


def test_criterion_6_property_suites():
    rng = random.Random(99)
    subs: list[tuple[str, bool]] = []

    # diagonal plus off-diagonal marginal identity, and the complement sum rule
    good = True
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 9))
        p = random_partition(rng, g.n)
        t = Fraction(rng.randint(1, 12), rng.randint(1, 8))
        agg = CommunityAggregates.from_partition(g, p)
        for c in range(agg.k):
            off = sum(agg.excess(c, d, t) for d in range(agg.k) if d != c)
            good = good and agg.excess(c, c, t) + off == (1 - t) * agg.degree_fraction(c)
        good = good and modularity(g, p, t) + modularity_complement(g, p, t) == 1 - t
    subs.append(("pair-marginal-identities", good))

    # merge gain equals the exact score difference
    good = True
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 9))
        p = random_partition(rng, g.n)
        if len(p) < 2:
            continue
        a, b = sorted(rng.sample(range(len(p)), 2))
        t = Fraction(rng.randint(1, 10), rng.randint(1, 6))
        agg = CommunityAggregates.from_partition(g, p)
        merged = compose(p, Partition([a if c == b else c for c in range(len(p))]))
        good = good and (
            modularity(g, merged, t) - modularity(g, p, t) == merge_gain(agg, a, b, t)
        )
    subs.append(("merge-gain-exact", good))

    # stability certificate equals exhaustive coarsening optimality
    good = True
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8))
        p = random_partition(rng, g.n)
        t = rng.choice((Fraction(7, 10), Fraction(1), Fraction(13, 10)))
        ok, _ = is_merge_stable(g, p, t)
        good = good and ok == is_coarsening_optimal(g, p, t)
    subs.append(("stability-equals-coarsening-optimality", good))

    # splitting blocks into components never lowers the score
    good = True
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 10))
        p = random_partition(rng, g.n)
        r = refine_connected(g, p)
        for t in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
            good = good and modularity(g, r, t) >= modularity(g, p, t)
    subs.append(("component-refinement-monotone", good))

    # every inequality row holds on random inputs (arbitrary partitions are
    # usually not merge-stable, so only that certificate row may say FAIL)
    good = True
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 9), connected=True, loops=False)
        p = random_partition(rng, g.n)
        t = Fraction(rng.randint(1, 15), 10)
        rep = bounds_report(g, p, t)
        good = good and all(
            row.passed is not False for row in rep.checks if row.name != "merge_stable"
        )
    subs.append(("bound-rows-hold", good))

    # cut-window scaling rows hold on engine outputs of connected graphs
    good = True
    for _ in range(15):
        g = random_graph(rng, rng.randint(3, 12), connected=True)
        part, _ = detect_communities(g, 1)
        rep = bounds_report(g, part, 1)
        good = good and rep.all_pass and rep.stable
        if len(part) >= 2:
            cstar = min_cut(g)
            good = good and len(part) < 1 * g.z / cstar
    subs.append(("engine-output-scaling", good))

    # stable partitions sit on or above the floor
    good = True
    found = 0
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 9))
        p = random_partition(rng, g.n)
        t = Fraction(rng.randint(1, 10), 10)
        okp, _ = is_merge_stable(g, p, t)
        if okp:
            found += 1
            good = good and modularity(g, p, t) >= 1 - t
    subs.append(("stability-floor", good and found > 10))

    # merge steps conserve the score, grow alpha, shrink the zero set
    good = True
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 10), connected=True)
        eng = SweepEngine(g)
        while eng.resolution() > 0:
            t = eng.resolution()
            agg = CommunityAggregates.from_partition(g, eng.partition())
            q_before = agg.score(t)
            alpha_before = agg.alpha()
            zero_before = len(zero_pairs(g, eng.partition(), t))
            eng.merge_step()
            agg = CommunityAggregates.from_partition(g, eng.partition())
            good = good and agg.score(t) == q_before
            good = good and agg.alpha() > alpha_before
            good = good and len(zero_pairs(g, eng.partition(), t)) < zero_before
    subs.append(("merge-step-identities", good))

    # across sweeps the resolution strictly falls and lower scores strictly rise
    good = True
    for _ in range(15):
        g = random_graph(rng, rng.randint(3, 12), connected=True)
        eng = SweepEngine(g)
        s = Fraction(1, 1000)
        last_t = eng.resolution()
        while eng.resolution() > s:
            q_s = modularity(g, eng.partition(), s)
            eng.resolution_sweep()
            good = good and eng.resolution() < last_t
            last_t = eng.resolution()
            good = good and modularity(g, eng.partition(), s) > q_s
    subs.append(("sweep-identities", good))

    for name, flag in subs:
        print(f"  criterion-6 {name}: {'PASS' if flag else 'FAIL'}")
    ok = all(flag for _, flag in subs)
    assert _verdict("6 property-suites", ok)


def test_criterion_7_trace_shape(karate):
    ok = True
    details = []
    kg, _ = karate
    for name, g in (("tree10", complete_binary_tree(10)), ("karate", kg)):
        _, trace = detect_communities(g, 1)
        qt = [r.q_t for r in trace]
        q1 = [r.q_1 for r in trace]
        ts = [r.t_exact for r in trace]
        monotone = (
            all(b < a for a, b in zip(ts, ts[1:]))
            and all(b > a for a, b in zip(qt, qt[1:]))
            and all(b > a for a, b in zip(q1, q1[1:]))
        )
        negative_head = qt[0] < 0 and q1[0] < 0
        ok = ok and monotone and negative_head
        details.append(f"{name}: {len(trace)} records, q_t[0]={float(qt[0]):.4f}")
    assert _verdict("7 trace-shape", ok, "; ".join(details))


def test_criterion_8_performance_smoke():
    g = complete_binary_tree(19)
    start = time.perf_counter()
    part, trace = detect_communities(g, 1)
    elapsed = time.perf_counter() - start
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 ** 2)
    stable, _ = is_merge_stable(g, part, 1)
    ok = elapsed < 120.0 and peak_gb < 4.0 and stable
    assert _verdict(
        "8 performance-smoke", ok,
        f"n={g.n} k={len(part)} q1={float(trace[-1].q_1):.6f} {elapsed:.1f}s peak={peak_gb:.2f}GB"
    )
