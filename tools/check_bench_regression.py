#!/usr/bin/env python3
"""Bench regression guard: fail when named BENCH_*.json cases regress.

Compares freshly emitted bench JSON (--current directory, written by the
Release bench lane) against the committed baselines (--baseline directory,
the repository root). For every guarded case group the script matches
records by (case name, params) and computes the per-record ms ratio
current/baseline; the group's MEDIAN ratio must stay under the allowed
factor (default 1.25, i.e. >25% regression fails). Using the group median
damps single-point noise while still catching real slowdowns.

Baselines are recorded on one machine but CI runs on another, so raw
ratios would encode hardware speed, not regressions. The guard therefore
normalizes by a MACHINE FACTOR — the median ratio across *all*
comparable records of all benches: if the whole suite is uniformly 2x
slower on this runner, every group's normalized ratio stays ~1.0, while
a single case that regressed 30% relative to the rest still exceeds the
factor and fails the lane. (A regression across the entire guarded
surface at once would shift the machine factor itself — the committed
per-commit baselines and the uploaded BENCH_*.json artifacts remain the
trail for catching that.)

Usage (CI wires this into the Release lane after the bench smoke-run):

    python3 tools/check_bench_regression.py --baseline . --current build

Environment:
    MAYBMS_BENCH_GUARD_SKIP=1     skip entirely (emergency valve)
    MAYBMS_BENCH_GUARD_FACTOR=x   override the allowed factor

Exit status: 0 OK / missing data (a case absent from either side is
reported but never fails the lane — renames should not brick CI), 1 on a
genuine regression.
"""

import argparse
import json
import os
import statistics
import sys

# The guarded perf surface: (bench file stem, case name). These are the
# cases the ISSUE/ROADMAP acceptance criteria track; add a line when a new
# bench earns a guarded budget.
GUARDED_CASES = [
    ("exact_vs_approx", "exact"),
    ("exact_vs_approx", "aconf"),
    # Independent-AND factorisation: the whatif conf() group lineage, a
    # 59 x 60 cross product of single-atom disjunctions. The binary fails
    # the lane itself unless the value is P(A)·P(B) from a ⊙ node.
    ("exact_vs_approx", "product"),
    ("conditioning", "conf_prior_t1"),
    ("conditioning", "conf_posterior_t1"),
    ("conditioning", "aconf_posterior_t1"),
    ("conditioning", "prune_determined"),
    ("sprout", "lazy"),
    ("sprout", "eager"),
    ("sprout", "exact_dnf"),
    # The d-tree compilation cache (ISSUE 5): cold = compile + fill, cached
    # = kRepeats warm statements. Four records each (row/batch x t{1,4});
    # the bench binary itself fails the lane on any cache-on/off or
    # cross-engine probability mismatch, this guard watches the timings.
    ("dtree_cache", "conf_cold"),
    ("dtree_cache", "conf_cached"),
    # fig1 random-walk translation cases, guarded now that their variance
    # is recorded in the committed baseline (ROADMAP item): walk3_single is
    # one long statement, walk2/walk3 sweep the player count.
    ("fig1_random_walk", "walk3_single"),
    ("fig1_random_walk", "walk2"),
    ("fig1_random_walk", "walk3"),
    # Streaming ingest (ISSUE 6): warm = repeated statements between writes
    # (whole-statement hits), after_append = append-one-component-then-query
    # refresh steps (component-incremental recompilation; the binary fails
    # the lane itself if the incremental speedup drops below the 5x
    # acceptance floor or any answer drifts from the cache-off truth).
    ("streaming_ingest", "dashboard_warm"),
    ("streaming_ingest", "dashboard_after_append"),
    # Multi-session server (ISSUE 7): serial = all session scripts
    # back-to-back on one session, concurrent = one thread per session over
    # one shared catalog (params: sessions). The binary self-checks every
    # concurrent session bit-identical to a solo replay and exits non-zero
    # on divergence; this guard watches statement-lock overhead.
    ("server", "dashboard_serial"),
    ("server", "dashboard_concurrent"),
    # Cost-based optimizer (ISSUE 9): *_optimized = worst-syntactic-order
    # star/chain joins with `set optimizer = on`. The binary itself
    # self-checks on/off answers bit-identical across both engines and
    # enforces the >= 3x star speedup floor, exiting non-zero on either;
    # this guard watches the optimized-path latency (planning + stats
    # overhead included).
    ("optimizer", "star_optimized"),
    ("optimizer", "chain_optimized"),
    # Paged storage engine (ISSUE 10): indexed point lookups and narrow
    # range scans through B+ tree access paths, plus the binary paged
    # save/load round trip under a deliberately small 64-frame buffer
    # pool. The binary self-checks indexed/scan answers bit-identical
    # across both engines and enforces the >= 10x point-lookup speedup
    # floor, exiting non-zero on either; this guard watches the absolute
    # indexed-path and persistence latencies.
    ("paged_storage", "point_lookup_indexed"),
    ("paged_storage", "range_scan_indexed"),
    ("paged_storage", "persist_save"),
    ("paged_storage", "persist_load"),
]

# Effectiveness guard (ISSUE 8): cache hit rates from the benches' embedded
# registry snapshots must not silently collapse — a timing guard alone
# would miss a cache that stopped hitting but stayed fast on a small
# workload. Each entry is (bench stem, case, metrics key, minimum value),
# judged against the CURRENT run's record["metrics"]. Records without the
# key (older binaries, metrics disabled) are reported and skipped: only a
# present-but-low value fails the lane.
EXPECTED_HIT_RATES = [
    ("dtree_cache", "conf_cached", "hit_rate", 0.99),
    ("streaming_ingest", "dashboard_warm", "hit_rate", 0.99),
    ("streaming_ingest", "dashboard_after_append", "component_hit_rate", 0.80),
]


def load_results(path):
    """bench json -> {(case, frozen params): ms}."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for record in doc.get("results", []):
        params = tuple(sorted(record.get("params", {}).items()))
        out[(record["case"], params)] = record["ms"]
    return out


def check_hit_rates(current_dir):
    """Returns a list of failure strings; prints one line per check."""
    failures = []
    for bench, case, key, floor in EXPECTED_HIT_RATES:
        name = f"BENCH_{bench}.json"
        path = os.path.join(current_dir, name)
        if not os.path.exists(path):
            print(f"bench guard: {name} was not emitted this run; "
                  f"skipping hit-rate check")
            continue
        with open(path) as f:
            doc = json.load(f)
        values = []
        for record in doc.get("results", []):
            if record.get("case") != case:
                continue
            metrics = record.get("metrics")
            if not isinstance(metrics, dict) or key not in metrics:
                continue
            values.append(float(metrics[key]))
        if not values:
            print(f"bench guard: {bench}/{case}: no '{key}' metric in the "
                  f"current run; skipping (old binary or metrics off?)")
            continue
        worst = min(values)
        verdict = "OK" if worst >= floor else "LOW"
        print(f"bench guard: {bench}/{case}: {key} min {worst:.3f} over "
              f"{len(values)} record(s), floor {floor:.2f} [{verdict}]")
        if worst < floor:
            failures.append(
                f"{bench}/{case}: {key} {worst:.3f} < floor {floor:.2f}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="directory holding committed BENCH_*.json")
    parser.add_argument("--current", required=True,
                        help="directory holding freshly emitted BENCH_*.json")
    parser.add_argument("--factor", type=float,
                        default=float(os.environ.get(
                            "MAYBMS_BENCH_GUARD_FACTOR", "1.25")),
                        help="allowed median slowdown factor per case group")
    args = parser.parse_args()

    if os.environ.get("MAYBMS_BENCH_GUARD_SKIP") == "1":
        print("bench guard: skipped (MAYBMS_BENCH_GUARD_SKIP=1)")
        return 0

    by_bench = {}
    for bench, case in GUARDED_CASES:
        by_bench.setdefault(bench, []).append(case)

    # Pass 1: collect per-group ratio lists and the overall machine factor.
    groups = []  # (bench, case, [ratios])
    all_ratios = []
    for bench, cases in by_bench.items():
        name = f"BENCH_{bench}.json"
        base_path = os.path.join(args.baseline, name)
        cur_path = os.path.join(args.current, name)
        if not os.path.exists(base_path):
            print(f"bench guard: no committed baseline {name}; skipping")
            continue
        if not os.path.exists(cur_path):
            print(f"bench guard: {name} was not emitted this run; skipping")
            continue
        base = load_results(base_path)
        cur = load_results(cur_path)
        for case in cases:
            ratios = []
            for key, base_ms in base.items():
                if key[0] != case or base_ms <= 0:
                    continue
                cur_ms = cur.get(key)
                if cur_ms is None or cur_ms <= 0:
                    continue
                ratios.append(cur_ms / base_ms)
            if not ratios:
                print(f"bench guard: {bench}/{case}: no comparable records")
                continue
            groups.append((bench, case, ratios))
            all_ratios.extend(ratios)

    hit_rate_failures = check_hit_rates(args.current)

    if not all_ratios:
        if hit_rate_failures:
            print("\nbench guard FAILED (hit rates):")
            for f in hit_rate_failures:
                print(f"  {f}")
            return 1
        print("bench guard: nothing comparable; passing vacuously")
        return 0
    machine = statistics.median(all_ratios)
    print(f"bench guard: machine factor {machine:.3f} "
          f"(median over {len(all_ratios)} records; ratios normalized by it)")

    # Pass 2: judge each group's normalized median.
    failures = []
    checked = 0
    for bench, case, ratios in groups:
        checked += 1
        median = statistics.median(ratios) / machine
        verdict = "OK" if median <= args.factor else "REGRESSION"
        print(f"bench guard: {bench}/{case}: normalized median ratio "
              f"{median:.3f} over {len(ratios)} record(s) [{verdict}]")
        if median > args.factor:
            failures.append((bench, case, median))

    if failures or hit_rate_failures:
        print(f"\nbench guard FAILED (allowed factor {args.factor:.2f}):")
        for bench, case, median in failures:
            print(f"  {bench}/{case}: {median:.3f}x of committed baseline")
        for f in hit_rate_failures:
            print(f"  {f}")
        return 1
    print(f"\nbench guard passed: {checked} case group(s) within "
          f"{args.factor:.2f}x of the committed baselines; hit rates at "
          f"or above their floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
