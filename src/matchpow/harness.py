"""Cross-validation harness: independent oracles against the classifier.

Every trial computes up to four verdicts for the last matching power of a
weighted oriented forest: linearly related and linear resolution from the
Betti machinery, polymatroidal from the exchange check, and the recursive
classifier.  Every campaign reads the three oracle verdicts of a power from
one memo, :func:`_oracles`, or the linear-relation verdict alone from
another, :func:`_linearly_related`.  Verdicts are invariant under relabelling
variables, so a memo holds each answer under the exact generator tuple and
under a permutation-canonical form of it; the oracles run once per canonical
form.  The caps are the oracles' own: the Betti table's generator cap and a
fixed number of exchange pairs, so no cap state enters the memo.  Exhaustive
campaigns fan out across processes.  The thm34 campaign takes the forests as
isomorphism classes with their labelled copies.  The oracle side, which does
not change under relabelling, runs once per orientation and weighting of a
class representative; lower powers get the linear-relation check alone.  The
rows of that table are grouped by edge-ideal pattern (per edge, the endpoint
whose exponent is above 1, or none), on which the classifier's verdict
depends alone.  Each pattern is mapped onto every labelled copy, where the
classifier runs once against the copy's own plan; its verdict is compared
with every row of the pattern, so every count and dump is per labelled
instance.  ``pattern_splits`` counts the labelled patterns whose oracle
verdicts differ across their weightings.  The thm11 campaign holds
the matchable vertex masks of a graph as one bitset, extends it one edge at a
time along the counting order of edge masks, and keeps a verdict cache local
to each task, keyed by the exact set of maximum-matching supports: the
exchange check runs once per distinct support set in a task.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import factorial
from operator import itemgetter
from typing import Any, Optional, Sequence

from .betti import (
    DEFAULT_GENERATOR_CAP,
    GeneratorCapError,
    betti_numbers,
    has_linear_resolution,
    is_linearly_related,
)
from .classify import ForestPlan, classify_last_power, evaluate_plan, strong_edge_criterion
from .exchange import is_polymatroidal
from .generate import (
    SplitMix64,
    build_random_forest,
    forest_classes,
    random_simple_graph,
)
from .graphs import (
    DistantConfig,
    WeightedOrientedGraph,
    _disjoint_sets,
    _Forest,
    is_forest,
    is_strong_edge,
    matching_number,
)
from .monomials import Monomial, MonomialIdeal
from .powers import _matching_products, matching_power_from_matchings
from .serialize import graph_to_doc

__all__ = [
    "TrialReport",
    "worker_count",
    "cross_validate",
    "verify_thm11_exhaustive",
    "verify_thm11_random",
    "verify_thm34_exhaustive",
    "verify_thm34_random",
    "verify_lemma22",
    "verify_lemma31",
]

WORKERS_ENV = "MATCHPOW_WORKERS"


@dataclass
class TrialReport:
    """One cross-validated instance: verdicts and the agreement flag."""

    instance: dict[str, Any]
    verdicts: dict[str, Optional[bool]]
    agreement: bool
    skipped: tuple[str, ...] = ()

    def to_doc(self) -> dict[str, Any]:
        return {
            "instance": self.instance,
            "verdicts": self.verdicts,
            "agreement": self.agreement,
            "skipped": list(self.skipped),
        }


def worker_count(explicit: Optional[int] = None) -> int:
    if explicit is not None:
        return max(1, explicit)
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _run_tasks(fn, tasks, workers: int):
    """Map fn over tasks, in order, inline or across processes."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# oracle verdicts, cached by a relabelling-canonical form of the generators
# ---------------------------------------------------------------------------

_CANON_LIMIT = 720  # fall back to the identity column order beyond this
_EXCHANGE_MAX_PAIRS = 4000  # the exchange check is skipped above this many pairs

# generator tuple -> (linearly_related, polymatroidal, linear_resolution); a
# tuple is held both exactly and in canonical form, since either names its ideal
_verdicts: dict[tuple, tuple] = {}
# generator tuple -> linearly_related, for powers whose other verdicts no
# campaign reads; keyed like _verdicts
_related: dict[tuple, bool] = {}


def _canonical_key(gens: tuple[tuple[int, ...], ...]) -> tuple:
    """Generators projected to their support, minimised over admissible column
    permutations (columns may only swap within equal exponent-multiset groups)."""
    ncols = len(gens[0])
    cols = [j for j in range(ncols) if any(g[j] for g in gens)]
    if not cols:
        return tuple(() for _ in gens)
    sig = {j: tuple(sorted(g[j] for g in gens)) for j in cols}
    groups: dict[tuple, list[int]] = {}
    for j in cols:
        groups.setdefault(sig[j], []).append(j)
    ordered_groups = [groups[s] for s in sorted(groups)]
    count = 1
    for g in ordered_groups:
        count *= factorial(len(g))
        if count > _CANON_LIMIT:
            break
    if count > _CANON_LIMIT:
        order = [j for g in ordered_groups for j in g]
        pick = itemgetter(*order) if len(order) > 1 else _single_getter(order[0])
        return tuple(sorted(pick(g) for g in gens))
    best = None
    for perm_choice in product(*(permutations(g) for g in ordered_groups)):
        order = [j for grp in perm_choice for j in grp]
        pick = itemgetter(*order) if len(order) > 1 else _single_getter(order[0])
        cand = tuple(sorted(pick(g) for g in gens))
        if best is None or cand < best:
            best = cand
    return best


def _single_getter(col: int):
    return lambda g: (g[col],)


def _ideal_from_key(key: tuple) -> MonomialIdeal:
    n = len(key[0]) if key else 0
    return MonomialIdeal(n, tuple(Monomial(g) for g in key))


def _memoised(memo: dict[tuple, Any], gens: tuple[tuple[int, ...], ...], compute) -> Any:
    """``compute`` of the ideal with the given sorted equigenerated exponents,
    run once per canonical form and held under both keys."""
    hit = memo.get(gens)
    if hit is not None:
        return hit
    key = _canonical_key(gens)
    result = memo.get(key)
    if result is None:
        result = memo[key] = compute(_ideal_from_key(key))
    memo[gens] = result
    return result


def _triple(I: MonomialIdeal) -> tuple[bool, Optional[bool], Optional[bool]]:
    g = len(I.gens)
    b = is_polymatroidal(I) if g * (g - 1) <= _EXCHANGE_MAX_PAIRS else None
    try:
        c = has_linear_resolution(I)
    except GeneratorCapError:
        c = None
    return (is_linearly_related(I), b, c)


def _oracles(
    gens: tuple[tuple[int, ...], ...],
) -> tuple[Optional[bool], Optional[bool], Optional[bool]]:
    """(linearly_related, polymatroidal, linear_resolution) of the ideal with
    the given sorted generator exponents; None where an oracle's cap applies."""
    if len({sum(g) for g in gens}) > 1:
        # mixed generation degrees: all three predicates are False outright
        return (False, False, False)
    return _memoised(_verdicts, gens, _triple)


def _linearly_related(gens: tuple[tuple[int, ...], ...]) -> bool:
    """The first verdict of :func:`_oracles` alone, without the exchange check
    and the Betti scan."""
    if len({sum(g) for g in gens}) > 1:
        return False
    return _memoised(_related, gens, is_linearly_related)


def _constant_degree_ok(gens: tuple[tuple[int, ...], ...]) -> bool:
    """Whenever a variable has exponent r > 1 in some generator, it has
    exponent exactly r in every generator."""
    for j in range(len(gens[0])):
        column = [g[j] for g in gens]
        mx = max(column)
        if mx > 1 and any(e != mx for e in column):
            return False
    return True


# ---------------------------------------------------------------------------
# per-instance cross-validation
# ---------------------------------------------------------------------------


def cross_validate(
    D: WeightedOrientedGraph, instance_info: Optional[dict[str, Any]] = None
) -> TrialReport:
    """All four verdicts for the last matching power of D.

    Oracles above their caps are skipped (verdict None, listed in
    ``skipped``); the agreement flag covers the verdicts actually computed.
    """
    nu = matching_number(D)
    if nu < 1:
        raise ValueError("cross-validation needs at least one edge")
    I = matching_power_from_matchings(D, nu)
    a, b, c = _oracles(tuple(sorted(g.exponents for g in I.gens)))
    verdicts = {
        "polymatroidal": b,
        "linearly_related": a,
        "linear_resolution": c,
        "classifier": classify_last_power(D).verdict,
    }
    skipped = tuple(k for k in ("polymatroidal", "linear_resolution") if verdicts[k] is None)
    agreement = len({v for v in verdicts.values() if v is not None}) <= 1
    info = dict(instance_info or {})
    info["graph"] = graph_to_doc(D)
    info["matching_number"] = nu
    return TrialReport(info, verdicts, agreement, skipped)


# ---------------------------------------------------------------------------
# last-power exchange property over all small graphs (thm11)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _mask_bitsets(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bitsets over the 2**n vertex masks on n vertices (bit m stands for the
    mask m): ``without[i]`` holds the masks that lack vertex i + 1, and
    ``even[k]`` those with exactly 2k vertices."""
    # built over the first j vertices: vertex j + 1 doubles the masks, and the
    # copies that hold it sit 2**j bits higher
    without: list[int] = []
    by_count = [1]  # by_count[c]: the masks with c vertices
    for j in range(n):
        shift = 1 << j
        without = [w | w << shift for w in without] + [(1 << shift) - 1]
        by_count = [lo | hi << shift for lo, hi in zip(by_count + [0], [0] + by_count)]
    return tuple(without), tuple(by_count[::2])


def _top_supports(table: int, even: tuple[int, ...]) -> tuple[int, int]:
    """Matching number and the bitset of the maximum-matching supports read
    from a matchable table; (0, 0) for a table of the empty matching alone."""
    for k in range(len(even) - 1, 0, -1):
        supports = table & even[k]
        if supports:
            return k, supports
    return 0, 0


def _max_matching_supports(n: int, edges: list[tuple[int, int]]) -> tuple[int, int]:
    """Matching number and the bitset of the vertex masks of maximum matchings.

    The matchable table holds bit m when the vertex mask m carries a perfect
    matching of the induced subgraph.  It starts as the empty matching, and an
    edge {a, b} adds ``ab`` to every matchable mask that holds neither a nor b.
    """
    without, even = _mask_bitsets(n)
    table = 1
    for a, b in edges:
        table |= (table & without[a - 1] & without[b - 1]) << ((1 << a - 1) | (1 << b - 1))
    return _top_supports(table, even)


def _support_ideal(n: int, supports: int) -> MonomialIdeal:
    """The squarefree ideal whose generators are the vertex masks in a bitset."""
    gens = []
    while supports:
        low = supports & -supports
        supports ^= low
        mask = low.bit_length() - 1
        gens.append(tuple(mask >> i & 1 for i in range(n)))
    gens.sort()
    return MonomialIdeal(n, tuple(Monomial(g) for g in gens))


def _thm11_chunk(args: tuple[int, int, int]) -> tuple[int, list[dict[str, Any]], int]:
    """Graphs checked, failures in mask order and exchange checks run for the
    edge masks lo..hi-1 on n vertices (bit i of a mask is the i-th vertex pair).

    ``tables[j]`` is the matchable table of the current mask's edges j and up,
    so the next mask in counting order recomputes only the positions up to its
    lowest set bit.  The exchange verdict is cached by the exact support set.
    """
    n, lo, hi = args
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    without, even = _mask_bitsets(n)
    steps = [(without[a - 1] & without[b - 1], (1 << a - 1) | (1 << b - 1)) for a, b in pairs]
    tables = [1] * (len(pairs) + 1)
    for j in range(len(pairs) - 1, -1, -1):
        table = tables[j + 1]
        if lo >> j & 1:
            free, ab = steps[j]
            table |= (table & free) << ab
        tables[j] = table
    verdicts: dict[int, bool] = {}
    checked = 0
    failures: list[dict[str, Any]] = []
    for mask in range(lo, hi):
        if mask != lo:
            j = (mask & -mask).bit_length() - 1
            free, ab = steps[j]
            table = tables[j + 1]
            table |= (table & free) << ab
            tables[: j + 1] = [table] * (j + 1)
        if not mask:
            continue
        supports = _top_supports(tables[0], even)[1]
        ok = verdicts.get(supports)
        if ok is None:
            ok = verdicts[supports] = is_polymatroidal(_support_ideal(n, supports))
        if not ok:
            failures.append({"n": n, "edges": [p for i, p in enumerate(pairs) if mask >> i & 1]})
        checked += 1
    return checked, failures, len(verdicts)


def verify_thm11_exhaustive(max_n: int = 7, workers: Optional[int] = None) -> dict[str, Any]:
    """Exchange property of the last matching power over every labelled simple
    graph with at least one edge on 2..max_n vertices."""
    w = worker_count(workers)
    started = time.perf_counter()
    tasks: list[tuple[int, int, int]] = []
    for n in range(2, max_n + 1):
        total = 1 << (n * (n - 1) // 2)
        step = max(1, min(total, 1 << 15))
        tasks.extend((n, lo, min(lo + step, total)) for lo in range(0, total, step))
    results = _run_tasks(_thm11_chunk, tasks, w)
    return {
        "command": "thm11-exhaustive",
        "max_n": max_n,
        "graphs_checked": sum(r[0] for r in results),
        "failures": [f for r in results for f in r[1]],
        "exchange_checks": sum(r[2] for r in results),
        "elapsed_s": round(time.perf_counter() - started, 3),
    }


def _require_at_least(option: str, value: int, lowest: int) -> None:
    """Below its lowest value an option leaves a campaign an empty range to
    draw from or nothing to check (random campaigns draw n from lowest..max_n)."""
    if value < lowest:
        raise ValueError(f"{option} must be at least {lowest} for this campaign, got {value}")


def verify_thm11_random(trials: int = 500, max_n: int = 9, seed: int = 42) -> dict[str, Any]:
    """Exchange property of the last power on seeded random graphs.

    Edgeless draws are redrawn on the same stream so every trial carries at
    least one edge; edge probability alternates over {0.2, 0.4} by draw.
    """
    _require_at_least("trials", trials, 0)
    _require_at_least("max_n", max_n, 2)
    # a draw on n vertices holds about 1.5 * n memoised bitsets of 2**n bits
    # (4 MB at n = 20, 5.8 GB at n = 30)
    if max_n > 20:
        raise ValueError(f"max_n must be at most 20 for this campaign, got {max_n}")
    started = time.perf_counter()
    rng = SplitMix64(seed)
    failures: list[dict[str, Any]] = []
    reports: list[dict[str, Any]] = []
    for idx in range(trials):
        while True:
            n = rng.randint(2, max_n)
            p = rng.choice((0.2, 0.4))
            G = random_simple_graph(n, p, rng)
            if G.underlying_edges:
                break
        nu, supports = _max_matching_supports(n, list(G.underlying_edges))
        ok = is_polymatroidal(_support_ideal(n, supports))
        reports.append(
            {"index": idx, "n": n, "p": p, "nu": nu, "generators": supports.bit_count(), "ok": ok}
        )
        if not ok:
            failures.append({"index": idx, "edges": list(G.underlying_edges)})
    return {
        "command": "thm11-random",
        "trials": trials,
        "max_n": max_n,
        "seed": seed,
        "failures": failures,
        "reports": reports,
        "elapsed_s": round(time.perf_counter() - started, 3),
    }


# ---------------------------------------------------------------------------
# forest classification equivalence (thm34)
# ---------------------------------------------------------------------------


def _agg_zero() -> dict[str, Any]:
    return {
        "instances": 0,
        "disagreement_count": 0,
        "disagreements": [],
        "pattern_splits": 0,
        "skipped_oracle": 0,
        "low_power_checked": 0,
        "low_power_violations": [],
        "constant_degree_checked": 0,
        "constant_degree_violations": [],
    }


_DUMP_LIMIT = 25  # replayable instance docs kept per aggregate


def _instance_doc(
    n: int, directed: Sequence[tuple[int, int]], weights: Sequence[int]
) -> dict[str, Any]:
    """The graph document of one thm34 instance (``weights[v]`` is w(v))."""
    vertices = tuple(range(1, n + 1))
    return graph_to_doc(
        WeightedOrientedGraph(n, tuple(sorted(directed)), tuple(weights[1:]), vertices)
    )


def _thm34_forest_task(args: tuple[int, tuple, tuple, int]) -> dict[str, Any]:
    """Every orientation and weighting of some labelled copies of one forest.

    ``args`` is (n, representative, copies, w_max), with ``copies`` a sequence
    of (edges, p): the copy's edges and the permutation p that maps the
    representative onto them (``p[v]`` the image of v).  The oracle verdicts,
    the lower powers and the constant-degree checks do not change under
    relabelling, so they run once per orientation and weighting of the
    representative.  Its rows are grouped by edge-ideal pattern: for each
    edge, the endpoint whose exponent is above 1, or none.  The classifier's
    verdict depends on the weights only through the pattern (see
    :func:`evaluate_plan`), so it runs once per pattern of every labelled
    copy, on one row of the pattern mapped onto the copy and against the
    copy's own plan, and is compared with every row of the pattern.  Every
    count and dump is per labelled instance.
    """
    n, underlying, copies, w_max = args
    agg = _agg_zero()
    by_size: list[list[tuple[int, ...]]] = [[]]
    for mt in _disjoint_sets(underlying):
        if len(mt) == len(by_size):
            by_size.append([])
        by_size[len(mt)].append(mt)
    nu = len(by_size) - 1
    if nu < 2:
        return agg
    m = len(underlying)
    vertices = tuple(range(1, n + 1))
    if not is_forest(WeightedOrientedGraph(n, underlying, (1,) * n, vertices)):
        raise ValueError("classification requires a forest")
    # the representative's rows by pattern; a row is (directed, weights, the
    # oracle verdicts, the verdict all four must give (None if the oracles
    # already differ), the faults found below the classifier)
    by_pattern: dict[tuple[int, ...], list[tuple]] = {}
    skipped = constant_checked = 0
    for orient_mask in range(1 << m):
        directed = [
            underlying[i] if orient_mask >> i & 1 == 0 else (underlying[i][1], underlying[i][0])
            for i in range(m)
        ]
        heads = sorted({h for _, h in directed})
        sources = [v for v in vertices if v not in heads]
        weights = [1] * (n + 1)
        for combo in product(range(1, w_max + 1), repeat=len(heads)):
            if all(w == 1 for w in combo):
                continue  # unweighted: the edge ideal equals the plain one
            for h, w in zip(heads, combo):
                weights[h] = w
            if any(weights[v] != 1 for v in sources):
                raise ValueError("sources must have weight 1")
            faults = []  # (dump, k); k is None for the top power
            # one product divides another only on equal supports, and a forest
            # has at most one perfect matching on a vertex set: no minimalizing
            gens_nu = tuple(sorted(_matching_products(n, directed, weights, by_size[nu])))
            oracles = a, b, c = _oracles(gens_nu)
            if b is None or c is None:
                skipped += 1
            known = {v for v in oracles if v is not None}
            want = known.pop() if len(known) == 1 else None
            if a:
                constant_checked += 1
                if not _constant_degree_ok(gens_nu):
                    faults.append(("constant_degree_violations", None))
            for k in range(1, nu):
                gens_k = tuple(sorted(_matching_products(n, directed, weights, by_size[k])))
                if _linearly_related(gens_k):
                    faults.append(("low_power_violations", k))
                    constant_checked += 1
                    if not _constant_degree_ok(gens_k):
                        faults.append(("constant_degree_violations", k))
            pattern = tuple(h if weights[h] != 1 else 0 for _, h in directed)
            by_pattern.setdefault(pattern, []).append(
                (directed, tuple(weights), oracles, want, faults)
            )
            for h in heads:
                weights[h] = 1
    # per pattern: its rows, how many of them want each verdict, and the rows
    # with faults
    patterns = [
        (rows, Counter(row[3] for row in rows), [row for row in rows if row[4]])
        for rows in by_pattern.values()
    ]
    splits = sum(len({row[2] for row in rows}) > 1 for rows, _, _ in patterns)
    instances = sum(len(rows) for rows, _, _ in patterns)
    agg["instances"] = instances * len(copies)
    agg["skipped_oracle"] = skipped * len(copies)
    agg["low_power_checked"] = instances * (nu - 1) * len(copies)
    agg["constant_degree_checked"] = constant_checked * len(copies)
    agg["pattern_splits"] = splits * len(copies)
    for edges, p in copies:
        # one plan per labelled forest, shared by its patterns
        plan = ForestPlan(n, edges)
        at = {e: i for i, e in enumerate(edges)}
        slot = [0] * m  # slot[i]: the representative's edge that lands on edge i
        for j, (s, t) in enumerate(underlying):
            slot[at[(p[s], p[t]) if p[s] < p[t] else (p[t], p[s])]] = j
        back = [0] * (n + 1)
        for v in vertices:
            back[p[v]] = v
        relabel = itemgetter(*back)  # representative weights -> the copy's

        def place(directed, weights):
            """A representative row's orientation and weights on the copy."""
            moved = [(p[t], p[h]) for t, h in directed]
            return [moved[j] for j in slot], relabel(weights)

        for rows, wants, faulty in patterns:
            d = evaluate_plan(plan, *place(*rows[0][:2])).verdict
            missed = len(rows) - wants[d]
            agg["disagreement_count"] += missed
            if missed:
                for directed, weights, (a, b, c), want, _ in rows:
                    if len(agg["disagreements"]) >= _DUMP_LIMIT:
                        break
                    if want == d:
                        continue
                    agg["disagreements"].append(
                        {
                            "graph": _instance_doc(n, *place(directed, weights)),
                            "verdicts": {
                                "linearly_related": a,
                                "polymatroidal": b,
                                "linear_resolution": c,
                                "classifier": d,
                            },
                        }
                    )
            for directed, weights, _, _, faults in faulty:
                for dump, k in faults:
                    if len(agg[dump]) < _DUMP_LIMIT:
                        doc = {"graph": _instance_doc(n, *place(directed, weights))}
                        if k is not None:
                            doc["k"] = k
                        agg[dump].append(doc)
    return agg


def _merge_aggs(aggs: list[dict[str, Any]]) -> dict[str, Any]:
    total = _agg_zero()
    for a in aggs:
        total["instances"] += a["instances"]
        total["disagreement_count"] += a["disagreement_count"]
        total["skipped_oracle"] += a["skipped_oracle"]
        total["low_power_checked"] += a["low_power_checked"]
        total["constant_degree_checked"] += a["constant_degree_checked"]
        total["pattern_splits"] += a["pattern_splits"]
        for key in ("disagreements", "low_power_violations", "constant_degree_violations"):
            room = _DUMP_LIMIT - len(total[key])
            if room > 0:
                total[key].extend(a[key][:room])
    return total


def verify_thm34_exhaustive(
    max_n: int = 6,
    max_weight: int = 3,
    workers: Optional[int] = None,
) -> dict[str, Any]:
    """Equivalence of all four verdicts over every labelled weighted oriented
    forest on 2..max_n vertices with non-source weights up to max_weight,
    restricted to matching number >= 2 and at least one weight above 1.

    Also verifies that no matching power below the top one is linearly
    related, and the constant-exponent property on linearly related powers.
    The forests come as isomorphism classes with their labelled copies: the
    oracle side runs once per class (``forest_classes`` counts the classes
    with matching number >= 2), the classifier once per labelled forest and
    edge-ideal pattern, and every other count is per labelled instance;
    ``pattern_splits`` counts the labelled (forest, pattern) pairs whose
    oracle verdicts differ across weight values.  With several workers the
    copies of a class are split into one task per worker.
    No forest on 3 vertices has matching number 2, so max_n needs 4; at
    max_weight 1 every instance is unweighted and skipped, so it needs 2.
    """
    _require_at_least("max_n", max_n, 4)
    _require_at_least("max_weight", max_weight, 2)
    w = worker_count(workers)
    started = time.perf_counter()
    tasks = []
    classes = 0
    for n in range(2, max_n + 1):
        for underlying, copies in forest_classes(n):
            if _Forest(n, underlying).nu < 2:
                continue
            classes += 1
            step = -(-len(copies) // w)
            tasks.extend(
                (n, underlying, copies[i : i + step], max_weight)
                for i in range(0, len(copies), step)
            )
    # large forests first for better load balance across processes; the sort
    # is stable, so the dumps come in the same order for any worker count
    tasks.sort(key=lambda t: -len(t[1]))
    results = _run_tasks(_thm34_forest_task, tasks, w)
    total = _merge_aggs(results)
    total["command"] = "thm34-exhaustive"
    total["max_n"] = max_n
    total["max_weight"] = max_weight
    total["forest_classes"] = classes
    total["elapsed_s"] = round(time.perf_counter() - started, 3)
    return total


def verify_thm34_random(
    trials: int = 200,
    seed: int = 1,
    max_n: int = 8,
    max_weight: int = 3,
) -> dict[str, Any]:
    """Cross-validation of seeded random weighted oriented forests."""
    _require_at_least("trials", trials, 0)
    _require_at_least("max_n", max_n, 2)
    _require_at_least("max_weight", max_weight, 1)
    started = time.perf_counter()
    rng = SplitMix64(seed)
    reports = []
    disagreements = []
    for idx in range(trials):
        while True:
            n = rng.randint(2, max_n)
            D = build_random_forest(n, max_weight, rng)
            if D.underlying_edges:
                break
        report = cross_validate(D, {"index": idx, "seed": seed})
        reports.append(report.to_doc())
        if not report.agreement:
            disagreements.append(reports[-1])
    return {
        "command": "thm34-random",
        "trials": trials,
        "seed": seed,
        "max_n": max_n,
        "max_weight": max_weight,
        "disagreements": disagreements,
        "reports": reports,
        "elapsed_s": round(time.perf_counter() - started, 3),
    }


# ---------------------------------------------------------------------------
# induced-subgraph monotonicity of Betti tables (lemma22)
# ---------------------------------------------------------------------------


def verify_lemma22(
    pairs: int = 50,
    seed: int = 7,
    max_n: int = 7,
    max_weight: int = 3,
) -> dict[str, Any]:
    """Entrywise Betti monotonicity and regularity monotonicity for induced
    subgraphs: beta_{i,a} of the subgraph power never exceeds the full one.

    Pairs whose powers vanish or exceed the Betti cap are redrawn.
    """
    _require_at_least("pairs", pairs, 0)
    _require_at_least("max_n", max_n, 5)
    _require_at_least("max_weight", max_weight, 1)
    started = time.perf_counter()
    rng = SplitMix64(seed)
    failures = []
    reports = []
    for idx in range(pairs):
        while True:
            n = rng.randint(max(5, max_n - 2), max_n)
            D = build_random_forest(n, max_weight, rng)
            if not D.underlying_edges:
                continue
            keep_count = rng.randint(3, n)
            verts = list(D.vertices)
            for i in range(len(verts) - 1, 0, -1):  # seeded shuffle
                j = rng.randrange(i + 1)
                verts[i], verts[j] = verts[j], verts[i]
            Dp = D.induced(verts[:keep_count])
            if not Dp.underlying_edges:
                continue
            k = rng.randint(1, matching_number(D))
            Ip = matching_power_from_matchings(Dp, k)
            if Ip.is_zero():
                continue
            I = matching_power_from_matchings(D, k)
            if len(I.gens) < 2:
                continue
            if max(len(I.gens), len(Ip.gens)) > DEFAULT_GENERATOR_CAP:
                continue
            break
        table = betti_numbers(I)
        table_p = betti_numbers(Ip)
        entry_ok = all(
            r <= table.entries.get(key, 0) for key, r in table_p.entries.items()
        )
        reg_ok = table_p.regularity() <= table.regularity()
        reports.append(
            {
                "index": idx,
                "k": k,
                "graph": graph_to_doc(D),
                "kept": list(Dp.vertices),
                "entrywise_ok": entry_ok,
                "regularity_ok": reg_ok,
            }
        )
        if not (entry_ok and reg_ok):
            failures.append(reports[-1])
    return {
        "command": "lemma22",
        "pairs": pairs,
        "seed": seed,
        "max_n": max_n,
        "max_weight": max_weight,
        "failures": failures,
        "reports": reports,
        "elapsed_s": round(time.perf_counter() - started, 3),
    }


# ---------------------------------------------------------------------------
# pendant strong-edge criterion vs the direct definition (lemma31)
# ---------------------------------------------------------------------------


def verify_lemma31(max_n: int = 6) -> dict[str, Any]:
    """Agreement of the matching-based pendant criterion with the direct
    strong-edge test over every single-pendant configuration of every
    labelled forest with matching number >= 2 on up to max_n vertices."""
    started = time.perf_counter()
    checked = 0
    mismatches = []
    for n in range(2, max_n + 1):
        for underlying in (edges for _, copies in forest_classes(n) for edges, _ in copies):
            if len(underlying) < 2:
                continue
            D = WeightedOrientedGraph.build(n, underlying)
            if matching_number(D) < 2:
                continue
            for b in D.vertices:
                if D.degree(b) != 2:
                    continue
                u, v = D.adjacency[b]
                for a, c in ((u, v), (v, u)):
                    if D.degree(a) != 1:
                        continue
                    config = DistantConfig((a,), b, c)
                    got = strong_edge_criterion(D, config)
                    want = is_strong_edge(D, (a, b))
                    checked += 1
                    if got != want:
                        mismatches.append(
                            {"n": n, "edges": list(underlying), "config": [a, b, c]}
                        )
    return {
        "command": "lemma31",
        "max_n": max_n,
        "configurations_checked": checked,
        "mismatches": mismatches,
        "elapsed_s": round(time.perf_counter() - started, 3),
    }
