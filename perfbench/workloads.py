"""The four benchmark workloads: inputs from a seed, the op each one times,
and the check each op's output must pass.

Only public matchpow names are used, bound here so the tracer can see the
benchmark's own calls.  An op's ``size`` is the number of instances it
covers: one for an ideal or a forest, the whole corpus for a campaign call.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from matchpow.betti import (
    FIELD_RATIONALS,
    betti_numbers,
    has_linear_resolution,
    is_linearly_related,
)
from matchpow.classify import classify_last_power, verify_certificate
from matchpow.generate import SplitMix64, build_random_forest, construct_linear_forests
from matchpow.graphs import WeightedOrientedGraph, matching_number
from matchpow.harness import verify_thm11_exhaustive, verify_thm34_exhaustive
from matchpow.monomials import Monomial, MonomialIdeal
from matchpow.powers import edge_ideal, matching_power, matching_power_from_matchings
from matchpow.serialize import certificate_from_doc, certificate_to_doc

EXPECTED_VERDICTS = Path(__file__).with_name("expected_verdicts.json")

# Campaign sizes and the counts they must report (labelled instances).
THM34_MAX_N, THM34_MAX_WEIGHT, THM34_INSTANCES = 5, 3, 93_528
THM11_MAX_N = 6
THM11_GRAPHS = sum((1 << n * (n - 1) // 2) - 1 for n in range(2, THM11_MAX_N + 1))

# betti-dense is sized so that a pass takes about two seconds and a run
# gathers some ten samples of every op.  Betti tables scan 2^generators faces
# per lcm: they run up to 9 generators over GF(2) and up to 6 over Q.
BETTI_TABLE_MAX_GENERATORS = 9
BETTI_Q_MAX_GENERATORS = 6
PATHS = range(8, 13)  # every matching power of P8..P12
VERONESE = tuple((n, d) for n in range(4, 10) for d in range(2, min(4, n - 1) + 1))
MAXIMAL_POWERS = ((7, 2), (5, 3))  # (variables, degree)
# A fixed count of random ideals, all of them matching powers k >= 2 with at
# most four generators and so cheaper than every fixed ideal near the median,
# keeps the op count and the ops that set the latency percentiles the same
# from seed to seed.  (With five or six generators a random ideal takes 2-3
# ms, about the median, and moves the median op by a rank from seed to seed.)
BETTI_RANDOM_IDEALS = 20
BETTI_RANDOM_VERTICES = (5, 6)
BETTI_RANDOM_MAX_GENERATORS = 4

# forest-scale: weighted paths {n: 2}; certificate replay is exponential in
# the matching number, so only the short paths, the constructed families and
# nothing else get it.  Paths of 1000 and more vertices hit Python's recursion
# limit in the classifier at the seed; they stay in the set on purpose.
# The long paths are also the slowest ops, so op_tail_ms (the eleventh
# slowest) lands on the 300-vertex path whatever the seed draws: an op of
# about 0.1 s, long enough for its time to be scaled by readings taken
# inside it.
LONG_PATHS = (100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600, 700, 800, 1000, 1500)
SHORT_PATHS = (8, 12, 16, 18, 20)
FAMILY_NUS = (3, 4, 5)
FAMILY_LEVEL_CAP = 2000
# The seed draws evenly spaced family members and forests of evenly spaced
# sizes, so the spread of op costs, and with it the op at the median, is
# much the same from seed to seed.
FAMILY_SAMPLE = 30
RANDOM_FORESTS = 40
RANDOM_FOREST_VERTICES = (20, 60)


@dataclass
class Op:
    id: str
    arg: Any
    size: int = 1
    info: dict = dataclasses.field(default_factory=dict)


class Workload:
    name = ""
    # A campaign fills module-global caches, so each of its passes needs a
    # fresh process: users pay the cold fill on every ``matchpow verify``.
    campaign = False

    def setup(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def fresh(self, op: Op) -> Any:
        """The op's argument as a caller would first hand it over (untimed)."""
        return op.arg

    def call(self, arg: Any) -> Any:
        raise NotImplementedError

    def check(self, op: Op, out: Any) -> int:
        """Number of the op's instances whose output is wrong."""
        raise NotImplementedError

    def skipped_oracle(self, out: Any) -> int:
        return 0


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


class Thm34(Workload):
    name = "thm34"
    campaign = True

    def setup(self, seed: int) -> list[Op]:
        return [Op("thm34", (THM34_MAX_N, THM34_MAX_WEIGHT), THM34_INSTANCES)]

    def call(self, arg: Any) -> Any:
        max_n, max_weight = arg
        return verify_thm34_exhaustive(max_n=max_n, max_weight=max_weight, workers=1)

    def check(self, op: Op, out: Any) -> int:
        if out["instances"] != op.size or out["low_power_checked"] != op.size:
            return op.size  # a wrong corpus count voids every verdict in it
        bad = (
            out["disagreement_count"]
            + len(out["low_power_violations"])
            + len(out["constant_degree_violations"])
        )
        return min(op.size, bad)

    def skipped_oracle(self, out: Any) -> int:
        return out["skipped_oracle"]


class Thm11(Workload):
    name = "thm11"
    campaign = True

    def setup(self, seed: int) -> list[Op]:
        return [Op("thm11", THM11_MAX_N, THM11_GRAPHS)]

    def call(self, arg: Any) -> Any:
        return verify_thm11_exhaustive(max_n=arg, workers=1)

    def check(self, op: Op, out: Any) -> int:
        if out["graphs_checked"] != op.size:
            return op.size
        return min(op.size, len(out["failures"]))


# ---------------------------------------------------------------------------
# betti-dense: one op decides one equigenerated-or-not ideal
# ---------------------------------------------------------------------------


def _path(n: int, weights: dict | None = None) -> WeightedOrientedGraph:
    return WeightedOrientedGraph.build(n, [(i, i + 1) for i in range(1, n)], weights)


def _squarefree_veronese(n: int, d: int) -> MonomialIdeal:
    gens = (
        Monomial(tuple(1 if i in c else 0 for i in range(n)))
        for c in combinations(range(n), d)
    )
    return MonomialIdeal(n, tuple(sorted(gens)))


def _maximal_ideal_power(n: int, d: int) -> MonomialIdeal:
    gens = []
    for c in combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in c:
            exps[i] += 1
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(n, tuple(sorted(gens)))


def table_verdicts(table: Any, degree: int | None) -> tuple[bool, bool]:
    """(linearly related, linear resolution) read off a Betti table."""
    if degree is None:
        return False, False
    entries = table.entries
    linrel = all(sum(a) == degree + 1 for (i, a) in entries if i == 1)
    linres = all(sum(a) == degree + i for (i, a) in entries)
    return linrel, linres


class BettiDense(Workload):
    """Every matching power of the paths P8..P12, squarefree Veronese ideals
    up to (9, 4), m^2 in 7 and m^3 in 5 variables, and matching powers of
    seeded random weighted forests.  Negatives exit the lcm scan early and
    positives scan all of it, so a change that favours one kind shows."""

    name = "betti-dense"

    def setup(self, seed: int) -> list[Op]:
        ops = []
        for n in PATHS:
            I = edge_ideal(_path(n))
            top = n // 2
            for k in range(1, top + 1):
                ops.append(Op(f"P{n}k{k}", matching_power(I, k), info={"poly": k == top}))
        for n, d in VERONESE:
            ops.append(Op(f"sqV{n},{d}", _squarefree_veronese(n, d), info={"poly": True}))
        for n, d in MAXIMAL_POWERS:
            ops.append(Op(f"m{d}({n})", _maximal_ideal_power(n, d), info={"poly": True}))
        rng = SplitMix64(seed)
        randoms: list[Op] = []
        while len(randoms) < BETTI_RANDOM_IDEALS:
            D = build_random_forest(rng.randint(*BETTI_RANDOM_VERTICES), 3, rng)
            idx = len(randoms)
            for k in range(2, matching_number(D) + 1):
                I = matching_power_from_matchings(D, k)
                if len(I.gens) <= BETTI_RANDOM_MAX_GENERATORS:
                    randoms.append(Op(f"R{idx}k{k}", I))
        ops += randoms[:BETTI_RANDOM_IDEALS]
        expected = json.loads(EXPECTED_VERDICTS.read_text())
        for op in ops:
            op.info["expected"] = expected.get(op.id)
        return ops

    def call(self, I: MonomialIdeal) -> dict[str, Any]:
        out: dict[str, Any] = {"linrel": is_linearly_related(I)}
        g = len(I.gens)
        if g <= BETTI_TABLE_MAX_GENERATORS:
            out["linres"] = has_linear_resolution(I)
            out["table"] = betti_numbers(I)
            if g <= BETTI_Q_MAX_GENERATORS:
                out["linres_q"] = has_linear_resolution(I, FIELD_RATIONALS)
                out["table_q"] = betti_numbers(I, FIELD_RATIONALS)
        return out

    def check(self, op: Op, out: dict[str, Any]) -> int:
        linrel = out["linrel"]
        ok = linrel or not op.info.get("poly")
        if "table" in out:
            t_linrel, t_linres = table_verdicts(out["table"], op.arg.is_equigenerated())
            ok = ok and (t_linrel, t_linres) == (linrel, out["linres"])
        if "table_q" in out:
            ok = ok and out["table_q"].entries == out["table"].entries
            ok = ok and out["linres_q"] == out["linres"]
        expected = op.info.get("expected") or {}
        ok = ok and all(out[k] == v for k, v in expected.items() if k in out)
        return 0 if ok else 1


# ---------------------------------------------------------------------------
# forest-scale: the classifier on a few large forests
# ---------------------------------------------------------------------------


def same_tree(a: Any, b: Any) -> bool:
    """Structural equality of two certificate trees without recursion (the
    generated ``__eq__`` recurses once per level and overflows on long paths)."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if dataclasses.is_dataclass(x):
            stack.extend(
                (getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x)
            )
        elif x != y:
            return False
    return True


class ForestScale(Workload):
    """Weighted paths of 100..1500 vertices, samples of the constructed
    ν = 3..5 families (positive by construction) and seeded random forests on
    20..60 vertices (mostly refuted within a few steps)."""

    name = "forest-scale"

    def setup(self, seed: int) -> list[Op]:
        ops = [Op(f"W{n}", _path(n, {n: 2}), info={"positive": True}) for n in LONG_PATHS]
        ops += [
            Op(f"S{n}", _path(n, {n: 2}), info={"positive": True, "replay": True})
            for n in SHORT_PATHS
        ]
        rng = SplitMix64(seed)
        for nu in FAMILY_NUS:
            family = list(
                construct_linear_forests(nu, budget=FAMILY_LEVEL_CAP, level_cap=FAMILY_LEVEL_CAP)
            )
            start = rng.randrange(max(1, len(family) // FAMILY_SAMPLE))
            for idx in range(FAMILY_SAMPLE):
                D = family[(start + idx * len(family) // FAMILY_SAMPLE) % len(family)]
                ops.append(Op(f"F{nu}.{idx}", D, info={"positive": True, "replay": True}))
        lo, hi = RANDOM_FOREST_VERTICES
        for idx in range(RANDOM_FORESTS):
            D = build_random_forest(lo + idx * (hi - lo) // RANDOM_FORESTS, 3, rng)
            ops.append(Op(f"R{idx}", D))
        return ops

    def fresh(self, op: Op) -> tuple[WeightedOrientedGraph, bool]:
        # A new graph object each pass: its cached properties start cold.
        D = op.arg
        return WeightedOrientedGraph(D.n, D.edges, D.weights, D.vertices, D.names), bool(
            op.info.get("replay")
        )

    def call(self, arg: tuple[WeightedOrientedGraph, bool]) -> dict[str, Any]:
        D, replay = arg
        cert = classify_last_power(D)
        out = {"cert": cert, "replayed": verify_certificate(D, cert) if replay else None}
        out["back"] = certificate_from_doc(certificate_to_doc(cert))
        return out

    def check(self, op: Op, out: dict[str, Any]) -> int:
        cert = out["cert"]
        ok = out["replayed"] is not False and same_tree(cert, out["back"])
        ok = ok and (cert.verdict or not op.info.get("positive"))
        return 0 if ok else 1


WORKLOADS: dict[str, Callable[[], Workload]] = {
    w.name: w for w in (Thm34, Thm11, BettiDense, ForestScale)
}


def run_pass(workload: Workload, ops: list[Op], meter: Any = None) -> dict[str, Any]:
    """Closed loop over the ops: each starts when the previous one returned.
    An op that raises is counted, with all its instances, and the pass goes on.

    With ``meter`` (a ``speed.Speedometer``), each op's time leaves out the
    meter's readings taken inside it, and the op records as ``ref_s`` the
    mean reading around it."""
    res: dict[str, Any] = {
        "timed_s": 0.0,
        "attempted": 0,
        "raised": 0,
        "check_failed": 0,
        "skipped_oracle": 0,
        "ops": {},
    }
    spans = []
    if meter is not None:
        meter.read()
    for op in ops:
        arg = workload.fresh(op)
        error = None
        t0 = perf_counter()
        try:
            out = workload.call(arg)
        except Exception as exc:  # noqa: BLE001 - a failing op is a result
            t1 = perf_counter()
            error = type(exc).__name__
            bad = op.size
            res["raised"] += bad
            del exc
        else:
            t1 = perf_counter()
            bad = workload.check(op, out)
            res["check_failed"] += bad
            res["skipped_oracle"] += workload.skipped_oracle(out)
            del out
        res["attempted"] += op.size
        res["ops"][op.id] = rec = {"s": t1 - t0, "size": op.size, "bad": bad, "error": error}
        spans.append((rec, t0, t1))
    if meter is not None:
        meter.read()
        for rec, t0, t1 in spans:
            busy, rec["ref_s"] = meter.over(t0, t1)
            rec["s"] -= busy
    res["timed_s"] = sum(rec["s"] for rec, _, _ in spans)
    return res
