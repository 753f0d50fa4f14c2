"""Command-line interface.

Exit codes: 0 success / property holds, 1 property violated / negative
verdict, 2 usage or resource errors.  Worker count comes from --workers or
the MATCHPOW_WORKERS environment variable (the flag wins).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional

from .betti import (
    FIELD_GF2,
    FIELD_RATIONALS,
    GeneratorCapError,
    betti_numbers,
    has_linear_resolution,
    is_linearly_related,
)
from .classify import classify_last_power, verify_certificate
from .exchange import check_exchange
from .generate import construct_linear_forests
from .graphs import matching_number
from .harness import (
    verify_lemma22,
    verify_lemma31,
    verify_thm11_exhaustive,
    verify_thm11_random,
    verify_thm34_exhaustive,
    verify_thm34_random,
)
from .powers import matching_power
from .powers import edge_ideal
from .serialize import (
    certificate_to_doc,
    ideal_to_doc,
    load_graph,
    load_ideal,
    save_graph,
    save_ideal,
)

USAGE_ERROR = 2


def _emit(doc: Any) -> None:
    json.dump(doc, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def _json_members(container: Any, pad: str):
    """(text before it, member) for each member of a nonempty JSON container."""
    sep = pad
    if isinstance(container, dict):
        for key, value in container.items():
            # json's rule for keys: a string as it is, a scalar by its JSON text
            yield sep + json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": ", value
            sep = "," + pad
    else:
        for value in container:
            yield sep, value
            sep = "," + pad


def _json_text(doc: Any) -> str:
    """``json.dumps(doc, indent=2)`` on an explicit stack: a certificate nests
    two objects per classifier level, deeper than ``json.dumps`` can recurse
    on long paths."""
    parts: list[str] = []
    stack = []  # (members left, closing text) per open container
    value = doc
    while True:
        if isinstance(value, (dict, list, tuple)) and value:
            pad = "\n" + "  " * len(stack)
            brackets = "{}" if isinstance(value, dict) else "[]"
            parts.append(brackets[0])
            stack.append((_json_members(value, pad + "  "), pad + brackets[1]))
        else:
            parts.append(json.dumps(value))
        while stack:
            members, closing = stack[-1]
            member = next(members, None)
            if member is not None:
                parts.append(member[0])
                value = member[1]
                break
            parts.append(closing)
            stack.pop()
        else:
            return "".join(parts)


def _load_graph_normalized(path: str):
    D = load_graph(path)
    normalized = D.normalize_sources()
    adjusted = [
        D.name_of(v)
        for v in D.vertices
        if D.weight(v) != normalized.weight(v)
    ]
    if adjusted:
        print(
            f"note: reset source weights to 1 for: {', '.join(adjusted)}",
            file=sys.stderr,
        )
    return normalized


def _write_reports(path: Optional[str], reports: list[dict[str, Any]]) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as f:
        for doc in reports:
            f.write(json.dumps(doc, default=str) + "\n")


def _cmd_classify(args) -> int:
    D = _load_graph_normalized(args.graph)
    cert = classify_last_power(D)
    if args.certificate:
        Path(args.certificate).write_text(
            _json_text(certificate_to_doc(cert)) + "\n", encoding="utf-8"
        )
    replay = None
    if args.verify:
        replay = verify_certificate(D, cert)
    _emit(
        {
            "polymatroidal_last_power": cert.verdict,
            "matching_number": matching_number(D),
            **({"certificate_verified": replay} if replay is not None else {}),
        }
    )
    if args.verify and not replay:
        return USAGE_ERROR
    return 0 if cert.verdict else 1


def _cmd_power(args) -> int:
    D = _load_graph_normalized(args.graph)
    I = matching_power(edge_ideal(D), args.k)
    if args.ideal_out:
        save_ideal(I, args.ideal_out)
    _emit(ideal_to_doc(I))
    return 0


def _cmd_betti(args) -> int:
    I = load_ideal(args.ideal)
    table = betti_numbers(I, args.field)
    doc: dict[str, Any] = {
        "field": args.field,
        "total": [
            {"i": i, "degree": j, "rank": r}
            for (i, j), r in sorted(table.totalized().items())
        ],
        "regularity": table.regularity(),
    }
    if args.multigraded:
        doc["multigraded"] = [
            {"i": i, "multidegree": list(a), "rank": r}
            for (i, a), r in sorted(table.entries.items())
        ]
    _emit(doc)
    return 0


def _cmd_check(args) -> int:
    I = load_ideal(args.ideal)
    if args.property == "poly":
        ok, failure = check_exchange(I)
        doc: dict[str, Any] = {"polymatroidal": ok}
        if not ok:
            if failure is not None:
                doc["witness"] = {
                    "u": list(failure.u.exponents),
                    "v": list(failure.v.exponents),
                    "i": failure.i,
                }
            else:
                doc["reason"] = "not generated in a single degree"
        _emit(doc)
        return 0 if ok else 1
    if args.property == "linear":
        ok = has_linear_resolution(I)
        _emit({"linear_resolution": ok})
        return 0 if ok else 1
    ok = is_linearly_related(I)
    _emit({"linearly_related": ok})
    return 0 if ok else 1


def _summary_ok(summary: dict[str, Any], keys: tuple[str, ...]) -> bool:
    return all(not summary.get(k) for k in keys)


def _given(args, *names: str) -> dict[str, Any]:
    """Options the command line set, 0 included; an omitted one keeps its default."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _cmd_verify(args) -> int:
    workers = getattr(args, "workers", None)
    if args.theorem == "thm11":
        if args.exhaustive:
            summary = verify_thm11_exhaustive(workers=workers, **_given(args, "max_n"))
            reports = []
        else:
            summary = verify_thm11_random(**_given(args, "trials", "max_n", "seed"))
            reports = summary.pop("reports", [])
        _write_reports(args.out, reports)
        _emit(summary)
        return 0 if not summary["failures"] else 1
    if args.theorem == "thm34":
        if args.exhaustive:
            summary = verify_thm34_exhaustive(
                workers=workers, **_given(args, "max_n", "max_weight")
            )
            _write_reports(args.out, summary.get("disagreements", []))
            _emit(summary)
            ok = _summary_ok(
                summary,
                ("disagreement_count", "low_power_violations", "constant_degree_violations"),
            )
            return 0 if ok else 1
        summary = verify_thm34_random(**_given(args, "trials", "max_n", "max_weight", "seed"))
        reports = summary.pop("reports", [])
        _write_reports(args.out, reports)
        _emit(summary)
        return 0 if not summary["disagreements"] else 1
    if args.theorem == "lemma22":
        summary = verify_lemma22(**_given(args, "pairs", "max_n", "max_weight", "seed"))
        reports = summary.pop("reports", [])
        _write_reports(args.out, reports)
        _emit(summary)
        return 0 if not summary["failures"] else 1
    summary = verify_lemma31(**_given(args, "max_n"))
    _emit(summary)
    return 0 if not summary["mismatches"] else 1


def _cmd_enumerate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for idx, D in enumerate(construct_linear_forests(args.nu, args.budget)):
        path = out_dir / f"forest_{args.nu}_{idx:05d}.json"
        save_graph(D, path)
        written.append(str(path))
    _emit({"generated": len(written), "directory": str(out_dir)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    # --workers goes before the subcommand or after verify; with SUPPRESS the
    # verify parser keeps a value given before it, and args lack it when omitted
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument(
        "--workers", type=int, default=argparse.SUPPRESS, help="process count for verification runs"
    )
    parser = argparse.ArgumentParser(
        prog="matchpow",
        description=(
            "Matching powers of edge ideals of weighted oriented graphs: "
            "classification, exchange checks, and Betti-number oracles."
        ),
        parents=[workers],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide polymatroidality of the last matching power")
    p.add_argument("graph")
    p.add_argument("--certificate", help="write the certificate document here")
    p.add_argument(
        "--verify",
        action="store_true",
        help="replay the certificate (no depth limit, each power built once, "
        "but cost exponential in the matching number)",
    )
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("power", help="compute a matching power of the edge ideal")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ideal-out", help="write the ideal document here")
    p.set_defaults(fn=_cmd_power)

    p = sub.add_parser("betti", help="Betti table of a monomial ideal")
    p.add_argument("ideal")
    p.add_argument("--field", choices=[FIELD_GF2, FIELD_RATIONALS], default=FIELD_GF2)
    p.add_argument("--multigraded", action="store_true")
    p.set_defaults(fn=_cmd_betti)

    p = sub.add_parser("check", help="decide a property of a monomial ideal")
    p.add_argument("property", choices=["poly", "linear", "linrel"])
    p.add_argument("ideal")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("verify", help="run a verification campaign", parents=[workers])
    p.add_argument("theorem", choices=["thm11", "thm34", "lemma22", "lemma31"])
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--trials", type=int)
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--max-weight", type=int, dest="max_weight")
    p.add_argument("--pairs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write line-delimited report documents here")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "enumerate", help="construct forests whose last power is polymatroidal"
    )
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_enumerate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GeneratorCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (RecursionError, MemoryError) as exc:
        # an uncaught exception exits 1, which reads as a negative verdict
        print(f"error: input too large ({exc!r})", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
