"""Command-line front end.

Commands:

* info SPEC                 -- structural invariants of one group
* check SPEC [--statements] -- evaluate statements, exit code signals outcome
* corpus [--out PATH]       -- evaluate everything over the corpus
* witness LEMMA SPEC        -- dump a re-verified constructive witness

Exit codes: 0 all applicable+computable verdicts hold; 2 a verdict is
violated, a hypothesis error (NotPGroup, NotNormal, BadAnchors, ...) was
raised, or an internal assertion failed; 3 something was not computable
under the caps (for info, a rank printed as Unknown); 4 build/parse
errors, including DegreeMismatch; 5 output I/O errors.  Errors end in a
one-line message on stderr, never a traceback.

Reports are byte-identical across runs for a fixed config and seed: record
lists are sorted, JSON keys are sorted, and all sampling is seeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .config import Config, build_config
from .corpus import (Corpus, _utf8_lines, build_group, default_corpus,
                     parse_group_spec)
from .errors import (ArgOutOfRange, CapExceeded, CenterboundError,
                     DegreeMismatch, ParseError, UnknownFamily)
from .group import Group
from .perm import format_perm
from .rank import (UnknownRank, all_subgroups, group_rank, min_generators,
                   shrink_generating_set)
from .statements import STATEMENT_TAGS, Verdict, evaluate_all, evaluate
from .structure import (center, derived_subgroup, is_subgroup_of,
                        structure_report)
from .witness import (also_witness, factorize_commutator, select_socle_chain,
                      szivas_witness)

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "centerbound statement record",
    "type": "object",
    "required": ["label", "statement", "applicable", "computable",
                 "lhs", "rhs", "holds", "notes"],
    "additionalProperties": False,
    "properties": {
        "label": {"type": "string"},
        "statement": {"enum": list(STATEMENT_TAGS)},
        "applicable": {"type": "boolean"},
        "computable": {"type": "boolean"},
        "lhs": {"type": "integer"},
        "rhs": {"type": "integer"},
        "holds": {"type": "boolean"},
        "notes": {"type": "string"},
        "witness": {
            "type": "object",
            "required": ["xs", "per_prime"],
            "additionalProperties": False,
            "properties": {
                "xs": {"type": "array", "items": {"type": "string"}},
                "per_prime": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "object",
                        "required": ["prime", "xs", "index", "n_p",
                                     "exponent", "bound", "ok"],
                        "properties": {
                            "prime": {"type": "integer"},
                            "xs": {"type": "array",
                                   "items": {"type": "string"}},
                            "tee_order": {"type": "integer"},
                            "em_order": {"type": ["integer", "null"]},
                            "index": {"type": "integer"},
                            "n_p": {"type": "integer"},
                            "exponent": {"type": "integer"},
                            "bound": {"type": "integer"},
                            "ok": {"type": "boolean"},
                        },
                    },
                },
            },
        },
    },
}

_CSV_COLUMNS = ["label", "statement", "applicable", "computable", "lhs",
                "rhs", "holds", "notes", "prime", "witness_xs", "index",
                "n_p", "exponent", "bound", "ok"]


def _record(label: str, verdict: Verdict) -> dict:
    record = {"label": label}
    record.update(verdict.to_json())
    return record


def _dump_json(records: list[dict]) -> str:
    return "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":"))
                     for r in records)


def _dump_csv(records: list[dict]) -> str:
    import csv
    import io
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in records:
        base = [r["label"], r["statement"], r["applicable"], r["computable"],
                r["lhs"], r["rhs"], r["holds"], r["notes"]]
        witness = r.get("witness")
        if not witness or not witness["per_prime"]:
            writer.writerow(base + [""] * 7)
        else:
            # per-prime witness data flattens into repeated rows
            for prime in sorted(witness["per_prime"], key=int):
                w = witness["per_prime"][prime]
                writer.writerow(base + [w["prime"], " ".join(w["xs"]),
                                        w["index"], w["n_p"], w["exponent"],
                                        w["bound"], w["ok"]])
    return buffer.getvalue().rstrip("\n")


def _dump_table(records: list[dict]) -> str:
    headers = ["label", "statement", "app", "comp", "lhs", "rhs", "holds"]
    rows = [[r["label"], r["statement"], "y" if r["applicable"] else "n",
             "y" if r["computable"] else "n", str(r["lhs"]), str(r["rhs"]),
             "y" if r["holds"] else "VIOLATED"] for r in records]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _emit(records: list[dict], fmt: str) -> str:
    if fmt == "json":
        return _dump_json(records)
    if fmt == "csv":
        return _dump_csv(records)
    return _dump_table(records)


def _status(record: dict) -> str:
    """The summary count a record falls in."""
    if not record["applicable"]:
        return "vacuous"
    if not record["computable"]:
        return "uncomputable"
    return "hold" if record["holds"] else "violations"


def _exit_code(records: list[dict]) -> int:
    statuses = set(map(_status, records))
    if "violations" in statuses:
        return 2
    return 3 if "uncomputable" in statuses else 0


# -- commands ------------------------------------------------------------


def cmd_info(args, config: Config) -> int:
    G = build_group(parse_group_spec(args.spec))
    sr = structure_report(G, config.enumeration_cap, config.coset_cap)
    d = min_generators(sr.derived, config.enumeration_cap, config.tuple_cap)
    rank = group_rank(sr.derived, config.enumeration_cap,
                      config.subgroup_cap, config.tuple_cap)
    cent = sr.centralizer_of_derived
    class_two = is_subgroup_of(derived_subgroup(cent),
                               center(cent, config.enumeration_cap))
    rows = [
        ("order", sr.orders["group"]),
        ("|G'|", sr.orders["derived"]),
        ("|Z(G)|", sr.orders["center"]),
        ("|Z2(G)|", sr.orders["second_center"]),
        ("|C_G(G')|", sr.orders["centralizer_of_derived"]),
        ("|D|", sr.orders["dee"]),
        ("|G' n Z(G)|", sr.orders["zed"]),
        ("d(G')", d),
        ("rk(G')", rank),
        ("C_G(G') class <= 2", class_two),
    ]
    if config.output_format == "json":
        payload = {key: (repr(value) if isinstance(value, UnknownRank)
                         else value) for key, value in rows}
        payload["label"] = args.spec.strip()
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for key, value in rows:
            print(f"{key:>20}: {value}")
    return 3 if isinstance(rank, UnknownRank) else 0


def _statement_tags(text: str) -> list[str]:
    """The tags of a --statements list, in order and without repeats."""
    if text.strip().lower() == "all":
        return list(STATEMENT_TAGS)
    tags = list(dict.fromkeys(t.strip().upper() for t in text.split(",")
                              if t.strip()))
    if not tags:
        raise ParseError(f"no statement in {text!r}")
    for t in tags:
        if t not in STATEMENT_TAGS:
            raise ParseError(f"unknown statement {t!r}")
    return tags


def cmd_check(args, config: Config) -> int:
    try:
        tags = _statement_tags(args.statements)
    except ParseError as exc:
        print(f"bad statement list: {exc}", file=sys.stderr)
        return 4
    spec = parse_group_spec(args.spec)
    G = build_group(spec)
    verdicts = [evaluate(tag, G, config) for tag in tags]
    records = [_record(spec.label, v) for v in verdicts]
    print(_emit(records, config.output_format))
    code = _exit_code(records)
    if code == 2:
        print("counterexample candidates (implementation bug, "
              "the statements are theorems):", file=sys.stderr)
        for r in records:
            if _status(r) == "violations":
                print(json.dumps(r, sort_keys=True), file=sys.stderr)
    return code


def _load_corpus(path: str | None) -> Corpus:
    if path is None:
        return default_corpus()
    specs = []
    for lineno, raw in enumerate(_utf8_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            specs.append(parse_group_spec(line))
        except CenterboundError as exc:
            raise ParseError(f"{exc}", line=lineno) from None
    return Corpus(specs)


def cmd_corpus(args, config: Config) -> int:
    corpus = _load_corpus(args.corpus)
    records = [_record(spec.label, verdict) for spec in corpus.specs
               for verdict in evaluate_all(build_group(spec), config)]
    records.sort(key=lambda r: (r["label"], r["statement"]))
    statuses = Counter(map(_status, records))
    summary = {
        "groups": len(corpus.specs),
        "records": len(records),
        **{status: statuses[status] for status in (
            "hold", "vacuous", "uncomputable", "violations")},
        "szivas_printed_exponent_form_exceeds": sum(
            1 for r in records
            if r["statement"] == "LS" and "form exceeds" in r["notes"]),
    }
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":"))
             for r in records]
    lines.append(json.dumps({"summary": summary}, sort_keys=True,
                            separators=(",", ":")))
    payload = "\n".join(lines) + "\n"
    try:
        with open(args.out, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 5
    print(json.dumps({"summary": summary, "out": args.out}, sort_keys=True))
    return _exit_code(records)


def cmd_witness(args, config: Config) -> int:
    spec = parse_group_spec(args.spec)
    G = build_group(spec)
    cap, coset = config.enumeration_cap, config.coset_cap
    if args.lemma == "abel":
        return _witness_abel(G, spec.label, config)
    if args.lemma == "factorize":
        return _witness_factorize(G, spec.label, config)
    record = (also_witness if args.lemma == "also" else szivas_witness)(
        G, cap, coset, config.subgroup_cap, config.tuple_cap)
    payload = {"label": spec.label, "lemma": args.lemma,
               "witness": record.to_json()}
    if config.output_format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(f"{args.lemma} witness for {spec.label}")
        for p, w in sorted(record.per_prime.items()):
            xs = " ".join(format_perm(x) for x in w.xs) or "-"
            print(f"  p={p}: index={w.index} <= n_p^{w.exponent}={w.bound} "
                  f"(n_p={w.n_p}) ok={w.ok} xs: {xs}")
    return 0


def _witness_abel(G: Group, label: str, config: Config) -> int:
    if not G.is_abelian():
        print("hypotheses not met: group is not abelian", file=sys.stderr)
        return 2
    from .arith import is_prime_power
    if G.order() > 1 and is_prime_power(G.order()) is None:
        print("hypotheses not met: group is not a p-group", file=sys.stderr)
        return 2
    # demonstration family: all proper subgroups, largest first; the trivial
    # subgroup is a member, so the intersection is trivial
    subs = all_subgroups(G, config.subgroup_cap, config.enumeration_cap)
    family = [H for H in subs if H.order() < G.order()]
    family.sort(key=lambda H: -H.order())
    selection = select_socle_chain(G, family, config.enumeration_cap)
    payload = {
        "label": label,
        "lemma": "abel",
        "family_size": len(family),
        "chosen_orders": [H.order() for H in selection.chosen],
        "chain_orders": [H.order() for H in selection.chain],
    }
    if config.output_format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(f"abel witness for {label}: chose {len(selection.chosen)} of "
              f"{len(family)} subgroups, chain orders "
              f"{payload['chain_orders']}")
    return 0


def _witness_factorize(G: Group, label: str, config: Config) -> int:
    cap = config.enumeration_cap
    anchors = shrink_generating_set(G, list(G.generators), cap)
    derived = derived_subgroup(G)
    targets = list(derived.elements(cap))
    note = ""
    if len(targets) > 16:
        import random
        rng = random.Random(f"{config.seed}:factorize")
        targets = sorted(rng.sample(targets, 16))
        note = " (seeded sample of 16)"
    entries = []
    for w in targets:
        xs = factorize_commutator(G, anchors, w, cap)
        entries.append({"w": format_perm(w),
                        "xs": [format_perm(x) for x in xs],
                        "check": "ok"})
    payload = {"label": label, "lemma": "factorize",
               "anchors": [format_perm(a) for a in anchors],
               "entries": entries}
    if config.output_format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(f"factorize witness for {label}{note}; anchors: "
              + " ".join(payload["anchors"]))
        for e in entries:
            print(f"  w={e['w']}: xs: {' '.join(e['xs'])} check {e['check']}")
    return 0


# -- argument parsing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key=value config file")
    common.add_argument("--enumeration-cap", type=int, dest="enumeration_cap")
    common.add_argument("--subgroup-cap", type=int, dest="subgroup_cap")
    common.add_argument("--coset-cap", type=int, dest="coset_cap")
    common.add_argument("--tuple-cap", type=int, dest="tuple_cap")
    common.add_argument("--seed", type=int)
    common.add_argument("--format", dest="output_format",
                        choices=("json", "csv", "table"))

    parser = argparse.ArgumentParser(
        prog="centerbound",
        description="exact verification of rank bounds on finite groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", parents=[common],
                       help="structural invariants of one group")
    p.add_argument("spec", help="family:NAME(ARGS) or file:PATH")

    p = sub.add_parser("check", parents=[common],
                       help="evaluate statements on one group")
    p.add_argument("spec")
    p.add_argument("--statements", default="all",
                   help="comma-separated tags or 'all'")

    p = sub.add_parser("corpus", parents=[common],
                       help="evaluate all statements over the corpus")
    p.add_argument("--out", default="corpus_report.jsonl")
    p.add_argument("--corpus", metavar="PATH",
                   help="file of group specs overriding the default corpus")

    p = sub.add_parser("witness", parents=[common],
                       help="dump a re-verified constructive witness")
    p.add_argument("lemma", choices=("abel", "factorize", "also", "szivas"))
    p.add_argument("spec")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    flags = {key: getattr(args, key, None)
             for key in ("enumeration_cap", "subgroup_cap", "coset_cap",
                         "tuple_cap", "seed",
                         "output_format")}
    try:
        config = build_config(flags, args.config)
    except (OSError, ValueError) as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 4
    handler = {"info": cmd_info, "check": cmd_check,
               "corpus": cmd_corpus, "witness": cmd_witness}[args.command]
    try:
        return handler(args, config)
    except (UnknownFamily, ArgOutOfRange, ParseError, DegreeMismatch,
            OSError) as exc:
        print(f"cannot build group: {exc}", file=sys.stderr)
        return 4
    except CapExceeded as exc:
        print(f"not computable under caps: {exc}", file=sys.stderr)
        return 3
    except CenterboundError as exc:  # NotPGroup, NotNormal, BadAnchors, ...
        print(f"hypotheses not met: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant failed (implementation bug): {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
