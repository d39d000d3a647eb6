"""Acceptance criteria, one test per criterion.

Each test prints an ``ACCEPTANCE n: PASS/FAIL`` line (visible with -s, or in
the captured output on failure); the assertions enforce the criterion
exactly, with no tolerances beyond those stated.
"""

import hashlib
import json
import random
import subprocess
import sys
import time

import pytest

from centerbound.config import Config
from centerbound.corpus import build_group, default_corpus, direct_product, \
    parse_group_spec
from centerbound.group import Group, Subgroup
from centerbound.perm import Perm, commutator
from centerbound.rank import abelian_rank, shrink_generating_set
from centerbound.statements import evaluate
from centerbound.structure import structure_report
from centerbound.witness import (commutator_product_layers,
                                 factorize_commutator, select_socle_chain)

from _oracles import center_oracle, closure, derived_oracle

CORPUS_RUNTIME_LIMIT = 600  # seconds, per corpus run
# sha256 of the default corpus report (seed 0, default caps); a change that
# moves it changes what the report says and must say why
CORPUS_REPORT_SHA256 = (
    "44276ff90c2c55a292bb7c54cf001577677494ea52557e29be2f5aad2d435fb4")


def report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}", flush=True)
    assert passed, detail


@pytest.fixture(scope="module")
def corpus_groups():
    return {spec.label: build_group(spec) for spec in default_corpus().specs}


@pytest.fixture(scope="module")
def corpus_runs(tmp_path_factory):
    """Two full `corpus` command runs with identical config and seed."""
    tmp = tmp_path_factory.mktemp("corpus")
    paths = [tmp / "run_a.jsonl", tmp / "run_b.jsonl"]
    elapsed = []
    for path in paths:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "centerbound.cli", "corpus",
             "--out", str(path), "--seed", "0"],
            capture_output=True, text=True)
        elapsed.append(time.monotonic() - start)
        assert proc.returncode in (0, 3), proc.stderr
    return paths, elapsed


def _records_and_summary(path):
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])["summary"]
    return records, summary


def test_criterion_1_corpus_soundness(corpus_runs):
    (path_a, _), elapsed = corpus_runs
    records, summary = _records_and_summary(path_a)
    corpus = default_corpus()
    violating = [r for r in records
                 if r["applicable"] and r["computable"] and not r["holds"]]
    bad_witness_indices = [
        r["label"] for r in records
        if "witness" in r and any(not w["ok"]
                                  for w in r["witness"]["per_prime"].values())]
    passed = (len(corpus.specs) >= 120
              and not violating
              and not bad_witness_indices
              and summary["violations"] == 0
              and elapsed[0] <= CORPUS_RUNTIME_LIMIT)
    report(1, passed,
           f"{len(corpus.specs)} groups, {len(records)} verdicts, "
           f"{len(violating)} violations, "
           f"{len(bad_witness_indices)} bad per-prime witness indices, "
           f"{summary['uncomputable']} uncomputable, "
           f"runtime {elapsed[0]:.1f}s <= {CORPUS_RUNTIME_LIMIT}s")


def test_corpus_records_validate_against_schema(corpus_runs):
    jsonschema = pytest.importorskip("jsonschema")
    from centerbound.cli import REPORT_SCHEMA
    (path_a, _), _ = corpus_runs
    records, _ = _records_and_summary(path_a)
    for record in records:
        jsonschema.validate(record, REPORT_SCHEMA)


def test_criterion_1_corpus_orders(corpus_groups):
    oversized = [label for label, G in corpus_groups.items()
                 if G.order() > 20000]
    report(1, not oversized, f"all corpus orders <= 20000 ({oversized!r})")


def test_criterion_2_spot_values():
    cfg = Config()
    checks = []

    v = evaluate("T5", build_group(parse_group_spec("family:symmetric(3)")),
                 cfg)
    checks.append(("Sym(3) T5 violating count 0",
                   (v.lhs, v.rhs, v.holds) == (0, 0, True)))
    v = evaluate("T6", build_group(parse_group_spec("family:symmetric(3)")),
                 cfg)
    checks.append(("Sym(3) T6 is 6 <= 9",
                   (v.lhs, v.rhs, v.holds) == (6, 9, True)))
    v = evaluate("T2", build_group(parse_group_spec(
        "family:direct_product(symmetric(3),dihedral(4))")), cfg)
    checks.append(("Sym(3)xDih(4) T2 is 6 <= 36",
                   (v.lhs, v.rhs, v.holds) == (6, 36, True)))
    v = evaluate("T7", build_group(parse_group_spec("family:dihedral(4)")),
                 cfg)
    checks.append(("Dih(4) T7 is 0 <= 0",
                   (v.lhs, v.rhs, v.holds) == (0, 0, True)))
    for text in ("cyclic(12)", "elem_abelian(2,3)"):
        G = build_group(parse_group_spec("family:" + text))
        for tag in ("T1", "T2", "T3"):
            v = evaluate(tag, G, cfg)
            checks.append((f"abelian {text} {tag} lhs 1",
                           v.lhs == 1 and v.holds))
    failed = [name for name, ok in checks if not ok]
    report(2, not failed, f"{len(checks)} spot values ({failed!r})")


def test_criterion_3_kernel_oracle_equivalence(corpus_groups):
    from centerbound.structure import center, derived_subgroup, second_center
    checked = 0
    for label, G in sorted(corpus_groups.items()):
        if G.order() > 5000:
            continue
        elems = closure(G.degree, G.generators)
        assert G.order() == len(elems), label
        for p in elems:
            assert G.contains(p), label
        rng = random.Random(f"membership:{label}")
        for _ in range(20):
            images = list(range(1, G.degree + 1))
            rng.shuffle(images)
            p = Perm(images)
            assert G.contains(p) == (p in elems), label
        z = center_oracle(elems)
        assert set(center(G).elements()) == z, label
        assert set(derived_subgroup(G).elements()) == \
            derived_oracle(G.degree, elems), label
        inv = {g: g.inverse() for g in elems}
        z2 = {g for g in elems
              if all(inv[g] * inv[x] * g * x in z for x in elems)}
        assert set(second_center(G).elements()) == z2, label
        checked += 1
    report(3, checked == len(corpus_groups),
           f"order/membership/center/derived/second-center oracle "
           f"equivalence on {checked} groups of order <= 5000")


def _random_abelian_p_group_with_family(rng):
    p = rng.choice((2, 3, 5))
    max_exp = {2: 3, 3: 2, 5: 2}[p]
    exponents = [rng.randint(1, max_exp) for _ in range(rng.randint(1, 3))]
    A = build_group(parse_group_spec(f"family:cyclic({p ** exponents[0]})"))
    for e in exponents[1:]:
        A = direct_product(
            A, build_group(parse_group_spec(f"family:cyclic({p ** e})")))
    elems = A.elements()
    family = []
    for _ in range(rng.randint(2, 5)):
        gens = [rng.choice(elems) for _ in range(rng.randint(1, 2))]
        family.append(Subgroup(A, gens))
    meet = set(elems)
    for H in family:
        meet &= set(H.elements())
    if len(meet) > 1:
        family.append(Subgroup(A, []))
    rng.shuffle(family)
    return A, family


def test_criterion_4_socle_chain_property_suite():
    rng = random.Random("acceptance-socle-suite")
    failures = []
    for i in range(200):
        A, family = _random_abelian_p_group_with_family(rng)
        sel = select_socle_chain(A, family)
        if len(sel.chosen) > abelian_rank(A):
            failures.append((i, "size"))
            continue
        running = set(A.elements())
        for H in sel.chosen:
            running &= set(H.elements())
        if sel.chosen and len(running) != 1:
            failures.append((i, "intersection"))
    report(4, not failures,
           f"200 seeded socle-chain instances, {len(failures)} failures")


def test_criterion_5_factorization_completeness(corpus_groups):
    from centerbound.arith import is_prime_power
    from centerbound.structure import derived_subgroup
    checked = 0
    failures = []
    for label, G in sorted(corpus_groups.items()):
        order = G.order()
        if order == 1 or order > 729 or is_prime_power(order) is None:
            continue
        anchors = shrink_generating_set(G, list(G.generators))
        layers = commutator_product_layers(G, anchors)
        derived = set(derived_subgroup(G).elements())
        if not derived <= set(layers[-1]):
            failures.append((label, "layer coverage"))
            continue
        for w in sorted(derived):
            xs = factorize_commutator(G, anchors, w)
            product = G.identity_element()
            for x, a in zip(xs, anchors):
                product = product * commutator(x, a)
            if product != w:
                failures.append((label, str(w)))
        checked += 1
    report(5, checked >= 20 and not failures,
           f"every derived element factorised on {checked} p-groups of "
           f"order <= 729, {len(failures)} failures")


def test_criterion_6_decomposition_identity(corpus_groups):
    failures = []
    for label, G in sorted(corpus_groups.items()):
        sr = structure_report(G)
        lhs = sr.orders["group"] // sr.orders["second_center"]
        product = ((sr.orders["group"] // sr.orders["dee"])
                   * (sr.orders["dee"] // sr.orders["centralizer_of_derived"])
                   * (sr.orders["centralizer_of_derived"]
                      // sr.orders["second_center"]))
        if lhs != product:
            failures.append(label)
    report(6, not failures,
           f"|G:Z2| = |G:D| |D:C| |C:Z2| exactly on "
           f"{len(corpus_groups)} groups ({failures!r})")


def test_criterion_7_determinism(corpus_runs):
    (path_a, path_b), _ = corpus_runs
    identical = path_a.read_bytes() == path_b.read_bytes()
    report(7, identical,
           f"two corpus runs, {len(path_a.read_bytes())} bytes, "
           f"byte-identical={identical}")


def test_corpus_report_digest(corpus_runs):
    (path_a, _), _ = corpus_runs
    assert hashlib.sha256(path_a.read_bytes()).hexdigest() == \
        CORPUS_REPORT_SHA256


def test_criterion_8_szivas_exponent_probe(corpus_runs):
    (path_a, _), _ = corpus_runs
    records, summary = _records_and_summary(path_a)
    ls_records = [r for r in records if r["statement"] == "LS"
                  and r["applicable"] and r["computable"]]
    two_r_failures = [r for r in ls_records if not r["holds"]]
    exceeds = [r["label"] for r in ls_records
               if "form exceeds" in r["notes"]]
    # data, not pass/fail: report how often the printed exponent-r form
    # would have failed; only the checked 2r form must always hold
    print(f"ACCEPTANCE 8 data: printed exponent-r form exceeds on "
          f"{len(exceeds)} of {len(ls_records)} groups {exceeds!r}",
          flush=True)
    passed = (not two_r_failures
              and summary["szivas_printed_exponent_form_exceeds"]
              == len(exceeds))
    report(8, passed,
           f"2r form holds on all {len(ls_records)} applicable groups; "
           f"r-form data recorded")
