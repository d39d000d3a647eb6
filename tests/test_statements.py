"""The statement catalog: spot values, applicability gates, soundness on a
sample, and the proof-decomposition identities."""

import hashlib
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given

from centerbound import rank, statements, structure
from centerbound.arith import is_prime_power, p_part, prime_factors
from centerbound.config import Config
from centerbound.corpus import build_group, default_corpus, parse_group_spec
from centerbound.errors import CapExceeded
from centerbound.group import (DEFAULT_ENUMERATION_CAP, DEFAULT_SUBGROUP_CAP,
                               DEFAULT_TUPLE_CAP, TABLE_CAP, Group, Subgroup)
from centerbound.perm import Perm
from centerbound.rank import (UnknownRank, all_subgroups, group_rank,
                              min_generators, normal_subgroups)
from centerbound.statements import (STATEMENT_TAGS, Verdict, evaluate,
                                    evaluate_all)
from centerbound.structure import (center, dee_subgroup, derived_subgroup,
                                   is_subgroup_of, quotient,
                                   quotient_by_center, second_center,
                                   structure_report, sylow)
from centerbound.table import _Perms, _table

from _oracles import centralizer_oracle, closure
from test_properties import DEFAULTS, groups


def group(text):
    return build_group(parse_group_spec("family:" + text))


CFG = Config()


class TestSpotValues:
    def test_t5_sym3_exact_equality(self):
        v = evaluate("T5", group("symmetric(3)"), CFG)
        assert v.applicable and v.computable
        assert (v.lhs, v.rhs, v.holds) == (0, 0, True)

    def test_t6_sym3(self):
        v = evaluate("T6", group("symmetric(3)"), CFG)
        assert (v.lhs, v.rhs, v.holds) == (6, 9, True)

    def test_t2_sym3_times_dih4(self):
        v = evaluate("T2", group("direct_product(symmetric(3),dihedral(4))"),
                     CFG)
        assert (v.lhs, v.rhs, v.holds) == (6, 36, True)

    def test_t7_dih4_degenerate(self):
        v = evaluate("T7", group("dihedral(4)"), CFG)
        assert v.applicable
        assert (v.lhs, v.rhs, v.holds) == (0, 0, True)

    @pytest.mark.parametrize("text", ["cyclic(12)", "elem_abelian(3,2)",
                                      "cyclic(1)"])
    def test_abelian_lhs_one(self, text):
        G = group(text)
        for tag in ("T1", "T2", "T3"):
            v = evaluate(tag, G, CFG)
            assert v.applicable and v.computable and v.holds
            assert v.lhs == 1

    def test_t2_abelian_rhs_one(self):
        v = evaluate("T2", group("cyclic(12)"), CFG)
        assert (v.lhs, v.rhs) == (1, 1)

    def test_t6_ck_exponents(self):
        G = group("symmetric(4)")
        v = evaluate("T6", G, CFG)
        assert (v.lhs, v.rhs) == (24, 12 ** 3)   # d(A4) = 2
        v = evaluate("CK", G, CFG)
        assert (v.lhs, v.rhs) == (24, 144)


class TestApplicabilityGates:
    def test_p_group_statements_vacuous_elsewhere(self):
        G = group("symmetric(6)")
        for tag in ("T7", "P1", "P2", "AUT"):
            v = evaluate(tag, G, CFG)
            assert not v.applicable
            assert v.holds and v.lhs == 0 and v.rhs == 0

    def test_trivial_center_gates(self):
        G = group("dihedral(4)")
        for tag in ("T5", "T6"):
            v = evaluate(tag, G, CFG)
            assert not v.applicable and v.holds

    def test_uncomputable_rank_never_guesses(self):
        v = evaluate("T1", group("symmetric(6)"), CFG)
        assert v.applicable and not v.computable
        assert "Unknown" in v.notes
        assert not v.violated

    @pytest.mark.parametrize("text,refused", [
        ("symmetric(4)", {
            "T1": "rank of G/Z(G) is Unknown(subgroup enumeration cap 1, "
                  "needed 24)",
            "T2": "rank of G' is Unknown(subgroup enumeration cap 1, "
                  "needed 12)",
            "T3": "rank of G'/zed is Unknown(subgroup enumeration cap 1, "
                  "needed 12)",
            "C4": "rank of H' is Unknown(subgroup enumeration cap 1, "
                  "needed 12)",
            "LA": "rank of G'/zed is Unknown(subgroup enumeration cap 1, "
                  "needed 12)",
            "LS": "rank of G'/zed is Unknown(subgroup enumeration cap 1, "
                  "needed 12)"}),
        ("dicyclic(8)", {
            "T1": "rank of G/Z(G) is Unknown(subgroup enumeration cap 1, "
                  "needed 16)",
            "T7": "rank of G/Z2 is Unknown(subgroup enumeration cap 1, "
                  "needed 8)"}),
    ])
    def test_unknown_rank_notes(self, text, refused):
        verdicts = evaluate_all(group(text), Config(subgroup_cap=1))
        got = {v.statement: v.notes for v in verdicts if not v.computable}
        assert got == refused
        assert all(v.lhs == v.rhs == 0 and v.holds for v in verdicts
                   if not v.computable)

    def test_evaluate_all_trivial_group(self):
        for v in evaluate_all(group("cyclic(1)"), CFG):
            assert v.holds
            assert v.lhs <= v.rhs <= 1

    def test_evaluate_all_sym4(self):
        verdicts = {v.statement: v for v in evaluate_all(group("symmetric(4)"),
                                                         CFG)}
        assert set(verdicts) == set(STATEMENT_TAGS)
        for tag in ("T1", "T2", "T3", "C4", "T5", "T6", "L9", "LK", "CK",
                    "LA", "LB", "LS", "FOC"):
            assert verdicts[tag].applicable and verdicts[tag].holds
        for tag in ("T7", "P1", "P2", "AUT"):
            assert not verdicts[tag].applicable

    def test_evaluate_all_heisenberg(self):
        verdicts = {v.statement: v for v in evaluate_all(group("heisenberg(3)"),
                                                         CFG)}
        for tag in ("T7", "P1", "P2", "AUT"):     # p-group statements apply
            assert verdicts[tag].applicable
        for tag in ("T5", "T6"):                  # center is nontrivial
            assert not verdicts[tag].applicable
        for v in verdicts.values():
            assert v.holds and v.computable


class TestSoundnessSample:
    SAMPLE = ("symmetric(5)", "alternating(5)", "dicyclic(8)",
              "dihedral(32)", "heisenberg(5)",
              "direct_product(symmetric(4),heisenberg(3))",
              "direct_product(dicyclic(2),dihedral(4))")

    @pytest.mark.parametrize("text", SAMPLE)
    def test_no_violations(self, text):
        for v in evaluate_all(group(text), CFG):
            assert not v.violated, (text, v)

    @pytest.mark.parametrize("text", SAMPLE)
    def test_verdict_shape_invariants(self, text):
        for v in evaluate_all(group(text), CFG):
            if not v.applicable:
                assert v.holds and v.lhs == 0 and v.rhs == 0
            if v.holds and v.computable and v.applicable:
                assert v.lhs <= v.rhs


class TestDecompositionIdentities:
    SAMPLE = ("symmetric(4)", "dicyclic(4)", "dihedral(16)",
              "direct_product(symmetric(3),dihedral(4))", "heisenberg(3)")

    @pytest.mark.parametrize("text", SAMPLE)
    def test_index_chain_product(self, text):
        G = group(text)
        sr = structure_report(G)
        lhs = sr.orders["group"] // sr.orders["second_center"]
        product = ((sr.orders["group"] // sr.orders["dee"])
                   * (sr.orders["dee"] // sr.orders["centralizer_of_derived"])
                   * (sr.orders["centralizer_of_derived"]
                      // sr.orders["second_center"]))
        assert lhs == product

    @pytest.mark.parametrize("text", SAMPLE)
    def test_t1_per_prime_form(self, text):
        G = group(text)
        sr = structure_report(G)
        pres = quotient_by_center(G)
        r = group_rank(pres.quotient)
        assert not isinstance(r, UnknownRank)
        index = sr.orders["group"] // sr.orders["center"]
        for p in prime_factors(G.order()):
            assert p_part(sr.orders["derived"], p) <= \
                p_part(index, p) ** (r + 1)


def _c4_on_the_central_quotient(G, cfg):
    """C4 by the path it no longer takes, from the structure report of
    H = G/Z(G) and rank(H'): (computable, lhs, rhs, r), with r the Unknown
    where that rank is refused."""
    H = quotient_by_center(G, cfg.coset_cap, cfg.enumeration_cap).quotient
    sr = structure_report(H, cfg.enumeration_cap, cfg.coset_cap)
    r = group_rank(sr.derived, cfg.enumeration_cap, cfg.subgroup_cap,
                   cfg.tuple_cap)
    if isinstance(r, UnknownRank):
        return False, 0, 0, r
    return (True, sr.orders["group"] // sr.orders["center"],
            sr.orders["derived"] ** (4 * r), r)


def _c4_matches_the_quotient_path(G, cfg) -> bool:
    """C4's verdict on G against its oracle; True where rank(H') was
    refused, and C4 with it."""
    v = evaluate("C4", G, cfg)
    computable, lhs, rhs, r = _c4_on_the_central_quotient(G, cfg)
    assert (v.computable, v.lhs, v.rhs) == (computable, lhs, rhs)
    if computable:
        assert v.notes.startswith(f"H=G/Z(G), r={r}; ")
    else:
        assert v.notes == f"rank of H' is {r}"
    return not computable


class TestC4OnTheCentralQuotient:
    """C4 is evaluated on H = G/Z(G), where Z(H) = Z2(G)/Z(G) and H' =
    G'Z(G)/Z(G) is isomorphic to G'/zed, so it reads T3's section of G's
    own report.  H's report and the rank of H', which C4 no longer builds,
    are its oracle."""

    @pytest.mark.parametrize("subgroup_cap, refused", [
        (DEFAULT_SUBGROUP_CAP, 0), (8, 12)])
    def test_every_corpus_group(self, subgroup_cap, refused):
        cfg = Config(subgroup_cap=subgroup_cap)
        assert sum(_c4_matches_the_quotient_path(build_group(spec), cfg)
                   for spec in default_corpus().specs) == refused

    @DEFAULTS
    @given(groups(products=True))
    def test_random_groups(self, G):
        # |H'| <= |G : Z(G)| <= 200, under the default subgroup cap
        assert not _c4_matches_the_quotient_path(G, CFG)

    def test_no_report_of_the_central_quotient(self):
        G = group("direct_product(symmetric(3),dihedral(4))")
        evaluate("C4", G, CFG)
        H = quotient_by_center(G).quotient
        assert center(H).order() == 4
        assert "structure_report" not in H._memo


class TestNotesAndWitnesses:
    def test_la_ls_carry_witnesses(self):
        G = group("dicyclic(4)")
        la = evaluate("LA", G, CFG)
        ls = evaluate("LS", G, CFG)
        assert la.witness is not None and la.witness.per_prime
        assert ls.witness is not None
        assert "printed exponent-r form" in ls.notes

    def test_tightness_reported(self):
        v = evaluate("T6", group("symmetric(3)"), CFG)
        expected = math.log(6) / math.log(9)
        assert f"tightness={expected:.4f}" in v.notes

    def test_json_round_trip(self):
        import json
        v = evaluate("LA", group("dicyclic(4)"), CFG)
        payload = json.loads(json.dumps(v.to_json()))
        assert payload["statement"] == "LA"
        assert payload["lhs"] == v.lhs and payload["rhs"] == v.rhs

    def test_unknown_statement_rejected(self):
        with pytest.raises(ValueError):
            evaluate("T99", group("cyclic(2)"), CFG)


class TestLkSampling:
    def test_lk_on_small_group_uses_all_normals(self):
        v = evaluate("LK", group("symmetric(4)"), CFG)
        assert v.holds
        assert "all normal subgroups" in v.notes

    def test_lk_falls_back_past_cap(self):
        v = evaluate("LK", group("symmetric(6)"), CFG)
        assert v.holds
        assert "canonical normal subgroups" in v.notes

    def test_lk_seeded_and_deterministic(self):
        a = evaluate("LK", group("symmetric(5)"), CFG)
        G2 = group("symmetric(5)")
        b = evaluate("LK", G2, CFG)
        assert a.notes == b.notes and a.lhs == b.lhs and a.rhs == b.rhs


    # recorded with LK's normals filtered from the whole subgroup lattice
    # and C_K(H) filtered per K, so that the class-based normal list and
    # the per-H centralizer filter are checked group by group.  symmetric(6)
    # at subgroup cap 1600, recorded with LK on Perm products, is the one
    # corpus group whose "all normal subgroups" path runs only above the
    # default subgroup cap.
    @pytest.mark.parametrize("text, pairs, source, d, subgroup_cap", [
        pytest.param(*case, cap, id="-".join(map(str, case)))
        for *case, cap in [
            ("symmetric(4)", 28, "all normal subgroups", 2, 512),
            ("dicyclic(8)", 48, "all normal subgroups", 1, 512),
            ("direct_product(dihedral(4),dihedral(4))", 546,
             "all normal subgroups", 2, 512),
            ("direct_product(symmetric(4),cyclic(6))", 126,
             "all normal subgroups", 2, 512),
            ("symmetric(6)", 24,
             "canonical normal subgroups (subgroup cap fired)", 2, 512),
            ("symmetric(6)", 24, "all normal subgroups", 2, 1600),
        ]])
    def test_lk_pinned_verdicts(self, text, pairs, source, d, subgroup_cap):
        cfg = Config(subgroup_cap=subgroup_cap)
        assert evaluate("LK", group(text), cfg).to_json() == {
            "statement": "LK", "applicable": True, "computable": True,
            "lhs": 1, "rhs": 1, "holds": True,
            "notes": f"{pairs} pairs, K from {source}; worst: H=G' "
                     f"(d={d}), |K|=1; tightness=trivial"}


class TestLkTablePath:
    """LK, the Sylow ascent and d(G') run on Perms whatever G's memo holds:
    only the enumerations (the lattice, normal_subgroups and the tuple
    search) build or read a Cayley table, so no verdict depends on which
    of them ran before."""

    def test_table_cap_bounds_the_table(self):
        G = group("elem_abelian(2,10)")
        assert G.order() == TABLE_CAP
        _table(G, DEFAULT_ENUMERATION_CAP)
        assert "table" in G._memo
        G = group("direct_product(cyclic(32),dicyclic(9))")
        assert G.order() == 1152
        with pytest.raises(CapExceeded):
            _table(G, DEFAULT_ENUMERATION_CAP)
        assert "table" not in G._memo

    @pytest.mark.parametrize("text, built", [
        ("elem_abelian(2,10)", False), ("symmetric(6)", False),
        ("symmetric(4)", True)])
    def test_only_an_enumeration_builds_the_table(self, text, built):
        # normal_subgroups builds S4's table for LK; the default subgroup
        # cap refuses the other two before any enumeration of G
        G = group(text)
        evaluate_all(G, CFG)
        assert ("table" in G._memo) is built

    @pytest.mark.parametrize("text", [
        "symmetric(4)", "dicyclic(8)", "alternating(5)",
        "direct_product(dihedral(4),dihedral(4))",
        "direct_product(heisenberg(3),cyclic(3))",
        "direct_product(symmetric(3),dihedral(4))",
        "direct_product(dihedral(4),heisenberg(3))"])
    def test_call_history_does_not_pick_the_path(self, monkeypatch, text):
        # the lattice runs the ladder on G's table; every bracket that
        # min_generators asks for is recorded, and must be on Perms
        worlds, inside = [], []
        ladder, owner = rank._bracket, rank.min_generators

        def counting(world, H, gens):
            if inside:
                worlds.append(type(world))
            return ladder(world, H, gens)

        def asking(*args):
            inside.append(True)
            try:
                return owner(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(rank, "_bracket", counting)
        monkeypatch.setattr(statements, "min_generators", asking)

        def run(G):
            return [evaluate(tag, G, CFG).to_json()
                    for tag in ("LK", "FOC", "LB", "T6", "CK")]
        fresh = run(group(text))
        G = group(text)
        all_subgroups(G)
        normal_subgroups(G)
        assert "table" in G._memo
        assert run(G) == fresh
        assert worlds and set(worlds) == {_Perms}

    @pytest.mark.parametrize("text", [
        "symmetric(4)", "dicyclic(8)",
        "direct_product(symmetric(3),dihedral(4))", "alternating(5)",
        "direct_product(dihedral(4),heisenberg(3))"])
    def test_members_agree_across_paths(self, text):
        # LK's worst pair has |K| = 1 on every corpus group, so its verdict
        # cannot see C_G(H); compare each member's d with a fresh group's
        # and its C_G(H) with the brute-force centralizer
        G = group(text)
        ev = statements._Evaluator(G, CFG)
        elems = closure(G.degree, G.generators)
        for _, H in ev._lk_library():
            d = min_generators(Group(H.degree, H.generators))
            assert ev._lk_member(H) == (
                d, d, centralizer_oracle(elems, H.generators))

    def test_path_choice_keeps_every_cap_answer(self):
        # sha256 recorded with LK and the normalizer on Perm products only,
        # and a refused d(H) read at its bracket's lower end ("d=2, lower
        # bound" on S6 at tuple caps 1 and 2)
        records = []
        for text, cap, subgroup_cap, tuple_cap, tag in itertools.product(
                ("symmetric(4)", "dicyclic(8)",
                 "direct_product(symmetric(3),dihedral(4))", "symmetric(6)",
                 "heisenberg(3)"),
                (1, 8, 24, 64, DEFAULT_ENUMERATION_CAP), (1, 512),
                (1, 2, DEFAULT_TUPLE_CAP), ("LK", "FOC", "LB", "T6", "CK")):
            cfg = Config(enumeration_cap=cap, subgroup_cap=subgroup_cap,
                         tuple_cap=tuple_cap)
            verdict = evaluate(tag, group(text), cfg).to_json()
            records.append(json.dumps(
                [text, cap, subgroup_cap, tuple_cap, verdict],
                sort_keys=True))
        assert len(records) == 750
        assert hashlib.sha256("\n".join(sorted(records)).encode()) \
            .hexdigest() == ("3228cf27034fbe1e4a1a29823afe49de"
                             "863c221a514bc5ae6c64af6e4f6d4f57")


class TestLkBracket:
    """d(H) is on LK's right side.  When a cap refuses it, each pair is
    decided from the ladder's bracket: its lower end max(2, d(H/H'))
    proves that a pair holds, its upper end (the pruned generating set)
    that it is violated, and a pair between them leaves LK uncomputable."""

    @pytest.mark.parametrize("tuple_cap", [1, 2])
    def test_a_refused_d_is_read_at_its_lower_end(self, tuple_cap):
        # the tuple search that finds d(A6) = 2 stops at these caps, and
        # A6 = S6' has a pruned generating set of 3
        v = evaluate("LK", group("symmetric(6)"), Config(tuple_cap=tuple_cap))
        assert (v.computable, v.holds, v.lhs, v.rhs) == (True, True, 1, 1)
        assert "; worst: H=G' (d=2, lower bound), |K|=1;" in v.notes

    def test_a_straddling_pair_is_uncomputable(self, monkeypatch):
        # on S4, H = G' = A4 and K = V4 give |K : C_K(H)| = 4 = |G' n K|,
        # between 4^0 and 4^1
        member = statements._Evaluator._lk_member
        monkeypatch.setattr(statements._Evaluator, "_lk_member",
                            lambda ev, H: (0, 1, member(ev, H)[2]))
        v = evaluate("LK", group("symmetric(4)"), CFG)
        assert (v.applicable, v.computable, v.holds) == (True, False, True)
        assert v.notes == ("d(H) in [0, 1] decides no bound on H=G', "
                           "|K|=4: 4^0 < 4 <= 4^1")

    def test_a_pair_over_the_upper_end_is_violated(self, monkeypatch):
        # on C2 with C_G(H) made trivial, K = G gives |K : C_K(H)| = 2 over
        # |G' n K|^1 = 1
        monkeypatch.setattr(
            statements._Evaluator, "_lk_member", lambda ev, H: (
                0, 1, Subgroup(ev.G, ()).element_set()))
        v = evaluate("LK", group("cyclic(2)"), CFG)
        assert (v.computable, v.violated, v.lhs, v.rhs) == (True, True, 2, 1)
        assert "; worst: H=G' (d=1, upper bound), |K|=2;" in v.notes

    @pytest.mark.parametrize("text", [
        "alternating(7)", "direct_product(alternating(5),alternating(5))"])
    def test_lk_reads_the_bracket_t6_left(self, text, monkeypatch):
        # with no certificate drawn, G' = G is above TABLE_CAP with an open
        # bracket, so T6 and CK are refused at the tuple search.  T6 prunes
        # G''s generators once, and LK's refused d reads that bracket from
        # G''s memo
        monkeypatch.setattr(rank, "CERTIFICATE_DRAWS", 0)
        G = group(text)
        pruned, reads = [], []
        prune, bracket = rank._prune, statements.d_bracket

        def pruning(world, gens, size):
            if size == G.order():
                pruned.append(len(gens))
            return prune(world, gens, size)

        def reading(H, cap):
            reads.append("d_bracket" in H._memo)
            return bracket(H, cap)
        monkeypatch.setattr(rank, "_prune", pruning)
        monkeypatch.setattr(statements, "d_bracket", reading)
        verdicts = {v.statement: v for v in evaluate_all(G)}
        assert derived_subgroup(G).order() == G.order()
        assert len(pruned) == 1
        assert reads and all(reads)
        assert "multiplication table" in verdicts["T6"].notes
        assert "; worst: H=G' (d=2, lower bound), |K|=1;" in \
            verdicts["LK"].notes


class TestCertifiedD:
    """d(G') = 2 on A7 and A5xA5 from a seeded pair that generates G', so T6
    and CK decide there and LK reads an exact d."""

    CASES = [("alternating(7)", 2520),
             ("direct_product(alternating(5),alternating(5))", 3600)]
    TAGS = ("T6", "CK", "LK")

    @staticmethod
    def _records(G, config=CFG):
        return [evaluate(tag, G, config).to_json()
                for tag in TestCertifiedD.TAGS]

    @pytest.mark.parametrize("text, order", CASES)
    def test_t6_ck_and_lk_decide(self, text, order):
        t6, ck, lk = (evaluate(tag, group(text), CFG) for tag in self.TAGS)
        assert (t6.applicable, t6.computable, t6.holds) == (True, True, True)
        assert (t6.lhs, t6.rhs) == (order, order ** 3)
        assert t6.notes == "d=2; tightness=0.3333"
        assert (ck.computable, ck.holds, ck.lhs, ck.rhs) == \
            (True, True, order, order ** 2)
        assert ck.notes == "d=2; tightness=0.5000"
        assert lk.computable and "; worst: H=G' (d=2), |K|=1;" in lk.notes
        assert "lower bound" not in lk.notes

    @pytest.mark.parametrize("text, order", CASES)
    def test_relabelled_points_give_the_same_records(self, text, order):
        # as the bench relabels: the generators conjugated by a seeded
        # permutation of the points, and the seed passed to Config
        G = group(text)
        records = self._records(G)
        for seed in (1, 2, 3):
            points = list(range(1, G.degree + 1))
            random.Random(f"{seed}:{text}").shuffle(points)
            sigma = Perm(points)
            moved = Group(G.degree, [g.conjugate(sigma)
                                     for g in G.generators])
            assert self._records(moved, Config(seed=seed)) == records

    def test_another_hash_seed_gives_the_same_records(self):
        script = ("import json, sys; sys.path.insert(0, 'tests'); "
                  "from test_statements import TestCertifiedD as T, group; "
                  "print(json.dumps([T._records(group(text)) "
                  "for text, _ in T.CASES]))")
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", script], cwd=root,
                              env=env, capture_output=True, text=True,
                              check=True)
        assert json.loads(proc.stdout) == [
            self._records(group(text)) for text, _ in self.CASES]


class TestBoundTable:
    TAGS = ("T1", "T2", "T3", "C4", "T6", "T7", "CK", "LA", "LS", "P1", "P2",
            "AUT")

    def test_each_tag_has_one_evaluator(self):
        for tag in STATEMENT_TAGS:
            method = hasattr(statements._Evaluator, "_eval_" + tag.lower())
            assert method != (tag in statements._BOUNDS), tag
        assert set(statements._BOUNDS) == set(self.TAGS)

    # Each row's sides and note, worked by hand.  On S3 x D4: Z = Z(D4)
    # (order 2), G' = A3 x Z (6), zed = Z, Z2 = D4 (8), C_G(G') = D =
    # A3 x D4 (24), G/Z = S3 x C2^2 (rank 3), H = G/Z has H' = A3 and
    # Z(H) = C2^2.  On D8 (order 16): Z = <r^4>, G' = Z2 = <r^2>, zed = Z,
    # C_G(G') = <r>, D = G, G/Z2 = C2^2.  Heisenberg(3) has G' = zed and
    # D = G, so r = 0 and every AUT side is 0.
    @pytest.mark.parametrize("tag, text, lhs, rhs, note", [
        ("T1", "direct_product(symmetric(3),dihedral(4))", 6, 24 ** 4,
         "r=3"),
        ("T2", "direct_product(symmetric(3),dihedral(4))", 6, 6 ** 2, "r=1"),
        ("T3", "direct_product(symmetric(3),dihedral(4))", 6, 3 ** 4, "r=1"),
        ("C4", "direct_product(symmetric(3),dihedral(4))", 6, 3 ** 4,
         "H=G/Z(G), r=1"),
        ("T6", "symmetric(4)", 24, 12 ** 3, "d=2"),
        ("CK", "direct_product(symmetric(3),dihedral(4))", 2, 6, "d=1"),
        ("LA", "direct_product(symmetric(3),dihedral(4))", 3, 3, "r=1"),
        ("LS", "direct_product(symmetric(3),dihedral(4))", 1, 3 ** 2,
         "r=1; printed exponent-r form holds"),
        ("T7", "dihedral(8)", 2, (13 - 1) // 2, "r=1"),
        ("P1", "dihedral(8)", 1, 1, "r=1"),
        ("P2", "dihedral(8)", 1, 2, "r=1"),
        ("AUT", "dihedral(8)", 0, (7 - 1) // 2, "r=1, p=2"),
        ("AUT", "heisenberg(3)", 0, 0, "r=0, p=3"),
    ], ids=["T1", "T2", "T3", "C4", "T6", "CK", "LA", "LS", "T7", "P1", "P2",
            "AUT-p2", "AUT-p3"])
    def test_row_sides(self, tag, text, lhs, rhs, note):
        v = evaluate(tag, group(text), CFG)
        assert v.applicable and v.computable
        assert (v.lhs, v.rhs, v.holds) == (lhs, rhs, lhs <= rhs)
        assert v.notes.startswith(note + "; tightness=")
        assert (v.witness is not None) == (tag in ("LA", "LS"))

    def test_every_cap_answer(self):
        # sha256 recorded with one _eval_* method per bound statement.  It
        # pins sides, notes and witnesses, not the order in which r, the
        # lhs and the witness are computed: computing the witness before r,
        # a p-group's lhs rank before r, or rank(G/Z(G)) before the
        # structure report leaves it unchanged.
        records = []
        for text, cap, coset_cap, subgroup_cap, tuple_cap, tag in \
                itertools.product(
                    ("symmetric(4)", "dicyclic(8)",
                     "direct_product(symmetric(3),dihedral(4))",
                     "heisenberg(3)", "symmetric(6)"),
                    (8, 64, 1000), (4, 512), (1, 512), (1, 64), self.TAGS):
            cfg = Config(enumeration_cap=cap, coset_cap=coset_cap,
                         subgroup_cap=subgroup_cap, tuple_cap=tuple_cap)
            verdict = evaluate(tag, group(text), cfg).to_json()
            records.append(json.dumps(
                [text, cap, coset_cap, subgroup_cap, tuple_cap, verdict],
                sort_keys=True))
        assert len(records) == 1440
        assert hashlib.sha256("\n".join(sorted(records)).encode()) \
            .hexdigest() == ("972038f45837bc183b1802b8c5d4e7c3"
                             "396ddbfd41bfdba88ba41c63f4188d06")

    @pytest.mark.parametrize("order", ["sweep", "reversed"])
    def test_every_cap_answer_on_shared_groups(self, order):
        # the sweep above on one group per spec: memo hits re-admitted
        # under each call's caps, refusals computed again and handles
        # shared with G give each call its fresh-group answer
        calls = list(itertools.product(
            ("symmetric(4)", "dicyclic(8)",
             "direct_product(symmetric(3),dihedral(4))", "heisenberg(3)",
             "symmetric(6)"),
            (8, 64, 1000), (4, 512), (1, 512), (1, 64), self.TAGS))
        if order == "reversed":
            calls.reverse()
        groups = {}
        records = []
        for text, cap, coset_cap, subgroup_cap, tuple_cap, tag in calls:
            cfg = Config(enumeration_cap=cap, coset_cap=coset_cap,
                         subgroup_cap=subgroup_cap, tuple_cap=tuple_cap)
            G = groups.setdefault(text, group(text))
            records.append(json.dumps(
                [text, cap, coset_cap, subgroup_cap, tuple_cap,
                 evaluate(tag, G, cfg).to_json()], sort_keys=True))
        assert hashlib.sha256("\n".join(sorted(records)).encode()) \
            .hexdigest() == ("972038f45837bc183b1802b8c5d4e7c3"
                             "396ddbfd41bfdba88ba41c63f4188d06")


class TestSharedHandles:
    """A filter that keeps all of G returns G, and a p-group is its own
    Sylow subgroup, so the report's subgroups that equal G share G's memo;
    LK reads C_G(G') and Z(G) from the report."""

    def test_the_sylow_ascent_runs_once_per_step(self, monkeypatch):
        # |P| = 27 and 125, three steps each; LK, LB and FOC ask for them
        # on G and on D = C_G(G') = G
        steps = []
        step = structure._ascent_step
        monkeypatch.setattr(structure, "_ascent_step",
                            lambda *args: steps.append(1) or step(*args))
        evaluate_all(group("direct_product(heisenberg(3),heisenberg(5))"),
                     CFG)
        assert len(steps) == 6

    def test_an_abelian_group_is_its_own_report(self):
        G = group("elem_abelian(2,10)")
        evaluate_all(G, CFG)
        for H in (center(G), second_center(G), dee_subgroup(G),
                  structure_report(G).centralizer_of_derived, sylow(G, 2)):
            assert H is G

    @pytest.mark.parametrize("text", [
        "symmetric(4)", "direct_product(symmetric(3),dihedral(4))",
        "alternating(5)", "direct_product(heisenberg(3),heisenberg(5))",
        "direct_product(alternating(5),alternating(5))", "alternating(7)"])
    def test_lk_filters_no_centralizer_for_derived(self, monkeypatch, text):
        # C_G(H) is read, not filtered, for H = G' (C_G(G') in the report),
        # for |H| = |G| (Z(G)) and for H = 1 (G)
        G = group(text)
        members = []
        for _, H in statements._Evaluator(G, CFG)._lk_library():
            if not any(K.order() == H.order() and is_subgroup_of(H, K)
                       for K in members):
                members.append(H)
        filters = []
        by_cosets = statements.by_center_cosets
        monkeypatch.setattr(statements, "by_center_cosets", lambda *args:
                            filters.append(1) or by_cosets(*args))
        assert evaluate("LK", G, CFG).computable
        assert len(filters) == len([
            H for H in members if H is not derived_subgroup(G)
            and H.order() not in (G.order(), 1)])


def _corpus_p_groups():
    groups = [spec for spec in default_corpus().specs
              if is_prime_power(build_group(spec).order()) is not None]
    assert len(groups) == 49
    return groups


class TestPGroupSectionRefusals:
    """P1, P2 and AUT refuse with "rank of C/Z2", "D/C" or "G/D" only when
    that section is non-abelian, since an abelian section takes its rank
    from socles and never asks the subgroup cap.  On the corpus p-groups no
    such note is reached: C_G(G')/Z2 is abelian by L9, D/C_G(G') embeds in
    Hom(G', Z(G)) by d -> (x -> [d, x]), and G/D is abelian because every
    corpus p-group has abelian G' (so G' <= D).  The coset cap cannot reach
    them either: each section has at most |G : Z(G)| cosets, and the
    structure report's G/Z(G) is admitted first."""

    def test_no_section_note_is_reached(self):
        reached = {}
        for spec in _corpus_p_groups():
            for subgroup_cap in (1, 2, 4, 8):
                G = build_group(spec)
                for tag in ("P1", "P2", "AUT"):
                    v = evaluate(tag, G, Config(subgroup_cap=subgroup_cap))
                    if not v.computable:
                        reached[spec.label, subgroup_cap, tag] = v.notes
        assert reached == {}

    def test_every_section_is_abelian(self):
        for spec in _corpus_p_groups():
            G = build_group(spec)
            sr = structure_report(G)
            assert sr.derived.is_abelian(), spec.label
            for num, den in ((sr.centralizer_of_derived, sr.second_center),
                             (sr.dee, sr.centralizer_of_derived),
                             (G, sr.dee)):
                assert quotient(num, den).quotient.is_abelian(), spec.label


class TestHistoryIndependence:
    """A verdict under one config does not depend on what ran on the group
    under another config."""

    @pytest.mark.parametrize("caps", [(64, 1600), (1600, 64)])
    def test_t1_under_two_configs_on_one_group(self, caps):
        text = "direct_product(symmetric(5),cyclic(2))"
        G = group(text)
        for cap in caps:
            cfg = Config(subgroup_cap=cap)
            assert evaluate("T1", G, cfg).to_json() == \
                evaluate("T1", group(text), cfg).to_json()
        assert evaluate("T1", G, Config(subgroup_cap=1600)).notes \
            .startswith("r=2;")


class TestIsoclinicPairs:
    """dihedral(2n) and dicyclic(n) are isoclinic 2-groups (P. Hall, 1940),
    and every side of every tag is an order or rank that isoclinism keeps.
    So the two give the same record, notes included; only the witness
    payloads, which list elements, differ."""

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_records_agree_but_for_the_witness(self, n):
        def records(text):
            return [{k: v for k, v in verdict.to_json().items()
                     if k != "witness"}
                    for verdict in evaluate_all(group(text))]
        assert records(f"dihedral({2 * n})") == records(f"dicyclic({n})")
