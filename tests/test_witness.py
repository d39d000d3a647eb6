"""Proof-replay operations: socle chains, commutator factorisation, the
T/M witnesses, the commutator homomorphism, and the rank embeddings."""

import hashlib
import inspect
import random
from collections import Counter
from dataclasses import astuple

import pytest

from centerbound import witness
from centerbound.arith import is_prime_power
from centerbound.config import DEFAULT_SAMPLE_PAIRS, Config
from centerbound.corpus import (build_group, default_corpus, direct_product,
                                parse_group_spec)
from centerbound.errors import (BadAnchors, BadFamily, CapExceeded,
                                NotInDerived, NotPGroup)
from centerbound.group import (DEFAULT_COSET_CAP, DEFAULT_ENUMERATION_CAP,
                               DEFAULT_SUBGROUP_CAP, DEFAULT_TUPLE_CAP, Group,
                               Subgroup, subgroup_from_elements)
from centerbound.perm import commutator, format_perm, parse_perm
from centerbound.rank import (UnknownRank, _section_rank, abelian_rank,
                              shrink_generating_set)
from centerbound.statements import evaluate
from centerbound.structure import (centralizer, derived_subgroup,
                                   second_center, structure_report,
                                   zed_subgroup)
from centerbound.witness import (also_witness, commutator_product_layers,
                                 factorize_commutator, rank_embedding_pl,
                                 select_socle_chain, szivas_witness)

from _oracles import central_preimage_oracle


def group(text):
    return build_group(parse_group_spec("family:" + text))


def make(degree, *gens):
    return Group(degree, [parse_perm(s, degree) for s in gens])


class TestSocleChain:
    def test_klein_with_three_lines(self):
        A = group("elem_abelian(2,2)")
        a, b = A.generators
        family = [Subgroup(A, [a]), Subgroup(A, [b]), Subgroup(A, [a * b])]
        sel = select_socle_chain(A, family)
        assert len(sel.chosen) == 2
        running = set(A.elements())
        for H in sel.chosen:
            running &= set(H.elements())
        assert len(running) == 1
        assert [c.order() for c in sel.chain] == [4, 2, 1]

    def test_trivial_member_first_wins_alone(self):
        A = group("elem_abelian(2,2)")
        a, b = A.generators
        family = [Subgroup(A, []), Subgroup(A, [a]), Subgroup(A, [b])]
        sel = select_socle_chain(A, family)
        assert len(sel.chosen) == 1
        assert sel.chosen[0].order() == 1

    def test_c4_times_c2_two_member_family(self):
        A = make(6, "(1 2 3 4)", "(5 6)")
        g, h = A.generators
        family = [Subgroup(A, [g]), Subgroup(A, [h])]
        sel = select_socle_chain(A, family)
        assert len(sel.chosen) <= 2 == abelian_rank(A)
        running = set(A.elements())
        for H in sel.chosen:
            running &= set(H.elements())
        assert len(running) == 1

    def test_bad_family_detected(self):
        A = group("elem_abelian(2,2)")
        a, b = A.generators
        family = [Subgroup(A, [a]), Subgroup(A, [a])]
        with pytest.raises(BadFamily):
            select_socle_chain(A, family)

    def test_rejects_non_p_group(self):
        with pytest.raises(NotPGroup):
            select_socle_chain(group("cyclic(6)"), [])

    def test_seeded_random_instances(self):
        # smaller version of the acceptance sweep, for quick feedback
        rng = random.Random("socle-unit")
        for _ in range(20):
            A, family = random_socle_instance(rng)
            sel = select_socle_chain(A, family)
            assert len(sel.chosen) <= abelian_rank(A)
            running = set(A.elements())
            for H in sel.chosen:
                running &= set(H.elements())
            if sel.chosen:
                assert len(running) == 1


def random_socle_instance(rng):
    """A random abelian p-group with a random subgroup family of trivial
    intersection (the trivial subgroup is appended if needed)."""
    p = rng.choice((2, 3, 5))
    exponents = [rng.randint(1, 3 if p == 2 else 2)
                 for _ in range(rng.randint(1, 3))]
    A = group(f"cyclic({p ** exponents[0]})")
    for e in exponents[1:]:
        A = direct_product(A, group(f"cyclic({p ** e})"))
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


class TestFactorizeCommutator:
    def test_dih4_central_rotation(self):
        G = group("dihedral(4)")
        r, s = G.generators
        xs = factorize_commutator(G, [r, s], r * r)
        assert len(xs) == 2
        product = commutator(xs[0], r) * commutator(xs[1], s)
        assert product == r * r

    def test_identity_target(self):
        G = group("dihedral(4)")
        r, s = G.generators
        xs = factorize_commutator(G, [r, s], G.identity_element())
        assert all(commutator(x, a).is_identity()
                   for x, a in zip(xs, [r, s]))

    def test_heisenberg_central_commutator(self):
        G = group("heisenberg(3)")
        anchors = shrink_generating_set(G, list(G.generators))
        target = commutator(anchors[0], anchors[1])
        xs = factorize_commutator(G, anchors, target)
        product = G.identity_element()
        for x, a in zip(xs, anchors):
            product = product * commutator(x, a)
        assert product == target

    def test_layers_cover_derived_subgroup(self):
        for text in ("dihedral(8)", "dicyclic(4)", "heisenberg(3)",
                     "direct_product(dihedral(4),dihedral(4))"):
            G = group(text)
            anchors = shrink_generating_set(G, list(G.generators))
            layers = commutator_product_layers(G, anchors)
            assert set(derived_subgroup(G).elements()) <= set(layers[-1])

    def test_rejects_outsiders_and_bad_anchors(self):
        G = group("dihedral(4)")
        r, s = G.generators
        with pytest.raises(NotInDerived):
            factorize_commutator(G, [r, s], s)
        with pytest.raises(BadAnchors):
            factorize_commutator(G, [r], r * r)
        with pytest.raises(NotPGroup):
            factorize_commutator(group("symmetric(3)"),
                                 list(group("symmetric(3)").generators),
                                 parse_perm("(1 2 3)", 3))

    def test_layers_built_once_per_anchor_tuple(self, monkeypatch):
        # the anchor check and the layers were rebuilt for every w
        builds = []
        build = witness.commutator_product_layers

        def counting(P, anchors, cap):
            builds.append(tuple(anchors))
            return build(P, anchors, cap)
        monkeypatch.setattr(witness, "commutator_product_layers", counting)
        G = group("dicyclic(8)")
        anchors = shrink_generating_set(G, list(G.generators))
        for w in derived_subgroup(G).elements():
            factorize_commutator(G, anchors, w)
        factorize_commutator(G, list(reversed(anchors)),
                             G.identity_element())
        assert builds == [tuple(anchors), tuple(reversed(anchors))]

    def test_every_w_is_reverified(self, monkeypatch):
        # layers whose last step names the identity as x_d factor nothing
        # but the product of the earlier steps; each call must catch that
        G = group("dicyclic(4)")
        anchors = shrink_generating_set(G, list(G.generators))
        layers = commutator_product_layers(G, anchors)
        layers[-1] = {w: (w, G.identity_element()) if prev is None else
                      (prev[0], G.identity_element())
                      for w, prev in layers[-1].items()}
        monkeypatch.setattr(witness, "commutator_product_layers",
                            lambda P, a, cap: layers)
        broken = [w for w in derived_subgroup(G).elements()
                  if layers[-1][w][0] != w]
        assert len(broken) > 1
        for w in broken:
            with pytest.raises(AssertionError, match="re-verify"):
                factorize_commutator(G, anchors, w)

    def test_witnesses_deterministic(self):
        G = group("dicyclic(4)")
        anchors = shrink_generating_set(G, list(G.generators))
        w = sorted(derived_subgroup(G).elements())[1]
        assert factorize_commutator(G, anchors, w) == \
            factorize_commutator(G, anchors, w)


class TestAlsoWitness:
    def test_abelian_is_empty(self):
        record = also_witness(group("cyclic(12)"))
        assert record.xs == []
        assert all(w.index == 1 and w.ok for w in record.per_prime.values())

    def test_sym3_times_dih4(self):
        G = group("direct_product(symmetric(3),dihedral(4))")
        sr = structure_report(G)
        record = also_witness(G)
        total = 1
        for w in record.per_prime.values():
            assert w.ok
            total *= w.index
        assert total == (sr.orders["centralizer_of_derived"]
                         // sr.orders["second_center"])
        # r = 1 here, so the product bound is |G' : zed|^1 = 3
        assert total <= sr.orders["derived"] // sr.orders["zed"]

    def test_class_two_p_group_index_one(self):
        record = also_witness(group("heisenberg(3)"))
        assert all(w.index == 1 for w in record.per_prime.values())

    def test_class_three_group_produces_elements(self):
        record = also_witness(group("dicyclic(4)"))
        w = record.per_prime[2]
        assert w.ok and w.xs and w.tee is not None and w.em is not None

    def test_m_meet_p_inside_second_center(self):
        G = group("dihedral(16)")
        record = also_witness(G)
        w = record.per_prime[2]
        z2 = set(second_center(G).elements())
        m_set = set(w.em.elements())
        sr = structure_report(G)
        from centerbound.structure import sylow
        p_set = set(sylow(sr.centralizer_of_derived, 2).elements())
        assert (m_set & p_set) <= z2


class TestSzivasWitness:
    def test_class_two_gives_index_one(self):
        record = szivas_witness(group("heisenberg(5)"))
        assert all(w.index == 1 and w.ok for w in record.per_prime.values())

    def test_sym4(self):
        record = szivas_witness(group("symmetric(4)"))
        # D is trivial here, so there are no prime divisors at all
        assert record.per_prime == {}

    def test_product_group_per_prime(self):
        G = group("direct_product(symmetric(3),dihedral(4))")
        record = szivas_witness(G)
        assert set(record.per_prime) == {2, 3}
        assert all(w.ok for w in record.per_prime.values())

    def test_class_three_two_group(self):
        G = group("dihedral(16)")
        sr = structure_report(G)
        record = szivas_witness(G)
        w = record.per_prime[2]
        assert w.ok
        assert w.index == (sr.orders["dee"]
                           // sr.orders["centralizer_of_derived"])
        if w.xs:
            assert len(w.xs) % 2 == 0  # interleaved (x_i, y_i) pairs

    def test_commutator_pairs_generate_quotient(self):
        G = group("dicyclic(8)")
        record = szivas_witness(G)
        w = record.per_prime[2]
        if w.xs:
            pairs = list(zip(w.xs[0::2], w.xs[1::2]))
            sr = structure_report(G)
            gens = [commutator(x, y) for x, y in pairs]
            joined = Subgroup(G, gens + list(
                centralizer(sr.derived,
                            G.elements()).generators))
            # <[x_i,y_i], C_G'(P)> = G' with P the Sylow 2-subgroup of D
            cgp = [c for c in sr.derived.elements()
                   if all(c * g == g * c for g in sr.dee.generators)]
            regen = Subgroup(G, gens + cgp)
            assert regen.order() == sr.orders["derived"]


class TestRankEmbeddings:
    def test_abelian_p_group_all_zero(self):
        rep = rank_embedding_pl(group("elem_abelian(3,2)"), "pl1")
        assert rep.section_rank == 0
        assert rep.bound_holds

    def test_dih4_degenerate_rank_zero(self):
        rep = rank_embedding_pl(group("dihedral(4)"), "pl1")
        assert rep.bound == 0
        assert rep.section_rank == 0
        assert rep.bound_holds and rep.homomorphisms_ok

    def test_heisenberg_times_c3(self):
        rep = rank_embedding_pl(group("direct_product(heisenberg(3),cyclic(3))"),
                                "pl1")
        assert rep.section_rank == 0
        assert rep.bound_holds

    @pytest.mark.parametrize("text", ["dihedral(16)", "dicyclic(8)",
                                      "dihedral(32)"])
    @pytest.mark.parametrize("which", ["pl1", "pl2"])
    def test_class_three_two_groups(self, text, which):
        rep = rank_embedding_pl(group(text), which)
        assert rep.homomorphisms_ok
        assert rep.kernel_contained
        assert rep.bound_holds

    def test_rejects_non_p_group(self):
        with pytest.raises(NotPGroup):
            rank_embedding_pl(group("symmetric(3)"), "pl1")

    @pytest.mark.parametrize("which,first", [("pl1", "a"), ("pl2", "t")])
    def test_map_direction(self, which, first):
        # pl1 maps a -> [a, t], pl2 maps a -> [t, a]; the two differ
        # wherever the commutator has order above 2
        fmap = witness._MAPS[which][1]
        elems = group("symmetric(3)").elements()
        differ = [(a, t) for a in elems for t in elems
                  if commutator(a, t) != commutator(t, a)]
        assert differ
        for a, t in differ:
            want = commutator(a, t) if first == "a" else commutator(t, a)
            assert fmap(a, t) == want
        with pytest.raises(ValueError):
            rank_embedding_pl(group("dihedral(4)"), "pl3")


X4 = "(1 9 5 13)(2 10 6 14)(3 11 7 15)(4 12 8 16)"
X8 = ("(1 17 9 25)(2 18 10 26)(3 19 11 27)(4 20 12 28)(5 21 13 29)"
      "(6 22 14 30)(7 23 15 31)(8 24 16 32)")

# per prime: (prime, index, n_p, exponent, bound, |T|, |M|, xs); every
# witness here is ok
PINNED_WITNESSES = {
    ("dicyclic(4)", "also"): [(2, 2, 2, 1, 2, 4, 8, [X4])],
    ("dicyclic(4)", "szivas"): [
        (2, 2, 2, 2, 4, 16, 4,
         ["(1 2 3 4 5 6 7 8)(9 16 15 14 13 12 11 10)", X4])],
    ("dihedral(16)", "also"): [
        (2, 4, 4, 1, 4, 2, 8, ["(2 16)(3 15)(4 14)(5 13)(6 12)(7 11)(8 10)"])],
    ("dihedral(16)", "szivas"): [(2, 1, 4, 2, 16, 1, None, [])],
    ("dicyclic(8)", "also"): [(2, 4, 4, 1, 4, 4, 8, [X8])],
    ("dicyclic(8)", "szivas"): [(2, 1, 4, 2, 16, 1, None, [])],
    ("direct_product(symmetric(3),dihedral(4))", "also"): [
        (2, 1, 1, 1, 1, 1, None, []), (3, 3, 3, 1, 3, 2, 16, ["(2 3)"])],
    ("direct_product(symmetric(3),dihedral(4))", "szivas"): [
        (2, 1, 1, 2, 1, 1, None, []), (3, 1, 3, 2, 9, 1, None, [])],
    ("heisenberg(5)", "also"): [(5, 1, 1, 0, 1, 1, None, [])],
    ("heisenberg(5)", "szivas"): [(5, 1, 1, 0, 1, 1, None, [])],
}

# (which, prime, map_count, homomorphisms_ok, kernel_contained,
#  section_rank, bound, bound_holds, sampled)
PINNED_EMBEDDINGS = {
    ("dihedral(16)", "pl1"): ("pl1", 2, 1, True, True, 1, 1, True, False),
    ("dihedral(16)", "pl2"): ("pl2", 2, 0, True, True, 0, 2, True, False),
    ("dicyclic(8)", "pl1"): ("pl1", 2, 1, True, True, 1, 1, True, False),
    ("dicyclic(8)", "pl2"): ("pl2", 2, 0, True, True, 0, 2, True, False),
}


class TestPinnedOutput:
    @pytest.mark.parametrize("text,lemma", sorted(PINNED_WITNESSES))
    def test_witness_json(self, text, lemma):
        rows = PINNED_WITNESSES[text, lemma]
        expected = {
            "xs": next((xs for *_, xs in rows if xs), []),
            "per_prime": {
                str(p): {"prime": p, "xs": xs, "tee_order": tee,
                         "em_order": em, "index": index, "n_p": n_p,
                         "exponent": exponent, "bound": bound, "ok": True}
                for p, index, n_p, exponent, bound, tee, em, xs in rows},
        }
        fn = also_witness if lemma == "also" else szivas_witness
        assert fn(group(text)).to_json() == expected

    @pytest.mark.parametrize("text,which", sorted(PINNED_EMBEDDINGS))
    def test_embedding_fields(self, text, which):
        rep = rank_embedding_pl(group(text), which)
        assert astuple(rep) == PINNED_EMBEDDINGS[text, which]


class TestWitnessMemo:
    def test_embedding_reuses_the_also_record(self, monkeypatch):
        calls = []
        build = witness._tm_construction

        def counting(*args):
            calls.append(args)
            return build(*args)
        monkeypatch.setattr(witness, "_tm_construction", counting)
        G = group("dihedral(8)")
        record = also_witness(G)
        rep = rank_embedding_pl(G, "pl1")
        assert len(calls) == 1
        assert rep.map_count == len(record.xs) == 1

    def test_smaller_cap_refuses_after_a_hit(self):
        G = group("symmetric(4)")
        assert also_witness(G).to_json() == {"xs": [], "per_prime": {}}
        with pytest.raises(CapExceeded):
            also_witness(G, subgroup_cap=8)
        with pytest.raises(CapExceeded):
            also_witness(group("symmetric(4)"), subgroup_cap=8)

    @pytest.mark.parametrize("replay", [also_witness, szivas_witness])
    def test_unknown_rank_refusal_is_the_catalog_note(self, replay):
        # the same text that LA and LS carry as their note at this cap
        with pytest.raises(CapExceeded) as exc:
            replay(group("symmetric(4)"), subgroup_cap=1)
        assert str(exc.value) == ("rank of G'/zed is Unknown(subgroup "
                                  "enumeration cap 1, needed 12)")

    def test_larger_cap_computes_after_a_refusal(self):
        G = group("symmetric(4)")
        with pytest.raises(CapExceeded):
            also_witness(G, subgroup_cap=8)
        assert also_witness(G).to_json() == \
            also_witness(group("symmetric(4)")).to_json()


class TestTMFilter:
    """M = {g | [g, x] in zed for each x in xs} is the Z2/D filter on xs, as
    a commutator lies in zed exactly when it is central; G/zed is never
    built."""

    def test_em_is_the_preimage_of_a_centralizer_over_the_corpus(
            self, monkeypatch):
        built = []
        build = witness._tm_construction

        def recording(G, xs, cap):
            T, M = build(G, xs, cap)
            built.append((G, xs, M))
            return T, M
        monkeypatch.setattr(witness, "_tm_construction", recording)
        for spec in default_corpus().specs:
            G = build_group(spec)
            for replay in (also_witness, szivas_witness):
                try:
                    replay(G)
                except CapExceeded:
                    pass
        zeds = Counter()
        for G, xs, M in built:
            zed = zed_subgroup(G)
            expected = central_preimage_oracle(G.elements(), xs,
                                               zed.elements())
            assert set(M.elements()) == expected
            assert M.generators == \
                subgroup_from_elements(G, sorted(expected)).generators
            zeds["zed > 1" if zed.order() > 1 else "zed = 1"] += 1
        assert zeds == {"zed = 1": 45, "zed > 1": 36}

    def test_no_quotient_by_zed(self):
        G = group("dihedral(16)")
        assert also_witness(G).em.order() == 8
        szivas_witness(G)
        assert ("quotient", zed_subgroup(G)) not in G._memo
        assert "coset_cap" not in \
            inspect.signature(witness._tm_construction).parameters

    @pytest.mark.parametrize("coset_cap", [5, 6, 11, 12])
    def test_coset_cap_is_admitted_by_g_mod_z_only(self, coset_cap):
        # dihedral(6) has zed = 1 and |G : Z(G)| = 6: G/Z(G) in the
        # structure report admits 6 cosets, and M admits no coset cap, so
        # caps 6-11 compute what a quotient by zed (12 cosets) refused
        config = Config(coset_cap=coset_cap)
        if coset_cap < 6:
            for replay in (also_witness, szivas_witness):
                with pytest.raises(CapExceeded) as exc:
                    replay(group("dihedral(6)"), coset_cap=coset_cap)
                assert str(exc.value) == \
                    "coset enumeration: 6 exceeds cap 5"
            verdict = evaluate("LA", group("dihedral(6)"), config)
            assert (verdict.computable, verdict.notes) == \
                (False, "cap fired: coset enumeration: 6 exceeds cap 5")
            return
        record = also_witness(group("dihedral(6)"), coset_cap=coset_cap)
        assert record.to_json()["xs"] == ["(2 6)(3 5)"]
        assert record.per_prime[3].to_json()["em_order"] == 4
        assert [format_perm(g) for g in record.em.generators] == \
            ["(2 6)(3 5)", "(1 4)(2 3)(5 6)"]
        verdict = evaluate("LA", group("dihedral(6)"), config)
        assert (verdict.computable, verdict.lhs, verdict.rhs,
                verdict.holds, verdict.notes) == \
            (True, 3, 3, True, "r=1; tightness=1.0000")


class TestAlsoCentralizers:
    @pytest.mark.parametrize("text,filters", [
        ("dicyclic(8)", 2), ("heisenberg(3)", 0),
        ("direct_product(symmetric(3),dihedral(4))", 2)])
    def test_one_filter_per_conjugation_action(self, monkeypatch, text,
                                               filters):
        # every x in G was filtered before (32 and 48 calls); x's centralizer
        # in P n G' depends only on how x conjugates it.  heisenberg(3) has
        # P n G' = P n zed, so nothing is filtered.  Only filters on G's
        # points count: M's centralizer filter runs in the quotient by zed,
        # on |G : zed| points
        calls = []
        filter_ = witness.centralizing
        G = group(text)

        def counting(elems, S, points):
            if elems and elems[0].degree == G.degree:
                calls.append((tuple(elems), tuple(S)))
            return filter_(elems, S, points)
        monkeypatch.setattr(witness, "centralizing", counting)
        also_witness(G)
        actions = {(elems, tuple(a.conjugate(x) for a in elems))
                   for elems, (x,) in calls}
        assert len(calls) == len(actions) == filters


class TestSampledFlag:
    def test_large_domain_with_a_map_samples(self):
        rep = rank_embedding_pl(group("dicyclic(32)"), "pl1")
        assert rep.map_count == 1 and rep.sampled
        assert rep.homomorphisms_ok and rep.kernel_contained

    @pytest.mark.parametrize("text", ["dihedral(16)", "elem_abelian(5,3)"])
    def test_all_pairs_or_no_maps_does_not(self, text):
        assert not rank_embedding_pl(group(text), "pl1").sampled

    def test_no_maps_draw_no_pairs(self):
        assert witness._pairs(tuple(range(100)), 0, 1000, "0:pl1") == \
            ([], False)


def corpus_p_groups():
    out = []
    for spec in default_corpus().specs:
        G = build_group(spec)
        p = is_prime_power(G.order())
        if G.order() > 1 and p is not None:
            out.append((spec.label, G))
    return out


def test_corpus_p_group_soundness():
    """Every nontrivial corpus p-group: all per-prime witnesses ok, both
    embeddings homomorphic with contained kernel, no broken bound."""
    groups = corpus_p_groups()
    assert len(groups) == 49
    for label, G in groups:
        for fn in (also_witness, szivas_witness):
            assert all(w.ok for w in fn(G).per_prime.values()), label
        for which in ("pl1", "pl2"):
            rep = rank_embedding_pl(G, which)
            assert rep.homomorphisms_ok and rep.kernel_contained, label
            assert rep.bound_holds is not False, label


def embedding_oracle(G, which, sample_pairs):
    """The fields of rank_embedding_pl(G, which) with each pair checked by
    Perm products: f(ab) (f(a) f(b))^-1 in zed, three map values a pair,
    and the kernel by whole map values against zed's element set."""
    caps = (DEFAULT_ENUMERATION_CAP, DEFAULT_SUBGROUP_CAP, DEFAULT_TUPLE_CAP,
            DEFAULT_COSET_CAP)
    sr = structure_report(G)
    r = _section_rank(sr.derived, sr.zed, *caps)
    lemma, fmap = witness._MAPS[which]
    domain, target, exponent = witness._LEMMAS[lemma][0](sr, r)
    xs = (also_witness if lemma == "also" else szivas_witness)(G).xs
    zed = set(sr.zed.elements())
    elems = domain.elements()
    pairs, sampled = witness._pairs(elems, len(xs), sample_pairs,
                                    f"0:{which}")
    homs_ok = all(fmap(a * b, t) * (fmap(a, t) * fmap(b, t)).inverse() in zed
                  for t in xs for a, b in pairs)
    target_set = set(target.elements())
    kernel_contained = all(a in target_set for a in elems
                           if all(fmap(a, t) in zed for t in xs))
    rank = _section_rank(domain, target, *caps)
    bound = exponent * r
    holds = None if isinstance(rank, UnknownRank) else rank <= bound
    return (which, is_prime_power(G.order()), len(xs), homs_ok,
            kernel_contained, rank, bound, holds, sampled)


class TestEmbeddingChecks:
    """The embeddings decide both checks on zed-coset keys; the Perm-product
    oracle above decides them on whole products."""

    @pytest.mark.parametrize("sample_pairs", [DEFAULT_SAMPLE_PAIRS, 50])
    def test_corpus_p_groups_match_the_oracle(self, sample_pairs):
        maps = 0
        for label, G in corpus_p_groups():
            for which in ("pl1", "pl2"):
                rep = rank_embedding_pl(G, which, sample_pairs=sample_pairs)
                assert astuple(rep) == \
                    embedding_oracle(G, which, sample_pairs), (label, which)
                maps += rep.map_count
        assert maps > 0

    @pytest.mark.parametrize("text", ["dihedral(16)", "dicyclic(32)"])
    def test_planted_non_homomorphism(self, monkeypatch, text):
        # a -> t is constant and t lies outside zed: f(ab) = t, but
        # f(a) f(b) = t^2, so no pair passes.  No value lies in zed, so the
        # kernel is empty
        monkeypatch.setitem(witness._MAPS, "pl1", ("also", lambda a, t: t))
        rep = rank_embedding_pl(group(text), "pl1")
        assert rep.map_count == 1
        assert not rep.homomorphisms_ok
        assert rep.kernel_contained

    @pytest.mark.parametrize("text", ["dihedral(16)", "dicyclic(32)"])
    def test_planted_kernel_escapes_the_target(self, monkeypatch, text):
        # the trivial map is a homomorphism whose kernel is all of C_G(G'),
        # which is larger than Z_2 here
        monkeypatch.setitem(witness._MAPS, "pl1",
                            ("also", lambda a, t: t * t.inverse()))
        G = group(text)
        rep = rank_embedding_pl(G, "pl1")
        sr = structure_report(G)
        assert sr.orders["centralizer_of_derived"] > \
            sr.orders["second_center"]
        assert rep.map_count == 1
        assert rep.homomorphisms_ok
        assert not rep.kernel_contained

    @pytest.mark.parametrize("text,maps", [
        ("heisenberg(5)", 0),
        ("direct_product(heisenberg(3),heisenberg(3))", 0),
        ("dihedral(16)", 1)])
    def test_coset_map_only_with_maps(self, text, maps):
        # embeddings with no maps build no zed-coset map; G's memo holds
        # one only when some map needs it
        G = group(text)
        assert rank_embedding_pl(G, "pl1").map_count == maps
        assert rank_embedding_pl(G, "pl2").map_count == 0
        assert (("cosets", structure_report(G).zed) in G._memo) == bool(maps)


# sha256 of repr([list(layer.items()) for layer in layers]) for each corpus
# p-group at its shrink_generating_set anchors
PINNED_LAYERS = {
    "cyclic(2)":
        "d35a5aa55dcbc58adb4752db5ad479ef361d88589299afea270a0c1ecf7d8654",
    "cyclic(3)":
        "1351db413e8bbb25119fb6aa4517a8bb09dfb2a6126a88732e3ca09d5aa6519f",
    "cyclic(4)":
        "d26cfb26d36ad7ecfadd4229ef7adc434d74260160ff6e7bc4d09a7d80eb0b01",
    "cyclic(5)":
        "2619843b9282ef57ef9f9bfdb4d30c9481e5df7c28138ae89f4969281fd54d7e",
    "cyclic(7)":
        "b7ffe9470e4099f64dbdc2bccba0b6fbf8850d29ca2ab1c2d38e53092d978c90",
    "cyclic(8)":
        "b9db34f3985109782814ce08e60f665621e4e1174e4a0ee63e01c5913caa4f04",
    "cyclic(9)":
        "838acba785e72775cf6802e2d01274315d637ad57b4bd64524990cb8c52fe421",
    "cyclic(11)":
        "5f0ecd0ff51d6e8fb2155b1443ffbbb03046375cd47c9a33f97d7dfdda8450ca",
    "cyclic(13)":
        "224c025b9ff2f32b62a8cce0defce81e44bc02ca3fed41725986aaeec86a5e6f",
    "cyclic(16)":
        "6b224d95c2ab97f5219d1a6f69119f78ab1217acc18b456abc99e60b4b2fd086",
    "cyclic(17)":
        "972cb1afa81f2c85a94073f4a1da6835a5a8f9de644947f36e528cfa49117c22",
    "cyclic(19)":
        "1d0a9d829fc196c59aeefb020cc5d59f2f494a3698f470cbfce5b71bc11f0101",
    "cyclic(23)":
        "b7527e80cd4cebb2a7692738645616435a1f1de2333c6618e9ccdc9da1ae9931",
    "cyclic(25)":
        "8804926a6d76a14842605ba418ae7ca24f7fe8817bd06bd40b6f1dd781f257b4",
    "cyclic(27)":
        "d77fd00c1db5338800fe6c541137e0716b53f5688c18b1716ee49cf356231789",
    "cyclic(29)":
        "38c76642015e5e2582db4ba68337d2e6591fa4551b7171d5a8a8f975b0737962",
    "cyclic(31)":
        "f42ce6473ae0dc2193af74ceb76191bf81ae980f898dcc98a97150c95b971322",
    "cyclic(32)":
        "927cf8b3edf2e7653678a180096a91cfd0c110e5156b3e49c06d47cd48430507",
    "dihedral(1)":
        "d35a5aa55dcbc58adb4752db5ad479ef361d88589299afea270a0c1ecf7d8654",
    "dihedral(2)":
        "79a253229a3a0b4d83624597d1bb9fbc74964ac7387e3b8081c944f29a50f742",
    "dihedral(4)":
        "4dc3d30bda818223cd194223092811537ea7a205a614e784ad14445fd46e611f",
    "dihedral(8)":
        "6270cb7bb51ba3cb685788d50935ccc59c58006b9d2f43caec33d8ad8fc95752",
    "dihedral(16)":
        "39ca07afe0aa65575abbf9c18d45c4f0814d5ca2eab35527dd5f006b505fb7c0",
    "dihedral(32)":
        "809cc542b3a3d3b018599be6df4e9b2a573af24cff22788fcb49fb7ad189b9de",
    "dicyclic(1)":
        "d26cfb26d36ad7ecfadd4229ef7adc434d74260160ff6e7bc4d09a7d80eb0b01",
    "dicyclic(2)":
        "af0537405dacf8a62c26fb406e2a544ffd4252f00c5529c41c8ec44810bba70b",
    "dicyclic(4)":
        "dd75cdc42b7b16f5e95e484dd68245d91490ba79f8505301398db654cafbfb34",
    "dicyclic(8)":
        "5d6e89bbcaefed844766999cdc274bb448faf508048dae7f65d94a35e55c424d",
    "dicyclic(16)":
        "ec92e67605179b7a854aa7ff44fae15dec7fc477888105c601dd2fc7a36f7bba",
    "dicyclic(32)":
        "feaf02dafc8281fc75f59f2a17043d9917629749467c6bff2930401050522bc7",
    "symmetric(2)":
        "d35a5aa55dcbc58adb4752db5ad479ef361d88589299afea270a0c1ecf7d8654",
    "alternating(3)":
        "1351db413e8bbb25119fb6aa4517a8bb09dfb2a6126a88732e3ca09d5aa6519f",
    "elem_abelian(2,1)":
        "d35a5aa55dcbc58adb4752db5ad479ef361d88589299afea270a0c1ecf7d8654",
    "elem_abelian(2,2)":
        "79a253229a3a0b4d83624597d1bb9fbc74964ac7387e3b8081c944f29a50f742",
    "elem_abelian(2,3)":
        "b0c89e3956ac91bb45908e8a6131cc1a981471841876000e76afa7368f1a930d",
    "elem_abelian(3,1)":
        "1351db413e8bbb25119fb6aa4517a8bb09dfb2a6126a88732e3ca09d5aa6519f",
    "elem_abelian(3,2)":
        "c172d626090c33322070cd16a68110fdaf6e664645b7bba091685388a5f33d4d",
    "elem_abelian(3,3)":
        "3c92db1bb9b3e63eaba95fbc3a41096586c2c335b3b77320fa90beb86043a803",
    "elem_abelian(5,1)":
        "2619843b9282ef57ef9f9bfdb4d30c9481e5df7c28138ae89f4969281fd54d7e",
    "elem_abelian(5,2)":
        "a638127bff2e604c604f267b4bd56c791edfa0a951adfe26bfabc7250c933cf4",
    "elem_abelian(5,3)":
        "29f4efa4d365e0326396c099811747b1aa14a7af087f2585b72bf3f76913ebfb",
    "heisenberg(2)":
        "f5ff75fc63aeb6749a57a7c82c7494a3e5d0d6c665a619ada09ee3ca158ab2d1",
    "heisenberg(3)":
        "a6bed2039e2b0267e365cb074767b305a58875b175ec87e3225e7bf9eb9e7c13",
    "heisenberg(5)":
        "cdb58baa4995e4178b56b691b128ab7205f38f389bb23176208f3bfac4c65ec4",
    "direct_product(dihedral(4),dihedral(4))":
        "c116300f07032bd7689bb7297d32a49760e2828449e5ab7450f639294db9c70a",
    "direct_product(heisenberg(3),heisenberg(3))":
        "12c932144b2cbe06b16167fe85743aa0a04603b46a894c6b42e547543673a1a3",
    "direct_product(heisenberg(3),cyclic(3))":
        "746243ffce109648700d82d675134109fd2613d0f881a8ed92c12acc6dbb0f7c",
    "direct_product(dihedral(4),cyclic(2))":
        "bab83045bacaea7deba7c58181080d84210ffbb458c918fad7a2bd2c99e17414",
    "direct_product(dicyclic(2),dihedral(4))":
        "211c51f731556519f8b962286d9274f939652f5fd0d6a77eb2cf015d317b4ddf",
}


class TestLayersByKey:
    def test_layers_are_pinned(self):
        groups = corpus_p_groups()
        assert [label for label, _ in groups] == list(PINNED_LAYERS)
        for label, G in groups:
            anchors = shrink_generating_set(G, list(G.generators))
            layers = commutator_product_layers(G, anchors)
            digest = hashlib.sha256(repr(
                [list(layer.items()) for layer in layers]).encode())
            assert digest.hexdigest() == PINNED_LAYERS[label], label

    def test_one_commutator_per_distinct_value(self, monkeypatch):
        # each anchor's distinct [x, a] are found by key; a Perm commutator
        # is built for a new key only, not for every x in P
        calls = []
        build = witness.commutator

        def counting(x, a):
            calls.append(a)
            return build(x, a)
        monkeypatch.setattr(witness, "commutator", counting)
        fewer = 0
        for label, G in corpus_p_groups():
            anchors = shrink_generating_set(G, list(G.generators))
            calls.clear()
            commutator_product_layers(G, anchors)
            elems = G.elements()
            built = Counter(calls)
            for a in anchors:
                distinct = len({build(x, a) for x in elems})
                assert built[a] == distinct, label
                fewer += distinct < len(elems)
        assert fewer > 0
