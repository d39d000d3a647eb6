"""Subgroup algebra against definitional filter oracles and the worked
examples (quaternion, dihedral, symmetric, Heisenberg)."""

import random
import sys

import pytest

from centerbound import statements, structure, witness
from centerbound.arith import p_part, prime_factors
from centerbound.config import Config
from centerbound.corpus import build_group, default_corpus, parse_group_spec
from centerbound.errors import CapExceeded, NotAbelian, NotNormal, NotPGroup
from centerbound.group import Group, Subgroup
from centerbound.perm import Perm, identity, parse_perm
from centerbound.structure import (by_center_cosets, center, centralizer,
                                   dee_subgroup, derived_subgroup,
                                   intersection, is_normal,
                                   mutual_commutator, normalizer, quotient,
                                   second_center, socle_p, structure_report,
                                   sylow, zed_subgroup)
from centerbound.table import _table

from _oracles import (center_oracle, centralizer_oracle, closure,
                      derived_oracle, second_center_oracle,
                      normalizer_oracle)


def group(text):
    return build_group(parse_group_spec("family:" + text))


def make(degree, *gens):
    return Group(degree, [parse_perm(s, degree) for s in gens])


Q8 = lambda: group("dicyclic(2)")


def with_history(G, history):
    """G fresh, or G after an enumeration has put its Cayley table in the
    memo; no answer outside the enumerations may tell the two apart."""
    if history == "tabled":
        _table(G, Config().enumeration_cap)
        assert "table" in G._memo
    return G


class TestCentralizerAndCenter:
    def test_centralizer_of_derived_in_sym3(self):
        G = group("symmetric(3)")
        C = centralizer(G, derived_subgroup(G).generators)
        assert C.order() == 3
        oracle = centralizer_oracle(closure(3, G.generators),
                                    derived_subgroup(G).generators)
        assert set(C.elements()) == oracle

    def test_centralizer_of_identity_is_whole_group(self):
        G = group("symmetric(4)")
        assert centralizer(G, [identity(4)]).order() == 24

    def test_center_examples(self):
        assert center(group("symmetric(4)")).order() == 1
        assert center(Q8()).order() == 2
        abelian = group("cyclic(12)")
        assert center(abelian).order() == 12
        assert center(group("dihedral(4)")).order() == 2

    def test_center_matches_definitional_oracle(self):
        for text in ("symmetric(4)", "dihedral(6)", "dicyclic(3)",
                     "heisenberg(3)"):
            G = group(text)
            assert set(center(G).elements()) == \
                center_oracle(closure(G.degree, G.generators))


class TestDerivedSubgroup:
    def test_sym3(self):
        G = group("symmetric(3)")
        D = derived_subgroup(G)
        assert D.order() == 3
        assert set(D.elements()) == derived_oracle(3, closure(3, G.generators))

    def test_dih4(self):
        G = group("dihedral(4)")
        assert derived_subgroup(G).order() == 2

    def test_trivial_factor(self):
        G = group("symmetric(3)")
        B = Subgroup(G, [])
        assert mutual_commutator(derived_subgroup(G), B).order() == 1

    def test_against_oracle_on_sample(self):
        for text in ("symmetric(4)", "dicyclic(4)", "dihedral(8)",
                     "direct_product(symmetric(3),dihedral(4))"):
            G = group(text)
            assert set(derived_subgroup(G).elements()) == \
                derived_oracle(G.degree, closure(G.degree, G.generators))


class TestSecondCenter:
    def test_class_two_group_is_all(self):
        G = group("dihedral(4)")
        assert second_center(G).order() == 8

    def test_trivial_center_forces_trivial(self):
        G = group("symmetric(4)")
        assert second_center(G).order() == 1

    def test_abelian_is_all(self):
        G = group("cyclic(9)")
        assert second_center(G).order() == 9

    def test_against_oracle(self):
        for text in ("dicyclic(4)", "dihedral(8)", "symmetric(4)",
                     "heisenberg(3)"):
            G = group(text)
            assert set(second_center(G).elements()) == \
                second_center_oracle(G.degree, closure(G.degree, G.generators))


class TestDeeSubgroup:
    def test_sym3(self):
        G = group("symmetric(3)")
        D = dee_subgroup(G)
        assert D.order() == 3
        assert set(D.elements()) == set(derived_subgroup(G).elements())

    def test_class_two_gives_whole_group(self):
        G = group("heisenberg(3)")
        assert dee_subgroup(G).order() == 27

    def test_sym4_by_oracle(self):
        # {g | [g, A4] <= Z(S4) = 1} is the centralizer of A4, which is trivial
        G = group("symmetric(4)")
        elems = closure(4, G.generators)
        derived = derived_oracle(4, elems)
        z = center_oracle(elems)
        inv = {g: g.inverse() for g in elems}
        oracle = {g for g in elems
                  if all(inv[g] * inv[c] * g * c in z for c in derived)}
        assert set(dee_subgroup(G).elements()) == oracle
        assert dee_subgroup(G).order() == 1


class TestSylow:
    def test_sym4(self):
        G = group("symmetric(4)")
        P2, P3 = sylow(G, 2), sylow(G, 3)
        assert P2.order() == 8
        assert P3.order() == 3
        assert all(x.order() in (1, 2, 4, 8) for x in P2.elements())
        assert sylow(G, 5).order() == 1

    def test_orders_are_exact_p_parts(self):
        for text, parts in (("symmetric(5)", {2: 8, 3: 3, 5: 5}),
                            ("dicyclic(6)", {2: 8, 3: 3}),
                            ("cyclic(30)", {2: 2, 3: 3, 5: 5})):
            G = group(text)
            for p, expected in parts.items():
                P = sylow(G, p)
                assert P.order() == expected
                assert all(x.order() == 1 or x.order() % p == 0
                           or p % x.order() == 0 for x in P.elements())

    @pytest.mark.parametrize("text,p,ascends", [
        ("dicyclic(32)", 2, False), ("heisenberg(3)", 3, False),
        ("symmetric(4)", 2, True)])
    def test_p_group_is_its_own_sylow(self, monkeypatch, text, p, ascends):
        calls = []
        ascent = structure._ascent_step

        def counting(*args):
            calls.append(args)
            return ascent(*args)
        monkeypatch.setattr(structure, "_ascent_step", counting)
        G = group(text)
        P = sylow(G, p)
        assert bool(calls) == ascends
        if not ascends:
            assert P.generators == G.generators
            assert P.element_set() == G.element_set()


    @pytest.mark.parametrize("history", ["fresh", "tabled"])
    @pytest.mark.parametrize("text", [
        "dicyclic(4)", "direct_product(symmetric(3),dihedral(4))",
        "symmetric(4)", "symmetric(5)", "alternating(5)", "dicyclic(6)",
        "direct_product(heisenberg(3),cyclic(2))", "cyclic(30)"])
    def test_scan_is_the_normalizer_ascent(self, monkeypatch, text, history):
        """Each step adds the first y of N_G(P), in G's element order, with
        y not in P and y^p in P; sylow builds no N_G(P) to find it."""
        G = group(text)
        expected = {}
        for p in prime_factors(G.order()):
            target = p_part(G.order(), p)
            P = Subgroup(G, (), _trusted=True)
            while target < G.order() and P.order() < target:
                N = normalizer(G, P) if P.order() > 1 else G
                y = next(y for y in N.elements()
                         if y not in P and y ** p in P)
                P = Subgroup(G, P.generators + (y,), _trusted=True)
            expected[p] = P.generators if P.order() > 1 else G.generators

        def refuse(*args):
            raise AssertionError("sylow built a normalizer")
        monkeypatch.setattr(structure, "normalizer", refuse)
        G = with_history(group(text), history)
        assert {p: sylow(G, p).generators for p in expected} == expected


class TestNormalizer:
    def test_whole_group(self):
        G = group("symmetric(3)")
        assert normalizer(G, G).order() == 6

    def test_transposition_self_normalizing_in_sym3(self):
        G = group("symmetric(3)")
        H = Subgroup(G, [parse_perm("(1 2)", 3)])
        N = normalizer(G, H)
        assert set(N.elements()) == set(H.elements())

    def test_sylow3_normalizer_in_sym4(self):
        G = group("symmetric(4)")
        N = normalizer(G, sylow(G, 3))
        assert N.order() == 6
        assert set(N.elements()) == normalizer_oracle(
            closure(4, G.generators), sylow(G, 3).elements())


# |Z| > 1, Z = 1 and abelian groups, each with a table
COSET_GROUPS = ["dicyclic(4)", "direct_product(symmetric(3),dihedral(4))",
                "heisenberg(3)", "symmetric(4)", "alternating(5)",
                "cyclic(6)", "elem_abelian(2,3)"]


def _plain(G, select, cap):
    """by_center_cosets as an element-by-element filter: select over all of
    G."""
    return list(select(list(G.elements(cap))))


class TestCenterCosets:
    """Filters whose answer contains Z(G) test one element per coset of
    Z(G) and keep or drop the coset whole."""

    @staticmethod
    def _users(G):
        """Every user of the coset filter."""
        elems = G.elements()
        derived = derived_subgroup(G)
        subs = [derived, Subgroup(G, elems[1:3])] + [
            Subgroup(G, [x]) for x in elems[1:7]]
        ev = statements._Evaluator(G, Config())
        return {
            "centralizers": [centralizer(G, H.generators).elements()
                             for H in subs],
            "second_center": second_center(G).elements(),
            "dee": dee_subgroup(G).elements(),
            "normalizers": [(N.elements(), N.generators)
                            for N in (normalizer(G, H) for H in subs)],
            "sylows": [sylow(G, p).generators for p in (2, 3, 5)],
            "lk": [ev._lk_member(H) for _, H in ev._lk_library()],
            "also": witness.also_witness(G).to_json(),
        }

    @pytest.mark.parametrize("history", ["fresh", "tabled"])
    @pytest.mark.parametrize("text", COSET_GROUPS)
    def test_users_equal_the_element_filter(self, monkeypatch, text,
                                            history):
        by_cosets = self._users(with_history(group(text), history))
        for module in (structure, statements, witness):
            monkeypatch.setattr(module, "by_center_cosets", _plain)
        assert self._users(group(text)) == by_cosets

    @pytest.mark.parametrize("text", COSET_GROUPS)
    def test_users_against_oracles(self, text):
        G = group(text)
        elems = closure(G.degree, G.generators)
        zset = center(G).element_set()
        derived = derived_subgroup(G)
        assert set(dee_subgroup(G).elements()) == {
            g for g in elems
            if all(g.inverse() * x.inverse() * g * x in zset
                   for x in derived.elements())}
        for H in (derived, Subgroup(G, G.elements()[1:3]),
                  Subgroup(G, [G.elements()[-1]])):
            assert set(centralizer(G, H.generators).elements()) == \
                centralizer_oracle(elems, H.generators)
            assert set(normalizer(G, H).elements()) == \
                normalizer_oracle(elems, H.elements())

    @pytest.mark.parametrize("text", COSET_GROUPS)
    def test_test_runs_once_per_coset(self, monkeypatch, text):
        G = group(text)
        zent = center(G).elements()
        index = G.order() // len(zent)
        calls = []
        kept = by_center_cosets(G, lambda reps: calls.append(reps) or [],
                                10 ** 6)
        assert len(calls) == 1 and kept == []
        # select gets one element per coset of Z(G): the first in G's order
        seen, firsts = set(), []
        for g in G.elements():
            if g not in seen:
                firsts.append(g)
                seen.update(g * z for z in zent)
        assert list(calls[0]) == firsts and len(firsts) == index
        # the centralizer filter asks commute about |G : Z(G)| elements
        tested = set()

        def commute(a, b, points):
            tested.add(a)
            return a * b == b * a
        monkeypatch.setattr(structure, "commute", commute)
        centralizer(G, [G.elements()[-1]])
        assert len(tested) == index

    @pytest.mark.parametrize("text", COSET_GROUPS)
    def test_second_center_tests_every_element(self, monkeypatch, text):
        # Z2 and D decide every element of G, each by one test per coset of
        # Z(G): the tested elements times Z(G) are all of G.  When |G'| = |G|
        # D is Z2, and only Z2 is filtered
        G = group(text)
        zent = center(G).elements()
        tested = []
        make_select = structure._commutes_into_center

        def recording(*args):
            select = make_select(*args)

            def recorded(reps):
                tested.append(list(reps))
                return select(reps)
            return recorded
        monkeypatch.setattr(structure, "_commutes_into_center", recording)
        second_center(G)
        dee_subgroup(G)
        index = G.order() // len(zent)
        filters = 1 if derived_subgroup(G).order() == G.order() else 2
        assert [len(t) for t in tested] == [index] * filters
        for t in tested:
            assert {g * z for g in t for z in zent} == set(G.elements())

    @pytest.mark.parametrize("text", COSET_GROUPS)
    def test_second_center_and_dee_build_no_inverse_per_element(
            self, monkeypatch, text):
        # one x^-1 per generator x of G and of G': the test looks g^x up in
        # g's coset of Z(G) and never builds g^-1
        G = group(text)
        built = []
        inverse = Perm.inverse

        def counting(g):
            if sys._getframe(1).f_globals["__name__"] == structure.__name__:
                built.append(g)
            return inverse(g)
        monkeypatch.setattr(Perm, "inverse", counting)
        second_center(G)
        dee_subgroup(G)
        assert len(built) <= len(G.generators) + len(
            derived_subgroup(G).generators)


class TestWholeDerived:
    """When |G'| = |G|, G' is G: C_G(G') is C_G(G) = Z(G), and D, the Z2
    filter on generators of G' = G, is Z2.  The report hands out those
    handles and filters only Z2."""

    @staticmethod
    def _report(monkeypatch, G):
        filters = []
        real = structure.by_center_cosets
        monkeypatch.setattr(structure, "by_center_cosets",
                            lambda *args: filters.append(1) or real(*args))
        return structure_report(G), len(filters)

    @pytest.mark.parametrize("text", [
        "alternating(5)", "alternating(6)",
        "direct_product(alternating(5),alternating(5))"])
    def test_perfect_groups_share_the_handles(self, monkeypatch, text):
        G = group(text)
        sr, filters = self._report(monkeypatch, G)
        assert sr.orders["derived"] == G.order()
        assert sr.centralizer_of_derived is sr.center
        assert sr.dee is sr.second_center is dee_subgroup(G)
        assert filters == 1

    def test_symmetric4_filters_each(self, monkeypatch):
        # C_G(G') = D = Z2 = Z = 1 as sets, but G' = A4 is not G: each of
        # Z2, C_G(G') and D is its own filter and its own handle
        G = group("symmetric(4)")
        sr, filters = self._report(monkeypatch, G)
        assert filters == 3
        handles = [sr.center, sr.second_center, sr.centralizer_of_derived,
                   sr.dee]
        assert len({id(H) for H in handles}) == 4
        assert all(H.order() == 1 for H in handles)


@pytest.mark.parametrize("spec", default_corpus().specs,
                         ids=lambda spec: spec.label)
def test_center_and_centralizer_of_derived_against_sympy(spec):
    """|Z(G)| and |C_G(G')| against sympy's independent algorithms."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    G = build_group(spec)
    # sympy's permutations are 0-based array forms; the identity stands in
    # for an empty generating set
    S = combinatorics.PermutationGroup([
        combinatorics.Permutation([i - 1 for i in g.images])
        for g in G.generators or [identity(G.degree)]])
    assert S.order() == G.order()
    assert S.center().order() == center(G).order()
    assert S.centralizer(S.derived_subgroup()).order() == centralizer(
        G, derived_subgroup(G).generators).order()


class TestQuotient:
    def test_q8_mod_center_is_klein(self):
        G = Q8()
        pres = quotient(G, center(G))
        assert pres.quotient.order() == 4
        assert all((q * q).is_identity() for q in pres.quotient.elements())

    def test_trivial_kernel_keeps_order(self):
        G = group("symmetric(4)")
        pres = quotient(G, Subgroup(G, []))
        assert pres.quotient.order() == 24
        assert pres.projection(G.generators[0]) == G.generators[0]

    def test_sym4_mod_klein_is_nonabelian_order6(self):
        G = group("symmetric(4)")
        V = Subgroup(G, [parse_perm("(1 2)(3 4)", 4),
                         parse_perm("(1 3)(2 4)", 4)])
        pres = quotient(G, V)
        Q = pres.quotient
        assert Q.order() == 6
        assert not Q.is_abelian()

    def test_projection_is_homomorphism(self):
        G = group("dicyclic(4)")
        pres = quotient(G, center(G))
        rng = random.Random(5)
        elems = G.elements()
        for _ in range(100):
            a, b = rng.choice(elems), rng.choice(elems)
            assert pres.projection(a * b) == \
                pres.projection(a) * pres.projection(b)

    def test_projection_section_consistent(self):
        G = group("dihedral(6)")
        pres = quotient(G, derived_subgroup(G))
        for q in pres.quotient.elements():
            assert pres.projection(pres.preimage_elements([q])[0]) == q

    def test_order_product(self):
        G = group("symmetric(4)")
        for N in (center(G), derived_subgroup(G), Subgroup(G, [])):
            pres = quotient(G, N)
            assert pres.quotient.order() * N.order() == G.order()

    def test_rejects_non_normal(self):
        G = group("symmetric(3)")
        H = Subgroup(G, [parse_perm("(1 2)", 3)])
        with pytest.raises(NotNormal):
            quotient(G, H)

    def test_coset_cap(self):
        G = group("symmetric(5)")
        with pytest.raises(CapExceeded):
            quotient(G, Subgroup(G, []), coset_cap=10)


class TestSocle:
    def test_c4_times_c2(self):
        A = make(6, "(1 2 3 4)", "(5 6)")
        assert socle_p(A, 2).order() == 4

    def test_elementary_abelian_is_own_socle(self):
        A = group("elem_abelian(3,2)")
        assert socle_p(A, 3).order() == 9

    def test_c9(self):
        assert socle_p(group("cyclic(9)"), 3).order() == 3

    def test_rejects_bad_input(self):
        with pytest.raises(NotAbelian):
            socle_p(group("dihedral(4)"), 2)
        with pytest.raises(NotPGroup):
            socle_p(group("cyclic(6)"), 2)


class TestStructureReport:
    def test_sym3_times_dih4(self):
        G = group("direct_product(symmetric(3),dihedral(4))")
        sr = structure_report(G)
        assert sr.orders == {
            "group": 48, "derived": 6, "center": 2, "second_center": 8,
            "centralizer_of_derived": 24, "dee": 24, "zed": 2}
        assert sr.p_parts == {3: 3}
        assert sr.orders["derived"] // sr.orders["zed"] == 3

    def test_zed_is_intersection(self):
        for text in ("dicyclic(4)", "dihedral(8)",
                     "direct_product(symmetric(3),dihedral(4))"):
            G = group(text)
            sr = structure_report(G)
            assert set(sr.zed.elements()) == \
                set(intersection(sr.derived, sr.center).elements())

    def test_containment_chain_and_normality(self):
        for text in ("symmetric(4)", "dicyclic(8)", "heisenberg(3)",
                     "direct_product(alternating(4),dihedral(4))"):
            G = group(text)
            sr = structure_report(G)
            zset = set(sr.center.elements())
            z2set = set(sr.second_center.elements())
            cset = set(sr.centralizer_of_derived.elements())
            dset = set(sr.dee.elements())
            assert zset <= z2set <= cset <= dset
            for H in (sr.derived, sr.center, sr.second_center,
                      sr.centralizer_of_derived, sr.dee):
                assert is_normal(G, H)


class TestLemmaNineInstances:
    SAMPLE = ("symmetric(3)", "symmetric(4)", "dihedral(8)", "dicyclic(4)",
              "heisenberg(3)", "direct_product(symmetric(3),dihedral(4))")

    @pytest.mark.parametrize("text", SAMPLE)
    def test_second_center_below_centralizer_of_derived(self, text):
        G = group(text)
        sr = structure_report(G)
        cset = set(sr.centralizer_of_derived.elements())
        assert set(sr.second_center.elements()) <= cset

    @pytest.mark.parametrize("text", SAMPLE)
    def test_derived_of_centralizer_is_central(self, text):
        G = group(text)
        sr = structure_report(G)
        C = sr.centralizer_of_derived
        cc = mutual_commutator(C, C)
        assert set(cc.elements()) <= set(sr.center.elements())

    @pytest.mark.parametrize("text", SAMPLE)
    def test_sylows_of_centralizer_normal_in_g(self, text):
        from centerbound.arith import prime_factors
        G = group(text)
        C = structure_report(G).centralizer_of_derived
        for p in prime_factors(C.order()):
            assert is_normal(G, sylow(C, p))


class TestFocInstances:
    @pytest.mark.parametrize("text", TestLemmaNineInstances.SAMPLE)
    def test_derived_meet_sylow_meet_center(self, text):
        from centerbound.arith import prime_factors
        G = group(text)
        sr = structure_report(G)
        zset = set(sr.center.elements())
        gpset = set(sr.derived.elements())
        for p in prime_factors(G.order()):
            P = sylow(G, p)
            left = {x for x in P.elements() if x in gpset and x in zset}
            right = {x for x in mutual_commutator(P, P).elements()
                     if x in zset}
            assert left == right


class TestQuotientKernel:
    def test_projection_kernel_equals_normal_subgroup(self):
        for text in ("dicyclic(4)", "symmetric(4)", "dihedral(6)"):
            G = group(text)
            N = derived_subgroup(G)
            pres = quotient(G, N)
            kernel = {g for g in G.elements()
                      if pres.projection(g).is_identity()}
            assert kernel == set(N.elements())


def _quotient_case(name):
    """(G, N) for a pinned quotient named G/N."""
    if name == "S4/V4":
        G = group("symmetric(4)")
        return G, Subgroup(G, [parse_perm("(1 2)(3 4)", 4),
                               parse_perm("(1 3)(2 4)", 4)])
    text, kernel = {"S3xD4/Z": ("direct_product(symmetric(3),dihedral(4))",
                                center),
                    "dicyclic(8)/Z": ("dicyclic(8)", center),
                    "heisenberg(3)/zed": ("heisenberg(3)", zed_subgroup)}[name]
    G = group(text)
    return G, kernel(G)


# degree and image generators of quotient(G, N).quotient: cosets numbered
# in order of first appearance in G's element order, generators in order
QUOTIENT_IMAGES = {
    "S4/V4": (6, ["(1 2)(3 6)(4 5)", "(1 6)(2 5)(3 4)"]),
    "S3xD4/Z": (24, [
        "(1 9)(2 10)(3 11)(4 12)(5 13)(6 14)(7 15)(8 16)(17 18)(19 20)"
        "(21 22)(23 24)",
        "(1 10 18)(2 9 17)(3 12 20)(4 11 19)(5 14 22)(6 13 21)(7 16 24)"
        "(8 15 23)",
        "(1 5)(2 6)(3 7)(4 8)(9 13)(10 14)(11 15)(12 16)(17 21)(18 22)"
        "(19 23)(20 24)",
        "(1 3)(2 4)(5 7)(6 8)(9 11)(10 12)(13 15)(14 16)(17 19)(18 20)"
        "(21 23)(22 24)"]),
    "dicyclic(8)/Z": (16, ["(1 2 3 4 5 6 7 8)(9 16 15 14 13 12 11 10)",
                           "(1 9)(2 10)(3 11)(4 12)(5 13)(6 14)(7 15)(8 16)"]),
    "heisenberg(3)/zed": (9, ["(1 4 7)(2 5 8)(3 6 9)",
                              "(1 2 3)(4 5 6)(7 8 9)"]),
}


class TestCosetBlocks:
    @pytest.mark.parametrize("name", sorted(QUOTIENT_IMAGES))
    def test_image_generators_pinned(self, name):
        G, N = _quotient_case(name)
        Q = quotient(G, N).quotient
        degree, images = QUOTIENT_IMAGES[name]
        assert Q.degree == degree
        assert list(Q.generators) == [parse_perm(s, degree) for s in images]

    @pytest.mark.parametrize("name", sorted(QUOTIENT_IMAGES))
    def test_preimages_partition_group(self, name):
        G, N = _quotient_case(name)
        pres = quotient(G, N)
        seen = []
        for q in pres.quotient.elements():
            block = pres.preimage_elements([q])
            assert len(block) == N.order()
            assert all(pres.projection(x) == q for x in block)
            seen += block
        assert len(seen) == G.order()
        assert set(seen) == set(G.elements())

    @pytest.mark.parametrize("name", ["S4/V4", "S3xD4/Z"])
    def test_products_per_lookup(self, name, monkeypatch):
        G, N = _quotient_case(name)
        pres = quotient(G, N)
        Q = pres.quotient
        qs = Q.elements()
        calls = []
        mul = Perm.__mul__

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(Perm, "__mul__", counting)
        pres.preimage_elements(qs)
        assert not calls
        for g in G.elements()[:5]:
            calls.clear()
            pres.projection(g)
            assert len(calls) <= Q.degree == G.order() // N.order()



class TestOneCosetMap:
    """One coset map per normal subgroup: a quotient's blocks are G's own
    elements, grouped by the map the Z(G)-coset filters read."""

    @pytest.mark.parametrize("spec", default_corpus().specs,
                             ids=lambda spec: spec.label)
    def test_central_quotient_shares_the_filters_map(self, spec, monkeypatch):
        G = build_group(spec)
        if center(G).order() == 1:
            return
        maps = []
        cosets = structure._cosets

        def spy(G, N, cap):
            maps.append(cosets(G, N, cap))
            return maps[-1]
        monkeypatch.setattr(structure, "_cosets", spy)
        by_center_cosets(G, lambda reps: reps, 10 ** 6)
        pres = structure.quotient_by_center(G)
        assert len(maps) == 2 and maps[0] is maps[1] is pres._cosets
        mine = {id(g) for g in G.elements()}
        block_elements = pres.preimage_elements(pres.quotient.elements())
        assert len(block_elements) == G.order()
        assert all(id(x) in mine for x in block_elements)

    @pytest.mark.parametrize("text", [
        "direct_product(symmetric(3),dihedral(4))", "dicyclic(8)",
        "direct_product(symmetric(4),heisenberg(3))"])
    @pytest.mark.parametrize("kernel", [center, derived_subgroup])
    def test_building_a_quotient_makes_few_perms(self, text, kernel,
                                                 monkeypatch):
        G = group(text)
        N = kernel(G)
        G.elements()
        N.elements()
        made = []
        raw = Perm._raw

        def counting(img):
            made.append(img)
            return raw(img)
        monkeypatch.setattr(Perm, "_raw", counting)
        quotient(G, N)
        # is_normal's conjugates, then the image generators
        assert len(made) <= len(G.generators) * (len(N.generators) + 1)

    def test_quotient_admits_the_whole_group(self):
        G = group("dicyclic(4)")
        N = center(G)
        with pytest.raises(CapExceeded):
            quotient(G, N, cap=N.order())
        assert quotient(G, N).quotient.order() == G.order() // N.order()
        with pytest.raises(CapExceeded):  # a memo hit refuses alike
            quotient(G, N, cap=G.order() - 1)

    @pytest.mark.parametrize("text", [
        "symmetric(6)", "alternating(5)",
        "direct_product(alternating(5),cyclic(2))",
        "direct_product(alternating(5),dihedral(4))"])
    def test_identity_coset_is_not_block_zero(self, text):
        G = group(text)
        assert not G.elements()[0].is_identity()
        for kernel in (center, derived_subgroup, zed_subgroup):
            N = kernel(G)
            if N.order() == 1:
                continue
            pres = quotient(G, N)
            one = pres.quotient.identity_element()
            assert sorted(pres.preimage_elements([one])) == sorted(
                N.elements())
