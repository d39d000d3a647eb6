"""Generator counts and ranks against exhaustive-search oracles."""

import collections
import hashlib
import itertools
import json
import math

import pytest

from centerbound import rank
from centerbound.arith import is_prime_power
from centerbound.config import Config
from centerbound.corpus import build_group, default_corpus, parse_group_spec
from centerbound.errors import CapExceeded, NotAbelian, NotGenerating, NotPGroup
from centerbound.group import (DEFAULT_ENUMERATION_CAP, DEFAULT_SUBGROUP_CAP,
                               DEFAULT_TUPLE_CAP, TABLE_CAP, Group, Subgroup)
from centerbound.perm import Perm, parse_perm
from centerbound.rank import (UnknownRank, _Table, _lattice, abelian_rank,
                              all_subgroups, d_bracket, frattini_p,
                              group_rank, min_generators, normal_subgroups,
                              shrink_generating_set)
from centerbound.statements import _Evaluator, evaluate_all
from centerbound.structure import (center, derived_subgroup, is_normal,
                                   quotient, quotient_by_center)
from centerbound.table import _Perms, _table

from _oracles import (abelianization_d_oracle, closure, lattice_oracle,
                      min_generators_oracle)


def group(text):
    return build_group(parse_group_spec("family:" + text))


def make(degree, *gens):
    return Group(degree, [parse_perm(s, degree) for s in gens])


class TestMinGenerators:
    def test_examples(self):
        assert min_generators(group("elem_abelian(2,2)")) == 2
        assert min_generators(group("cyclic(7)")) == 1
        assert min_generators(group("cyclic(1)")) == 0
        assert min_generators(group("symmetric(4)")) == 2
        assert min_generators(group("dicyclic(2)")) == 2
        assert min_generators(group("heisenberg(3)")) == 2
        assert min_generators(group("symmetric(6)")) == 2

    @pytest.mark.parametrize("text", [
        "cyclic(12)", "dihedral(6)", "symmetric(4)", "alternating(4)",
        "elem_abelian(3,2)", "dicyclic(3)", "heisenberg(2)",
        "direct_product(cyclic(2),cyclic(4))",
    ])
    def test_against_exhaustive_oracle(self, text):
        G = group(text)
        assert min_generators(G) == \
            min_generators_oracle(G.degree, closure(G.degree, G.generators))

    def test_redundant_generators_do_not_inflate(self):
        G = make(4, "(1 2)", "(1 2 3 4)", "(1 3)", "(1 2)(3 4)")
        assert G.order() == 24
        assert min_generators(G) == 2

    def test_pruned_pair_skips_the_abelianization(self, monkeypatch):
        # S4 is not abelian, so its two pruned generators give d = 2 without
        # the abelianization bound, which takes a power of every element;
        # with nothing enumerated, an enumeration cap below |S4| admits it
        calls = []
        bound = rank._abelianization_d

        def counting(*args):
            calls.append(args)
            return bound(*args)
        monkeypatch.setattr(rank, "_abelianization_d", counting)
        assert min_generators(group("symmetric(4)")) == 2
        assert min_generators(group("symmetric(4)"), cap=1) == 2
        assert calls == []


class TestFrattini:
    def test_cyclic4(self):
        assert frattini_p(group("cyclic(4)"), 2).order() == 2

    def test_elementary_abelian_has_trivial_frattini(self):
        assert frattini_p(group("elem_abelian(5,2)"), 5).order() == 1

    def test_dih4_frattini_is_center(self):
        G = group("dihedral(4)")
        from centerbound.structure import center
        phi = frattini_p(G, 2)
        assert phi.order() == 2
        assert set(phi.elements()) == set(center(G).elements())

    def test_quotient_elementary_abelian(self):
        from centerbound.structure import quotient
        for text in ("dicyclic(4)", "heisenberg(3)", "dihedral(8)"):
            G = group(text)
            p = 3 if text == "heisenberg(3)" else 2
            pres = quotient(G, frattini_p(G, p))
            assert all((q ** p).is_identity() for q in pres.quotient.elements())
            assert pres.quotient.is_abelian()

    def test_rejects_non_p_group(self):
        with pytest.raises(NotPGroup):
            frattini_p(group("symmetric(3)"), 2)


class TestAbelianRank:
    def test_examples(self):
        assert abelian_rank(group("cyclic(6)")) == 1
        assert abelian_rank(group("cyclic(1)")) == 0
        assert abelian_rank(make(9, "(1 2)", "(3 4 5 6)", "(7 8 9)")) == 2
        assert abelian_rank(group("elem_abelian(2,3)")) == 3

    def test_rejects_non_abelian(self):
        with pytest.raises(NotAbelian):
            abelian_rank(group("symmetric(3)"))

    def test_cross_oracle_max_over_subgroups(self):
        for text in ("cyclic(12)", "elem_abelian(3,2)",
                     "direct_product(cyclic(2),cyclic(6))"):
            A = group(text)
            best = 0
            for H in all_subgroups(A):
                best = max(best, min_generators(H))
            assert abelian_rank(A) == best


class TestAllSubgroups:
    def test_counts(self):
        assert len(all_subgroups(group("cyclic(6)"))) == 4
        assert len(all_subgroups(group("cyclic(1)"))) == 1
        assert len(all_subgroups(group("symmetric(3)"))) == 6
        assert len(all_subgroups(group("dicyclic(2)"))) == 6
        assert len(all_subgroups(group("symmetric(4)"))) == 30
        assert len(all_subgroups(group("elem_abelian(2,3)"))) == 16

    @pytest.mark.parametrize("text", [
        "symmetric(3)", "alternating(4)", "dihedral(6)", "dicyclic(3)",
        "elem_abelian(3,2)", "heisenberg(2)",
    ])
    def test_matches_closure_oracle(self, text):
        G = group(text)
        mine = {frozenset(H.elements()) for H in all_subgroups(G)}
        oracle = lattice_oracle(closure(G.degree, G.generators))
        assert mine == oracle

    def test_each_subgroup_once(self):
        subs = all_subgroups(group("dihedral(8)"))
        fingerprints = [frozenset(H.elements()) for H in subs]
        assert len(fingerprints) == len(set(fingerprints))
        # dihedral of order 2n: tau(n) + sigma(n) subgroups, here n = 8
        assert len(subs) == 4 + 15

    def test_cap_is_loud(self):
        with pytest.raises(CapExceeded):
            all_subgroups(group("symmetric(5)"), subgroup_cap=100)


def central_quotient(text):
    return quotient_by_center(group(text)).quotient


class TestTable:
    """The table built from generator rows against the definitional one."""

    @pytest.mark.parametrize("G", [
        group("cyclic(1)"), group("symmetric(4)"), group("dicyclic(3)"),
        group("direct_product(alternating(4),cyclic(3))"),
        make(4, "(1 2)", "(1 2 3 4)", "(1 3)", "(1 2)(3 4)"),
        central_quotient("direct_product(symmetric(4),dihedral(4))"),
    ], ids=["trivial", "S4", "dicyclic3", "A4xC3", "redundant_gens",
            "S4xD4_mod_center"])
    def test_matches_definition(self, G):
        elems = G.elements()
        index = {e: i for i, e in enumerate(elems)}
        table = _Table(G, 200_000)
        assert table.elems == elems
        assert table.table == [tuple(index[a * b] for b in elems)
                               for a in elems]
        assert table.inv == tuple(index[e.inverse()] for e in elems)
        assert table.identity == index[G.identity_element()]

    def test_products_per_generator_not_per_pair(self, monkeypatch):
        G = central_quotient("direct_product(symmetric(4),dihedral(4))")
        G.elements()
        calls = 0
        product = Perm.__mul__

        def counting(a, b):
            nonlocal calls
            calls += 1
            return product(a, b)
        monkeypatch.setattr(Perm, "__mul__", counting)
        _Table(G, 200_000)
        assert 0 < calls <= G.order() * len(G.generators)


class TestNormalSubgroups:
    @pytest.mark.parametrize("text", [
        "symmetric(4)", "direct_product(dihedral(4),dihedral(4))",
        "dicyclic(8)", "elem_abelian(5,2)",
        "direct_product(heisenberg(3),cyclic(3))",
        "direct_product(alternating(5),cyclic(2))",
    ])
    def test_equals_filtered_lattice(self, text):
        normals = [K.elements() for K in normal_subgroups(group(text))]
        G = group(text)
        subs = all_subgroups(G)
        assert normals == [K.elements() for K in subs if is_normal(G, K)]
        if text == "elem_abelian(5,2)":
            assert len(normals) == len(subs) == 8

    @pytest.mark.parametrize("text", ["dihedral(4)", "alternating(4)"])
    def test_matches_oracle(self, text):
        G = group(text)
        elems = closure(G.degree, G.generators)
        oracle = {H for H in lattice_oracle(elems)
                  if all(g.inverse() * h * g in H for g in elems for h in H)}
        mine = [frozenset(K.elements()) for K in normal_subgroups(G)]
        assert len(mine) == len(set(mine))
        assert set(mine) == oracle

    def test_refuses_where_the_lattice_does(self):
        assert refusal(lambda: normal_subgroups(group("symmetric(6)"))) == \
            ("subgroup enumeration", 512, 720)

    def test_small_cap_then_large_cap(self):
        G = group("symmetric(5)")
        assert refusal(lambda: normal_subgroups(G, 64)) == \
            refusal(lambda: normal_subgroups(group("symmetric(5)"), 64))
        normals = [K.elements() for K in normal_subgroups(G, 1600)]
        assert normals == [K.elements() for K in
                           normal_subgroups(group("symmetric(5)"), 1600)]
        assert [len(K) for K in normals] == [1, 60, 120]


def classes(text):
    """The table, all subgroups and the class representatives of _lattice."""
    return _lattice(group(text), 1600, 200_000)


class TestClassLattice:
    """One representative per conjugacy class of subgroups is extended; the
    classes are expanded in full for all_subgroups."""

    @pytest.mark.parametrize("text,count", [
        ("symmetric(4)", 11), ("alternating(4)", 5), ("alternating(5)", 9),
        ("symmetric(5)", 19), ("alternating(6)", 22), ("dihedral(4)", 8),
        ("dicyclic(2)", 6),
    ])
    def test_published_class_counts(self, text, count):
        assert len(classes(text)[2]) == count

    def test_symmetric6_at_cap_1600(self):
        G = group("symmetric(6)")
        assert group_rank(G, subgroup_cap=1600) == 3
        assert len(_lattice(G, 1600, 200_000)[2]) == 56

    @pytest.mark.parametrize("text", [
        "symmetric(4)", "dicyclic(8)",
        "direct_product(dihedral(4),dihedral(4))",
    ])
    def test_one_representative_per_class(self, text):
        idx, found, reps = classes(text)
        assert len(set(reps)) == len(reps)
        for hset, gens in found.items():
            # every subgroup keeps generators of itself, conjugated ones too
            assert idx.closure(gens) == hset
            conjugates = {frozenset(idx.conjugate(x, h) for x in hset)
                          for h in range(idx.n)}
            assert len(conjugates & set(reps)) == 1

    # (count, sha256 of the JSON of [sorted(e._img for e in H.elements())
    # for H in all_subgroups(G, 1600)]), recorded before the lattice
    # enumerated classes
    @pytest.mark.parametrize("text,count,digest", [
        ("symmetric(4)", 30, "51781ecbeaa74cd38c83642907cbd667"
                             "466d76f82dda2af8cb9a80e0697c6507"),
        ("symmetric(5)", 156, "02b0dd4710eb8677fcd0561880b7deee"
                              "759e2f0e77ccbe1c37dd0ede632ef5f4"),
        ("alternating(6)", 501, "e793e7436291c00768b471c3b4999396"
                                "da6d43f90149b6486e68f8194896ec9c"),
        ("dicyclic(8)", 20, "81067d606484d57d7f91ec95bef5145b"
                            "9bea953424e72f27c4424855c897b1e1"),
        ("direct_product(dihedral(4),dihedral(4))", 389,
         "5c7d7f4a6e363cd18266849ef8c10a30"
         "4d3d0bbb95c2007009c810ae61f7a808"),
        ("direct_product(symmetric(4),dihedral(4))", 1026,
         "75a7cd6d35e50b5bb648d09d515b2447"
         "92fbec1edebd6e6486c86d950c38341b"),
    ])
    def test_all_subgroups_unchanged(self, text, count, digest):
        lists = [sorted(e._img for e in H.elements())
                 for H in all_subgroups(group(text), subgroup_cap=1600)]
        assert len(lists) == count
        assert hashlib.sha256(json.dumps(lists).encode()).hexdigest() == \
            digest

    # sha256 of the JSON of [[(sorted(H), list(gens)) for H, gens in found],
    # [sorted(R) for R in reps]] from _lattice, recorded before the lattice
    # walked each cyclic subgroup once: the subgroups, their generators, the
    # representatives and the order of all three
    @pytest.mark.parametrize("text,subgroup_cap,digest", [
        ("symmetric(4)", 1600, "fef35fb67e8c83e36d9b512cce4566ac"
                               "e236556fc6719720e75aa4923fc6af9a"),
        ("symmetric(5)", 1600, "1ce67af34bb43410fb981ef177cce816"
                               "cbf853866fed5f58566ac768cc9ba113"),
        ("alternating(6)", 1600, "95b322b5cc2884e625e08ad800a23789"
                                 "49dbbd4b8b6081f719e53cc37b61af59"),
        ("dicyclic(8)", 1600, "6f3b52fbadf3092fb82f837a80481b7f"
                              "7eb4ab6fd05f86d8ed5a1d2e12acc6d3"),
        ("direct_product(dihedral(4),dihedral(4))", 1600,
         "d66c6d67293e652a538f45c57d096233814a1f4a6db074f246e477f4c18d1396"),
        ("direct_product(symmetric(4),dihedral(4))", 1600,
         "19b0f43df054aea0b60c219f015ec9fd213cb63ccb8e1795f06001414fb5e3c2"),
        ("symmetric(6)", 1600,
         "82280d2cba36c8af495705c19adf38caac4df43c33786f929434fe4c626f1b11"),
        ("direct_product(heisenberg(3),heisenberg(3))", 5000,
         "f5fd6cfc09e4b26f587ab1b24951e6bd1a8234eb2f53b84d3ea0ea0ef9a9c515"),
    ])
    def test_whole_lattice_unchanged(self, text, subgroup_cap, digest):
        _, found, reps = _lattice(group(text), subgroup_cap, 200_000)
        data = [[(sorted(hset), list(gens)) for hset, gens in found.items()],
                [sorted(rep) for rep in reps]]
        assert hashlib.sha256(json.dumps(data).encode()).hexdigest() == \
            digest


class TestExtend:
    """_Table.extend grows a known subgroup by whole left cosets; the
    lattice and the normal subgroups are the ones closure gives."""

    @staticmethod
    def results(G, subgroup_cap):
        idx, found, reps = _lattice(G, subgroup_cap, 200_000)
        normals = normal_subgroups(G, subgroup_cap)
        return (list(found.items()), reps,
                [(K.generators, K.elements()) for K in normals])

    @staticmethod
    def by_closure(monkeypatch):
        monkeypatch.setattr(_Table, "extend",
                            lambda self, hset, gens: self.closure(gens))

    def test_corpus_equals_closure(self, monkeypatch):
        specs = [spec for spec in default_corpus().specs
                 if build_group(spec).order() <= DEFAULT_SUBGROUP_CAP]
        assert len(specs) > 100
        extended = [self.results(build_group(spec), DEFAULT_SUBGROUP_CAP)
                    for spec in specs]
        self.by_closure(monkeypatch)
        assert extended == [
            self.results(build_group(spec), DEFAULT_SUBGROUP_CAP)
            for spec in specs]

    @pytest.mark.parametrize("text,subgroup_cap", [
        ("symmetric(6)", 1600),
        ("direct_product(symmetric(4),heisenberg(3))", 1024),
        ("direct_product(symmetric(3),heisenberg(5))", 1024)])
    def test_above_the_default_cap_equals_closure(self, monkeypatch, text,
                                                  subgroup_cap):
        extended = self.results(group(text), subgroup_cap)
        self.by_closure(monkeypatch)
        assert extended == self.results(group(text), subgroup_cap)

    def test_extend_is_the_generated_subgroup(self):
        idx = _lattice(group("symmetric(4)"), 1600, 200_000)[0]
        for x, y in itertools.product(range(idx.n), repeat=2):
            hset = idx.closure((x,))
            assert idx.extend(hset, (x, y)) == idx.closure((x, y))


class TestGroupRank:
    def test_examples(self):
        assert group_rank(group("dicyclic(2)")) == 2   # quaternion
        assert group_rank(group("elem_abelian(2,3)")) == 3
        assert group_rank(group("symmetric(4)")) == 2
        assert group_rank(group("cyclic(32)")) == 1

    def test_unknown_past_cap(self):
        rank = group_rank(group("symmetric(6)"))
        assert isinstance(rank, UnknownRank)
        assert rank.limit == 512
        assert rank.value == 720

    def test_rank_bounds_chain(self):
        # d(G) <= rk(G) <= log2 |G|
        for text in ("symmetric(4)", "dicyclic(4)", "heisenberg(3)",
                     "elem_abelian(2,3)", "dihedral(12)"):
            G = group(text)
            rank = group_rank(G)
            assert min_generators(G) <= rank <= math.log2(G.order())

    def test_p_group_rank_vs_exhaustive_tuples(self):
        # frattini-based d agrees with exhaustive search for orders <= 256
        for text in ("dihedral(4)", "dicyclic(4)", "heisenberg(2)",
                     "dihedral(16)", "elem_abelian(2,3)"):
            G = group(text)
            assert G.order() <= 256
            assert min_generators(G) == \
                min_generators_oracle(G.degree,
                                      closure(G.degree, G.generators))


class TestShrink:
    def test_dih4_three_generators(self):
        G = group("dihedral(4)")
        r, s = G.generators
        kept = shrink_generating_set(G, [r, s, r * s])
        assert len(kept) == 2
        assert Group(G.degree, kept).order() == 8

    def test_cyclic_with_redundancy(self):
        G = group("cyclic(8)")
        g = G.generators[0]
        kept = shrink_generating_set(G, [g ** 2, g, g ** 3])
        assert len(kept) == 1

    def test_klein_with_all_involutions(self):
        G = group("elem_abelian(2,2)")
        a, b = G.generators
        kept = shrink_generating_set(G, [a, b, a * b])
        assert len(kept) == 2
        assert Group(G.degree, kept).order() == 4

    def test_size_is_always_d(self):
        for text in ("dicyclic(8)", "heisenberg(3)", "dihedral(16)"):
            G = group(text)
            gens = list(G.generators)
            gens.append(gens[0] * gens[-1])
            kept = shrink_generating_set(G, gens)
            assert len(kept) == min_generators(G)
            assert Group(G.degree, kept).order() == G.order()

    def test_rejects_bad_input(self):
        G = group("symmetric(3)")
        with pytest.raises(NotPGroup):
            shrink_generating_set(G, list(G.generators))
        D = group("dihedral(4)")
        with pytest.raises(NotGenerating):
            shrink_generating_set(D, [D.generators[0]])


class TestCorpusRankChain:
    def test_d_le_rank_le_log2_wherever_rank_known(self):
        # the d <= rk <= log2|G| chain on every corpus group whose rank
        # computes under the default caps (abelian, or order within the
        # subgroup-enumeration cap)
        checked = 0
        for spec in default_corpus().specs:
            G = build_group(spec)
            if not G.is_abelian() and G.order() > 512:
                continue
            rank = group_rank(G)
            assert not isinstance(rank, UnknownRank), spec.label
            assert min_generators(G) <= rank <= math.log2(max(G.order(), 2)) \
                or G.order() == 1, spec.label
            checked += 1
        assert checked >= 100

    def test_pinned_ranks(self):
        # group_rank of G, G/Z(G) and G' at the default caps, recorded
        # before the lattice enumerated classes
        specs = default_corpus().specs
        assert len(specs) == len(PINNED_CORPUS_RANKS)
        for spec in specs:
            G = build_group(spec)
            ranks = tuple(
                None if isinstance(r, UnknownRank) else r
                for r in (group_rank(G),
                          group_rank(quotient_by_center(G).quotient),
                          group_rank(derived_subgroup(G))))
            assert ranks == PINNED_CORPUS_RANKS[spec.label], spec.label


# label: (rank of G, of G/Z(G), of G'), None where a default cap refuses
PINNED_CORPUS_RANKS = {
    "cyclic(1)": (0, 0, 0),
    "cyclic(2)": (1, 0, 0),
    "cyclic(3)": (1, 0, 0),
    "cyclic(4)": (1, 0, 0),
    "cyclic(5)": (1, 0, 0),
    "cyclic(6)": (1, 0, 0),
    "cyclic(7)": (1, 0, 0),
    "cyclic(8)": (1, 0, 0),
    "cyclic(9)": (1, 0, 0),
    "cyclic(10)": (1, 0, 0),
    "cyclic(11)": (1, 0, 0),
    "cyclic(12)": (1, 0, 0),
    "cyclic(13)": (1, 0, 0),
    "cyclic(14)": (1, 0, 0),
    "cyclic(15)": (1, 0, 0),
    "cyclic(16)": (1, 0, 0),
    "cyclic(17)": (1, 0, 0),
    "cyclic(18)": (1, 0, 0),
    "cyclic(19)": (1, 0, 0),
    "cyclic(20)": (1, 0, 0),
    "cyclic(21)": (1, 0, 0),
    "cyclic(22)": (1, 0, 0),
    "cyclic(23)": (1, 0, 0),
    "cyclic(24)": (1, 0, 0),
    "cyclic(25)": (1, 0, 0),
    "cyclic(26)": (1, 0, 0),
    "cyclic(27)": (1, 0, 0),
    "cyclic(28)": (1, 0, 0),
    "cyclic(29)": (1, 0, 0),
    "cyclic(30)": (1, 0, 0),
    "cyclic(31)": (1, 0, 0),
    "cyclic(32)": (1, 0, 0),
    "dihedral(1)": (1, 0, 0),
    "dihedral(2)": (2, 0, 0),
    "dihedral(3)": (2, 2, 1),
    "dihedral(4)": (2, 2, 1),
    "dihedral(5)": (2, 2, 1),
    "dihedral(6)": (2, 2, 1),
    "dihedral(7)": (2, 2, 1),
    "dihedral(8)": (2, 2, 1),
    "dihedral(9)": (2, 2, 1),
    "dihedral(10)": (2, 2, 1),
    "dihedral(11)": (2, 2, 1),
    "dihedral(12)": (2, 2, 1),
    "dihedral(13)": (2, 2, 1),
    "dihedral(14)": (2, 2, 1),
    "dihedral(15)": (2, 2, 1),
    "dihedral(16)": (2, 2, 1),
    "dihedral(17)": (2, 2, 1),
    "dihedral(18)": (2, 2, 1),
    "dihedral(19)": (2, 2, 1),
    "dihedral(20)": (2, 2, 1),
    "dihedral(21)": (2, 2, 1),
    "dihedral(22)": (2, 2, 1),
    "dihedral(23)": (2, 2, 1),
    "dihedral(24)": (2, 2, 1),
    "dihedral(25)": (2, 2, 1),
    "dihedral(26)": (2, 2, 1),
    "dihedral(27)": (2, 2, 1),
    "dihedral(28)": (2, 2, 1),
    "dihedral(29)": (2, 2, 1),
    "dihedral(30)": (2, 2, 1),
    "dihedral(31)": (2, 2, 1),
    "dihedral(32)": (2, 2, 1),
    "dicyclic(1)": (1, 0, 0),
    "dicyclic(2)": (2, 2, 1),
    "dicyclic(3)": (2, 2, 1),
    "dicyclic(4)": (2, 2, 1),
    "dicyclic(5)": (2, 2, 1),
    "dicyclic(6)": (2, 2, 1),
    "dicyclic(7)": (2, 2, 1),
    "dicyclic(8)": (2, 2, 1),
    "dicyclic(9)": (2, 2, 1),
    "dicyclic(10)": (2, 2, 1),
    "dicyclic(11)": (2, 2, 1),
    "dicyclic(12)": (2, 2, 1),
    "dicyclic(13)": (2, 2, 1),
    "dicyclic(14)": (2, 2, 1),
    "dicyclic(15)": (2, 2, 1),
    "dicyclic(16)": (2, 2, 1),
    "dicyclic(17)": (2, 2, 1),
    "dicyclic(18)": (2, 2, 1),
    "dicyclic(19)": (2, 2, 1),
    "dicyclic(20)": (2, 2, 1),
    "dicyclic(21)": (2, 2, 1),
    "dicyclic(22)": (2, 2, 1),
    "dicyclic(23)": (2, 2, 1),
    "dicyclic(24)": (2, 2, 1),
    "dicyclic(25)": (2, 2, 1),
    "dicyclic(26)": (2, 2, 1),
    "dicyclic(27)": (2, 2, 1),
    "dicyclic(28)": (2, 2, 1),
    "dicyclic(29)": (2, 2, 1),
    "dicyclic(30)": (2, 2, 1),
    "dicyclic(31)": (2, 2, 1),
    "dicyclic(32)": (2, 2, 1),
    "symmetric(1)": (0, 0, 0),
    "symmetric(2)": (1, 0, 0),
    "symmetric(3)": (2, 2, 1),
    "symmetric(4)": (2, 2, 2),
    "symmetric(5)": (2, 2, 2),
    "symmetric(6)": (None, None, 3),
    "alternating(1)": (0, 0, 0),
    "alternating(2)": (0, 0, 0),
    "alternating(3)": (1, 0, 0),
    "alternating(4)": (2, 2, 2),
    "alternating(5)": (2, 2, 2),
    "alternating(6)": (3, 3, 3),
    "elem_abelian(2,1)": (1, 0, 0),
    "elem_abelian(2,2)": (2, 0, 0),
    "elem_abelian(2,3)": (3, 0, 0),
    "elem_abelian(3,1)": (1, 0, 0),
    "elem_abelian(3,2)": (2, 0, 0),
    "elem_abelian(3,3)": (3, 0, 0),
    "elem_abelian(5,1)": (1, 0, 0),
    "elem_abelian(5,2)": (2, 0, 0),
    "elem_abelian(5,3)": (3, 0, 0),
    "heisenberg(2)": (2, 2, 1),
    "heisenberg(3)": (2, 2, 1),
    "heisenberg(5)": (2, 2, 1),
    "direct_product(symmetric(3),dihedral(4))": (3, 3, 1),
    "direct_product(symmetric(4),heisenberg(3))": (None, 3, 2),
    "direct_product(symmetric(3),heisenberg(3))": (3, 3, 2),
    "direct_product(symmetric(4),dihedral(4))": (4, 4, 3),
    "direct_product(symmetric(3),cyclic(4))": (2, 2, 1),
    "direct_product(symmetric(4),cyclic(6))": (3, 2, 2),
    "direct_product(alternating(4),dihedral(4))": (4, 4, 3),
    "direct_product(alternating(5),cyclic(2))": (3, 2, 2),
    "direct_product(alternating(5),dihedral(4))": (4, 4, 3),
    "direct_product(symmetric(5),cyclic(3))": (2, 2, 2),
    "direct_product(symmetric(5),dihedral(4))": (None, 4, 3),
    "direct_product(alternating(4),heisenberg(3))": (3, 3, 2),
    "direct_product(dihedral(4),heisenberg(3))": (2, 2, 1),
    "direct_product(dihedral(4),dihedral(4))": (4, 4, 2),
    "direct_product(heisenberg(3),heisenberg(3))": (None, 4, 2),
    "direct_product(heisenberg(3),cyclic(3))": (3, 2, 1),
    "direct_product(dihedral(4),cyclic(2))": (3, 2, 1),
    "direct_product(dicyclic(2),dihedral(4))": (4, 4, 2),
    "direct_product(symmetric(3),heisenberg(5))": (None, 2, 1),
    "direct_product(symmetric(3),direct_product(dihedral(4),cyclic(5)))":
        (3, 3, 1),
}


def refusal(call):
    """(what, limit, value) of the CapExceeded that call() raises."""
    with pytest.raises(CapExceeded) as exc:
        call()
    return exc.value.what, exc.value.limit, exc.value.value


class TestHistoryIndependence:
    """Each call gives what the same call gives on a fresh group, whatever
    ran on the group before: caps are admission checks, never cache keys."""

    @pytest.mark.parametrize("caps", [(64, 1600), (1600, 64)])
    def test_group_rank_either_cap_order(self, caps):
        G = group("symmetric(5)")
        for cap in caps:
            assert group_rank(G, subgroup_cap=cap) == \
                group_rank(group("symmetric(5)"), subgroup_cap=cap)

    def test_all_subgroups_refuses_after_a_larger_cap(self):
        G = group("symmetric(5)")
        assert len(all_subgroups(G, subgroup_cap=1600)) == 156
        assert refusal(lambda: all_subgroups(G, subgroup_cap=64)) == \
            refusal(lambda: all_subgroups(group("symmetric(5)"),
                                          subgroup_cap=64))

    def test_center_refuses_after_a_default_cap_call(self):
        from centerbound.structure import center
        G = group("symmetric(4)")
        assert center(G).order() == 1
        assert refusal(lambda: center(G, 5)) == \
            refusal(lambda: center(group("symmetric(4)"), 5))

    def test_tuple_search_refuses_after_a_default_cap_call(self):
        # d comes from an exhaustive tuple search here; a fresh search under
        # tuple_cap=5 stops at its sixth tuple, and so must a memo hit
        text = "direct_product(alternating(4),cyclic(3))"
        G = group(text)
        assert min_generators(G) == 2
        assert refusal(lambda: min_generators(G, tuple_cap=5)) == \
            refusal(lambda: min_generators(group(text), tuple_cap=5)) == \
            ("generator tuple search", 5, 6)

    def test_tuple_count_ignores_which_table_searches(self):
        # H = A4 x C3 as a handle in S4 x C3, on A4 x C3's own generators.
        # Its search runs on S4 x C3's table once that is built, and on H's
        # own table before; members are tried in element order, so both
        # count 74 tuples, as H does as a group of its own
        def outcome(H, k):
            try:
                return min_generators(H, tuple_cap=k)
            except CapExceeded as exc:
                return exc.what, exc.limit, exc.value
        text = "direct_product(symmetric(4),cyclic(3))"
        gens = group("direct_product(alternating(4),cyclic(3))").generators
        for k in (1, 10, 11, 40, 73, 74, DEFAULT_TUPLE_CAP):
            fresh = Subgroup(group(text), gens)
            built = group(text)
            _table(built, DEFAULT_ENUMERATION_CAP)
            alone = Group(fresh.degree, fresh.generators)
            assert outcome(fresh, k) == outcome(Subgroup(built, gens), k) \
                == outcome(alone, k) == (
                    2 if k >= 74 else ("generator tuple search", k, k + 1))


class TestRefusalsComputeAgain:
    """The memo keeps values only: a refusal leaves no entry, so a later
    call computes again and gives what it gives on a fresh group, and the
    demand recorded up to the refusal joins the enclosing entry's."""

    def test_same_caps_refuse_again_from_one_bracket(self, monkeypatch):
        # with no certificate drawn, A7's G' handle prunes to 3 generators
        # against a lower bound of 2, and the tuple search needs a table of
        # all 2,520 elements.  The second call computes d again, from
        # d_bracket's memo
        monkeypatch.setattr(rank, "CERTIFICATE_DRAWS", 0)
        runs = []
        ladder = rank._bracket
        monkeypatch.setattr(rank, "_bracket",
                            lambda *args: runs.append(1) or ladder(*args))
        H = derived_subgroup(group("alternating(7)"))
        first = refusal(lambda: min_generators(H))
        assert first == ("multiplication table", TABLE_CAP, 2520)
        assert refusal(lambda: min_generators(H)) == first
        assert len(runs) == 1
        assert "d" not in H._memo and "table" not in H._memo

    def test_a_larger_cap_computes(self):
        G = group("symmetric(4)")
        assert refusal(lambda: center(G, 5)) == ("element enumeration", 5, 24)
        assert center(G, 24).order() == 1
        assert refusal(lambda: center(G, 5)) == ("element enumeration", 5, 24)

    def test_a_smaller_cap_on_an_admitted_kind_computes(self):
        # the quotient admits its 2 cosets, then lists A4 past the cap; a
        # coset cap of 1 refuses before that, as on a fresh group
        def call(G, coset_cap):
            return refusal(lambda: quotient(G, derived_subgroup(G),
                                            coset_cap, 5))
        G = group("symmetric(4)")
        assert call(G, 512) == ("element enumeration", 5, 12)
        assert call(G, 1) == call(group("symmetric(4)"), 1) == \
            ("coset enumeration", 1, 2)
        assert call(G, 512) == ("element enumeration", 5, 12)

    def test_a_refusal_joins_the_enclosing_demand(self):
        G = group("symmetric(4)")
        N = derived_subgroup(G)

        def outer():
            # the quotient admits its 2 cosets, then lists A4 past the cap
            try:
                return quotient(G, N, 512, 5)
            except CapExceeded:
                return None
        assert G.memo("outer", outer, cosets=512, elements=5) is None
        assert G._memo["outer"] == (None, {"cosets": 2})
        # the refused quotient left no entry: it is computed again and
        # records the same demand
        assert G.memo("again", outer, cosets=512, elements=5) is None
        assert G._memo["again"] == G._memo["outer"]

    def test_another_tuple_cap_searches_again(self):
        # a stopped tuple search reports its cap plus one tuples, so the
        # refusal under tuple_cap=5 is not the one under 3
        text = "direct_product(alternating(4),cyclic(3))"
        G = group(text)
        assert refusal(lambda: min_generators(G, tuple_cap=5)) == \
            ("generator tuple search", 5, 6)
        assert refusal(lambda: min_generators(G, tuple_cap=3)) == \
            refusal(lambda: min_generators(group(text), tuple_cap=3)) == \
            ("generator tuple search", 3, 4)
        assert min_generators(G) == 2

    def test_a_refused_table_is_not_a_built_one(self):
        G = group("direct_product(cyclic(32),dicyclic(9))")
        for _ in range(2):
            with pytest.raises(CapExceeded):
                _table(G, DEFAULT_ENUMERATION_CAP)
            assert "table" not in G._memo


class TestOneDPath:
    """d(H) has one owner, rank.py: d_bracket and min_generators run the
    ladder on the Perms of H's ambient group and memoize on H, so LK, T6
    and CK share d(G') and its bracket."""

    @pytest.mark.parametrize("spec", default_corpus().specs,
                             ids=lambda spec: spec.label)
    def test_lk_members_agree_with_fresh_groups(self, spec):
        G = build_group(spec)
        for _, H in _Evaluator(G, Config())._lk_library():
            assert min_generators(H) == \
                min_generators(Group(H.degree, H.generators))

    @pytest.mark.parametrize("text", [
        "symmetric(4)", "heisenberg(3)", "dicyclic(8)",
        "direct_product(symmetric(3),dihedral(4))"])
    def test_evaluate_all_runs_the_ladder_on_derived_once(self, text,
                                                          monkeypatch):
        # group_rank's lattice brackets each class representative of G' on
        # G''s table; every bracket of G' on Perms is counted.  T2 (for an
        # abelian G'), T6, CK and LK share d_bracket's memo, T6, CK and LK
        # share min_generators' "d" entry, and LK works out each distinct
        # member once, so a second handle on G' (S4's random_2gen_0, say)
        # adds no run.  Every computation of a "d" entry on G' is counted
        G = group(text)
        derived = derived_subgroup(G).element_set()
        calls, computes = [], []
        ladder, memo = rank._bracket, Group.memo

        def counting(world, H, gens):
            if isinstance(world, _Perms) and H.element_set() == derived:
                calls.append(world)
            return ladder(world, H, gens)

        def memoizing(H, key, compute, **limits):
            if key == "d" and H.element_set() == derived:
                def counted():
                    computes.append(H)
                    return compute()
                return memo(H, key, counted, **limits)
            return memo(H, key, compute, **limits)
        monkeypatch.setattr(rank, "_bracket", counting)
        monkeypatch.setattr(Group, "memo", memoizing)
        verdicts = {v.statement: v for v in evaluate_all(G)}
        assert len(calls) == 1 and len(computes) == 1
        assert verdicts["CK"].computable and verdicts["LK"].computable

    @pytest.mark.parametrize("text", [
        "symmetric(4)", "symmetric(5)", "heisenberg(3)",
        "direct_product(alternating(4),cyclic(3))"])
    def test_smaller_cap_after_a_default_call(self, text):
        # a cap in [|G'|, |G|) admits G' but not G's element list; d(G') is
        # the default call's answer, on this group and on a fresh one
        G = group(text)
        D = derived_subgroup(G)
        d = min_generators(D)
        for cap in (D.order(), G.order() - 1):
            assert min_generators(D, cap=cap) == d == \
                min_generators(derived_subgroup(group(text)), cap=cap)

    def test_a_refused_table_lists_no_elements(self):
        # the table is refused on |G| alone, so d of a p-group above
        # TABLE_CAP comes from its Frattini quotient without listing G
        G = group("direct_product(heisenberg(3),"
                  "direct_product(heisenberg(3),heisenberg(3)))")
        assert min_generators(G) == 6
        assert G._elements is None


class TestDCertificate:
    """Above TABLE_CAP, d_bracket first draws seeded pairs of elements of a
    non-abelian H with at least two primes dividing |H|: a pair that
    generates H proves d(H) = 2, and a miss runs the closure bracket."""

    @pytest.mark.parametrize("spec", default_corpus().specs,
                             ids=lambda spec: spec.label)
    def test_every_size_against_the_table_search(self, spec, monkeypatch):
        # with the size threshold at 0 every H the certificate may take
        # gets it first, and d must be the exhaustive search's on H's own
        # table.  G itself up to 200 elements adds S3xD4 and S4xD4, where
        # d = 3 and every pair misses.  An abelian H or a p-group never
        # takes it: their exhaustive search (H3xH3 has 729 elements and
        # d = 4) is out of reach, and the abelianization count decides them
        monkeypatch.setattr(rank, "TABLE_CAP", 0)
        G = build_group(spec)
        members = [derived_subgroup(G)] + [
            H for _, H in _Evaluator(G, Config())._lk_library()]
        if G.order() <= 200:
            members.append(G)
        for H in members:
            if H.is_abelian() or is_prime_power(H.order()) is not None:
                assert not rank._certified(H)
                continue
            table = _table(Group(H.degree, H.generators),
                           DEFAULT_ENUMERATION_CAP)
            assert min_generators(H) == table.search(
                frozenset(range(table.n)), 0, len(H.generators),
                DEFAULT_TUPLE_CAP)

    @pytest.mark.parametrize("text", [
        "alternating(7)", "direct_product(alternating(5),alternating(5))",
        "direct_product(heisenberg(3),heisenberg(5))"])
    def test_a_hit_builds_no_table(self, text):
        H = group(text)
        assert H.order() > TABLE_CAP and not H.is_abelian()
        assert d_bracket(H) == (2, 2) and min_generators(H) == 2
        assert "table" not in H._memo and H._elements is None

    def test_an_abelian_group_takes_the_count(self):
        # a random pair generates cyclic(1050), but d = 1: the certificate
        # is only for non-abelian groups
        G = group("cyclic(1050)")
        assert G.order() > TABLE_CAP and not rank._certified(G)
        assert d_bracket(G) == (1, 1)


class TestDBracket:
    """d_bracket's lo <= d(G') <= hi on every default-corpus G', against
    exhaustive search; abelian groups and p-groups close it at the
    abelianization count."""

    @pytest.mark.parametrize("spec", default_corpus().specs,
                             ids=lambda spec: spec.label)
    def test_corpus_derived(self, spec):
        D = derived_subgroup(build_group(spec))
        lo, hi = d_bracket(D)
        assert lo <= min_generators_oracle(
            D.degree, closure(D.degree, D.generators)) <= hi
        if D.is_abelian() or is_prime_power(D.order()) is not None:
            assert lo == hi == abelianization_d_oracle(D.degree,
                                                       D.generators)


class TestAbelianCountAgainstSympy:
    """d of abelian groups and of abelianizations against sympy's
    abelian_invariants: the invariants of G/G' as prime powers, so d(G/G')
    is the largest number of entries that are powers of any one prime."""

    @staticmethod
    def _sympy_d(H):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        # sympy's permutations are 0-based array forms; the identity stands
        # in for an empty generating set
        S = combinatorics.PermutationGroup([
            combinatorics.Permutation([i - 1 for i in g.images])
            for g in H.generators or [H.identity_element()]])
        primes = collections.Counter(
            next(p for p in itertools.count(2) if q % p == 0)
            for q in S.abelian_invariants())
        return max(primes.values(), default=0)

    @pytest.mark.parametrize("spec", default_corpus().specs,
                             ids=lambda spec: spec.label)
    def test_corpus_group(self, spec):
        G = build_group(spec)
        assert rank._abelianization_d(
            _Perms(G), G, G.generators) == \
            self._sympy_d(G)
        derived = derived_subgroup(G)
        for A in (G, center(G), derived):
            if A.is_abelian():
                assert abelian_rank(A) == min_generators(A) == \
                    self._sympy_d(A)
