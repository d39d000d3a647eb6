"""Group construction: family formulas, the spec grammar, generator files,
and the shape of the default corpus."""

import math

import pytest

from centerbound.corpus import (Corpus, FamilyExpr, build_family, build_group,
                                default_corpus, direct_product,
                                parse_family_expr, parse_group_file,
                                parse_group_spec)
from centerbound.errors import (ArgOutOfRange, DegreeViolation, ParseError,
                                UnknownFamily)
from centerbound.perm import format_perm, parse_perm
from centerbound.rank import abelian_rank
from centerbound.structure import center, derived_subgroup


def family(text):
    return build_group(parse_group_spec("family:" + text))


class TestFamilyOrders:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 32])
    def test_cyclic_dihedral_dicyclic(self, n):
        assert family(f"cyclic({n})").order() == n
        assert family(f"dihedral({n})").order() == 2 * n
        assert family(f"dicyclic({n})").order() == 4 * n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_symmetric_alternating(self, n):
        assert family(f"symmetric({n})").order() == math.factorial(n)
        assert family(f"alternating({n})").order() == \
            max(1, math.factorial(n) // 2)

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (3, 2), (5, 3)])
    def test_elem_abelian(self, p, k):
        G = family(f"elem_abelian({p},{k})")
        assert G.order() == p ** k
        assert G.is_abelian()
        assert abelian_rank(G) == k

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_heisenberg_is_extraspecial(self, p):
        from centerbound.rank import frattini_p
        from centerbound.structure import quotient
        G = family(f"heisenberg({p})")
        assert G.order() == p ** 3
        assert G.degree == p * p
        Z = center(G)
        assert Z.order() == p
        assert set(derived_subgroup(G).elements()) == set(Z.elements())
        assert set(frattini_p(G, p).elements()) == set(Z.elements())
        above = quotient(G, Z).quotient
        assert above.is_abelian() and abelian_rank(above) == 2

    def test_heisenberg_odd_exponent_p(self):
        G = family("heisenberg(3)")
        assert all(x.order() in (1, 3) for x in G.elements())

    def test_dicyclic_two_power_is_generalized_quaternion(self):
        # a generalized quaternion group has a unique involution
        for n in (2, 4, 8):
            G = family(f"dicyclic({n})")
            involutions = [x for x in G.elements() if x.order() == 2]
            assert len(involutions) == 1

    def test_dihedral_small_cases(self):
        assert family("dihedral(1)").order() == 2
        assert family("dihedral(2)").order() == 4
        assert family("dihedral(4)").degree == 4


class TestDirectProduct:
    def test_degree_is_sum(self):
        G = family("direct_product(symmetric(3),dihedral(4))")
        assert G.degree == 7
        assert G.order() == 48

    def test_nested(self):
        G = family(
            "direct_product(symmetric(3),direct_product(dihedral(4),cyclic(5)))")
        assert G.order() == 6 * 8 * 5
        assert G.degree == 3 + 4 + 5

    def test_factors_commute(self):
        left = family("symmetric(3)")
        right = family("cyclic(4)")
        G = direct_product(left, right)
        a = parse_perm("(1 2 3)", 7)
        b = parse_perm("(4 5 6 7)", 7)
        assert a * b == b * a
        assert G.contains(a * b)


class TestSpecGrammar:
    def test_family_spec_round_trip(self):
        spec = parse_group_spec("family:dihedral(4)")
        assert spec.kind == "family"
        assert str(spec) == "family:dihedral(4)"
        assert spec.label == "dihedral(4)"

    def test_whitespace_tolerated(self):
        expr = parse_family_expr("direct_product( symmetric(3) , dihedral(4) )")
        assert expr == FamilyExpr(
            "direct_product",
            (FamilyExpr("symmetric", (3,)), FamilyExpr("dihedral", (4,))))

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            parse_group_spec("family:wreath(2,2)")
        with pytest.raises(UnknownFamily):
            build_family("wreath", (2,))

    def test_arg_errors(self):
        with pytest.raises(ArgOutOfRange):
            build_family("symmetric", (9,))
        with pytest.raises(ArgOutOfRange):
            build_family("cyclic", (0,))
        with pytest.raises(ArgOutOfRange):
            build_family("elem_abelian", (4, 2))
        with pytest.raises(ArgOutOfRange):
            build_family("cyclic", (2, 3))

    def test_parse_errors(self):
        for bad in ("dihedral", "dihedral(", "dihedral(4))", "dihedral(4,)x",
                    "family", ""):
            with pytest.raises((ParseError, UnknownFamily)):
                parse_group_spec(f"family:{bad}")
        with pytest.raises(ParseError):
            parse_group_spec("group:dihedral(4)")

    @pytest.mark.parametrize("text,error,message", [
        ("cyclic(2,3)", ArgOutOfRange, "cyclic takes 1 argument(s), got 2"),
        ("elem_abelian(2)", ArgOutOfRange,
         "elem_abelian takes 2 argument(s), got 1"),
        ("heisenberg()", ArgOutOfRange,
         "heisenberg takes 1 argument(s), got 0"),
        ("dihedral(cyclic(2))", ArgOutOfRange,
         "dihedral takes integer arguments"),
        ("direct_product(cyclic(2))", ArgOutOfRange,
         "direct_product takes exactly two family expressions"),
        ("direct_product(cyclic(2),3)", ArgOutOfRange,
         "direct_product takes exactly two family expressions"),
        ("direct_product(cyclic(2),cyclic(3),cyclic(5))", ArgOutOfRange,
         "direct_product takes exactly two family expressions"),
        ("wreath(2,2)", UnknownFamily,
         "unknown family 'wreath'; known: ('cyclic', 'dihedral', "
         "'dicyclic', 'symmetric', 'alternating', 'elem_abelian', "
         "'heisenberg', 'direct_product')")])
    def test_error_texts(self, text, error, message):
        with pytest.raises(error) as raised:
            build_group(parse_group_spec(f"family:{text}"))
        assert str(raised.value) == message
        if error is UnknownFamily:  # the builder's own check, past the parser
            with pytest.raises(error) as raised:
                build_family("wreath", (2, 2))
            assert str(raised.value) == message


class TestGroupFiles:
    def test_sym3(self, tmp_path):
        path = tmp_path / "g.grp"
        path.write_text("degree 3\n(1 2)\n(1 2 3)\n")
        assert parse_group_file(str(path)).order() == 6

    def test_no_generators_is_trivial(self, tmp_path):
        path = tmp_path / "g.grp"
        path.write_text("degree 5\n")
        G = parse_group_file(str(path))
        assert G.order() == 1 and G.degree == 5

    def test_dih4(self, tmp_path):
        path = tmp_path / "g.grp"
        path.write_text("degree 4\n(1 2 3 4)\n(1 3)\n")
        assert parse_group_file(str(path)).order() == 8

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.grp"
        path.write_text("# a comment\n\ndegree 3\n(1 2) # inline\n")
        assert parse_group_file(str(path)).order() == 2

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "g.grp"
        path.write_text("degree 3\n(1 2\n")
        with pytest.raises(ParseError) as exc:
            parse_group_file(str(path))
        assert exc.value.line == 2

    def test_degree_violation(self, tmp_path):
        path = tmp_path / "g.grp"
        path.write_text("degree 4\n(1 2 3 4)\n(1 5)\n")
        with pytest.raises(DegreeViolation) as exc:
            parse_group_file(str(path))
        assert exc.value.line == 3

    def test_missing_degree(self, tmp_path):
        path = tmp_path / "g.grp"
        path.write_text("(1 2)\n")
        with pytest.raises(ParseError):
            parse_group_file(str(path))

    def test_round_trip_through_cycle_notation(self, tmp_path):
        G = family("dicyclic(3)")
        path = tmp_path / "g.grp"
        lines = [f"degree {G.degree}"]
        lines += [format_perm(g) for g in G.generators]
        path.write_text("\n".join(lines) + "\n")
        H = parse_group_file(str(path))
        assert H.order() == G.order()
        assert set(H.elements()) == set(G.elements())


class TestDefaultCorpus:
    def test_size_and_labels(self):
        corpus = default_corpus()
        assert len(corpus.specs) >= 120
        labels = [s.label for s in corpus.specs]
        assert len(labels) == len(set(labels))

    def test_contains_required_members(self):
        labels = {s.label for s in default_corpus().specs}
        assert "symmetric(4)" in labels
        assert "heisenberg(3)" in labels
        assert "direct_product(symmetric(3),dihedral(4))" in labels

    def test_every_group_builds_within_order_limit(self):
        for spec in default_corpus().specs:
            G = build_group(spec)
            assert 1 <= G.order() <= 20000, spec.label

    def test_deterministic_iteration(self):
        a = [str(s) for s in default_corpus().specs]
        b = [str(s) for s in default_corpus().specs]
        assert a == b
