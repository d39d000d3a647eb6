"""Permutation arithmetic: conventions pinned by hand-evaluated examples,
then algebraic laws on seeded random elements."""

import itertools
import random

import pytest

from centerbound.errors import DegreeMismatch, DegreeViolation, ParseError
from centerbound.perm import (Perm, commutator, commute, compose,
                              format_perm, from_cycles, gather, identity,
                              parse_perm)


def P(text, degree):
    return parse_perm(text, degree)


def random_perm(rng, degree):
    images = list(range(1, degree + 1))
    rng.shuffle(images)
    return Perm(images)


class TestCompose:
    def test_involution_squares_to_identity(self):
        t = P("(1 2)", 2)
        assert compose(t, t) == identity(2)

    def test_apply_left_factor_first(self):
        # evaluate (1 2 3) then (1 2) pointwise:
        # 1 -> 2 -> 1, 2 -> 3 -> 3, 3 -> 1 -> 2
        got = compose(P("(1 2 3)", 3), P("(1 2)", 3))
        assert got == P("(2 3)", 3)
        assert format_perm(got) == "(2 3)"

    def test_identity_is_neutral(self):
        p = P("(1 3 2 4)", 5)
        assert compose(p, identity(5)) == p
        assert compose(identity(5), p) == p

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            compose(P("(1 2)", 2), P("(1 2)", 3))


class TestGather:
    """gather is the one composition primitive: gather(p, q) on 0-based
    image tuples is the image tuple of p * q."""

    @pytest.mark.parametrize("degree", [0, 1, 2, 64, 600])
    def test_gather_and_product_are_the_definition(self, degree):
        rng = random.Random(degree)
        for _ in range(5):
            p, q = (random_perm(rng, degree) for _ in range(2))
            expected = tuple(q._img[p._img[i]] for i in range(degree))
            assert gather(p._img, q._img) == expected
            assert (p * q)._img == expected

    def test_gather_keeps_a_tuple_for_short_keys(self):
        assert gather((), (5, 6)) == ()
        assert gather((1,), (5, 6)) == (6,)
        assert gather(frozenset({1}), (5, 6)) == (6,)
        assert gather(frozenset(), (5, 6)) == ()
        assert gather(["a", "b"], {"a": 1, "b": 2}) == (1, 2)

    def test_mixed_degrees_are_refused(self):
        a, b = P("(1 2)", 2), P("(1 2)", 3)
        for op in (lambda: a * b, lambda: b * a,
                   lambda: commute(a, b, range(2)),
                   lambda: commute(b, a, range(3))):
            with pytest.raises(DegreeMismatch):
                op()

    def test_commute_agrees_with_the_products_on_s4(self):
        s4 = [Perm(images) for images in itertools.permutations(range(1, 5))]
        verdicts = [commute(a, b, range(4)) for a in s4 for b in s4]
        assert verdicts == [a * b == b * a for a in s4 for b in s4]
        # commuting pairs number |G| times the class count, 5 for S4
        assert sum(verdicts) == 24 * 5

    def test_commute_agrees_with_the_products_at_degree_29(self):
        rng = random.Random(29)
        for k in range(200):
            a = random_perm(rng, 29)
            # every fourth pair commutes by construction
            b = a ** k if k % 4 == 0 else random_perm(rng, 29)
            assert commute(a, b, range(29)) is (a * b == b * a)
            assert commute(a, b, range(29)) is commute(b, a, range(29))


class TestCommutator:
    def test_self_commutator_trivial(self):
        p = P("(1 2 3)(4 5)", 5)
        assert commutator(p, p) == identity(5)

    def test_transposition_pair(self):
        # [x, y] = x^-1 y^-1 x y, evaluated pointwise:
        # 1 ->(12) 2 ->(13) 2 ->(12) 1 ->(13) 3, so 1 -> 3
        assert commutator(P("(1 2)", 3), P("(1 3)", 3)) == P("(1 3 2)", 3)

    def test_identity_argument(self):
        x = P("(1 4)(2 3)", 4)
        assert commutator(x, identity(4)) == identity(4)

    def test_conjugation_identity(self):
        # [ab, x] = [a, x]^b [b, x] for random a, b, x
        rng = random.Random(20250810)
        for _ in range(200):
            a, b, x = (random_perm(rng, 7) for _ in range(3))
            lhs = commutator(a * b, x)
            rhs = commutator(a, x).conjugate(b) * commutator(b, x)
            assert lhs == rhs

    def test_conjugate_is_the_triple_product(self):
        rng = random.Random(11)
        for _ in range(200):
            x, h = (random_perm(rng, 8) for _ in range(2))
            assert x.conjugate(h) == h.inverse() * x * h
        with pytest.raises(DegreeMismatch):
            P("(1 2)", 2).conjugate(P("(1 2)", 3))

    def test_commutator_is_the_four_product(self):
        rng = random.Random(12)
        for _ in range(200):
            x, y = (random_perm(rng, 8) for _ in range(2))
            assert commutator(x, y) == x.inverse() * y.inverse() * x * y
        with pytest.raises(DegreeMismatch):
            commutator(P("(1 2)", 2), P("(1 2)", 3))


class TestAlgebraicLaws:
    def test_associativity_and_inverse_antihomomorphism(self):
        rng = random.Random(7)
        for _ in range(200):
            p, q, r = (random_perm(rng, 9) for _ in range(3))
            assert (p * q) * r == p * (q * r)
            assert (p * q).inverse() == q.inverse() * p.inverse()
            assert p * p.inverse() == identity(9)

    def test_power_matches_repeated_product(self):
        rng = random.Random(8)
        for _ in range(50):
            p = random_perm(rng, 8)
            acc = identity(8)
            for k in range(10):
                assert p ** k == acc
                acc = acc * p
            assert p ** -1 == p.inverse()

    @pytest.mark.parametrize("degree", [0, 1, 4])
    def test_power_from_the_lowest_set_bit(self, degree):
        """x ** n for n in -5..40 on every element of S_degree, against
        products of n copies of x (of x^-1 for negative n)."""
        for images in itertools.permutations(range(1, degree + 1)):
            x = Perm(images)
            for step in (x, x.inverse()):
                acc = identity(degree)
                for n in range(41):
                    assert x ** (n if step is x else -n) == acc
                    acc = acc * step

    def test_order(self):
        assert identity(4).order() == 1
        assert P("(1 2 3)(4 5)", 5).order() == 6
        assert P("(1 2 3 4 5 6)", 6).order() == 6


class TestCycleNotation:
    def test_round_trip(self):
        rng = random.Random(99)
        for _ in range(100):
            p = random_perm(rng, 10)
            assert parse_perm(format_perm(p), 10) == p

    def test_identity_prints_and_parses(self):
        assert format_perm(identity(6)) == "()"
        assert parse_perm("()", 6) == identity(6)

    def test_whitespace_insensitive(self):
        assert parse_perm(" ( 1   2 3 ) (4  5)", 5) == P("(1 2 3)(4 5)", 5)
        assert parse_perm("(1,2,3)(4,5)", 5) == P("(1 2 3)(4 5)", 5)

    def test_non_disjoint_cycles_multiply_left_first(self):
        # (1 2)(2 3): 1 -> 2 -> 3 under left-factor-first
        assert parse_perm("(1 2)(2 3)", 3) == P("(1 3 2)", 3)

    def test_degree_is_external(self):
        p = parse_perm("(1 2)", 6)
        assert p.degree == 6
        with pytest.raises(DegreeViolation):
            parse_perm("(1 7)", 6)

    def test_parse_errors(self):
        for bad in ("", "(1 2", "1 2 3", "(1 2)(x)", "(1 1 2)", "(0 1)"):
            with pytest.raises(ParseError):
                parse_perm(bad, 5)

    def test_canonical_form(self):
        assert format_perm(P("(2 1)", 3)) == "(1 2)"
        assert format_perm(from_cycles(5, [(4, 5), (2, 1)])) == "(1 2)(4 5)"


class TestPermValue:
    def test_images_are_one_based(self):
        p = P("(1 2 3)", 3)
        assert p.images == (2, 3, 1)
        assert p.apply(1) == 2
        assert Perm((2, 3, 1)) == p

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Perm((1, 1, 3))

    def test_hash_and_ordering(self):
        a, b = P("(1 2)", 3), P("(1 3)", 3)
        assert len({a, b, P("(2 1)", 3)}) == 2
        assert sorted([b, a]) == sorted([a, b])

    def test_hash_is_computed_on_first_use(self):
        a, b = P("(1 2 3)", 4), P("(3 4)", 4)
        product = a * b
        assert product._hash is None
        assert hash(product) == hash(product._img) == product._hash
        assert hash(product) == hash(Perm(product.images))
        assert {product: 1}[Perm._raw(gather(a._img, b._img))] == 1

    @pytest.mark.parametrize("perm,expected", [
        (Perm(()), True),
        (identity(1), True),
        (identity(5), True),
        (P("(2 4)", 5), False),
    ])
    def test_is_identity(self, perm, expected):
        assert perm.is_identity() is expected
