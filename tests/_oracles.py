"""Brute-force oracles, kept independent of the library's computation paths.

Everything here works from exhaustive closure element lists and definitional
filters: no stabilizer chains, no sifting, no generator tricks.  Only the
raw permutation arithmetic (compose/inverse), which the test suite pins
separately with hand-evaluated examples, is shared with the library.
"""

from __future__ import annotations

import itertools

from centerbound.perm import Perm, identity


def closure(degree: int, gens) -> set[Perm]:
    """<gens> as an element set, by breadth-first multiplication."""
    elems = {identity(degree)}
    frontier = [identity(degree)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return elems


def center_oracle(elems) -> set[Perm]:
    """Elements commuting with every element (the definition, quadratic)."""
    return {g for g in elems
            if all(g * h == h * g for h in elems)}


def centralizer_oracle(elems, targets) -> set[Perm]:
    return {g for g in elems
            if all(g * s == s * g for s in targets)}


def derived_oracle(degree: int, elems) -> set[Perm]:
    """Closure of all pairwise commutators."""
    inv = {g: g.inverse() for g in elems}
    commutators = {inv[x] * inv[y] * x * y for x in elems for y in elems}
    return closure(degree, [c for c in commutators if not c.is_identity()])


def abelianization_d_oracle(degree: int, gens) -> int:
    """d(H/H') for H = <gens>: for each prime p the x in H with x^p in H'
    number |H'| p^k, k the p-rank of H/H'; the largest k."""
    elems = closure(degree, gens)
    derived = derived_oracle(degree, elems)
    index = len(elems) // len(derived)
    best = 0
    for p in range(2, index + 1):
        if index % p or any(p % q == 0 for q in range(2, p)):
            continue
        count = 0
        for x in elems:
            power = x
            for _ in range(p - 1):
                power = power * x
            count += power in derived
        count //= len(derived)
        k = 0
        while p ** k < count:
            k += 1
        assert p ** k == count
        best = max(best, k)
    return best


def second_center_oracle(degree: int, elems) -> set[Perm]:
    """{g | [g, x] central for every element x}, from the center oracle."""
    z = center_oracle(elems)
    inv = {g: g.inverse() for g in elems}
    return {g for g in elems
            if all(inv[g] * inv[x] * g * x in z for x in elems)}


def commutes_into_oracle(elems, xs, kernel) -> set[Perm]:
    """{g | [g, x] in the kernel for every x in xs}, from whole products."""
    kset = set(kernel)
    return {g for g in elems
            if all(g.inverse() * x.inverse() * g * x in kset for x in xs)}


def central_preimage_oracle(elems, xs, kernel) -> set[Perm]:
    """The preimage in G of the centralizer in G/N of the images of xs, for
    N normal in G given by its elements: the g whose coset gN commutes with
    each coset xN, with the cosets built as element sets."""
    coset: dict[Perm, frozenset[Perm]] = {}
    for g in elems:
        if g not in coset:
            block = frozenset(g * n for n in kernel)
            coset.update(dict.fromkeys(block, block))
    return {g for g in elems if all(coset[g * x] == coset[x * g] for x in xs)}


def normalizer_oracle(elems, sub_elems) -> set[Perm]:
    sub = set(sub_elems)
    out = set()
    for g in elems:
        ginv = g.inverse()
        if all(ginv * h * g in sub for h in sub):
            out.add(g)
    return out


def lattice_oracle(elems) -> set[frozenset[Perm]]:
    """Every subgroup of a small group: its cyclic subgroups, closed under
    joins with one cyclic subgroup at a time.  That is complete, and closed
    under every pairwise join, since a subgroup is the join of the cyclic
    subgroups of its elements.  The closures run on a table of the Perm
    products of elems."""
    elems = list(elems)
    index = {g: i for i, g in enumerate(elems)}
    mult = [[index[a * b] for b in elems] for a in elems]
    one = next(i for i, g in enumerate(elems) if g.is_identity())

    def close(gens) -> frozenset[int]:
        known, frontier = {one}, [one]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = mult[x][g]
                if y not in known:
                    known.add(y)
                    frontier.append(y)
        return frozenset(known)

    cyclic = {close((g,)): g for g in range(len(elems))}
    found = {hset: (g,) for hset, g in cyclic.items()}
    pending = list(found)
    while pending:
        hset = pending.pop()
        for cset, c in cyclic.items():
            if not cset <= hset:
                gens = found[hset] + (c,)
                joined = close(gens)
                if joined not in found:
                    found[joined] = gens
                    pending.append(joined)
    return {frozenset(elems[i] for i in hset) for hset in found}


def min_generators_oracle(degree: int, elems) -> int:
    """Smallest k with some k-subset generating, by exhaustive search."""
    n = len(elems)
    if n == 1:
        return 0
    elems = sorted(elems)
    for k in range(1, n + 1):
        for combo in itertools.combinations(elems, k):
            if len(closure(degree, combo)) == n:
                return k
    raise AssertionError("unreachable")


def element_orders(elems) -> dict[Perm, int]:
    out = {}
    for g in elems:
        n = 1
        power = g
        while not power.is_identity():
            power = power * g
            n += 1
        out[g] = n
    return out
