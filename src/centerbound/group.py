"""Permutation groups backed by a deterministic base and strong generating set.

The stabilizer chain is built by the classic deterministic Schreier-Sims
procedure (no randomisation), so orders, membership answers and element
enumeration order are bit-stable across runs.  Groups are immutable after
construction; the lazily built chain and element list are write-once, so
a group may be shared freely once built.

Every derived result (center, quotients, subgroup lattice, ranks, ...) lives
in one memo per group, ``Group.memo``.  Caps are admission checks through
``admit``, never keys, so a call raises CapExceeded exactly when the same
call on a fresh group would.  The memo keeps values only: a refusal leaves
no entry, so a question asked again computes again and is refused again.
A subgroup that is all of its group is that group (``subgroup_from_elements``
returns the parent for the parent's own element list), so it shares the
group's memo.  The bookkeeping is module state, so groups are not for
concurrent threads.

Element enumeration walks the transversal chain in sorted-orbit order and is
guarded by a configurable cap: operations that need the full element list
fail loudly with CapExceeded rather than subsample.

A known order saves verification.  Sims' criterion (Seress, Permutation
Group Algorithms, 2003, section 4): the group of each level fixes the base
points above it, so |H| is at least the product of the basic orbit lengths,
with equality only when the chain is complete.  A group whose order is
proven before its chain is built (the ``order`` argument, given for a
quotient, a Sylow ascent step and a filtered element list, or an adopted
element list) stops testing Schreier generators once that product reaches
it, and a handle stops at its parent's known order when it is the whole
parent (Lagrange).  The chain is the one built without the order.
``subgroup_from_elements`` builds no chain at all: it closes the element
keys of the next paragraph coset by coset.

The base doubles as an element key.  Two elements of a group are equal
exactly when they agree on a base of it, and a base of the ambient group is
a base of each of its subgroups, so ``Group.points()`` (the ambient chain's
base) decides commuting (``perm.commute``), and ``_key`` keys an element by
its images of that base in place of a whole image tuple: in the coset maps
of structure.py and in the closure of ``subgroup_from_elements``.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Iterable, Sequence

from .errors import CapExceeded, DegreeMismatch
from .perm import Perm, commute, gather, identity, invert

DEFAULT_ENUMERATION_CAP = 200_000
DEFAULT_COSET_CAP = 100_000
DEFAULT_SUBGROUP_CAP = 512
DEFAULT_TUPLE_CAP = 2_000_000
TABLE_CAP = 1024

# cap kind: (what CapExceeded reports, the default limit)
_CAPS = {
    "elements": ("element enumeration", DEFAULT_ENUMERATION_CAP),
    "cosets": ("coset enumeration", DEFAULT_COSET_CAP),
    "subgroups": ("subgroup enumeration", DEFAULT_SUBGROUP_CAP),
    "table": ("multiplication table", TABLE_CAP),
    "tuples": ("generator tuple search", DEFAULT_TUPLE_CAP),
}

# demand records of the memo entries being computed, innermost last
_computing: list[dict[str, int]] = []


def admit(kind: str, limit: int, value: int) -> None:
    """The one cap check: raise CapExceeded, naming kind, when value exceeds
    limit, and otherwise record value in the memo entry being computed."""
    if value > limit:
        raise CapExceeded(_CAPS[kind][0], limit, value)
    if _computing and _computing[-1].get(kind, -1) < value:
        _computing[-1][kind] = value


def _record(demand: dict[str, int]) -> None:
    """Raise the demand of the memo entry being computed to demand."""
    if _computing:
        top = _computing[-1]
        for kind, n in demand.items():
            if top.get(kind, -1) < n:
                top[kind] = n


class _Level:
    """One level of the stabilizer chain: a base point, the strong
    generators first assigned to this level, and a Schreier transversal.

    The group of level i is generated by the gens of ALL levels >= i; a
    generator sits at the first level whose base point it moves.  The chain
    is built, sifted and read on image tuples: ``gens`` holds the strong
    generators and ``images`` the transversal, delta -> the representative
    u with point^u = delta.
    """

    __slots__ = ("point", "gens", "images", "inverses")

    def __init__(self, point: int):
        self.point = point              # 0-based internally
        self.gens: list[tuple[int, ...]] = []
        self.images: dict[int, tuple[int, ...]] = {}
        self.inverses: dict[int, tuple[int, ...]] = {}

    def inverse(self, delta: int) -> tuple[int, ...]:
        """The inverse image tuple of the representative of delta, computed
        on first use and kept until the next rebuild."""
        uinv = self.inverses.get(delta)
        if uinv is None:
            uinv = self.inverses[delta] = invert(self.images[delta])
        return uinv

    def rebuild(self, ident: tuple[int, ...], gens: Sequence[tuple[int, ...]]):
        """BFS the orbit of the base point, recording one representative
        u with point^u = delta per orbit member (first writer wins)."""
        self.inverses = {}
        images = self.images = {self.point: ident}
        queue = [self.point]
        for a in queue:
            u = images[a]
            for g in gens:
                b = g[a]
                if b not in images:
                    images[b] = gather(u, g)
                    queue.append(b)


def _sift(levels: Sequence[_Level], h: tuple[int, ...]) -> tuple[int, ...]:
    """Strip the image tuple h through the given levels of a chain; the
    residue is the identity exactly when h lies in the group of the first
    of them."""
    for level in levels:
        delta = h[level.point]
        if delta == level.point:
            continue
        if delta not in level.images:
            return h
        h = gather(h, level.inverse(delta))
    return h


def _schreier_sims(degree: int, generators: Sequence[Perm],
                   bound: int | None = None) -> list[_Level]:
    """Deterministic stabilizer chain (textbook Schreier-Sims; Seress,
    Permutation Group Algorithms, 2003), on image tuples.

    Base points are chosen as the smallest point moved by the generator
    that forces a new level; orbits are BFS in generator-list order; level
    i is complete once every Schreier generator at level i sifts to the
    identity through the deeper levels.  A Schreier generator u s is
    compared with the representative of its point before it is sifted, and
    no Perm is built until the chain is complete.

    bound, when given, is a proven upper bound on the order of the group.
    Sims' criterion (Seress 2003, section 4) makes it a stopping rule: the
    group of each level fixes the base points above it, so the order is at
    least the product of the basic orbit lengths, with equality exactly
    when the chain is complete.  Once level 0 is rebuilt over complete
    deeper levels and that product equals bound, every Schreier generator
    left to test at level 0 is trivial, and none is tested.  The chain is
    the one built without a bound.
    """
    ident = tuple(range(degree))
    levels: list[_Level] = []

    def gens_at(i: int) -> list[tuple[int, ...]]:
        return [g for level in levels[i:] for g in level.gens]

    def place(h: tuple[int, ...]) -> int:
        """File a new strong generator at the first level whose base point
        it moves, appending a level if it fixes every existing base point."""
        for j, level in enumerate(levels):
            if h[level.point] != level.point:
                level.gens.append(h)
                return j
        levels.append(_Level(next(i for i in range(degree) if h[i] != i)))
        levels[-1].gens.append(h)
        return len(levels) - 1

    def complete(i: int):
        """Close level i, assuming all deeper levels are complete."""
        level = levels[i]
        level.rebuild(ident, gens_at(i))
        while True:
            if i == 0 and bound == math.prod(len(lv.images) for lv in levels):
                return  # Sims' criterion: the chain is complete
            images = level.images
            sgens = gens_at(i)
            dirty = False
            for delta in sorted(images):
                u = images[delta]
                for s in sgens:
                    us = gather(u, s)
                    image = s[delta]
                    if us == images[image]:
                        continue  # a trivial Schreier generator
                    residue = _sift(levels[i + 1:],
                                    gather(us, level.inverse(image)))
                    if residue == ident:
                        continue
                    j = place(residue)
                    for k in range(j, i, -1):
                        complete(k)
                    level.rebuild(ident, gens_at(i))
                    dirty = True
                    break
                if dirty:
                    break
            if not dirty:
                return

    for g in generators:
        if g._img != ident:
            place(g._img)
    for i in range(len(levels) - 1, -1, -1):
        complete(i)
    return levels


class Group:
    """A finite permutation group given by generators on {1..degree}.

    order, when given, is the proven order of the group: the stabilizer
    chain stops verifying once it reaches it, and a finished chain of any
    other order raises AssertionError.  It is the one way a known order
    enters a group; pass it only with a proof.
    """

    def __init__(self, degree: int, generators: Iterable[Perm] = (),
                 order: int | None = None):
        self.degree = degree
        gens = []
        seen = set()
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} != group degree {degree}")
            if g.is_identity() or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        self.generators: tuple[Perm, ...] = tuple(gens)
        self._levels: list[_Level] | None = None
        self._order: int | None = order
        self._elements: tuple[Perm, ...] | None = None
        self._element_set: frozenset[Perm] | None = None
        self._memo: dict = {}

    # -- stabilizer chain ------------------------------------------------

    def _chain(self) -> list[_Level]:
        if self._levels is None:
            levels = _schreier_sims(self.degree, self.generators,
                                    self._order_bound())
            n = math.prod(len(level.images) for level in levels)
            if self._order is not None and n != self._order:
                raise AssertionError(
                    f"a chain of order {n} for a group of order {self._order}")
            self._levels = levels
        return self._levels

    def _order_bound(self) -> int | None:
        """A proven upper bound on the order: the order, when known."""
        return self._order

    def build_bsgs(self) -> "Group":
        """Force construction of the stabilizer chain; idempotent."""
        self._chain()
        return self

    @property
    def base(self) -> tuple[int, ...]:
        """The 1-based base points of the stabilizer chain."""
        return tuple(level.point + 1 for level in self._chain())

    def points(self) -> tuple[int, ...]:
        """The 0-based base of the ambient group's chain (this group's own
        unless it is a handle), a base of every group below it."""
        return tuple(level.point for level in self._chain())

    def order(self) -> int:
        if self._order is None:
            if self._elements is not None:
                self._order = len(self._elements)
            else:
                self._order = math.prod(
                    len(level.images) for level in self._chain())
        return self._order

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(
                f"perm degree {p.degree} != group degree {self.degree}")
        if self._element_set is not None:
            return p in self._element_set
        return _sift(self._chain(), p._img) == tuple(range(self.degree))

    def __contains__(self, p: Perm) -> bool:
        return self.contains(p)

    # -- element enumeration ---------------------------------------------

    def elements(self, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Perm, ...]:
        """All elements exactly once, in deterministic transversal order."""
        admit("elements", cap, self.order())
        if self._elements is None:
            imgs = [tuple(range(self.degree))]
            for level in reversed(self._chain()):
                reps = [level.images[d] for d in sorted(level.images)]
                # the deepest level's representatives times the identity
                # are the representatives themselves
                imgs = (reps if len(imgs) == 1
                        else [gather(e, u) for u in reps for e in imgs])
            self._elements = tuple(map(Perm._raw, imgs))
            self._element_set = frozenset(self._elements)
        return self._elements

    def element_set(self, cap: int = DEFAULT_ENUMERATION_CAP) -> frozenset[Perm]:
        self.elements(cap)
        return self._element_set

    def _adopt_elements(self, elems: Sequence[Perm]):
        # trusted: elems is exactly the element list of this group
        if self._elements is None:
            self._elements = tuple(elems)
            self._element_set = frozenset(elems)
            self._order = len(self._elements)

    # -- the memo ----------------------------------------------------------

    def memo(self, key, compute: Callable[[], Any], **limits: int) -> Any:
        """compute() once per key; a key never holds a cap.  The entry keeps
        the largest value compute asked each cap to admit, nested entries
        included, and every call re-admits those against limits (the
        caller's cap per kind, else its default).  An entry they would refuse
        is computed again, so the refusal is the one a fresh group gives.
        A refusal leaves no entry, so the next call computes again; the
        demand recorded up to it joins the enclosing entry's, as on a hit.
        compute must let CapExceeded pass."""
        def limit(kind: str) -> int:
            return limits.get(kind, _CAPS[kind][1])

        entry = self._memo.get(key)
        if entry is None or any(n > limit(kind)
                                for kind, n in entry[1].items()):
            demand: dict[str, int] = {}
            _computing.append(demand)
            try:
                value = compute()
            finally:
                _computing.pop()
                _record(demand)
            entry = self._memo[key] = (value, demand)
        value, demand = entry
        for kind, n in demand.items():
            admit(kind, limit(kind), n)
        return value

    def random_element(self, rng: random.Random) -> Perm:
        """Uniform random element, drawn level-by-level from the transversals."""
        g = tuple(range(self.degree))
        for level in reversed(self._chain()):
            g = gather(g, level.images[rng.choice(sorted(level.images))])
        return Perm._raw(g)

    def is_abelian(self) -> bool:
        gens, points = self.generators, self.points()
        return all(commute(a, b, points)
                   for i, a in enumerate(gens) for b in gens[i + 1:])

    def identity_element(self) -> Perm:
        return identity(self.degree)

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "()"
        return f"Group(degree={self.degree}, <{gens}>)"


class Subgroup(Group):
    """A subgroup handle: a Group plus a reference to the parent it lives in.

    Generators are checked to sift to the identity through the parent's
    chain, so a handle can never silently escape its parent.
    """

    def __init__(self, parent: Group, generators: Iterable[Perm] = (),
                 _trusted: bool = False, order: int | None = None):
        super().__init__(parent.degree, generators, order)
        self.parent = parent
        if not _trusted:
            for g in self.generators:
                if not parent.contains(g):
                    raise ValueError(f"generator {g} lies outside the parent group")

    def points(self) -> tuple[int, ...]:
        """The parent's points: a handle builds no chain for them."""
        return self.parent.points()

    def _order_bound(self) -> int | None:
        """The order when known, else the parent's (Lagrange)."""
        return self._order or self.parent._order

    def __repr__(self) -> str:
        return f"Sub{super().__repr__()}"


def _key(G: Group) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The key of an element of G, from its image tuple: its images of
    G.points(), which only equal elements share.  The key of g n is
    gather(key(g), n)."""
    points = G.points()
    return lambda img: gather(points, img)


def subgroup_from_elements(parent: Group, elems: Sequence[Perm]) -> Group:
    """Build a handle from a full element list (as produced by a filter),
    selecting a small generating subset and caching the elements.  The
    parent's own element list, in its order, gives the parent itself, so a
    filter that keeps all of a group shares that group's memo; the same
    elements in another order get a handle that lists them in that order.

    The generator selection is greedy in list order: an element joins the
    generators when it lies outside the group they generate so far, until
    that group has all of elems.  Deterministic input order gives a
    deterministic handle.  No chain is built: membership is decided on the
    keys (``_key``) of the group generated so far, its elements' images of
    a base of the parent.  A list that is not a subgroup raises
    AssertionError.
    """
    held = parent._elements
    if held is not None and len(held) == len(elems) and held == tuple(elems):
        return parent
    key = _key(parent)
    keys = [key(e._img) for e in elems]
    if len(elems) == parent.order():
        gens, known = list(parent.generators), set(keys)
    else:
        gens = []
        identity_key = key(range(parent.degree))
        members, known = [identity_key], {identity_key}
        for e, k in zip(elems, keys):
            if k not in known:
                gens.append(e)
                _grow(members, known, [g._img for g in gens])
                if len(known) == len(elems):
                    break
    if len(known) != len(elems) or known != set(keys):
        raise AssertionError(
            f"{len(elems)} elements, {len(set(keys))} distinct, are not a "
            f"subgroup: they generate {len(known)}")
    found = Subgroup(parent, gens, _trusted=True, order=len(elems))
    found._adopt_elements(list(elems))
    return found


def _grow(members: list, known: set, gens: Sequence[tuple[int, ...]]):
    """Grow members, the listed keys of a group K with the identity's first,
    and known, the same as a set, to the keys of the group generated by K and
    gens, by whole right cosets K y: the key of k y is gather(key(k), y).
    Each coset representative y is kept with its key, so y s is built in
    full only when it starts a new coset."""
    coset = list(members)
    reps = [(members[0], tuple(range(len(gens[0]))))]
    for key, x in reps:
        for s in gens:
            if (ykey := gather(key, s)) not in known:
                y = gather(x, s)
                new = [gather(k, y) for k in coset]
                members += new
                known.update(new)
                reps.append((ykey, y))
