"""Permutation groups backed by a deterministic base and strong generating set.

The stabilizer chain is built by the classic deterministic Schreier-Sims
procedure (no randomisation), so orders, membership answers and element
enumeration order are bit-stable across runs.  Groups are immutable after
construction; the lazily built chain and element list are write-once, so
a group may be shared freely once built.

Every derived result (center, quotients, subgroup lattice, ranks, ...) lives
in one memo per group, ``Group.memo``.  Caps are admission checks through
``admit``, never keys, so a call raises CapExceeded exactly when the same
call on a fresh group would.  The bookkeeping is module state, so groups are
not for concurrent threads.

Element enumeration walks the transversal chain in sorted-orbit order and is
guarded by a configurable cap: operations that need the full element list
fail loudly with CapExceeded rather than subsample.

The base doubles as an element key.  Two elements of a group are equal
exactly when they agree on a base of it, and a base of the ambient group is
a base of each of its subgroups, so ``Group.points()`` (the ambient chain's
base) decides commuting (``perm.commute``) and keys the coset maps of
structure.py by a few images in place of a whole image tuple.
"""

from __future__ import annotations

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
    """The one cap check: raise CapExceeded when value exceeds limit, and
    otherwise record value in the memo entry being computed."""
    if value > limit:
        raise CapExceeded(_CAPS[kind][0], limit, value)
    if _computing and _computing[-1].get(kind, -1) < value:
        _computing[-1][kind] = value


class _Level:
    """One level of the stabilizer chain: a base point, the strong
    generators first assigned to this level, and a Schreier transversal.

    The group of level i is generated by the gens of ALL levels >= i; a
    generator sits at the first level whose base point it moves.  The chain
    is built and sifted on image tuples (``images``, ``inverse``); ``gens``
    and ``transversal`` hold them as Perms once the chain is complete.
    """

    __slots__ = ("point", "gens", "images", "inverses", "transversal")

    def __init__(self, point: int):
        self.point = point              # 0-based internally
        self.gens: list = []
        self.images: dict[int, tuple[int, ...]] = {}
        self.inverses: dict[int, tuple[int, ...]] = {}
        self.transversal: dict[int, Perm] = {}

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

    def finish(self):
        """Wrap the strong generators and representatives in Perms."""
        self.gens = [Perm._raw(g) for g in self.gens]
        self.transversal = {d: Perm._raw(u) for d, u in self.images.items()}


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


def _schreier_sims(degree: int, generators: Sequence[Perm]) -> list[_Level]:
    """Deterministic stabilizer chain (textbook Schreier-Sims; Seress,
    Permutation Group Algorithms, 2003), on image tuples.

    Base points are chosen as the smallest point moved by the generator
    that forces a new level; orbits are BFS in generator-list order; level
    i is complete once every Schreier generator at level i sifts to the
    identity through the deeper levels.  A Schreier generator u s is
    compared with the representative of its point before it is sifted, and
    no Perm is built until the chain is complete.
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
    for level in levels:
        level.finish()
    return levels


class Group:
    """A finite permutation group given by generators on {1..degree}."""

    def __init__(self, degree: int, generators: Iterable[Perm] = ()):
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
        self._order: int | None = None
        self._elements: tuple[Perm, ...] | None = None
        self._element_set: frozenset[Perm] | None = None
        self._memo: dict = {}

    # -- stabilizer chain ------------------------------------------------

    def _chain(self) -> list[_Level]:
        if self._levels is None:
            self._levels = _schreier_sims(self.degree, self.generators)
        return self._levels

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
                n = 1
                for level in self._chain():
                    n *= len(level.transversal)
                self._order = n
        return self._order

    def sift(self, p: Perm) -> Perm:
        """Strip p through the chain; the residue is the identity exactly
        when p is a member."""
        if p.degree != self.degree:
            raise DegreeMismatch(
                f"perm degree {p.degree} != group degree {self.degree}")
        return Perm._raw(_sift(self._chain(), p._img))

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
                imgs = [gather(e, u) for u in reps for e in imgs]
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
        compute must let CapExceeded pass: a caught refusal leaves no trace."""
        entry = self._memo.get(key)
        if entry is None or any(n > limits.get(kind, _CAPS[kind][1])
                                for kind, n in entry[1].items()):
            _computing.append({})
            try:
                value = compute()
            finally:
                demand = _computing.pop()
            entry = self._memo[key] = (value, demand)
        value, demand = entry
        for kind, n in demand.items():
            admit(kind, limits.get(kind, _CAPS[kind][1]), n)
        return value

    def random_element(self, rng: random.Random) -> Perm:
        """Uniform random element, drawn level-by-level from the transversals."""
        g = identity(self.degree)
        for level in reversed(self._chain()):
            delta = rng.choice(sorted(level.transversal))
            g = g * level.transversal[delta]
        return g

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
                 _trusted: bool = False):
        super().__init__(parent.degree, generators)
        self.parent = parent
        if not _trusted:
            for g in self.generators:
                if not parent.contains(g):
                    raise ValueError(f"generator {g} lies outside the parent group")

    def points(self) -> tuple[int, ...]:
        """The parent's points: a handle builds no chain for them."""
        return self.parent.points()

    def __repr__(self) -> str:
        return f"Sub{super().__repr__()}"


def subgroup_from_elements(parent: Group, elems: Sequence[Perm]) -> Subgroup:
    """Build a handle from a full element list (as produced by a filter),
    selecting a small generating subset and caching the elements.

    The generator selection is greedy in list order: an element joins the
    generators when it does not sift through the chain of the handle built
    so far, until that handle has all of elems.  Deterministic input order
    gives a deterministic handle.
    """
    if len(elems) == parent.order():
        found = Subgroup(parent, parent.generators, _trusted=True)
    else:
        found = Subgroup(parent, (), _trusted=True)
        for e in elems:
            if e not in found:
                found = Subgroup(parent, found.generators + (e,),
                                 _trusted=True)
                if found.order() == len(elems):
                    break
    found._adopt_elements(list(elems))
    return found
