"""Group construction: built-in families, a generator-file parser, direct
products, and the default verification corpus.

Families (permutation realisations):

* cyclic(n): one n-cycle on n points.
* dihedral(n): rotation and reflection on n points (n >= 3); the orders
  2 and 4 for n = 1, 2 are realised on 2 and 4 points.
* dicyclic(n): order 4n in its regular action on 4n points (generalized
  quaternion when n is a power of 2).
* symmetric(n), alternating(n): natural action, n <= 7.
* elem_abelian(p, k): k disjoint p-cycles on pk points.
* heisenberg(p): extraspecial of order p^3 (exponent p for odd p), acting
  on the p^2 points of the affine plane by (x, y) -> (x+a, y+bx+c); this
  faithful degree-p^2 action avoids regular representations of degree p^3.
* direct_product(s, t): factors act on the disjoint union of their
  domains; generators are padded with fixed points.

The grammar for naming groups on the command line is
``family:NAME(ARGS)`` with nested family expressions allowed inside
direct_product, or ``file:PATH`` for a generator file of the form::

    degree N
    # comment
    (1 2 3)(4 5)
    (1 2)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .arith import is_prime
from .errors import ArgOutOfRange, DegreeViolation, ParseError, UnknownFamily
from .group import Group
from .perm import Perm, from_cycles, parse_perm

@dataclass(frozen=True)
class FamilyExpr:
    """A family name applied to integer or nested-family arguments."""
    name: str
    args: tuple = ()

    def __str__(self) -> str:
        inner = ",".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class GroupSpec:
    kind: str                      # "family" | "file"
    family: FamilyExpr | None = None
    path: str | None = None
    label: str = ""

    def __str__(self) -> str:
        if self.kind == "family":
            return f"family:{self.family}"
        return f"file:{self.path}"


@dataclass
class Corpus:
    specs: list[GroupSpec] = field(default_factory=list)


# -- family builders -----------------------------------------------------


def _cyclic(n: int) -> Group:
    if n < 1:
        raise ArgOutOfRange("cyclic(n) needs n >= 1")
    if n == 1:
        return Group(1)
    return Group(n, [from_cycles(n, [range(1, n + 1)])])


def _dihedral(n: int) -> Group:
    if n < 1:
        raise ArgOutOfRange("dihedral(n) needs n >= 1")
    if n == 1:
        return Group(2, [from_cycles(2, [(1, 2)])])
    if n == 2:
        return Group(4, [from_cycles(4, [(1, 2), (3, 4)]),
                         from_cycles(4, [(1, 3), (2, 4)])])
    rotation = from_cycles(n, [range(1, n + 1)])
    reflection = Perm([1] + list(range(n, 1, -1)))
    return Group(n, [rotation, reflection])


def _dicyclic(n: int) -> Group:
    # <a, b | a^(2n) = 1, b^2 = a^n, b^-1 a b = a^-1>, regular action on
    # the 4n element labels a^i b^j (i < 2n, j < 2)
    if n < 1:
        raise ArgOutOfRange("dicyclic(n) needs n >= 1")
    two_n = 2 * n

    def label(i: int, j: int) -> int:
        return i % two_n + two_n * j + 1

    a_images = [0] * (4 * n)
    b_images = [0] * (4 * n)
    for i in range(two_n):
        a_images[label(i, 0) - 1] = label(i + 1, 0)
        a_images[label(i, 1) - 1] = label(i - 1, 1)
        b_images[label(i, 0) - 1] = label(i, 1)
        b_images[label(i, 1) - 1] = label(i + n, 0)
    return Group(4 * n, [Perm(a_images), Perm(b_images)])


def _symmetric(n: int) -> Group:
    if not 1 <= n <= 7:
        raise ArgOutOfRange("symmetric(n) supports 1 <= n <= 7")
    if n == 1:
        return Group(1)
    if n == 2:
        return Group(2, [from_cycles(2, [(1, 2)])])
    return Group(n, [from_cycles(n, [(1, 2)]),
                     from_cycles(n, [range(1, n + 1)])])


def _alternating(n: int) -> Group:
    if not 1 <= n <= 7:
        raise ArgOutOfRange("alternating(n) supports 1 <= n <= 7")
    if n <= 2:
        return Group(n)
    if n == 3:
        return Group(3, [from_cycles(3, [(1, 2, 3)])])
    three = from_cycles(n, [(1, 2, 3)])
    if n % 2 == 1:
        big = from_cycles(n, [range(1, n + 1)])
    else:
        big = from_cycles(n, [range(2, n + 1)])
    return Group(n, [three, big])


def _elem_abelian(p: int, k: int) -> Group:
    if not is_prime(p):
        raise ArgOutOfRange(f"elem_abelian needs a prime, got {p}")
    if k < 1:
        raise ArgOutOfRange("elem_abelian(p, k) needs k >= 1")
    degree = p * k
    gens = [from_cycles(degree, [range(i * p + 1, (i + 1) * p + 1)])
            for i in range(k)]
    return Group(degree, gens)


def _heisenberg(p: int) -> Group:
    if not is_prime(p):
        raise ArgOutOfRange(f"heisenberg needs a prime, got {p}")
    degree = p * p

    def affine(a: int, b: int, c: int) -> Perm:
        images = [0] * degree
        for x in range(p):
            for y in range(p):
                images[x * p + y] = ((x + a) % p) * p + (y + b * x + c) % p + 1
        return Perm(images)

    return Group(degree, [affine(1, 0, 0), affine(0, 1, 0)])


def _pad(perm: Perm, before: int, after: int) -> Perm:
    images = (list(range(1, before + 1))
              + [i + before for i in perm.images]
              + list(range(before + perm.degree + 1,
                           before + perm.degree + after + 1)))
    return Perm(images)


def direct_product(left: Group, right: Group) -> Group:
    """Factors act on the disjoint union of their domains."""
    degree = left.degree + right.degree
    gens = [_pad(g, 0, right.degree) for g in left.generators]
    gens += [_pad(g, left.degree, 0) for g in right.generators]
    return Group(degree, gens)


# the families of integer arguments: name -> (builder, arity)
_FAMILIES = {"cyclic": (_cyclic, 1), "dihedral": (_dihedral, 1),
             "dicyclic": (_dicyclic, 1), "symmetric": (_symmetric, 1),
             "alternating": (_alternating, 1),
             "elem_abelian": (_elem_abelian, 2),
             "heisenberg": (_heisenberg, 1)}
FAMILY_NAMES = (*_FAMILIES, "direct_product")


def build_family(name: str, args) -> Group:
    """Build a named family member; args are integers, except for
    direct_product where they are nested FamilyExpr values."""
    if name == "direct_product":
        if len(args) != 2 or not all(isinstance(a, FamilyExpr) for a in args):
            raise ArgOutOfRange(
                "direct_product takes exactly two family expressions")
        return direct_product(build_family(args[0].name, args[0].args),
                              build_family(args[1].name, args[1].args))
    if not all(isinstance(a, int) for a in args):
        raise ArgOutOfRange(f"{name} takes integer arguments")
    if name not in _FAMILIES:
        raise UnknownFamily(f"unknown family {name!r}; known: {FAMILY_NAMES}")
    builder, arity = _FAMILIES[name]
    if len(args) != arity:
        raise ArgOutOfRange(
            f"{name} takes {arity} argument(s), got {len(args)}")
    return builder(*args)


# -- spec grammar ----------------------------------------------------------


_NAME_RE = re.compile(r"[a-z_]+")


def parse_family_expr(text: str) -> FamilyExpr:
    expr, rest = _parse_expr(text.strip())
    if rest.strip():
        raise ParseError(f"trailing input after family expression: {rest!r}")
    return expr


def _parse_expr(text: str) -> tuple[FamilyExpr, str]:
    m = _NAME_RE.match(text)
    if not m:
        raise ParseError(f"expected a family name at {text!r}")
    name = m.group(0)
    if name not in FAMILY_NAMES:
        raise UnknownFamily(f"unknown family {name!r}; known: {FAMILY_NAMES}")
    rest = text[m.end():].lstrip()
    if not rest.startswith("("):
        raise ParseError(f"expected '(' after {name}")
    rest = rest[1:]
    args: list = []
    while True:
        rest = rest.lstrip()
        if rest.startswith(")"):
            rest = rest[1:]
            break
        if rest[:1].isdigit():
            m = re.match(r"\d+", rest)
            args.append(int(m.group(0)))
            rest = rest[m.end():]
        else:
            sub, rest = _parse_expr(rest)
            args.append(sub)
        rest = rest.lstrip()
        if rest.startswith(","):
            rest = rest[1:]
        elif not rest.startswith(")"):
            raise ParseError(f"expected ',' or ')' at {rest!r}")
    return FamilyExpr(name, tuple(args)), rest


def parse_group_spec(text: str, label: str | None = None) -> GroupSpec:
    """Parse "family:NAME(ARGS)" or "file:PATH"."""
    stripped = text.strip()
    if stripped.startswith("family:"):
        expr = parse_family_expr(stripped[len("family:"):])
        return GroupSpec("family", family=expr,
                         label=label or str(expr))
    if stripped.startswith("file:"):
        path = stripped[len("file:"):].strip()
        if not path:
            raise ParseError("file: spec needs a path")
        return GroupSpec("file", path=path, label=label or f"file:{path}")
    raise ParseError(
        f"group spec must start with 'family:' or 'file:', got {text!r}")


def build_group(spec: GroupSpec) -> Group:
    if spec.kind == "family":
        return build_family(spec.family.name, spec.family.args)
    return parse_group_file(spec.path)


# -- generator files --------------------------------------------------------


def parse_group_file(path: str) -> Group:
    """Read a group from a generator file (see module docstring)."""
    with open(path) as fh:
        lines = fh.readlines()
    degree = None
    gens: list[Perm] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            m = re.fullmatch(r"degree\s+(\d+)", line)
            if not m:
                raise ParseError("expected 'degree N' as the first entry",
                                 line=lineno)
            degree = int(m.group(1))
            continue
        try:
            gens.append(parse_perm(line, degree))
        except DegreeViolation as exc:
            raise DegreeViolation(str(exc), line=lineno) from None
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if degree is None:
        raise ParseError("empty group file: no 'degree N' line")
    return Group(degree, gens)


# -- the default corpus ------------------------------------------------------


def default_corpus() -> Corpus:
    """All built-in families over small argument grids plus a fixed list of
    direct products mixing centerless and class-2 factors; at least 120
    groups, all of order at most 20000."""
    specs: list[GroupSpec] = []

    def family(text: str):
        specs.append(parse_group_spec("family:" + text))

    for n in range(1, 33):
        family(f"cyclic({n})")
    for n in range(1, 33):
        family(f"dihedral({n})")
    for n in range(1, 33):
        family(f"dicyclic({n})")
    for n in range(1, 7):
        family(f"symmetric({n})")
    for n in range(1, 7):
        family(f"alternating({n})")
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            family(f"elem_abelian({p},{k})")
    for p in (2, 3, 5):
        family(f"heisenberg({p})")

    products = [
        "direct_product(symmetric(3),dihedral(4))",
        "direct_product(symmetric(4),heisenberg(3))",
        "direct_product(symmetric(3),heisenberg(3))",
        "direct_product(symmetric(4),dihedral(4))",
        "direct_product(symmetric(3),cyclic(4))",
        "direct_product(symmetric(4),cyclic(6))",
        "direct_product(alternating(4),dihedral(4))",
        "direct_product(alternating(5),cyclic(2))",
        "direct_product(alternating(5),dihedral(4))",
        "direct_product(symmetric(5),cyclic(3))",
        "direct_product(symmetric(5),dihedral(4))",
        "direct_product(alternating(4),heisenberg(3))",
        "direct_product(dihedral(4),heisenberg(3))",
        "direct_product(dihedral(4),dihedral(4))",
        "direct_product(heisenberg(3),heisenberg(3))",
        "direct_product(heisenberg(3),cyclic(3))",
        "direct_product(dihedral(4),cyclic(2))",
        "direct_product(dicyclic(2),dihedral(4))",
        "direct_product(symmetric(3),heisenberg(5))",
        "direct_product(symmetric(3),direct_product(dihedral(4),cyclic(5)))",
    ]
    for text in products:
        family(text)

    labels = [s.label for s in specs]
    if len(labels) != len(set(labels)):
        raise AssertionError("corpus labels are not unique")
    return Corpus(specs)
