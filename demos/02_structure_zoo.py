"""The subgroup algebra on a small zoo of groups.

For each group we print the cast that every bound in the statement catalog
walks through: the derived subgroup G', the center Z, the second center Z2,
the centralizer C_G(G') of the derived subgroup, the subgroup
D = {g | [g, G'] <= Z(G)}, and zed = G' n Z(G).
"""

from centerbound import (build_group, parse_group_spec, quotient,
                         socle_p, structure_report, sylow)
from centerbound.perm import parse_perm

ZOO = [
    "symmetric(3)",
    "symmetric(4)",
    "dihedral(4)",
    "dicyclic(4)",          # generalized quaternion of order 16, class 3
    "heisenberg(3)",        # extraspecial 27, exponent 3
    "direct_product(symmetric(3),dihedral(4))",
]

for text in ZOO:
    G = build_group(parse_group_spec("family:" + text))
    sr = structure_report(G)
    o = sr.orders
    print(f"{text}: |G|={o['group']}  |G'|={o['derived']}  |Z|={o['center']}"
          f"  |Z2|={o['second_center']}  |C_G(G')|="
          f"{o['centralizer_of_derived']}  |D|={o['dee']}  |zed|={o['zed']}")
print()

# Sylow subgroups by ascent, one element of the normalizer per step
S4 = build_group(parse_group_spec("family:symmetric(4)"))
for p in (2, 3, 5):
    print(f"Sylow {p}-subgroup of Sym(4) has order", sylow(S4, p).order())
print()

# Quotients act faithfully on right cosets, each coset a block of elements;
# projection looks up one coset per block, and preimage_elements returns
# whole blocks.
Q8 = build_group(parse_group_spec("family:dicyclic(2)"))
sr = structure_report(Q8)
pres = quotient(Q8, sr.center)
above = pres.quotient
print("Q8 / Z(Q8) has order", above.order(),
      "and exponent 2:", all((x * x).is_identity() for x in above.elements()))
print("projection of i:", pres.projection(Q8.generators[0]))
print()

# Socle of an abelian p-group: the elements killed by p.
from centerbound import Group
C4xC2 = Group(6, [parse_perm("(1 2 3 4)", 6), parse_perm("(5 6)", 6)])
print("socle of C4 x C2 has order", socle_p(C4xC2, 2).order())
