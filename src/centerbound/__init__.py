"""Exact verification engine for rank bounds on finite permutation groups.

The library computes the structural invariants that relate a finite group
to its derived subgroup (center, second center, centralizer of the derived
subgroup, ranks), replays the constructive steps behind the bounds as
witness-producing algorithms, and checks every stated inequality with exact
unbounded-integer arithmetic.
"""

from .config import Config
from .corpus import (Corpus, FamilyExpr, GroupSpec, build_family, build_group,
                     default_corpus, direct_product, parse_group_file,
                     parse_group_spec)
from .errors import (ArgOutOfRange, BadAnchors, BadFamily, CapExceeded,
                     CenterboundError, DegreeMismatch, DegreeViolation,
                     NotAbelian, NotGenerating, NotInDerived, NotNormal,
                     NotPGroup, ParseError, UnknownFamily)
from .group import Group, Subgroup, subgroup_from_elements
from .perm import (Perm, commutator, compose, format_perm, from_cycles,
                   identity, parse_perm)
from .rank import (UnknownRank, abelian_rank, all_subgroups, frattini_p,
                   group_rank, min_generators, shrink_generating_set)
from .statements import STATEMENT_TAGS, Verdict, evaluate, evaluate_all
from .structure import (QuotientPresentation, StructureReport, center,
                        centralizer, dee_subgroup, derived_subgroup,
                        intersection, is_normal, mutual_commutator,
                        normalizer, quotient, second_center, socle_p,
                        structure_report, sylow, zed_subgroup)
from .witness import (EmbeddingReport, PrimeWitness, SocleSelection,
                      WitnessRecord, also_witness, factorize_commutator,
                      rank_embedding_pl, select_socle_chain, szivas_witness)

__version__ = "0.1.0"
