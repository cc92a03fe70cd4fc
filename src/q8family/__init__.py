"""Exact character theory for the family of groups (C_p x C_p) : Q8.

For every odd prime p the library builds the semidirect product of the
natural module V = C_p x C_p with a quaternion subgroup Q8 of SL2(p),
computes its full complex character table in exact arithmetic over
Z[zeta_p], the ring of every character value, attaches Frobenius-Schur
indicators, and certifies that every character induced from a nontrivial
character of V is irreducible with indicator +1 while its tensor square
contains the quaternionic degree-2 character.
"""

from .characters import (CharacterTable, CharRow, assemble_character_table,
                         character_table, default_label, fs_indicator,
                         fs_indicator_direct, induced_values, inflated_values,
                         inner_product, label_action, label_orbit, label_orbits,
                         q8_character_table, stabilizer_in_q,
                         tensor_square_decompose)
from .cyclotomic import Cyclotomic, RootSum, root_of_unity
from .errors import InvariantError, UsageError
from .groups import (ClassTable, QuaternionSubgroup, SemidirectGroup,
                     build_group, conjugacy_classes, conjugated_subgroup,
                     count_square_roots_of_identity, quaternion_subgroup,
                     square_locus)
from .modp import Mat2, is_odd_prime
from .selftest import run_selftest
from .verify import Report, scan_primes, verify_label, verify_prime

__version__ = "0.1.0"

__all__ = [
    "CharacterTable", "CharRow", "ClassTable", "Cyclotomic", "InvariantError",
    "Mat2", "QuaternionSubgroup", "Report", "RootSum", "SemidirectGroup",
    "UsageError", "assemble_character_table", "build_group", "character_table",
    "conjugacy_classes", "conjugated_subgroup", "count_square_roots_of_identity",
    "default_label", "fs_indicator", "fs_indicator_direct", "induced_values",
    "inflated_values", "inner_product", "is_odd_prime", "label_action",
    "label_orbit", "label_orbits", "q8_character_table", "quaternion_subgroup",
    "root_of_unity", "run_selftest", "scan_primes", "square_locus",
    "stabilizer_in_q", "tensor_square_decompose", "verify_label", "verify_prime",
]
