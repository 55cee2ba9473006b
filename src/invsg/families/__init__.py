"""Symbolic infinite families and the finite carriers they induce.

The registry names match the CLI surface: ``bicyclic-nat``,
``bicyclic-dyadic``, ``rotation``, ``cex``, plus the parameterized
``coset:<group>`` (a finite carrier) and ``characters:<carrier-file>``.
"""

from __future__ import annotations

from ..core import load_carrier
from .base import DEFAULT_DEPTH, ChainWitness, SymbolicFamily, chain_members
from .bicyclic import bicyclic_dyadic, bicyclic_le, bicyclic_nat, bicyclic_op
from .cex import OMEGA, cex_family, cex_le, cex_op, cex_truncation
from .characters import character_family, enumerate_characters, trivial_character
from .cosets import (GROUP_NAMES, all_cosets, coset_monoid, cyclic_group, dihedral_group,
                     direct_product, group_by_name, quaternion_group, subgroups,
                     symmetric_group)
from .rotation import (OutOfRange, rotation_family, rotation_le, rotation_op,
                       rotation_wb_sigma)

__all__ = [
    "SymbolicFamily", "ChainWitness", "chain_members",
    "bicyclic_nat", "bicyclic_dyadic", "bicyclic_op", "bicyclic_le",
    "rotation_family", "rotation_op", "rotation_le", "rotation_wb_sigma",
    "OutOfRange",
    "cex_family", "cex_op", "cex_le", "cex_truncation",
    "OMEGA",
    "coset_monoid", "all_cosets", "subgroups", "group_by_name", "cyclic_group",
    "dihedral_group", "direct_product", "quaternion_group", "symmetric_group",
    "GROUP_NAMES",
    "character_family", "enumerate_characters", "trivial_character",
    "FAMILY_BUILDERS", "get_family", "resolve_subject",
]

FAMILY_BUILDERS = {
    "bicyclic-nat": bicyclic_nat,
    "bicyclic-dyadic": bicyclic_dyadic,
    "rotation": rotation_family,
    "cex": cex_family,
}


def get_family(name: str, depth: int = DEFAULT_DEPTH):
    """Resolve a registry name to a family, built for ``depth``, or a finite
    carrier.

    ``coset:<group>`` builds the (finite) coset monoid of a named group;
    ``characters:<path>`` builds the character family over a carrier file.
    A family whose exact scale cannot reach ``depth`` raises ``TooLarge``.
    """
    if name in FAMILY_BUILDERS:
        return FAMILY_BUILDERS[name](depth)
    if name.startswith("coset:"):
        return coset_monoid(group_by_name(name.split(":", 1)[1]))
    if name.startswith("characters:"):
        return character_family(load_carrier(name.split(":", 1)[1]), depth=depth)
    raise KeyError(
        f"unknown family {name!r}; known: {', '.join(FAMILY_BUILDERS)}, "
        "coset:<group>, characters:<carrier-file>")


def resolve_subject(spec: str, depth: int = DEFAULT_DEPTH):
    """Uniform subject grammar: ``family:<name>`` or a carrier file path; a
    family is built for ``depth``."""
    if spec.startswith("family:"):
        name = spec.split(":", 1)[1]
        return get_family(name, depth), spec
    if spec.startswith(("coset:", "characters:")):
        return get_family(spec, depth), f"family:{spec}"
    return load_carrier(spec), spec
