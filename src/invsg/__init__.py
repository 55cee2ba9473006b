"""Inverse semigroups, their intrinsic order, and executable mirror properties."""

from .core import (FiniteInvSemigroup, NotInverseSemigroup, from_json, h_class,
                   idempotents, is_reduced, load_carrier, sup_finite, to_json)
from .pbij import (GeneratedSemigroup, PartialBijection, closure,
                   symmetric_inverse_monoid)
from .poset import FinitePoset, order_poset, sigma_poset

__version__ = "0.1.0"

__all__ = [
    "FiniteInvSemigroup", "NotInverseSemigroup", "idempotents", "sup_finite",
    "h_class", "is_reduced", "to_json", "from_json", "load_carrier",
    "PartialBijection", "GeneratedSemigroup", "closure", "symmetric_inverse_monoid",
    "FinitePoset", "order_poset", "sigma_poset",
    "__version__",
]
