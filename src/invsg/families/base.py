"""Shared machinery for symbolic (infinite) inverse-semigroup families.

A family is an oracle bundle: exact closed-form product, inversion, order,
way-below and sampling, plus canonical chain witnesses.  Elements are
canonical immutable Python values, so equality is plain ``==`` and
everything hashes: pairs of ints for the bicyclic and rotation families
(rationals on a grid, stored as exact integer multiples of its step), tuples
of such pairs for characters, and for ``cex`` an int on the same kind of
grid or the sentinel omega.  ``describe`` prints the rationals.

The grid step is 2^-K, with K sized to the depth a family is built for
(``family_scale``): the checks at depth d read chain members up to index
``chain_limit(d)`` = max(3 d, DEFAULT_DEPTH), and K is that limit plus 8
spare bits, so K = 200 at the default depth and 3,080 at ``MAX_DEPTH``.
The oracles use only +, -, max, min and comparisons, which commute with the
scaling, so the verdicts do not depend on K; only the width of the ints does.

Way-below on an infinite poset is not decidable by quantification, so each
family ships a hand-derived closed form; trust comes from the consistency
identity s << t  <=>  s <= t and sigma(s) << sigma(t) checked across big
sampled budgets, and from refutation testing against canonical chains.

A canonical chain to t claims t as its sup in S, and in Sigma when t is
idempotent, and lists t as its upper bound: ``chain_to`` states that rule
once, and ``finite_chain`` applies it to a list, whose last item is its
maximum and so its sup.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Union

from ..core import TooLarge

__all__ = ["ChainWitness", "SymbolicFamily", "Scale",
           "DEFAULT_DEPTH", "MAX_DEPTH", "below", "chain_limit", "chain_to",
           "family_scale", "finite_chain", "grid_rows", "require_positive", "seeded"]

DEFAULT_DEPTH = 64
MAX_DEPTH = 1024  # the deepest depth an integer family is built for


def chain_limit(depth: int) -> int:
    """The deepest chain index the checks at ``depth`` read."""
    return max(3 * depth, DEFAULT_DEPTH)


class Scale(NamedTuple):
    """The exact integer scale of a family built for ``depth``.

    Values are stored as integer multiples of 2^-bits, so a chain member at
    index k <= ``limit`` (a step of 2^-k) is exact; ``check`` refuses a
    deeper one instead of computing it, and names the depth to build for.
    """

    depth: int
    limit: int

    @property
    def bits(self) -> int:
        """The limit plus 8 spare bits, which keep a chain to an early member
        of another chain exact to the last index too (the sample pools hold
        members up to index 3)."""
        return self.limit + 8

    def check(self, k: int) -> None:
        if k > self.limit:
            need = -(-k // 3)  # the least depth whose chain_limit reaches k
            remedy = f"the family was built for depth {self.depth}; " + (
                f"rebuild it with depth={need}" if need <= MAX_DEPTH
                else f"no family is built past depth {MAX_DEPTH}")
            raise TooLarge(f"chain index {k}", self.limit, remedy)

    def approach(self, r: int, k: int, chain: Callable[[], str]) -> int:
        """Member k of the chain r (1 - 2^-k) to an encoded r >= 0, stored as
        r - (r >> k): ``check`` refuses k past the limit, and a member that
        would round (r on a finer grid than 2^-k of its unit) raises
        ``TooLarge`` too, never a rounded value, naming the chain by
        ``chain()``."""
        self.check(k)
        if r & ((1 << k) - 1):
            raise TooLarge(f"exact {chain()}: index", (r & -r).bit_length() - 1)
        return r - (r >> k)


def family_scale(depth: int) -> Scale:
    """The scale of an integer family built for ``depth``; ``TooLarge`` past
    ``MAX_DEPTH``."""
    if depth > MAX_DEPTH:
        raise TooLarge("depth", MAX_DEPTH)
    return Scale(depth, chain_limit(depth))


def below(rng: random.Random, n: int) -> int:
    """A uniform int in [0, n), n > 0, drawn as ``Random.randrange`` draws it.

    This is CPython's ``_randbelow_with_getrandbits`` (the same in 3.10 to
    3.13): ``getrandbits(k)`` with k = n.bit_length() until the result is
    below n.  So it consumes the Mersenne Twister stream exactly as
    ``randrange`` with stop n does, and ``a + below(rng, b - a)`` is its draw
    with start a and stop b, without the argument checks, so reports stay
    the same at every seed.  The samplers of the four registry families
    (``bicyclic``, ``rotation``, ``cex``) write this loop inline, without a
    frame per index, with k precomputed per grid row; ``characters`` and the
    checks call it.  Inline, three cases need care: a power of two draws one
    bit more than it needs and rejects (k = 3 for n = 4, 4 for n = 8); a row
    of one item still draws (k = 1, until a 0); and a coordinate a sampler
    discards is still drawn.  ``tests/test_draws.py`` pins every sampler to
    ``randrange``.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def grid_rows(grid) -> tuple:
    """Each row of a sample grid with its length n and k = n.bit_length():
    an index into it is drawn as ``below`` draws it, getrandbits(k) until
    below n.  A row of 1 still draws (k = 1), and a power of two draws a bit
    more than it needs and rejects (k = 3 for n = 4)."""
    return tuple((row, len(row), len(row).bit_length()) for row in grid)


def seeded(seed: int, *tags: str) -> random.Random:
    """The generator of one named stream: ``seed`` in the high bits, the
    running CRC-32 of the tags in the low 32."""
    h = 0
    for t in tags:
        h = zlib.crc32(t.encode(), h)
    return random.Random((seed << 32) ^ h)


def require_positive(**counts) -> None:
    """Refuse a depth, budget or other count below 1; None passes."""
    for name, value in counts.items():
        if value is not None and value <= 0:
            raise ValueError(f"{name} must be a positive integer, got {value}")


@dataclass(eq=False, slots=True)  # identity semantics
class ChainWitness:
    """A canonical countable directed subset with its supremum claims.

    ``member(k)`` is the k-th element (monotone in k; finite lists clamp at
    their last element).  ``sup_in_sigma``/``sup_in_s`` are the claimed
    suprema, None when the sup does not exist in that poset.  Claims are
    verified by sampling k up to the chain depth; for a missing sup the
    listed upper bounds certify the failure (an upper bound u with
    sup_in_sigma not below u refutes any supremum in S).  ``label`` is the
    name, or a function that builds it when ``name`` is read: most chains are
    never named in a report.  ``chain_to`` and ``finite_chain`` build the
    standard chains; a family fills these fields itself only for a chain
    whose claims differ (the ``cex`` chains with the bound omega).

    A chain equals only itself.  Every constructor makes a fresh ``member``
    closure, so comparing fields would also come down to identity.  It is not
    frozen: a frozen dataclass costs about three times as much to build, and
    a pass builds tens of thousands of chains.
    """

    label: Union[str, Callable[[], str]]
    member: Callable[[int], Any]
    in_sigma: bool
    sup_in_sigma: Any = None
    sup_in_s: Any = None
    upper_bounds: tuple = ()
    length: Optional[int] = None  # None for an omega chain

    @property
    def name(self) -> str:
        return self.label() if callable(self.label) else self.label


@dataclass(frozen=True, eq=False)  # identity semantics: an oracle bundle
class SymbolicFamily:
    """Oracle bundle for one infinite parametric inverse semigroup.

    ``chains_to(y)`` gives the canonical chains to y, and the chains of
    Sigma and of way-below refutation come from it: ``sigma_chains_to``
    keeps the chains in Sigma, and a denied x << y with x <= y is refuted by
    the first chain to y on its side (see ``checkers._wb_refutation``).
    The families build these chains with ``chain_to`` and ``finite_chain``.
    """

    name: str
    op: Callable[[Any, Any], Any]
    inv: Callable[[Any], Any]
    nat_le: Callable[[Any, Any], bool]
    is_idempotent: Callable[[Any], bool]
    describe: Callable[[Any], str]
    sample: Callable[[random.Random], Any]
    sample_idempotent: Callable[[random.Random], Any]
    witnesses: tuple[ChainWitness, ...]
    chains_to: Callable[[Any], tuple[ChainWitness, ...]]
    h_class_sample: Callable[[Any, random.Random, int], list]
    # way-below oracles; None when the family only supports partial evidence
    wb_s: Optional[Callable[[Any, Any], bool]] = None
    wb_sigma: Optional[Callable[[Any, Any], bool]] = None
    zero: Any = None

    def sigma(self, s) -> Any:
        return self.op(self.inv(s), s)

    def sigma_chains_to(self, eps) -> tuple[ChainWitness, ...]:
        """The canonical chains to eps that lie in Sigma."""
        return tuple(cw for cw in self.chains_to(eps) if cw.in_sigma)


def chain_members(cw: ChainWitness, depth: int) -> list:
    return list(iter_chain(cw, depth))


def iter_chain(cw: ChainWitness, depth: int):
    """Lazily yield members up to the depth (cheap when callers exit early)."""
    n = depth + 1
    if cw.length is not None and cw.length < n:
        n = cw.length
    return map(cw.member, range(n))


def chain_to(t, idempotent: bool, label: Union[str, Callable[[], str]],
             member: Callable[[int], Any], length: Optional[int] = None) -> ChainWitness:
    """A chain whose members reach or approach t: it claims t as its sup in S,
    and in Sigma when t is ``idempotent`` (which also puts the chain in
    Sigma), and lists t as its upper bound."""
    return ChainWitness(label=label, member=member, in_sigma=idempotent,
                        sup_in_sigma=t if idempotent else None, sup_in_s=t,
                        upper_bounds=(t,), length=length)


def finite_chain(label: Union[str, Callable[[], str]], items, in_sigma: bool) -> ChainWitness:
    """The chain through ``items``, clamped at the last: a finite chain has
    its last item as maximum, hence as sup (Gierz et al., 2003)."""
    items = list(items)
    last = len(items) - 1
    return chain_to(items[last], in_sigma, label, lambda k: items[k if k < last else last],
                    len(items))
