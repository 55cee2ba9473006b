import pytest

from invsg import pbij
from invsg.families import cex_truncation, coset_monoid

from reference import groups_of_order_at_most


@pytest.fixture(scope="session")
def I2():
    return pbij.symmetric_inverse_monoid(2)


@pytest.fixture(scope="session")
def I3():
    return pbij.symmetric_inverse_monoid(3)


@pytest.fixture(scope="session")
def i2_subsemigroups():
    return list(pbij.enumerate_inverse_subsemigroups(2, 7))


def acceptance_corpus():
    """The acceptance corpus: I_2's inverse subsemigroups, I_3, the coset
    monoids of every group of order <= 8 and two cex truncations."""
    corpus = [(f"I2-sub-{i}(n={S.n})", S)
              for i, S in enumerate(pbij.enumerate_inverse_subsemigroups(2, 7))]
    corpus.append(("I_3", pbij.symmetric_inverse_monoid(3).carrier))
    for name, G in sorted(groups_of_order_at_most(8).items()):
        corpus.append((f"coset:{name}", coset_monoid(G)))
    corpus.append(("cex-truncation-2", cex_truncation(2)))
    corpus.append(("cex-truncation-4", cex_truncation(4)))
    return corpus


@pytest.fixture(scope="session")
def finite_corpus():
    return acceptance_corpus()
