import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from charprod import catalog
from charprod.charops import kernel_of
from charprod.chartab import dixon_table
from charprod.perm import direct_product


@pytest.fixture(scope="session")
def group_of():
    """Catalog groups, cached for the whole test session."""
    return catalog.builtin


@pytest.fixture(scope="session")
def table_of(group_of):
    def build(group_id):
        return dixon_table(group_of(group_id))

    return build


@pytest.fixture(scope="session")
def product_2187(group_of):
    """wreath3 x heisenberg3 (order 2187, 187 classes) and its table."""
    g = direct_product(group_of("wreath3"), group_of("heisenberg3"))
    return g, dixon_table(g)


@pytest.fixture(scope="session")
def kernels_2187(product_2187):
    """The distinct kernels of the degree-9 irreducibles of the order-2187
    group, two of order 3 and two of order 9: the normal subgroups the
    witness descent takes quotients by."""
    g, t = product_2187
    kernels = {}
    for chi, d in zip(t.irreducibles, t.degrees):
        if d == 9:
            kernel = kernel_of(chi)
            kernels.setdefault(kernel.element_set, kernel)
    return list(kernels.values())
