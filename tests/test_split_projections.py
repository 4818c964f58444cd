"""``split_construction`` against the dense formula M S M^-1.

With M the matrix whose columns are the reduced bases of A and then B, and S
the 0/1 diagonal selecting the A coordinates, M S M^-1 is the projection onto
A along B.  The reference builds it with ``Matrix`` operations and derives
the product x . y = -{b_x, y} and the bracket [x, y] = {a_x, a_y} - {b_x, b_y}
from the dense tensor ``.c``.  The construction reads its projections from
one kernel call and must not touch those dense operations.
"""

from fractions import Fraction

import pytest

from postlie import catalog, products
from postlie.linalg import Matrix, Subspace
from test_product_references import _scaled, comb, mul, square, tensor, unit

CHOICES = ["b+|n-", "n-|b+", "b-|n+", "n+|b-"]

CASES = {
    f"sl{n} {choice}": (catalog.get("sln", n).algebra, *catalog.triangular_split(n, choice))
    for n in (2, 3, 4, 5)
    for choice in CHOICES
}
# sl2 in the basis (e, f, h), scaled by 1/3, split as span(e, h) + span(f + e/2)
CASES["sl2 rational"] = (
    _scaled(catalog.get("sl2").algebra, Fraction(1, 3)),
    Subspace.span([[1, 0, 0], [0, 0, 1]], 3),
    Subspace.span([[Fraction(1, 2), 1, 0]], 3),
)


def reference_projections(first: Subspace, second: Subspace) -> tuple[Matrix, Matrix]:
    dim = first.ambient_dim
    m = Matrix.from_rows(first.basis_vectors() + second.basis_vectors()).transpose()
    select = Matrix(dim, dim, [int(i == j < first.dim) for i in range(dim) for j in range(dim)])
    proj_a = m * select * m.inverse()
    return proj_a, Matrix.identity(dim) - proj_a


@pytest.mark.parametrize("name", list(CASES))
def test_split_matches_the_dense_formula(name):
    n, first, second = CASES[name]
    proj_a, proj_b = reference_projections(first, second)
    split = products.split_construction(n, first, second)
    assert split.projection_first == proj_a
    assert split.projection_second == proj_b
    assert split.phi == -proj_b
    c, dim = n.c, n.dim
    e = [unit(dim, i) for i in range(dim)]
    a = [proj_a.column(i) for i in range(dim)]
    b = [proj_b.column(i) for i in range(dim)]
    prod = square(dim, lambda i, j: comb((-1, mul(c, b[i], e[j]))))
    bracket = square(dim, lambda i, j: comb((1, mul(c, a[i], a[j])), (-1, mul(c, b[i], b[j]))))
    assert tensor(split.pair.prod.p) == prod
    assert tensor(split.pair.g.c) == bracket


@pytest.mark.parametrize("name", list(CASES))
def test_split_is_the_structure_induced_by_minus_pi_b(name):
    n, first, second = CASES[name]
    split = products.split_construction(n, first, second)
    induced = products.phi_induced(n, split.phi)
    assert split.pair == induced.pair and split.pair.g.labels == n.labels
    assert induced.conditions.ok


@pytest.mark.parametrize("name", ["sl4 b+|n-", "sl3 n+|b-", "sl2 rational"])
def test_split_makes_no_dense_matrix_products(monkeypatch, name):
    n, first, second = CASES[name]
    expected = products.split_construction(n, first, second)

    def trap(*args):
        raise AssertionError("split_construction used a dense Matrix operation")

    for op in ("inverse", "__mul__", "__sub__", "transpose"):
        monkeypatch.setattr(Matrix, op, trap)
    assert products.split_construction(n, first, second) == expected
