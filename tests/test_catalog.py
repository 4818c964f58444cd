import pytest

from postlie import catalog
from postlie.lie import check_hom_witness
from postlie.products import check_axioms, phi_induced

from tables import unit_subspace


def test_all_entries_validate():
    names = [("sl2", None), ("sl3", None), ("sl2+sl2", None), ("r31", None),
             ("heisenberg", None), ("sln", 4), ("abelian", 5)]
    for name, n in names:
        entry = catalog.get(name, n=n)
        assert entry.algebra.validate().ok, name


def test_semisimple_entries_have_full_killing_rank():
    for name, n in [("sl2", None), ("sl3", None), ("sl2+sl2", None), ("sln", 4)]:
        alg = catalog.get(name, n=n).algebra
        assert alg.killing_form().rank() == alg.dim


def test_solvable_and_nilpotent_flags():
    r31 = catalog.get("r31").algebra.invariants()
    heis = catalog.get("heisenberg").algebra.invariants()
    assert r31.is_solvable and not r31.is_nilpotent
    assert heis.is_solvable and heis.is_nilpotent


def test_unknown_name_and_missing_params():
    with pytest.raises(ValueError):
        catalog.get("so3")
    with pytest.raises(ValueError):
        catalog.get("sln")
    with pytest.raises(ValueError):
        catalog.get("sln", n=1)


@pytest.mark.parametrize(
    "name, n, labels",
    [("sl2", 2, ("e", "f", "h")), ("sl3", 3, tuple(f"e{i}" for i in range(1, 9)))],
)
def test_small_special_linear_entries_are_sln_under_frozen_labels(name, n, labels):
    """sl2 and sl3 carry the table of sln 2 and 3 and labels of their own; the golden
    files pin the tables themselves."""
    fixed, generated = catalog.get(name).algebra, catalog.get("sln", n).algebra
    assert fixed._adj == generated._adj
    assert fixed.labels == labels != generated.labels


def test_sl3_bracket_spot_check():
    sl3 = catalog.get("sl3").algebra
    # {e2, e5} = e7 + e8
    assert sl3.c[1][4] == (0, 0, 0, 0, 0, 0, 1, 1)


def test_double_is_direct_sum_of_halves():
    from postlie.lie import direct_sum

    sl2 = catalog.get("sl2").algebra
    assert catalog.get("sl2+sl2").algebra == direct_sum(sl2, sl2)


def test_sln_dimensions_and_triangular_sizes():
    for n in (2, 3, 4):
        entry = catalog.get("sln", n=n)
        assert entry.algebra.dim == n * n - 1
        assert entry.subspaces["n+"].dim == n * (n - 1) // 2
        assert entry.subspaces["n-"].dim == n * (n - 1) // 2
        assert entry.subspaces["h"].dim == n - 1
        for name, space in entry.subspaces.items():
            assert entry.algebra.is_subalgebra(space), (n, name)
        full = entry.subspaces["n+"] + entry.subspaces["h"] + entry.subspaces["n-"]
        assert full.dim == entry.algebra.dim


def test_triangular_split_sl3_expected_spans():
    a, b = catalog.triangular_split(3, "b+|n-")
    assert a == unit_subspace([6, 7, 0, 1, 3], 8)
    assert b == unit_subspace([2, 4, 5], 8)


def test_triangular_split_sl2():
    a, b = catalog.triangular_split(2, "b+|n-")
    assert a == unit_subspace([2, 0], 3)
    assert b == unit_subspace([1], 3)


@pytest.mark.parametrize(
    "name, n, upper, lower, cartan",
    [("sl2", 2, [0], [1], [2]), ("sl3", 3, [0, 1, 3], [2, 4, 5], [6, 7])],
)
def test_transcribed_entries_share_the_sln_subspaces(name, n, upper, lower, cartan):
    """sl2 and sl3 are sln 2 and 3, so they have its triangular subspaces, here
    written out as the basis indices of each."""
    dim = n * n - 1
    expected = {
        "n+": upper,
        "n-": lower,
        "h": cartan,
        "b+": cartan + upper,
        "b-": cartan + lower,
    }
    fixed, generated = catalog.get(name).subspaces, catalog.get("sln", n).subspaces
    assert fixed.keys() == generated.keys() == expected.keys()
    for key, indices in expected.items():
        assert fixed[key] == generated[key] == unit_subspace(indices, dim), key


@pytest.mark.parametrize("choice", ["b+|n-", "n-|b+", "b-|n+", "n+|b-"])
@pytest.mark.parametrize("n", [2, 3])
def test_triangular_split_is_a_splitting(n, choice):
    alg = catalog.get("sln", n=n).algebra
    a, b = catalog.triangular_split(n, choice)
    assert alg.is_subalgebra(a) and alg.is_subalgebra(b)
    assert (a & b).dim == 0
    assert a.dim + b.dim == alg.dim


def test_triangular_split_bad_choice():
    with pytest.raises(ValueError):
        catalog.triangular_split(3, "h|n+")


def test_cross_factor_phi_layout():
    phi = catalog.cross_factor_phi()
    assert phi.at(3, 0) == 4 and phi.at(5, 2) == 3
    for i in range(6):
        for j in range(6):
            if not (i >= 3 and j < 3):
                assert phi.at(i, j) == 0


def test_cross_factor_example_is_verified():
    pair = phi_induced(catalog.get("sl2+sl2").algebra, catalog.cross_factor_phi()).pair
    assert check_axioms(pair).ok
    assert pair.g.validate().ok


def test_cross_factor_phi_is_a_homomorphism_onto_its_image():
    """phi intertwines the induced bracket with the base bracket exactly."""
    phi = catalog.cross_factor_phi()
    pair = phi_induced(catalog.get("sl2+sl2").algebra, phi).pair
    rep = check_hom_witness(pair.g, pair.n, phi)
    assert rep.is_hom and not rep.is_injective


@pytest.mark.parametrize("name, n, dim", [("sln", 9, 80), ("abelian", 65, 65), ("sln", 10**6, 10**12 - 1)])
def test_get_refuses_a_dimension_over_the_limit_before_building(monkeypatch, name, n, dim):
    """The library refuses what the loader would refuse (64 dimensions), before it
    lists a matrix position or fills a table."""

    def trap(*args, **kwargs):
        raise AssertionError("catalog entry built over the size limit")

    monkeypatch.setattr(catalog, "_triangular_subspaces", trap)
    monkeypatch.setattr(catalog.LieAlgebra, "from_brackets", trap)
    with pytest.raises(ValueError, match=f"dimension {dim}, which exceeds the limit of 64"):
        catalog.get(name, n)


@pytest.mark.parametrize("indices", [[5], [0, 3], [-1], [0.5], [True], ["1"]])
def test_unit_span_refuses_indices_out_of_range(indices):
    """An index that is not an int, a bool included, is out of range too."""
    with pytest.raises(ValueError, match="out of range for dim 3"):
        catalog.unit_span(indices, 3)


@pytest.mark.parametrize("name, n", [("sln", True), ("sln", 2.0), ("abelian", True), ("abelian", 4.0)])
def test_get_refuses_an_n_that_is_not_an_int(name, n):
    with pytest.raises(ValueError, match=f"{name} needs an int n, got {n!r}"):
        catalog.get(name, n)


def test_triangular_split_refuses_a_size_over_the_limit_before_building(monkeypatch):
    def trap(*args, **kwargs):
        raise AssertionError("split built over the size limit")

    monkeypatch.setattr(catalog, "_triangular_subspaces", trap)
    with pytest.raises(ValueError, match="dimension 80, which exceeds the limit of 64"):
        catalog.triangular_split(9, "b+|n-")
