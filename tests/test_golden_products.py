"""Every product-level report keeps the output pinned in golden_products.json.

The pinned file was written before the checks were rewritten, so equality
here means each rewritten check reports the same failures, at the same
indices, with the same residuals.  The second half asserts by hand which
sections each failing case must fail: a check that silently stopped
reporting would otherwise be pinned as readily as a correct one.
"""

import pytest

import golden

PINNED = golden.load(golden.PRODUCTS_PATH)


@pytest.fixture(scope="module")
def computed():
    return golden.product_reports()


def test_pinned_cases_are_all_computed(computed):
    assert set(computed) == set(PINNED)


@pytest.mark.parametrize("key", list(PINNED))
def test_product_reports_match_pinned(computed, key):
    for section, value in computed[key].items():
        assert value == PINNED[key][section], f"{key}: {section}"


PAIR_SECTIONS = {
    "g antisymmetry": ("g_validation", "antisymmetry_violations"),
    "g jacobi": ("g_validation", "jacobi_violations"),
    "n antisymmetry": ("n_validation", "antisymmetry_violations"),
    "n jacobi": ("n_validation", "jacobi_violations"),
    "commutator": ("axioms", "commutator_rule_failures"),
    "left action": ("axioms", "left_action_rule_failures"),
    "derivation": ("axioms", "derivation_rule_failures"),
    "action cycle": ("derived_identities", "action_cycle_failures"),
    "multiplication cycle": ("derived_identities", "multiplication_cycle_failures"),
    "representation": ("left_multiplications", "representation_failures"),
    "lmult derivation": ("left_multiplications", "derivation_failures"),
}

# a product that is not an action fails every product section
_PRODUCT = {
    "left action",
    "derivation",
    "action cycle",
    "multiplication cycle",
    "representation",
    "lmult derivation",
}
# x.y = {phi x, y} is always a derivation of a Lie bracket n, and the
# induced g satisfies the commutator rule by construction
_PHI = {"g jacobi", "left action", "representation"}

PAIR_FAILURES = {
    "sl3 split b+|n-": set(),
    "sl4 split b+|n-": set(),
    "sl2+sl2 cross-factor phi": set(),
    "sl3 minus identity": set(),
    "sl3 split, one product entry perturbed": {"commutator"} | _PRODUCT,
    "sl2 random product, induced g": {"g jacobi"} | _PRODUCT,
    "sl2 random product, g = n": {"commutator"} | _PRODUCT,
    "sl3 random product, induced g": {"g jacobi"} | _PRODUCT,
    "heisenberg random product, induced g": {"g jacobi"} | _PRODUCT,
    "heisenberg random product, g = n": {"commutator"} | _PRODUCT,
    "sl2+sl2 random product, induced g": {"g jacobi"} | _PRODUCT,
    "zero product on sl2, abelian3": {"commutator"},
    # the product is the verified split product over n = sl3, so only the
    # sections that read g fail
    "non-Lie g, Jacobi": {
        "g jacobi",
        "commutator",
        "left action",
        "action cycle",
        "multiplication cycle",
        "representation",
    },
    "non-Lie g, antisymmetry": {"g antisymmetry", "commutator"} | _PRODUCT,
    "non-Lie n, antisymmetry": {"n antisymmetry", "n jacobi", "commutator"} | _PRODUCT,
    "sl2 random phi": _PHI,
    "sl3 random phi": _PHI,
    "sl2+sl2 random phi": _PHI,
    "non-antisymmetric sl2 random phi": {
        "g antisymmetry",
        "n antisymmetry",
        "n jacobi",
    }
    | _PHI
    | _PRODUCT,
    "non-Jacobi sl3 random phi": {"n jacobi"} | _PHI | _PRODUCT,
}

PHI_FAILURES = {
    "sl2 random phi": {"homomorphism_rule_failures", "jacobi_violations"},
    "sl3 random phi": {"homomorphism_rule_failures", "jacobi_violations"},
    "sl2+sl2 random phi": {"homomorphism_rule_failures", "jacobi_violations"},
    "sl2+sl2 cross-factor phi": set(),
    "sl3 minus identity": set(),
    "non-antisymmetric sl2 random phi": {
        "difference_rule_failures",
        "homomorphism_rule_failures",
        "antisymmetry_violations",
        "jacobi_violations",
    },
    "non-Jacobi sl3 random phi": {"homomorphism_rule_failures", "jacobi_violations"},
}


def _group(prefix: str) -> dict:
    return {key.split(" / ", 1)[1]: value for key, value in PINNED.items() if key.startswith(prefix + " / ")}


def test_every_pinned_pair_has_expectations():
    assert set(_group("pair")) == set(PAIR_FAILURES)
    assert set(_group("phi")) == set(PHI_FAILURES)


@pytest.mark.parametrize("case", list(PAIR_FAILURES))
def test_pair_fails_exactly_the_expected_sections(computed, case):
    report = computed["pair / " + case]
    failing = {name for name, (part, key) in PAIR_SECTIONS.items() if report[part][key]}
    assert failing == PAIR_FAILURES[case]
    axioms_ok = not failing & {"commutator", "left action", "derivation"}
    assert report["axioms"]["ok"] == axioms_ok
    if axioms_ok:
        # the axioms force the embedding identities, so it cannot fail here
        assert report["embedding"] == {"failures": [], "injective": True, "ok": True}
    else:
        assert report["embedding"] == {"raises": "ValueError"}


@pytest.mark.parametrize("case", list(PHI_FAILURES))
def test_phi_conditions_fail_exactly_the_expected_sections(computed, case):
    conditions = computed["phi / " + case]["conditions"]
    validation = conditions["induced_bracket_validation"]
    failing = {key for key in ("difference_rule_failures", "homomorphism_rule_failures") if conditions[key]}
    failing |= {key for key in ("antisymmetry_violations", "jacobi_violations") if validation[key]}
    assert failing == PHI_FAILURES[case]
    assert conditions["ok"] == (not failing)


def test_adz_cases_cover_both_failure_kinds(computed):
    adz = {key: value for key, value in computed.items() if key.startswith("adz / ")}
    passing = [key for key, value in adz.items() if value["conditions"]["ok"]]
    assert len(passing) >= 4
    for key, value in adz.items():
        conditions = value["conditions"]
        assert conditions["ok"] == (
            not conditions["bracket_formula_failures"] and not conditions["composition_failures"]
        )
        # only a bracket that is not Lie can break the bracket formula
        assert bool(conditions["bracket_formula_failures"]) == ("non-" in key)
    assert any(value["conditions"]["composition_failures"] for key, value in adz.items() if "non-" not in key)
