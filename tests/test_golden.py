"""Every named space keeps the canonical basis pinned in golden_bases.json,
and every one-algebra report the output pinned in golden_algebras.json."""

import pytest

import golden

PINNED = golden.load()
FIXTURES = golden.fixtures()


@pytest.mark.parametrize("name", list(FIXTURES))
def test_named_bases_match_pinned(name):
    alg = FIXTURES[name]
    computed = golden.named_bases(alg)
    pinned = {key.split(" / ", 1)[1]: value for key, value in PINNED.items() if key.startswith(name + " / ")}
    assert set(computed) == set(pinned)
    for space, value in computed.items():
        assert value == pinned[space], f"{name}: {space}"


ALGEBRA_PINNED = golden.load(golden.ALGEBRAS_PATH)
ALGEBRA_CASES = golden.algebra_cases()


def test_pinned_algebras_are_all_computed():
    assert set(ALGEBRA_CASES) == set(ALGEBRA_PINNED)


@pytest.mark.parametrize("name", list(ALGEBRA_PINNED))
def test_algebra_reports_match_pinned(name):
    computed = golden.algebra_reports(ALGEBRA_CASES[name])
    assert set(computed) == set(ALGEBRA_PINNED[name])
    for section, value in computed.items():
        assert value == ALGEBRA_PINNED[name][section], f"{name}: {section}"
