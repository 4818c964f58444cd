"""Every named space keeps the canonical basis pinned in golden_bases.json."""

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
