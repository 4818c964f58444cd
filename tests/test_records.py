"""Every result record is immutable, and importing the CLI builds no dataclass."""

import os
import subprocess
import sys

import pytest

import postlie
from postlie import catalog, derivations, lie, products
from postlie.linalg import Matrix

RECORD_MODULES = (catalog, derivations, lie, products)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site's own imports out, so only the package's are seen
    src = os.path.dirname(os.path.dirname(postlie.__file__))
    code = "import sys, postlie.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def _records():
    """One real instance of every record type, built on sl2 and sl2+sl2."""
    entry = catalog.get("sl2")
    sl2 = entry.algebra
    split = products.split_construction(sl2, entry.subspaces["b+"], entry.subspaces["n-"])
    pair = split.pair
    phi = products.phi_induced(sl2, Matrix.zero(3, 3))
    adz = products.adz_lambda(sl2, [0, 0, 0], -1)
    return [
        entry,
        derivations.DerivationWeights.of(1, 1, 1),
        derivations.named_spaces(sl2),
        derivations.qder_pairs(sl2),
        derivations.gder_triples(sl2),
        derivations.verify_chain(sl2),
        derivations.case_table(sl2, [1]),
        sl2.validate(),
        sl2.invariants(),
        lie.check_hom_witness(sl2, sl2, Matrix.identity(3)),
        split,
        pair,
        products.check_axioms(pair),
        products.check_derived_identities(pair),
        products.left_multiplication_checks(pair),
        products.embed_check(pair),
        phi,
        phi.conditions,
        products.cross_factor_family(catalog.get("sl2+sl2").algebra, 4, -4, -1, 2, 4),
        adz,
        adz.conditions,
    ]


RECORDS = _records()


def _is_record(cls) -> bool:
    return issubclass(cls, tuple) or hasattr(cls, "__dataclass_fields__")


def test_every_record_type_is_covered():
    defined = {
        cls
        for mod in RECORD_MODULES
        for name, cls in vars(mod).items()
        if isinstance(cls, type) and cls.__module__ == mod.__name__
        if not name.startswith("_") and _is_record(cls)
    }
    assert {type(r) for r in RECORDS} == defined
    assert len(defined) == 21


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_record_refuses_attribute_assignment(record):
    names = getattr(record, "_fields", None) or tuple(record.__dataclass_fields__)
    for name in (*names, "extra", "_axioms", "_scaled"):
        before = getattr(record, name, None)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        assert getattr(record, name, None) is before
