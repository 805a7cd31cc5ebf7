"""The public result types are immutable records: equality, repr, defaults,
immutability and pickling behave as they did for frozen dataclasses."""

import copy
import pickle
from fractions import Fraction

import pytest

from polydecomp import (
    CenterBasis,
    DecompositionNode,
    DecompositionResult,
    IdempotentSet,
    PlantedInstance,
    RatMatrix,
    VerificationReport,
    parse_polynomial,
)
from polydecomp.cli import ProblemFile

X = parse_polynomial("x^3 + 2/3*x", ["x"])
I2 = RatMatrix.identity(2)
HALF = RatMatrix.from_rows([[Fraction(1, 2)]])
LEAF = DecompositionNode((0,), (X,), (), 1, transform=HALF)

# (class, every field, one field changed, the defaulted fields, repr or None)
CASES = [
    (CenterBasis, {"n": 2, "basis": (I2,)}, {"n": 3}, {}, None),
    (
        IdempotentSet,
        {"n": 2, "eps": (I2,), "corners": (None,)},
        {"eps": ()},
        {"corners": None},
        None,
    ),
    (
        DecompositionNode,
        {
            "variable_indices": (0,),
            "polys": (X,),
            "children": (),
            "center_dim": 1,
            "idempotents": None,
            "transform": HALF,
        },
        {"center_dim": 2},
        {"idempotents": None, "transform": None},
        "DecompositionNode(variable_indices=(0,), polys=(Polynomial(1: x0^3 + 2/3*x0),),"
        " children=(), center_dim=1, idempotents=None, transform=RatMatrix(1x1: 1/2))",
    ),
    (
        DecompositionResult,
        {"P": I2, "tree": LEAF, "diagonalizable": False, "center": CenterBasis(2, (I2,))},
        {"diagonalizable": True},
        {"center": None},
        None,
    ),
    (
        VerificationReport,
        {"ok": False, "reason": "root: idempotent identities fail"},
        {"ok": True},
        {"reason": ""},
        "VerificationReport(ok=False, reason='root: idempotent identities fail')",
    ),
    (ProblemFile, {"vars": ("x",), "sources": ("x^3",)}, {"sources": ("x^4",)}, {}, None),
    (
        PlantedInstance,
        {"fs": (X,), "Q": HALF, "planted_blocks": (1,), "seed": 7, "unmixed": (X,)},
        {"seed": 8},
        {},
        None,
    ),
]


@pytest.mark.parametrize(
    "cls, fields, changed, defaults, expected_repr", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_record_behaves_as_a_frozen_dataclass(cls, fields, changed, defaults, expected_repr):
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert record != cls(**(fields | changed))
    assert record != tuple(fields.values())
    assert [getattr(record, name) for name in fields] == list(fields.values())

    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    if expected_repr is not None:
        assert repr(record) == expected_repr

    name = next(iter(changed))
    with pytest.raises(AttributeError):
        setattr(record, name, changed[name])
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == fields[name]

    given = {k: v for k, v in fields.items() if k not in defaults}
    assert all(getattr(cls(**given), k) == v for k, v in defaults.items())
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**fields, unknown=0)

    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
