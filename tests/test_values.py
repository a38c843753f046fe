"""The immutable value classes, characterised class by class: keyword and
positional construction, equality over every field and only within one
class, hashing, repr, immutability (copies and pickles are refused), and
each constructor check."""

import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

import plumbline
from plumbline.alkanes import Alkane
from plumbline.curve_periods import (
    PairPlumbing,
    PeriodMatrixJet,
    StarConfig,
    TreeConfig,
    TreeEdgeData,
)
from plumbline.elliptic import (
    CurveBlock,
    Mark,
    MarkedEllipticCurve,
    TauPoint,
    TwoTorsionLabel,
    curve_block,
)
from plumbline.errors import DegenerateDataError, RangeError, StructureError
from plumbline.frozen import Frozen
from plumbline.gaussian import GaussianRational
from plumbline.jets import (
    DEFAULT_TOLERANCE,
    EXACT_FIELD,
    CoefficientField,
    FieldKind,
    Jet,
    JetRing,
)
from plumbline.relations import AsymptoticReport

O = TwoTorsionLabel.O
HALF = TwoTorsionLabel.HALF
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def _mark(label=O):
    return Mark(label, GaussianRational(1))


def _curve(im=1):
    return MarkedEllipticCurve(TauPoint(GaussianRational(0, im)), (_mark(),))


def _tail(im=1):
    return curve_block(_curve(im), 0)


def _tree_edge(var, label=O):
    return TreeEdgeData(var, label, GaussianRational(1), label, GaussianRational(2))


# class -> a fresh valid instance's fields, in declaration order
VALID = {
    Alkane: lambda: {"genus": 3, "edges": ((1, 2), (2, 3))},
    CurveBlock: lambda: {
        "tau_block": ((I, ONE), (ONE, GaussianRational(0, 2))),
        "omega_at_point": (ONE, GaussianRational(2)),
    },
    PairPlumbing: lambda: {
        "block_a": curve_block(_curve(1), 0),
        "block_b": curve_block(_curve(2), 0),
        "t": "t",
    },
    StarConfig: lambda: {
        "tails": (_tail(1), _tail(2)),
        "attach_points": (GaussianRational(0), GaussianRational(1)),
        "variables": ("t1", "t2"),
    },
    TreeEdgeData: lambda: {
        "var": "t1",
        "label_low": O,
        "coeff_low": GaussianRational(1),
        "label_high": HALF,
        "coeff_high": GaussianRational(2, 1),
    },
    TreeConfig: lambda: {
        "alkane": Alkane(3, ((1, 2), (2, 3))),
        "taus": (TauPoint(I), TauPoint(GaussianRational(0, 2)), TauPoint(GaussianRational(1, 3))),
        "edge_data": {(1, 2): _tree_edge("t1"), (2, 3): _tree_edge("t2", HALF)},
    },
    TauPoint: lambda: {"value": GaussianRational(Fraction(1, 2), 1)},
    Mark: lambda: {"point": GaussianRational(Fraction(1, 3)), "coord_leading_coeff": I},
    MarkedEllipticCurve: lambda: {"tau": TauPoint(I), "marks": (_mark(O), _mark(HALF))},
    CoefficientField: lambda: {"kind": FieldKind.COMPLEX_FLOAT, "tolerance": 1e-6},
    JetRing: lambda: {"variables": ("t", "u"), "order": 4, "field": EXACT_FIELD},
    AsymptoticReport: lambda: {
        "genus": 7,
        "mode": "exact",
        "octics_checked": 35,
        "passed": True,
        "min_surviving_degree": None,
    },
}

CLASSES = list(VALID)
IDS = [c.__name__ for c in CLASSES]
UNHASHABLE = {TreeConfig}  # a dict field


def _field_values(x, names):
    return tuple(getattr(x, n) for n in names)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls):
    fields = VALID[cls]()
    by_name = cls(**fields)
    by_position = cls(*VALID[cls]().values())
    assert by_name == by_position
    assert _field_values(by_name, fields) == _field_values(by_position, fields)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_copies_are_equal_and_hash_alike(cls):
    a, b = cls(**VALID[cls]()), cls(**VALID[cls]())
    assert a is not b
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert hash(a) == hash(_field_values(a, VALID[cls]()))


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_every_field_takes_part_in_equality(cls):
    base = cls(**VALID[cls]())
    for name in VALID[cls]():
        changed = cls(**VALID[cls]())
        object.__setattr__(changed, name, object())  # unequal to anything
        assert base != changed, name
        assert changed != base, name
        assert not base == changed, name


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equality_holds_only_within_one_class(cls):
    fields = VALID[cls]()
    value = cls(**fields)
    other = type("Other" + cls.__name__, (cls,), {})(**VALID[cls]())
    assert value != other and other != value
    assert not value == other
    assert value != _field_values(value, fields)
    assert value != None  # noqa: E711 (the comparison itself is under test)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_is_the_keyword_constructor_call(cls):
    fields = VALID[cls]()
    value = cls(**fields)
    shown = ", ".join(f"{n}={getattr(value, n)!r}" for n in fields)
    assert repr(value) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_values_refuse_assignment_and_deletion(cls):
    value = cls(**VALID[cls]())
    for name in [*VALID[cls](), "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    # copy and pickle rebuild a value by assignment, so the guard refuses them
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.raises(AttributeError, match="immutable"):
            clone(value)
    assert value == cls(**VALID[cls]())


def test_defaults():
    assert MarkedEllipticCurve(TauPoint(I)).marks == ()
    assert JetRing(("t",), 2).field is EXACT_FIELD
    assert CoefficientField(FieldKind.COMPLEX_FLOAT).tolerance == DEFAULT_TOLERANCE


def test_constructors_normalise_their_fields():
    assert Alkane(3, [[3, 2], (2, 1)]).edges == ((1, 2), (2, 3))
    assert MarkedEllipticCurve(TauPoint(I), [_mark()]).marks == (_mark(),)
    assert JetRing(["t", "u"], 2).variables == ("t", "u")
    for cls in UNHASHABLE:
        fields = VALID[cls]()
        value = cls(**fields)
        assert type(value.edge_data) is dict
        assert value.edge_data == fields["edge_data"]
        assert value.edge_data is not fields["edge_data"]


def test_jet_ring_layout_stays_out_of_equality():
    ring = JetRing(("t", "u"), 4)
    assert (ring.width, ring.shift) == (3, 6)
    other = JetRing(("t", "u"), 4)
    object.__setattr__(other, "width", 5)
    object.__setattr__(other, "shift", 10)
    assert ring == other and hash(ring) == hash(other)
    assert "width" not in repr(ring) and "shift" not in repr(ring)
    with pytest.raises(AttributeError):
        ring.width = 1


HALF_R = Fraction(1, 2)  # the point the label HALF stands for


def _replaced(cls, **changes):
    return {**VALID[cls](), **changes}


# (test id, class, fields, exception, message fragment): every constructor
# check.  Each row names its own test id, so a row added anywhere renames
# no other test.  These rows keep the ids they had when an id was the row's
# position; a new row takes its class and message fragment, made unique,
# such as "JetRing-duplicate variable".
INVALID = [
    ("Alkane-0",
     Alkane, _replaced(Alkane, genus=0, edges=()), RangeError, "genus must be >= 1"),
    ("Alkane-1",
     Alkane, _replaced(Alkane, edges=((1, 2),)), StructureError, "is not a tree"),
    ("Alkane-2",
     Alkane, _replaced(Alkane, edges=((1, 2), (2, 2))), StructureError, "self-loop"),
    ("Alkane-3",
     Alkane, _replaced(Alkane, edges=((1, 2), (2, 1))), StructureError, "duplicate edges"),
    ("Alkane-4",
     Alkane, _replaced(Alkane, genus=6, edges=[(1, k) for k in range(2, 7)]),
     StructureError, "degree > 4"),
    ("Alkane-5",
     Alkane, _replaced(Alkane, genus=4, edges=((1, 2), (2, 3), (1, 3))),
     StructureError, "not connected"),
    ("CurveBlock-6",
     CurveBlock, _replaced(CurveBlock, tau_block=()), StructureError, "square and nonempty"),
    ("CurveBlock-7",
     CurveBlock, _replaced(CurveBlock, tau_block=((I, ONE), (ONE,))),
     StructureError, "square and nonempty"),
    ("CurveBlock-8",
     CurveBlock, _replaced(CurveBlock, omega_at_point=(ONE,)), StructureError, "omega vector"),
    ("CurveBlock-9",
     CurveBlock, _replaced(CurveBlock, tau_block=((I, ONE), (I, I))),
     StructureError, "symmetric"),
    ("StarConfig-10",
     StarConfig, _replaced(StarConfig, variables=("t1",)), StructureError, "must align"),
    ("StarConfig-11",
     StarConfig, _replaced(StarConfig, tails=(_tail(),), attach_points=(ONE,),
                           variables=("t1",)), RangeError, "at least two tails"),
    ("StarConfig-12",
     StarConfig, _replaced(StarConfig, tails=(_tail(), CurveBlock(**VALID[CurveBlock]()))),
     StructureError, "tail 2 is not a 1x1 block"),
    ("StarConfig-13",
     StarConfig, _replaced(StarConfig, attach_points=(ONE, ONE)),
     DegenerateDataError, "attachment points 1 and 2 coincide"),
    ("TreeEdgeData-14",
     TreeEdgeData, _replaced(TreeEdgeData, coeff_low=GaussianRational(0)),
     DegenerateDataError, "zero leading coefficient"),
    ("TreeEdgeData-15",
     TreeEdgeData, _replaced(TreeEdgeData, coeff_high=GaussianRational(0)),
     DegenerateDataError, "zero leading coefficient"),
    ("TreeConfig-16",
     TreeConfig, _replaced(TreeConfig, taus=(TauPoint(I),)),
     StructureError, "1 curves for a genus-3 alkane"),
    ("TreeConfig-17",
     TreeConfig, _replaced(TreeConfig, edge_data={(1, 2): _tree_edge("t1")}),
     StructureError, "edge data keys"),
    ("TreeConfig-18",
     TreeConfig, _replaced(TreeConfig, edge_data={(1, 2): _tree_edge("t1"),
                                                  (2, 3): _tree_edge("t2")}),
     StructureError, "repeated 2-torsion attachment label at vertex 2"),
    ("TauPoint-19",
     TauPoint, {"value": GaussianRational(1)}, RangeError, "positive imaginary part"),
    ("TauPoint-20",
     TauPoint, {"value": GaussianRational(0, -1)}, RangeError, "positive imaginary part"),
    ("Mark-21",
     Mark, _replaced(Mark, coord_leading_coeff=GaussianRational(0)),
     DegenerateDataError, "zero leading coefficient"),
    ("MarkedEllipticCurve-22",
     MarkedEllipticCurve, _replaced(MarkedEllipticCurve, marks=(_mark(), _mark())),
     DegenerateDataError, "marks 0 and 1 sit at the same point"),
    ("MarkedEllipticCurve-23",
     MarkedEllipticCurve,
     _replaced(MarkedEllipticCurve, marks=(_mark(HALF), Mark(GaussianRational(HALF_R), I))),
     DegenerateDataError, "marks 0 and 1 sit at the same point"),
    ("JetRing-24",
     JetRing, _replaced(JetRing, variables=("t", "t")), StructureError, "duplicate variable"),
    ("JetRing-25",
     JetRing, _replaced(JetRing, order=-1), RangeError, "truncation order must be >= 0"),
    # E_tau = C/(Z + Z.tau) with tau = i: 1, 3/2 and i are 0, 1/2 and 0 there
    ("MarkedEllipticCurve-26",
     MarkedEllipticCurve, _replaced(MarkedEllipticCurve, marks=(_mark(O), Mark(ONE, I))),
     DegenerateDataError, "marks 0 and 1 sit at the same point 0"),
    ("MarkedEllipticCurve-27",
     MarkedEllipticCurve,
     _replaced(MarkedEllipticCurve, marks=(_mark(HALF), Mark(GaussianRational(3 * HALF_R), I))),
     DegenerateDataError, "marks 0 and 1 sit at the same point"),
    ("MarkedEllipticCurve-28",
     MarkedEllipticCurve, _replaced(MarkedEllipticCurve, marks=(_mark(O), Mark(I, I))),
     DegenerateDataError, "marks 0 and 1 sit at the same point"),
]


@pytest.mark.parametrize(
    "cls, fields, error, fragment", [row[1:] for row in INVALID], ids=[row[0] for row in INVALID]
)
def test_constructor_checks(cls, fields, error, fragment):
    with pytest.raises(error) as info:
        cls(**fields)
    assert fragment in str(info.value)


def test_constructor_check_ids_are_unique_and_name_the_class():
    ids = [test_id for test_id, *_ in INVALID]
    assert len(set(ids)) == len(ids)
    assert all(test_id.startswith(f"{cls.__name__}-") for test_id, cls, *_ in INVALID)


def test_every_checked_class_has_a_failing_case():
    checked = {c for _, c, *_ in INVALID}
    unchecked = set(CLASSES) - checked
    assert unchecked == {PairPlumbing, CoefficientField, AsymptoticReport}


def _package_value_classes():
    for info in pkgutil.iter_modules(plumbline.__path__):
        importlib.import_module(f"plumbline.{info.name}")
    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("plumbline."):
                found.add(sub)
    return found


# the value classes with an equality of their own, characterised elsewhere
OWN_EQUALITY = {GaussianRational, Jet, PeriodMatrixJet}


def test_every_value_class_is_characterised_here():
    found = _package_value_classes()
    assert OWN_EQUALITY <= found
    assert found - OWN_EQUALITY == set(CLASSES)


@pytest.mark.parametrize(
    "cls", sorted(_package_value_classes() - {GaussianRational}, key=lambda c: c.__name__)
)
def test_generated_signature_lists_the_fields_with_their_defaults(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == list(cls._fields)
    for p in params:
        assert p.kind is p.POSITIONAL_OR_KEYWORD
        assert p.default is cls._defaults.get(p.name, p.empty)
    assert set(cls._defaults) <= set(cls._fields)


def test_subclasses_inherit_the_constructor_and_its_checks():
    sub = type("SubAlkane", (Alkane,), {})
    assert sub.__init__ is Alkane.__init__
    assert sub(3, [[3, 2], (2, 1)]).edges == ((1, 2), (2, 3))
    with pytest.raises(RangeError, match="genus must be >= 1"):
        sub(0, ())
