"""The package's records, the Fraction views among them, are named tuples
with the semantics of frozen records.

A checked record raises the same exception with the same text however it
is built: by its constructor, by `_make`, or by `_replace`.  No record
takes a new value or attribute, `repr` keeps the `Name(field=value, ...)`
form and `hash` is the hash of the field tuple, so set orders and every
output byte stay as they were."""

from fractions import Fraction

import pytest

from butterfly_tree.apollonian import DescartesQuadruple, correspondence_search
from butterfly_tree.diophantine import band_cherns, gap_labels
from butterfly_tree.errors import InvariantViolation, NotCoprime
from butterfly_tree.farey import FriendlyTriplet
from butterfly_tree.generators import ROOT_LABEL, ROOT_STATE, GeneratorKind, canonical_matrices
from butterfly_tree.pythagoras import EuclidPair, PythTriple
from butterfly_tree.scaling import QuadraticSurd, cf_expansion
from butterfly_tree.skeleton import RenderOptions, cell_geometry, wannier_lines
from butterfly_tree.tree import ExpansionLimits, NodeVerification, node_at, root

TRIPLET = FriendlyTriplet.from_pair(Fraction(1, 3), Fraction(1, 2))

# (valid record, fields to change, exception type, its text)
BAD_FIELDS = [
    (ExpansionLimits(2), {"max_depth": -5}, ValueError, "limits must be non-negative"),
    (ExpansionLimits(2), {"chain_cap": -1}, ValueError, "limits must be non-negative"),
    (ExpansionLimits(2), {"max_qc": 1}, ValueError, "max_qc must be at least 2"),
    (QuadraticSurd(3), {"trace": 2}, ValueError, "trace must be >= 3, got 2"),
    (EuclidPair(2, 1), {"m": 0}, NotCoprime, "parameters must be positive: (0, 1)"),
    (EuclidPair(2, 1), {"m": 4, "n": 2}, NotCoprime, "(4, 2) is not coprime"),
    (PythTriple(3, 4, 5), {"c": 6}, InvariantViolation,
     "not a Pythagorean triple: PythTriple(a=3, b=4, c=6)"),
    (PythTriple(3, 4, 5), {"a": -3, "c": -5}, InvariantViolation,
     "hypotenuse must be positive: PythTriple(a=-3, b=4, c=-5)"),
    (PythTriple(3, 4, 5), {"a": 6, "b": 8, "c": 10}, InvariantViolation,
     "not primitive: PythTriple(a=6, b=8, c=10)"),
    (DescartesQuadruple(-1, 2, 2, 3), {"k4": 4}, InvariantViolation,
     "Descartes identity fails for (-1, 2, 2, 4)"),
    (RenderOptions(), {"palette": ("#000000",)}, ValueError,
     "palette must have exactly 8 colors"),
    (RenderOptions(), {"margin": 400}, ValueError, "canvas too small for the margin"),
    (RenderOptions(), {"chain_preview": -1}, ValueError, "chain_preview must be >= 0"),
    (ROOT_LABEL, {"q_l": 0}, InvariantViolation,
     "denominators must be positive: ButterflyLabel(q_r=1, q_l=0, delta_sigma=0)"),
    (ROOT_LABEL, {"q_r": 2, "q_l": 4}, InvariantViolation,
     "edge denominators share a factor: ButterflyLabel(q_r=2, q_l=4, delta_sigma=0)"),
    (ROOT_LABEL, {"delta_sigma": 1}, InvariantViolation, "Delta-sigma 1 incompatible with q_c 2"),
    (TRIPLET, {"left": Fraction(1, 4)}, InvariantViolation,
     "outer pair 1/4, 1/2 not friendly-ordered (det -2)"),
    (TRIPLET, {"center": Fraction(1, 2)}, InvariantViolation,
     "center 1/2 is not the mediant of 1/3, 1/2"),
]

BUILDERS = {
    "constructor": lambda good, changes: type(good)(**{**good._asdict(), **changes}),
    "make": lambda good, changes: type(good)._make({**good._asdict(), **changes}.values()),
    "replace": lambda good, changes: good._replace(**changes),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("good, changes, error, text", BAD_FIELDS,
                         ids=[f"{type(case[0]).__name__}-{'-'.join(case[1])}"
                              for case in BAD_FIELDS])
def test_a_bad_field_raises_however_the_record_is_built(builder, good, changes, error, text):
    with pytest.raises(error) as info:
        BUILDERS[builder](good, changes)
    assert type(info.value) is error
    assert str(info.value) == text
    # A valid change goes through each route alike.
    assert BUILDERS[builder](good, {}) == good


def _every_record():
    node = node_at("UL")
    return [root(), ExpansionLimits(2), NodeVerification("UL", 3, ()),
            gap_labels(2, 5)[0], band_cherns(2, 5)[0], QuadraticSurd(3),
            cf_expansion(QuadraticSurd(3), 4), EuclidPair(2, 1), PythTriple(3, 4, 5),
            DescartesQuadruple(-1, 2, 2, 3), correspondence_search(1, 2, 4),
            cell_geometry(node), wannier_lines(2)[0], RenderOptions(), ROOT_STATE,
            ROOT_LABEL, canonical_matrices(GeneratorKind.C_L), TRIPLET]


@pytest.mark.parametrize("record", _every_record(), ids=lambda record: type(record).__name__)
def test_a_record_takes_no_new_value_or_attribute(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert hash(record) == hash(tuple(record))


def test_every_record_type_is_covered():
    assert len({type(record) for record in _every_record()}) == 18


@pytest.mark.parametrize("record, text, value", [
    (root(), "TreeNode(core=(1, 1, 1, 1, 1, 0), word=())", -7871214928351590770),
    (PythTriple(3, 4, 5), "PythTriple(a=3, b=4, c=5)", 4003026094496801395),
    (QuadraticSurd(3), "QuadraticSurd(trace=3)", -5029647727744300836),
    (EuclidPair(2, 1), "EuclidPair(m=2, n=1)", 6794810172467074373),
    (DescartesQuadruple(-1, 2, 2, 3), "DescartesQuadruple(k1=-1, k2=2, k3=2, k4=3)",
     6743419428831682634),
    # hash(None), and so this one, varies between processes before Python 3.12
    (ExpansionLimits(2), "ExpansionLimits(max_depth=2, chain_cap=0, max_qc=None)",
     hash((2, 0, None))),
    (ROOT_STATE, "ButterflyState(left=Fraction(0, 1), right=Fraction(1, 1), sigma_plus=1, "
     "sigma_minus=1)", -7458687224047931163),
    (ROOT_LABEL, "ButterflyLabel(q_r=1, q_l=1, delta_sigma=0)", -757448186211189212),
    (TRIPLET, "FriendlyTriplet(left=Fraction(1, 3), center=Fraction(2, 5), "
     "right=Fraction(1, 2))", 3694540429428424475),
], ids=["root", "PythTriple", "QuadraticSurd", "EuclidPair", "DescartesQuadruple",
        "ExpansionLimits", "ButterflyState", "ButterflyLabel", "FriendlyTriplet"])
def test_repr_and_hash_are_those_of_the_frozen_records(record, text, value):
    # The values that the frozen dataclasses of the same fields gave (64-bit CPython).
    assert repr(record) == str(record) == text
    assert hash(record) == value


def test_a_verification_is_true_when_it_passed():
    assert bool(NodeVerification("UL", 3, ())) is True
    assert bool(NodeVerification("UL", 3, ("slopes",))) is False
    assert not NodeVerification("", 0, ("root",)).ok


def test_records_are_tuples_of_their_fields():
    a, b, c = PythTriple(3, 4, 5)
    assert (a, b, c) == PythTriple(3, 4, 5) == (3, 4, 5)
    assert root()[0] == root().core
    assert ExpansionLimits(3, 1)._asdict() == {"max_depth": 3, "chain_cap": 1, "max_qc": None}
    left, right, sigma_plus, sigma_minus = ROOT_STATE
    assert (left, right, sigma_plus, sigma_minus) == (0, 1, 1, 1)
    assert tuple(ROOT_LABEL) == ROOT_LABEL == (1, 1, 0)
    assert TRIPLET[1] == TRIPLET.center == Fraction(2, 5)
