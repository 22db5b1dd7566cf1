"""The package's records keep the contract of the dataclasses they replace.

Each row gives a record's fields in order, its defaults, whether it is
frozen, and two instances' worth of field values that differ in every
field.  A dataclass built from the same row is the oracle for ``repr``
and for the hash of a frozen record.
"""
import dataclasses

import pytest

from pgroupoid.category import Morphism
from pgroupoid.degree import StarryWord
from pgroupoid.model import Edge, Hom, ValidationReport, Violation
from pgroupoid.monoid import EmbedReport, NormalForm
from pgroupoid.polygon import (GluedModel, OrthogonalityResult, PeelResult,
                               Triangulation)
from pgroupoid.words import (MeanScanResult, PregroupReport, Presentation,
                             ReflectResult, Zigzag)

from helpers import load, pentagon_figure_pair, square_pair

SQUARE = square_pair()
PENTAGON = pentagon_figure_pair()
NA_SQUARE, A_SQUARE = load("na_square.pgd"), load("a_square.pgd")
HOM = Hom.of({"0": "0"}, {"1@0": "1@0"})
HOM2 = Hom.of({"0": "1"}, {"1@0": "1@1"})
VIOLATION = Violation("spine-collision", "(f, g) -> h, k", ("f", "g"))

RECORDS = [
    (Morphism, ("name", "src", "tgt", "is_identity"), {"is_identity": False}, True,
     ("f", "a", "b", True), ("g", "b", "c", False)),
    (StarryWord, ("source", "legs"), {}, True,
     ("0", ("f", "g")), ("1", ("g", "h", "k"))),
    (Edge, ("name", "src", "tgt", "inv", "is_identity"),
     {"inv": None, "is_identity": False}, True,
     ("f", "0", "1", "f^", False), ("g", "1", "2", "g^", True)),
    (Violation, ("kind", "detail", "witness"), {"witness": ()}, True,
     ("spine-collision", "(f, g) -> h, k", ("f", "g")),
     ("involution", "f^ is not inverse", ("f^",))),
    (ValidationReport, ("ok", "violations"), {"violations": []}, False,
     (False, [VIOLATION]), (True, [])),
    (Hom, ("vertex_map", "edge_map"), {}, True,
     (HOM.vertex_map, HOM.edge_map), (HOM2.vertex_map, HOM2.edge_map)),
    (NormalForm, ("entries",), {}, True, (("f", "g"),), (("g",),)),
    (EmbedReport, ("ok", "image", "failures"), {"failures": ()}, False,
     (False, (NormalForm(("f",)),), ("images of f and g collide",)),
     (True, (NormalForm(()),), ())),
    (Triangulation, ("n", "triples"), {}, True,
     (SQUARE[0].n, SQUARE[0].triples), (PENTAGON[0].n, PENTAGON[0].triples)),
    (GluedModel, ("model", "n", "variant", "t", "t2", "spine", "long_t", "long_t2"),
     {}, True,
     (NA_SQUARE, 3, "na", *SQUARE, ("s1", "s2", "s3"), "lT", "lT'"),
     (A_SQUARE, 4, "a", *PENTAGON, ("s1", "s2", "s3", "s4"), "l", "l")),
    (PeelResult, ("t", "t2", "hom", "target", "steps"), {}, False,
     (*SQUARE, HOM, NA_SQUARE, 1), (*PENTAGON, HOM2, A_SQUARE, 2)),
    (OrthogonalityResult, ("ok", "max_n", "violator", "pairs_checked", "homs_checked"),
     {"violator": None, "pairs_checked": 0, "homs_checked": 0}, False,
     (False, 4, (*SQUARE, HOM), 3, 7), (True, 5, None, 12, 40)),
    (MeanScanResult, ("bound", "witness", "witness_values", "sad_edges",
                      "mean_word_count"),
     {"witness": None, "witness_values": (), "sad_edges": (), "mean_word_count": 0},
     False,
     (4, ("f", "g"), ("h", "k"), ("h", "k"), 1), (5, None, (), (), 0)),
    (Zigzag, ("entries",), {}, True,
     ((("f",), ("g", "h"), ("k",)),), ((("f",),),)),
    (Presentation, ("generators", "relations"), {}, True,
     (("f", "g"), (("f", "f"),)), (("h",), ())),
    (ReflectResult, ("model", "bound", "identified", "rounds", "complete_at_bound"),
     {"complete_at_bound": True}, False,
     (NA_SQUARE, 4, (("lT'", "lT"),), 1, True), (A_SQUARE, 5, (), 0, False)),
    (PregroupReport, ("ok", "counterexample", "left", "right"),
     {"counterexample": None, "left": None, "right": None}, False,
     (False, ("a", "b", "c"), "x", None), (True, None, None, "y")),
]


def _oracle(cls, fields, defaults, frozen):
    spec = []
    for name in fields:
        if name not in defaults:
            spec.append(name)
        elif isinstance(defaults[name], list):
            spec.append((name, object, dataclasses.field(default_factory=list)))
        else:
            spec.append((name, object, dataclasses.field(default=defaults[name])))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=frozen)


@pytest.mark.parametrize("cls, fields, defaults, frozen, values, other", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_keeps_its_dataclass_contract(cls, fields, defaults, frozen,
                                             values, other):
    record = cls(*values)
    assert tuple(getattr(record, name) for name in fields) == values
    assert cls(**dict(zip(fields, values))) == record
    required = values[:len(fields) - len(defaults)]
    bare = cls(*required)
    assert {name: getattr(bare, name) for name in defaults} == defaults
    if isinstance(defaults.get("violations"), list):
        assert cls(*required).violations is not bare.violations

    for i, name in enumerate(fields):
        copy = cls(*values)
        assert copy == record and not copy != record
        changed = cls(**{**dict(zip(fields, values)), name: other[i]})
        assert changed != record, name
    assert record != values and record != list(values)

    oracle = _oracle(cls, fields, defaults, frozen)(*values)
    if cls is not Triangulation:  # it has its own repr, pinned below
        assert repr(record) == repr(oracle)
    if frozen:
        assert hash(record) == hash(oracle) == hash(cls(*values))
        assert {record: 1}[cls(*values)] == 1
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_record_methods_are_pinned():
    t, t2 = SQUARE
    assert repr(t) == "Triangulation(3, ((0, 1, 2), (0, 2, 3)))"
    assert t < t2 and not t2 < t and sorted([t2, t]) == [t, t2]
    assert bool(ValidationReport(True)) is True
    assert bool(ValidationReport(False, [VIOLATION])) is False
    assert ValidationReport(False, [VIOLATION]).summary() == \
        "spine-collision: (f, g) -> h, k"
    assert str(VIOLATION) == "spine-collision: (f, g) -> h, k"
    assert str(NormalForm(("f", "g^"))) == "(f,g^)" and str(NormalForm(())) == "()"

    hom = Hom.of({"1": "0", "0": "0"}, {"f": "1@0", "1@0": "1@0", "1@1": "1@0"})
    assert hom.vertex_map == (("0", "0"), ("1", "0"))
    assert hom.edges == {"1@0": "1@0", "1@1": "1@0", "f": "1@0"}
    assert hom.edges is hom.edges and hom.vertices is hom.vertices
    assert hom.vertices == {"0": "0", "1": "0"}
    assert hom.edge("f") == "1@0" and hom.vertex("1") == "0"
    assert repr(hom) == ("Hom(vertex_map=(('0', '0'), ('1', '0')), edge_map="
                         "(('1@0', '1@0'), ('1@1', '1@0'), ('f', '1@0')))")
