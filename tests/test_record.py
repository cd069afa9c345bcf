"""The contract every library record keeps: frozen, class-sensitive equality, hash, repr, init.

Each record is taken from the objects a real command builds on the
bundled inputs (``@section6.pres`` and ``@gamma_3.braid``), and rebuilt
from its own field values to get an equal, separate instance.
"""

import pytest

from normforge import alexander, bns, braid, brown, polytope, words
from normforge.cli import bundled_examples


def _instances() -> dict:
    pf = words.parse_presentation_text(bundled_examples()["section6.pres"])
    pres = pf.presentation
    data = alexander.alexander_data(pres)
    poly = polytope.newton_polytope(data.polynomial)
    ball = polytope.dual_ball(poly)
    sigma_a = bns.sigma_alexander(pres)
    arcs = bns.rank2_arcs(sigma_a)
    beta = braid.parse_braid(bundled_examples()["gamma_3.braid"])
    return {
        words.Generator: pres.alphabet[0],
        words.Presentation: pres,
        words.AbelianizationMap: data.abelianization,
        words.PresentationFile: pf,
        alexander.AlexanderMatrix: data.matrix,
        alexander.ElementaryIdealGens: alexander.elementary_ideal(data.matrix, 1),
        alexander.AlexanderData: data,
        alexander.CheckReport: alexander.check_e1_structure(data),
        polytope.LatticePolytope: poly,
        polytope.Face: ball.faces[0],
        polytope.NormBall: ball,
        bns.OpenCone: sigma_a.components[0],
        bns.SigmaDescription: sigma_a,
        bns.Arc: arcs.arcs[0],
        bns.SphereArcs: arcs,
        bns.ComponentComparison: bns.compare_sigma(brown.brown_sigma(pres), sigma_a)[0],
        brown.LatticePath: brown.trace_relator(pres.relators[0]),
        braid.BraidWord: beta,
        braid.BurauMatrix: braid.burau(beta),
        braid.MappingTorusDelta: braid.mapping_torus_delta(beta),
    }


# All 20 records, each with its fields in order.
FIELDS = {
    words.Generator: ("name",),
    words.Presentation: ("alphabet", "relators"),
    words.AbelianizationMap: ("alphabet", "rank", "matrix", "torsion"),
    words.PresentationFile: ("presentation", "words"),
    alexander.AlexanderMatrix: ("presentation", "abelianization", "entries"),
    alexander.ElementaryIdealGens: ("index", "minor_size", "generators"),
    alexander.AlexanderData: ("polynomial", "matrix", "e1_units", "degenerate", "rank_zero"),
    alexander.CheckReport: ("check", "status", "witnesses"),
    polytope.LatticePolytope: ("dim", "hull", "coefficients"),
    polytope.Face: ("vertex", "normal", "endpoints"),
    polytope.NormBall: ("center", "faces", "vertices"),
    bns.OpenCone: ("label", "constraints"),
    bns.SigmaDescription: ("rank", "components", "excluded_vertices"),
    bns.Arc: ("start", "end", "full_circle"),
    bns.SphereArcs: ("arcs", "complement_finite", "complement_points"),
    bns.ComponentComparison: ("inner_label", "relation", "outer_label", "witness", "certified"),
    brown.LatticePath: ("points",),
    braid.BraidWord: ("strands", "letters"),
    braid.BurauMatrix: ("strands", "entries"),
    braid.MappingTorusDelta: ("poly", "n_cycle", "substitution"),
}


@pytest.fixture(scope="module")
def instances():
    return _instances()


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_record_contract(cls, instances):
    obj = instances[cls]
    fields = FIELDS[cls]
    values = tuple(getattr(obj, name) for name in fields)
    assert type(obj) is cls

    # Frozen: no field (and no new attribute) can be set or deleted.
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, name, None)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(obj, fields[0])
    assert tuple(getattr(obj, name) for name in fields) == values

    # Positional and keyword construction give equal, separate instances.
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(reversed(fields), reversed(values))))
    # An AlexanderMatrix from alexander_matrix also keeps the packed Fox rows
    # its entries were decoded from; a rebuilt one holds the fields alone.
    fields_only = {k: v for k, v in vars(obj).items() if k != "_packed"}
    for other in (by_position, by_keyword):
        assert other is not obj
        assert other == obj and obj == other and not other != obj
        assert vars(other) == fields_only
    if cls is words.PresentationFile:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)  # its ``words`` field is a dict
    else:
        assert hash(by_position) == hash(by_keyword) == hash(obj)

    # Equality is class-sensitive: a record never equals its field tuple.
    assert obj != values and values != obj
    assert obj != list(values) and obj is not None

    # A missing, extra, unknown or repeated argument is a TypeError.
    with pytest.raises(TypeError, match="missing"):
        cls()
    with pytest.raises(TypeError, match="takes"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(*values, extra=None)
    with pytest.raises(TypeError, match=f"multiple values for argument '{fields[0]}'"):
        cls(*values, **{fields[0]: values[0]})

    if cls is words.Generator:
        assert repr(obj) == "Generator('a')"
    elif cls is words.Presentation:
        assert repr(obj).startswith("<Presentation ⟨a b | a^2 b a^-1 b a^2 ")
    else:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
        assert repr(obj) == f"{cls.__name__}({body})"


def test_defaults():
    start, end = (1, 0), (0, 1)
    assert bns.Arc(start, end).full_circle is False
    assert bns.Arc(start, end) == bns.Arc(start, end, False) == bns.Arc(end=end, start=start)
    assert bns.Arc(start, end) != bns.Arc(start, end, True)
    with pytest.raises(TypeError, match="missing .*'end'"):
        bns.Arc(start)


def test_records_of_different_classes_are_unequal():
    # The same field values in two record classes.
    assert braid.BurauMatrix(2, ()) != braid.BraidWord(2, ())
