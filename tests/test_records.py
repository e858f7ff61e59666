"""The package's value records: checked constructors, equality, immutability and pickling.

Every record is a named tuple except `Cone`, which caches its shortest
paths. `CandidateRecord` keeps tuple equality, which compares its
provenance too.
A record that checks its fields does so in `__new__`, which also runs when a
pickled record is loaded, so a record that crosses a worker pipe
(`--jobs 2`) is checked again on arrival.
"""

import pickle

import pytest

from deltasimplex import (
    AffineUnimodularMap,
    CandidateRecord,
    EmptyRange,
    EquivalenceResult,
    InequalitySystem,
    NormalizedSystem,
    PreconditionError,
    ShapeError,
    check_equivalence,
    compose,
    corner_minimum,
    enumerate_H,
    equivalent_normalized_set,
    group_table,
    inverse,
    validate_simplex,
)
from deltasimplex.atlas import candidate_records
from deltasimplex.normal_form import key_step

from helpers import identity_map

TRIANGLE = InequalitySystem(2, ((-1, 0), (0, -1), (1, 1)), (0, 0, 1))
NS = NormalizedSystem(n=1, s=0, k=1, H=((3,),), h=(1,), c=(-1,), c0=0, delta=3)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: InequalitySystem(2, ((1.0, 0), (0, 1), (-1, -1)), (0, 0, 1)), PreconditionError),
        (lambda: InequalitySystem(2, ((1, 0), (0, 1), (-1, -1)), (0, 0.5, 1)), PreconditionError),
        (lambda: InequalitySystem(2, ((1, 0), (0, True), (-1, -1)), (0, 0, 1)), PreconditionError),
        (lambda: InequalitySystem(0, (), ()), ShapeError),
        (lambda: InequalitySystem(2, ((1, 0), (0, 1)), (0, 0)), ShapeError),
        (lambda: InequalitySystem(2, ((1, 0), (0, 1), (-1,)), (0, 0, 1)), ShapeError),
        (lambda: InequalitySystem(2, ((1, 0), (0, 1), (-1, -1)), (0, 0)), ShapeError),
        (lambda: AffineUnimodularMap(((2, 0), (0, 1)), (0, 0)), PreconditionError),
        (lambda: AffineUnimodularMap(((1, 1), (1, 1)), (0, 0)), PreconditionError),
        (lambda: AffineUnimodularMap(((1, 0), (0, 1)), (0,)), ShapeError),
        (lambda: AffineUnimodularMap(((1, 0), (0, 1)), (0.5, 0)), PreconditionError),
        (lambda: AffineUnimodularMap(((1.0, 0), (0, 1)), (0, 0)), PreconditionError),
        (lambda: AffineUnimodularMap(((True, 0), (0, 1)), (0, 0)), PreconditionError),
        (lambda: AffineUnimodularMap(((1, 0), (0, 1)), (0, False)), PreconditionError),
        (lambda: AffineUnimodularMap(((1, 0), (0,)), (0, 0)), ShapeError),
        (lambda: NormalizedSystem(n=1, s=0, k=1, H=((3,),), h=(1.5,), c=(-1,), c0=0, delta=3), PreconditionError),
        (lambda: NormalizedSystem(n=1, s=0, k=1, H=((3,),), h=(1,), c=("1",), c0=0, delta=3), PreconditionError),
        (lambda: NormalizedSystem(n=1, s=1, k=1, H=((3,),), h=(1,), c=(-1,), c0=0, delta=3), ShapeError),
        (lambda: NormalizedSystem(n=1, s=0, k=1, H=((3, 0),), h=(1,), c=(-1,), c0=0, delta=3), ShapeError),
        (lambda: NormalizedSystem(n=1, s=0, k=1, H=((3,),), h=(1, 0), c=(-1,), c0=0, delta=3), ShapeError),
        (lambda: NormalizedSystem(n=0, s=0, k=0, H=(), h=(), c=(), c0=1, delta=1), ShapeError),
        (lambda: NormalizedSystem(n=1, s=-1, k=2, H=((3,),), h=(1,), c=(-1,), c0=0, delta=3), ShapeError),
        (lambda: NormalizedSystem(n=1, s=2, k=-1, H=((3,),), h=(1,), c=(-1,), c0=0, delta=3), ShapeError),
    ],
    ids=[
        "system-float-matrix-entry",
        "system-float-rhs-entry",
        "system-bool-entry",
        "system-dimension-0",
        "system-too-few-rows",
        "system-short-row",
        "system-short-rhs",
        "map-det-2",
        "map-singular",
        "map-short-translation",
        "map-float-translation",
        "map-float-matrix-entry",
        "map-bool-matrix-entry",
        "map-bool-translation",
        "map-ragged-matrix",
        "normalized-float-h",
        "normalized-string-c",
        "normalized-block-sizes",
        "normalized-H-not-square",
        "normalized-h-too-long",
        "normalized-dimension-0",
        "normalized-s-negative",
        "normalized-k-negative",
    ],
)
def test_constructors_check_their_fields(build, error):
    with pytest.raises(error):
        build()


def test_constructors_normalize_their_fields():
    sys = InequalitySystem(2, [[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
    assert sys == TRIANGLE and type(sys.A) is tuple and type(sys.b) is tuple
    assert all(type(row) is tuple for row in sys.A)
    m = AffineUnimodularMap([[0, 1], [1, 0]], [3, 4])
    assert (m.U, m.x0, m.n) == (((0, 1), (1, 0)), (3, 4), 2)
    ns = NormalizedSystem(n=1, s=0, k=1, H=[[3]], h=[1], c=[-1], c0=0, delta=3)
    assert ns == NS and ns.H == ((3,),)


def test_records_are_immutable():
    rec = CandidateRecord(NS, "empty", {"c0": 0})
    for obj, name in ((TRIANGLE, "n"), (identity_map(2), "U"), (NS, "c0"), (rec, "ns"), (rec, "provenance")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        del rec.family


def _records():
    """One instance of every picklable record type, built the way the package builds it."""
    meta = validate_simplex(TRIANGLE)
    m = AffineUnimodularMap(((1, 1), (0, 1)), (2, -1))
    records = candidate_records(4, 3)
    return [
        TRIANGLE,
        meta,
        m,
        compose(m, m),  # built by the trusted constructor
        inverse(m),
        NS,
        next(iter(enumerate_H(4, 3))),
        next(rec for rec in records if rec.family == "empty"),
        next(rec for rec in records if rec.family == "lattice_empty"),
        EmptyRange(l_star=-1, f_star=2),
        group_table(((1, 0), (1, 2))),
        corner_minimum(((2,),), (1,), (-1,)),
        check_equivalence(TRIANGLE, TRIANGLE),
        EquivalenceResult(False, certificate="delta-mismatch"),
        equivalent_normalized_set(TRIANGLE),
        key_step(TRIANGLE, meta.max_det_bases[0], meta.delta),
    ]


@pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
def test_records_survive_a_pickle_round_trip(protocol):
    for rec in _records():
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is type(rec)
        assert back == rec, rec
        if isinstance(rec, CandidateRecord):
            assert back.provenance == rec.provenance


def test_unpickling_runs_the_checked_constructor():
    # compose and inverse skip the det check; a map loaded from a pickle does not.
    bad = AffineUnimodularMap._trusted(((2, 0), (0, 1)), (0, 0))
    with pytest.raises(PreconditionError, match="not unimodular"):
        pickle.loads(pickle.dumps(bad))
    good = AffineUnimodularMap._trusted(((0, 1), (1, 0)), (0, 0))
    assert pickle.loads(pickle.dumps(good)) == good
