import warnings

import numpy as np
import pytest

from bayespd import (PersistenceDiagram, ValidationError, read_diagram,
                     read_diagram_csv, read_diagram_json, write_diagram,
                     write_diagram_csv, write_diagram_json)
from bayespd import diagrams as diagrams_module


def random_diagram(rng, n=20):
    births = rng.uniform(0.0, 2.0, n)
    deaths = births + rng.uniform(0.0, 3.0, n)
    dims = rng.integers(0, 3, n)
    return PersistenceDiagram(births, deaths, dims)


# -- construction and views ----------------------------------------------------

def test_persistences_derived_from_deaths():
    d = PersistenceDiagram([0.5, 1.0], [1.5, 1.0], [1, 0])
    np.testing.assert_array_equal(d.persistences, d.deaths - d.births)
    assert len(d) == 2
    np.testing.assert_array_equal(d.tilted_points, [[0.5, 1.0], [1.0, 0.0]])


def test_tilted_points_built_once_read_only():
    # every builder stores one (birth, persistence) array; births and
    # persistences are its column views, not copies
    d = random_diagram(np.random.default_rng(5))
    built = [d, PersistenceDiagram.from_birth_death(d.births, d.deaths, d.dims),
             PersistenceDiagram.from_tilted(d.births, d.persistences, d.dims),
             d.restrict(1)]
    for diagram in built:
        first = diagram.tilted_points
        assert diagram.tilted_points is first and first.shape == (len(diagram), 2)
        assert first.tobytes() == np.column_stack([diagram.births,
                                                   diagram.persistences]).tobytes()
        assert np.shares_memory(diagram.births, first)
        assert np.shares_memory(diagram.persistences, first)
        for arr in (first, diagram.births, diagram.persistences, diagram.deaths, diagram.dims):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1
        assert diagram.persistences.tobytes() == (diagram.deaths - diagram.births).tobytes()
    assert PersistenceDiagram.empty().tilted_points.shape == (0, 2)


def test_each_diagram_checks_its_rows_once(tmp_path, monkeypatch):
    # a builder whose rows were checked stores them; restrict and empty check nothing
    calls, check = [], diagrams_module._check_rows
    monkeypatch.setattr(diagrams_module, "_check_rows",
                        lambda *args: calls.append(args) or check(*args))
    births, deaths, dims = [0.1, 0.2, 0.3], [0.5, 0.4, 0.9], [0, 1, 1]
    d = PersistenceDiagram(births, deaths, dims)
    write_diagram(d, tmp_path / "d.csv")
    write_diagram(d, tmp_path / "d.json")
    builds = {
        "constructor": lambda: PersistenceDiagram(births, deaths, dims),
        "from_birth_death": lambda: PersistenceDiagram.from_birth_death(
            births, deaths[:2] + [np.inf], dims),
        "read_diagram_csv": lambda: read_diagram(tmp_path / "d.csv"),
        "read_diagram_json": lambda: read_diagram(tmp_path / "d.json"),
        "from_tilted": lambda: PersistenceDiagram.from_tilted(births, [0.4, 0.2, 0.6], dims),
        "restrict": lambda: d.restrict(1),
        "empty": PersistenceDiagram.empty,
    }
    counts = {}
    for name, build in builds.items():
        calls.clear()
        build()
        counts[name] = len(calls)
    assert counts == {"constructor": 1, "from_birth_death": 1, "read_diagram_csv": 1,
                      "read_diagram_json": 1, "from_tilted": 1, "restrict": 0, "empty": 0}


def test_round_half_even_tie_keeps_death_exact():
    # b + fl(d - b) lands on a rounding tie and misses d by one ulp; the
    # diagram keeps the original death rather than reconstructing it.
    b = 2.0 ** -53
    d = 1.0 + 2.0 ** -52
    assert b + (d - b) != d
    diagram = PersistenceDiagram([b], [d], [1])
    assert diagram.deaths[0] == d
    assert diagram.persistences[0] == d - b


def test_from_tilted_rederives_persistence():
    b, p = 2.0 ** -53, 1.0 + 2.0 ** -52 - 2.0 ** -53
    diagram = PersistenceDiagram.from_tilted([b], [p], [1])
    assert diagram.deaths[0] == b + p
    assert diagram.persistences[0] == diagram.deaths[0] - diagram.births[0]


def test_arrays_are_frozen_and_decoupled():
    births = np.array([0.1])
    d = PersistenceDiagram(births, [0.2], [0])
    births[0] = 99.0
    assert d.births[0] == 0.1
    with pytest.raises(ValueError):
        d.deaths[0] = 5.0


def test_validation_errors():
    # values print as plain floats, as the readers print them
    for births, deaths, message in (
            ([-0.1], [1.0], "feature 0: birth must be finite and >= 0, got -0.1"),
            ([0.0], [np.nan], "feature 0: death must be finite, got nan "
                              "(drop infinite deaths with from_birth_death)"),
            ([1.0], [0.5], "feature 0: death < birth (0.5 < 1.0)")):
        with pytest.raises(ValidationError) as info:
            PersistenceDiagram(births, deaths, [0])
        assert str(info.value) == message
    with pytest.raises(ValidationError, match="dimension"):
        PersistenceDiagram([0.0], [1.0], [3])
    for build in (PersistenceDiagram, PersistenceDiagram.from_birth_death,
                  PersistenceDiagram.from_tilted):
        with pytest.raises(ValidationError) as info:
            build([0.0, 1.0], [1.0], [0])
        assert str(info.value) == "births, deaths and dims must be 1-D arrays of equal length"
    with pytest.raises(ValidationError, match="integer"):
        PersistenceDiagram([0.0], [1.0], [0.5])
    with pytest.raises(ValidationError) as info:
        PersistenceDiagram.from_tilted([0.0], [-1e-9], [0])
    assert str(info.value) == "feature 0: persistence must be finite and >= 0, got -1e-09"


def test_validation_reports_the_first_bad_feature():
    # feature 1 breaks the birth rule, but feature 0 comes first
    with pytest.raises(ValidationError) as info:
        PersistenceDiagram([1, -1], [0.5, 2], [0, 0])
    assert str(info.value) == "feature 0: death < birth (0.5 < 1.0)"
    # the range is checked before the cast to int64, which would warn
    for dim, text in ((1e20, "100000000000000000000"), (np.inf, "inf"), (3.0, "3")):
        with pytest.raises(ValidationError) as info:
            PersistenceDiagram([0.0, 0.0], [1.0, 1.0], [1, dim])
        assert str(info.value) == ("feature 1: homology dimension must be in "
                                   f"0..2, got {text}")


def test_infinite_deaths_dropped_with_counter():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = PersistenceDiagram.from_birth_death(
            [0.0, 0.5, 1.0], [np.inf, 2.0, np.inf], [0, 1, 0])
    assert len(d) == 1
    assert d.n_dropped_infinite == 2
    assert d.births[0] == 0.5


def test_restrict_and_homology_dims():
    d = PersistenceDiagram([0, 1, 2], [1, 2, 3], [0, 1, 1])
    h1 = d.restrict(1)
    assert len(h1) == 2
    np.testing.assert_array_equal(h1.dims, [1, 1])
    np.testing.assert_array_equal(d.homology_dims, [0, 1])
    assert len(d.restrict(2)) == 0


# -- multiset equality ---------------------------------------------------------

def test_equality_is_order_free_multiset():
    rng = np.random.default_rng(11)
    d = random_diagram(rng)
    perm = rng.permutation(len(d))
    shuffled = PersistenceDiagram(d.births[perm], d.deaths[perm], d.dims[perm])
    assert d == shuffled
    assert hash(d) == hash(shuffled)


def test_equal_diagrams_hash_equally_across_signed_zeros():
    a = PersistenceDiagram([-0.0, 0.5], [1.0, 0.5], [1, 1])
    b = PersistenceDiagram([0.0, 0.5], [1.0, 0.5], [1, 1])
    c = PersistenceDiagram([0.0, 0.0], [-0.0, 1.0], [0, 0])
    d = PersistenceDiagram([-0.0, 0.0], [0.0, 1.0], [0, 0])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert c == d and hash(c) == hash(d) and len({c, d}) == 1


def test_equality_counts_multiplicity():
    a = PersistenceDiagram([0, 0], [1, 1], [1, 1])
    b = PersistenceDiagram([0], [1], [1])
    assert a != b
    assert a != PersistenceDiagram([0, 0], [1, 1], [1, 0])


# -- disk round trips ----------------------------------------------------------

def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(23)
    d = random_diagram(rng, 50)
    path = tmp_path / "d.csv"
    write_diagram_csv(d, path)
    back = read_diagram_csv(path)
    np.testing.assert_array_equal(back.births, d.births)
    np.testing.assert_array_equal(back.deaths, d.deaths)
    np.testing.assert_array_equal(back.dims, d.dims)
    assert back == d


def test_csv_round_trip_tie_case(tmp_path):
    d = PersistenceDiagram([2.0 ** -53], [1.0 + 2.0 ** -52], [1])
    path = tmp_path / "tie.csv"
    write_diagram_csv(d, path)
    assert read_diagram_csv(path).deaths[0] == d.deaths[0]


def test_json_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(29)
    d = random_diagram(rng, 30)
    path = tmp_path / "d.json"
    write_diagram_json(d, path)
    assert read_diagram_json(path) == d


def test_auto_format_by_extension(tmp_path):
    d = PersistenceDiagram([0.0], [1.0], [1])
    for name in ("d.csv", "d.json"):
        write_diagram(d, tmp_path / name)
        assert read_diagram(tmp_path / name) == d
    # unknown extensions default to CSV
    write_diagram(d, tmp_path / "d.txt")
    assert read_diagram(tmp_path / "d.txt") == d
    assert (tmp_path / "d.txt").read_text().startswith("birth,death,dim")


def test_csv_reader_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("birth,death,dim\n0.0,1.0,1\noops,1.0,1\n")
    with pytest.raises(ValidationError, match="line 3"):
        read_diagram_csv(path)
    path.write_text("wrong,header\n")
    with pytest.raises(ValidationError, match="line 1"):
        read_diagram_csv(path)
    path.write_text("birth,death,dim\n0.0,1.0\n")
    with pytest.raises(ValidationError, match="line 2"):
        read_diagram_csv(path)


@pytest.mark.parametrize("text, message", [
    ("", "line 1: expected header 'birth,death,dim'"),
    ("\nbirth,death,dim\n", "line 1: expected header 'birth,death,dim'"),
    (" birth , death , dim \n\n0,1\n", "line 3: expected 3 fields, got 2"),
    ("birth,death,dim\n0,1,x\n", "line 2: could not convert string to float: 'x'"),
], ids=["empty", "blank-first-line", "field-count", "dim"])
def test_csv_reader_error_messages(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValidationError) as info:
        read_diagram_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_csv_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("birth,death,dim\n\n0.0,1.0,1\n\n")
    assert len(read_diagram_csv(path)) == 1


def test_csv_reader_drops_infinite_deaths_quietly(tmp_path):
    # essential classes are legal on disk; ingest drops them with a counter
    path = tmp_path / "inf.csv"
    path.write_text("birth,death,dim\n0.0,inf,0\n0.5,2.0,1\n")
    d = read_diagram_csv(path)
    assert len(d) == 1
    assert d.n_dropped_infinite == 1
    path.write_text("birth,death,dim\n0.0,nan,0\n")
    with pytest.raises(ValidationError, match="line 2"):
        read_diagram_csv(path)


@pytest.mark.parametrize("csv_death, json_death, shown",
                         [("nan", "NaN", "nan"), ("-inf", "-Infinity", "-inf")])
def test_readers_word_a_bad_death_as_the_constructor_does(tmp_path, csv_death,
                                                          json_death, shown):
    message = (f"death must be finite, got {shown} "
               "(drop infinite deaths with from_birth_death)")
    path = tmp_path / "bad.csv"
    path.write_text(f"birth,death,dim\n0.0,inf,1\n\n0.0,{csv_death},1\n")
    with pytest.raises(ValidationError) as info:
        read_diagram_csv(path)
    assert str(info.value) == f"{path}: line 4: {message}"
    path = tmp_path / "bad.json"
    path.write_text('[{"birth": 0.0, "death": 1.0, "dim": 1}, '
                    f'{{"birth": 0.0, "death": {json_death}, "dim": 1}}]')
    with pytest.raises(ValidationError) as info:
        read_diagram_json(path)
    assert str(info.value) == f"{path}: feature 1: {message}"


def test_readers_check_the_rows_of_essential_classes(tmp_path):
    # a row with an infinite death is dropped, but only once it is valid
    path = tmp_path / "bad.csv"
    for row, message in (("-1.0,inf,1", "birth must be finite and >= 0, got -1.0"),
                         ("0.0,inf,3", "homology dimension must be in 0..2, got 3"),
                         ("0.0,inf,100000000000000000000",
                          "homology dimension must be in 0..2, got 100000000000000000000")):
        path.write_text(f"birth,death,dim\n{row}\n")
        with pytest.raises(ValidationError) as info:
            read_diagram_csv(path)
        assert str(info.value) == f"{path}: line 2: {message}"
    path.write_text("birth,death,dim\n0.5,inf,1\n0.25,1.0,1\n")
    diagram = read_diagram_csv(path)
    assert diagram.births.tolist() == [0.25] and diagram.n_dropped_infinite == 1


def test_json_reader_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"birth": 0.0, "death": 1.0, "dim": 1},]')
    with pytest.raises(ValidationError, match="column"):
        read_diagram_json(path)
    path.write_text('[{"birth": 0.0, "death": 1.0}]')
    with pytest.raises(ValidationError, match="feature 0"):
        read_diagram_json(path)



def test_json_reader_rejects_fractional_dimension(tmp_path):
    path = tmp_path / "frac.json"
    path.write_text('[{"birth": 0.0, "death": 1.0, "dim": 1.5}]')
    with pytest.raises(ValidationError, match="feature 0: homology dimension"):
        read_diagram_json(path)
    path.write_text('[{"birth": 0.0, "death": 1.0, "dim": 1.0}]')
    assert read_diagram_json(path).dims.tolist() == [1]

def test_empty_diagram_round_trip(tmp_path):
    d = PersistenceDiagram.empty()
    assert len(d) == 0
    write_diagram_csv(d, tmp_path / "e.csv")
    assert read_diagram_csv(tmp_path / "e.csv") == d
    write_diagram_json(d, tmp_path / "e.json")
    assert read_diagram_json(tmp_path / "e.json") == d
