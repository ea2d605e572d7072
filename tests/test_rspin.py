"""Marked PLCW decompositions and the r-spin admissibility census."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringnet import caps, rspin
from stringnet.caps import SizeCapError
from stringnet.cli import _marking_json
from stringnet.rspin import (
    MarkedPLCW,
    PLCW,
    count_rspin,
    enumerate_admissible,
    is_admissible,
    sphere_decomposition,
    standard_decomposition,
)


def test_standard_decomposition_shape():
    for g in (1, 2, 3):
        c = standard_decomposition(g)
        assert c.num_vertices == 1
        assert len(c.edges) == 2 * g
        assert len(c.faces) == 1
        assert len(c.faces[0].boundary) == 4 * g
        assert c.euler_characteristic == 2 - 2 * g
        assert c.genus == g
    with pytest.raises(ValueError):
        standard_decomposition(0)


def test_sphere_decomposition_shape():
    c = sphere_decomposition()
    assert (c.num_vertices, len(c.edges), len(c.faces)) == (2, 1, 1)
    assert c.euler_characteristic == 2
    assert c.genus == 0


def test_plcw_validation():
    with pytest.raises(ValueError, match="exactly twice"):
        PLCW(1, [(0, 0, 0)], [([(0, 1)], 0)])
    with pytest.raises(ValueError, match="missing vertex"):
        PLCW(1, [(0, 0, 3)], [([(0, 1), (0, -1)], 0)])
    with pytest.raises(ValueError, match="unknown edge"):
        PLCW(1, [(0, 0, 0)], [([(5, 1), (5, -1)], 0)])
    with pytest.raises(ValueError, match="preferred"):
        PLCW(1, [(0, 0, 0)], [([(0, 1), (0, -1)], 7)])
    with pytest.raises(ValueError, match="sign"):
        PLCW(1, [(0, 0, 0)], [([(0, 2), (0, -1)], 0)])
    with pytest.raises(ValueError, match="duplicate"):
        PLCW(1, [(0, 0, 0), (0, 0, 0)], [([(0, 1), (0, -1)], 0)])
    # one vertex, one loop, one face: chi = 1, not a closed surface
    with pytest.raises(ValueError, match="Euler"):
        PLCW(1, [(0, 0, 0)], [([(0, 1), (0, -1)], 0)])
    with pytest.raises(ValueError, match="at least one face"):
        PLCW(0, [], [])
    # the Klein bottle word a b a b^-1 has chi = 0 but traverses a twice the same way
    with pytest.raises(ValueError, match=r"edges \[0\] are not traversed once with \+1"):
        PLCW(1, [(0, 0, 0), (1, 0, 0)], [([(0, 1), (1, 1), (0, 1), (1, -1)], 0)])
    # two tori side by side have chi = 0 but are not one surface
    torus = [(0, 1), (1, 1), (0, -1), (1, -1)]
    shifted = [(e + 2, sign) for e, sign in torus]
    edges = [(0, 0, 0), (1, 0, 0), (2, 1, 1), (3, 1, 1)]
    with pytest.raises(ValueError, match="one connected surface"):
        PLCW(2, edges, [(torus, 0), (shifted, 0)])
    # the torus word with two vertices no edge touches: chi would read genus 0
    with pytest.raises(ValueError, match=r"vertices \[1, 2\] are not an endpoint"):
        PLCW(3, [(0, 0, 0), (1, 0, 0)], [(torus, 0)])
    # two bigons a b and a^-1 b^-1 on edges 0 -> 1: a ends at 1, b starts at 0
    with pytest.raises(ValueError, match="face 0 boundary entries do not chain"):
        PLCW(2, [(0, 0, 1), (1, 0, 1)], [([(0, 1), (1, 1)], 0), ([(0, -1), (1, -1)], 0)])
    # a square doubled into a sphere, with opposite corners pinched together:
    # chi = 0 reads as a torus, but each vertex has two corner cycles
    square = [(0, 1), (1, 1), (2, 1), (3, 1)]
    back = [(3, -1), (2, -1), (1, -1), (0, -1)]
    with pytest.raises(ValueError, match=r"corners at vertices \[0, 1\] do not form one cycle"):
        PLCW(2, [(0, 0, 1), (1, 1, 0), (2, 0, 1), (3, 1, 0)], [(square, 0), (back, 0)])
    # joined by a fifth loop c (torus c, torus c^-1 on one vertex) they are
    # one genus-2 surface
    loops = [(e, 0, 0) for e in range(5)]
    faces = [(torus + [(4, 1)], 0), (shifted + [(4, -1)], 0)]
    assert PLCW(1, loops, faces).genus == 2


def test_marking_requires_all_edges():
    c = standard_decomposition(1)
    with pytest.raises(ValueError, match="no index"):
        MarkedPLCW(c, 3, {0: 1})
    m = MarkedPLCW(c, 3, {0: 4, 1: -1})
    assert m.edge_index == {0: 1, 1: 2}
    assert m.indices == (1, 2)


def test_non_integer_indices_and_sizes_are_rejected():
    c = standard_decomposition(1)
    with pytest.raises(ValueError, match="index of edge 0 must be an integer, got 1.5"):
        MarkedPLCW(c, 3, {0: 1.5, 1: 0})
    with pytest.raises(ValueError, match="index of edge 0 must be an integer, got 1.0"):
        MarkedPLCW(c, 3, {0: 1.0, 1: 0})
    with pytest.raises(ValueError, match="index of edge 1 must be an integer"):
        MarkedPLCW(c, 3, {0: 1, 1: "2"})
    with pytest.raises(ValueError, match="r must be an integer, got 2.0"):
        MarkedPLCW(c, 2.0, {0: 1, 1: 0})
    with pytest.raises(ValueError, match="r must be an integer"):
        enumerate_admissible(c, 2.0)
    with pytest.raises(ValueError, match="r must be an integer"):
        count_rspin(1, 2.0)
    with pytest.raises(ValueError, match="genus must be an integer"):
        count_rspin(1.0, 2)


_TORUS_WORD = [(0, 1), (1, 1), (0, -1), (1, -1)]


@pytest.mark.parametrize(
    "args, name",
    [
        ((1.9, [(0, 0, 0), (1, 0, 0)], [(_TORUS_WORD, 0)]), "the vertex count"),
        ((1, [(0, 0, 0), (1.7, 0, 0)], [(_TORUS_WORD, 0)]), "the id of edge 1"),
        ((1, [(0, 0, 0), (1, 0.0, 0)], [(_TORUS_WORD, 0)]), "the src of edge 1"),
        ((1, [(0, 0, 0), (1, 0, 0.2)], [(_TORUS_WORD, 0)]), "the dst of edge 1"),
        ((1, [(0, 0, 0), (1, 0, 0)], [([(0.0, 1), *_TORUS_WORD[1:]], 0)]), "an edge id on face 0"),
        ((1, [(0, 0, 0), (1, 0, 0)], [([(0, 1.0), *_TORUS_WORD[1:]], 0)]), "a sign on face 0"),
        ((1, [(0, 0, 0), (1, 0, 0)], [(_TORUS_WORD, "0")]), "the preferred index of face 0"),
    ],
)
def test_plcw_rejects_non_integer_counts_ids_and_signs(args, name):
    # each would otherwise truncate to standard_decomposition(1)
    assert PLCW(1, [(0, 0, 0), (1, 0, 0)], [(_TORUS_WORD, 0)]) == standard_decomposition(1)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        PLCW(*args)


def test_count_closed_form():
    assert count_rspin(1, 7) == 49
    assert count_rspin(0, 2) == 1
    assert count_rspin(0, 3) == 0
    assert count_rspin(2, 2) == 16
    assert count_rspin(3, 2) == 64
    assert count_rspin(2, 3) == 0
    with pytest.raises(ValueError):
        count_rspin(-1, 2)
    with pytest.raises(ValueError):
        count_rspin(1, 0)


def test_count_names_too_long_arguments_by_their_digit_count():
    # 2 - 2g = -2 * 10^4400 is divisible by r = 100 and by r = 10^4400; powers
    # of ten keep the count's log10 exact, so neither call builds a long log
    genus = 10**4400 + 1
    with pytest.raises(ValueError) as exc:
        count_rspin(genus, 100)
    assert str(exc.value) == (
        "the count r^2g for r=100, genus of 4401 digits has n digits, n of 4401 digits, "
        "more than the 4300 Python prints"
    )
    with pytest.raises(ValueError, match="for r of 4401 digits, genus of 4401 digits has"):
        count_rspin(genus, 10**4400)


def test_a_count_whose_length_is_not_printed_takes_no_exact_log(monkeypatch):
    # log10(2) is irrational, and to 4,431 places it took seconds; the refusal
    # prints only the count's digit count, which the 30-place estimate settles
    def exact(base, exponent):
        raise AssertionError(f"exact digit count of {base}^n taken")

    monkeypatch.setattr(caps, "power_digits", exact)
    monkeypatch.setattr(rspin, "power_digits", exact)
    with pytest.raises(ValueError) as exc:
        count_rspin(10**4400 + 1, 2)
    assert str(exc.value) == (
        "the count r^2g for r=2, genus of 4401 digits has n digits, n of 4400 digits, "
        "more than the 4300 Python prints"
    )


def test_standard_admissibility_is_index_independent():
    # the single-vertex congruence -2g = 2-4g mod r never involves s_e
    c = standard_decomposition(2)
    for r in (2, 3, 4):
        verdicts = set()
        for idx0 in range(r):
            m = MarkedPLCW(c, r, {0: idx0, 1: 0, 2: 1, 3: 0})
            verdicts.add(bool(is_admissible(m)))
        assert verdicts == {(2 - 4) % r == 0}


def test_torus_unconstrained():
    c = standard_decomposition(1)
    for r in (2, 3, 5):
        for s1 in range(r):
            for s2 in range(r):
                assert is_admissible(MarkedPLCW(c, r, {0: s1, 1: s2}))


def test_r_one_always_admissible():
    for c in (sphere_decomposition(), standard_decomposition(2)):
        markings = enumerate_admissible(c, 1)
        assert len(markings) == 1
        assert bool(is_admissible(markings[0]))


def test_census_matches_closed_form(monkeypatch):
    # split_face draws the face, its two corners, then each half's preferred entry
    draws = iter([0, [0, 1], 0, 0])
    cases = [(sphere_decomposition(), 0)]
    cases += [(standard_decomposition(g), g) for g in (1, 2, 3)]
    # subdivisions with several vertices, where the census checks each assignment
    cases += [
        (_split_edge(sphere_decomposition(), lambda _: 0), 0),
        (_split_face(sphere_decomposition(), lambda _: next(draws)), 0),
        (_split_edge(standard_decomposition(1), lambda _: 0), 1),
        (_split_edge(standard_decomposition(2), lambda _: 0), 2),
    ]
    for c, g in cases:
        n = len(c.edges)
        for r in range(1, 7):
            rows = enumerate_admissible(c, r, cap=50_000, records=False)
            found = enumerate_admissible(c, r, cap=50_000)
            assert rows == [m.indices for m in found]
            # r^(2g + F - 1) when r divides 2 - 2g, else none
            assert len(rows) == count_rspin(g, r) * r ** (len(c.faces) - 1)
            assert all(is_admissible(m) for m in found)
            price = r**n if r > 1 else n  # r^n assignments; n itself at r = 1
            if price == 1:  # no cap is below it
                continue
            with monkeypatch.context() as patched:
                patched.setattr(rspin.itertools, "product", _refuse)
                for records in (False, True):
                    with pytest.raises(SizeCapError) as exc:
                        enumerate_admissible(c, r, cap=price - 1, records=records)
                    assert exc.value.size == price


def test_census_larger_cases():
    c = standard_decomposition(4)
    assert len(enumerate_admissible(c, 2, cap=300)) == 256
    assert len(enumerate_admissible(c, 3, cap=7000)) == count_rspin(4, 3)


def _refuse(*args, **kwargs):
    raise AssertionError("the census enumerated")


def test_enumeration_cap(monkeypatch):
    # priced before anything else, although the one vertex already rules out r=3
    monkeypatch.setattr(rspin.itertools, "product", _refuse)
    monkeypatch.setattr(rspin, "_vertex_profiles", _refuse)
    c = standard_decomposition(2)
    with pytest.raises(SizeCapError) as exc:
        enumerate_admissible(c, 3, cap=80)
    assert exc.value.size == 81


def test_a_vertex_with_only_loops_decides_the_census_without_enumerating(monkeypatch):
    # at the one vertex of genus 2 the congruence reads -4 = -6 mod r
    monkeypatch.setattr(rspin.itertools, "product", _refuse)
    assert enumerate_admissible(standard_decomposition(2), 3, cap=10_000) == []


def test_sphere_census():
    c = sphere_decomposition()
    for r in (2, 3, 4):
        assert len(enumerate_admissible(c, r)) == count_rspin(0, r)


def test_sphere_residue_report():
    m = MarkedPLCW(sphere_decomposition(), 4, {0: 0})
    rep = is_admissible(m)
    assert not rep
    assert set(rep.residues) == {0, 1}
    assert any(v != 0 for v in rep.residues.values())
    good = MarkedPLCW(sphere_decomposition(), 2, {0: 1})
    assert is_admissible(good).residues == {0: 0, 1: 0}


@given(
    genus=st.integers(1, 3),
    r=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_residue_sum_invariant(genus, r, data):
    # summing the congruence over vertices telescopes to 2g-2 mod r
    c = standard_decomposition(genus)
    idx = {
        e.id: data.draw(st.integers(0, r - 1), label=f"s_{e.id}")
        for e in c.edges
    }
    rep = is_admissible(MarkedPLCW(c, r, idx))
    assert sum(rep.residues.values()) % r == (2 * genus - 2) % r


def _split_edge(c: PLCW, draw) -> PLCW:
    """Subdivide one edge u -> v into u -> w -> v at a new vertex w."""
    e = c.edges[draw(st.integers(0, len(c.edges) - 1))]
    w, n = c.num_vertices, len(c.edges)
    edges = [(x.id, x.src, w if x.id == e.id else x.dst) for x in c.edges] + [(n, w, e.dst)]
    pieces = {(e.id, 1): [(e.id, 1), (n, 1)], (e.id, -1): [(n, -1), (e.id, -1)]}
    faces = []
    for f in c.faces:
        boundary = [p for entry in f.boundary for p in pieces.get(entry, [entry])]
        faces.append((boundary, draw(st.integers(0, len(boundary) - 1))))
    return PLCW(w + 1, edges, faces)


def _split_face(c: PLCW, draw) -> PLCW:
    """Cut one face in two along a new edge between two of its corners.

    Corner k is where boundary entry k ends; the new edge runs from corner i
    to corner j, and each half closes its walk along it.
    """
    fi = draw(st.integers(0, len(c.faces) - 1))
    boundary = list(c.faces[fi].boundary)
    i, j = sorted(draw(st.lists(st.integers(0, len(boundary) - 1), min_size=2, max_size=2, unique=True)))
    ends = {e.id: (e.src, e.dst) for e in c.edges}

    def end(entry):
        eid, sign = entry
        return ends[eid][::sign][1]

    n = len(c.edges)
    edges = [tuple(e) for e in c.edges] + [(n, end(boundary[i]), end(boundary[j]))]
    inner = boundary[i + 1 : j + 1] + [(n, -1)]
    outer = boundary[j + 1 :] + boundary[: i + 1] + [(n, 1)]
    faces = [(f.boundary, f.preferred) for k, f in enumerate(c.faces) if k != fi]
    for half in (inner, outer):
        faces.append((half, draw(st.integers(0, len(half) - 1))))
    return PLCW(c.num_vertices, edges, faces)


def _subdivided(start: int, data) -> PLCW:
    """The sphere (start 0) or the standard decomposition of genus `start`,
    after up to four drawn edge or face splits."""
    c = sphere_decomposition() if start == 0 else standard_decomposition(start)
    for _ in range(data.draw(st.integers(0, 4), label="moves")):
        c = data.draw(st.sampled_from([_split_edge, _split_face]))(c, data.draw)
    return c


def _relabeled(c: PLCW, perm) -> PLCW:
    """`c` with edge id i renamed perm[i]; the edges keep their order."""
    return PLCW(
        c.num_vertices,
        [(perm[e.id], e.src, e.dst) for e in c.edges],
        [([(perm[eid], s) for eid, s in f.boundary], f.preferred) for f in c.faces],
    )


@given(start=st.integers(0, 3), r=st.integers(2, 4), data=st.data())
@settings(max_examples=40, deadline=None)
def test_admissibility_invariant_under_edge_relabeling(start, r, data):
    c = _subdivided(start, data)
    idx = {e.id: data.draw(st.integers(0, r - 1)) for e in c.edges}
    perm = data.draw(st.permutations(range(len(c.edges))))
    m1 = is_admissible(MarkedPLCW(c, r, idx))
    m2 = is_admissible(
        MarkedPLCW(_relabeled(c, perm), r, {perm[k]: v for k, v in idx.items()})
    )
    assert m1.ok == m2.ok
    assert m1.residues == m2.residues


@given(start=st.sampled_from([0, 1]), r=st.integers(1, 4), data=st.data())
@settings(max_examples=40, deadline=None)
def test_census_after_edge_and_face_splits(start, r, data):
    """Subdividing a decomposition keeps it a valid surface of the same genus,
    and its census is r^(2g+F-1) when r divides 2-2g, else 0."""
    c = _subdivided(start, data)
    assert c.genus == start
    faces = len(c.faces)
    want = r ** (2 * start + faces - 1) if (2 - 2 * start) % r == 0 else 0
    assert len(enumerate_admissible(c, r, cap=5000)) == want


@given(start=st.sampled_from([0, 1]), r=st.integers(1, 4), data=st.data())
@settings(max_examples=25, deadline=None)
def test_census_is_the_brute_force_list_of_validated_markings(start, r, data):
    c = _subdivided(start, data)
    # edge ids that are not positions in c.edges
    c = _relabeled(c, data.draw(st.permutations(range(len(c.edges))), label="edge ids"))
    ids = [e.id for e in c.edges]
    brute = []
    for a in product(range(r), repeat=len(ids)):
        m = MarkedPLCW(c, r, dict(zip(ids, a)))
        if is_admissible(m):
            brute.append(m)
    found = enumerate_admissible(c, r, cap=5000)
    assert found == brute
    for m in found:
        validated = MarkedPLCW(c, r, m.edge_index)
        assert validated == m and hash(validated) == hash(m)
        assert validated.indices == m.indices == tuple(m.edge_index[i] for i in ids)
        assert validated.edge_index == m.edge_index and list(m.edge_index) == ids


def test_marking_json_lists_indices_by_edge():
    c = standard_decomposition(2)
    m = MarkedPLCW(c, 5, {0: 1, 1: 2, 2: 3, 3: 9})
    assert _marking_json(m) == {"indices": {"0": 1, "1": 2, "2": 3, "3": 4}, "r": 5}
