"""Frobenius algebra axioms, Nakayama rotation, chi, sigma vectors."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest

from stringnet.category import (
    CategoryParams,
    GradedMorphism,
    GradedObject,
    _Columns,
    compose,
    unit_object,
)
from stringnet import InvariantError, frobenius
from stringnet.cyclotomic import CycNum, zeta_power
from stringnet.frobenius import (
    FrobeniusAlgebraData,
    InadmissibleMarkingError,
    UnsupportedComplexError,
    chi,
    frobenius_zr,
    nakayama,
    sigma_F,
)
from stringnet.linalg import rank_cyc
from stringnet.rspin import (
    MarkedPLCW,
    enumerate_admissible,
    sphere_decomposition,
    standard_decomposition,
)
from stringnet.spaces import tilde_bp_operator

from morphism_reference import trace


def test_axioms_hold_up_to_r8():
    # the constructor asserts every axiom, so building is the test
    for r in range(1, 9):
        frobenius_zr.__wrapped__(CategoryParams(r))


def test_one_algebra_per_r():
    # every call at one r returns the algebra proved at the first, caches and all;
    # the unmemoised builder proves a new, equal one
    for r in (1, 2, 5):
        fd = frobenius_zr(CategoryParams(r))
        assert frobenius_zr(CategoryParams(r)) is fd
        fresh = frobenius_zr.__wrapped__(CategoryParams(r))
        assert fresh is not fd and fresh == fd


def test_structure_constants():
    fd = frobenius_zr(CategoryParams(3))
    assert fd.mu.matrix[2][1 * 3 + 1] == CycNum.one(3)
    assert fd.mu.matrix[0][1 * 3 + 1] == CycNum.zero(3)
    assert fd.eta.matrix[0][0] == CycNum.one(3)
    assert fd.delta.matrix[1 * 3 + 1][2] == CycNum.from_rational(3, Fraction(1, 3))
    assert fd.eps.matrix[0][0] == CycNum.from_rational(3, 3)
    assert fd.eps.matrix[0][1] == CycNum.zero(3)


def test_unnormalized_counit_rejected():
    # dropping the factor r from eps breaks the counit axiom
    params = CategoryParams(2)
    good = frobenius_zr(params)
    bad_eps = GradedMorphism.from_entries(
        good.object, unit_object(2), {(0, 0): CycNum.one(2)}
    )
    with pytest.raises(InvariantError) as exc:
        FrobeniusAlgebraData(params, good.object, good.mu, good.eta, good.delta, bad_eps)
    assert exc.value.invariant == "left counit"


@pytest.mark.parametrize(
    "r, a, b, axiom",
    [
        (1, 0, 0, "left unit"),
        (2, 1, 1, "left Frobenius relation"),
        (3, 1, 2, "associativity"),
    ],
)
def test_mu_dropping_one_product_fails_its_axiom(monkeypatch, r, a, b, axiom):
    # frobenius_zr with mu(1_a (x) 1_b) = 0 for one pair is no Frobenius algebra
    real = FrobeniusAlgebraData

    def corrupted(params, obj, mu, eta, delta, eps):
        entries = mu._entries()
        del entries[(a + b) % r, a * r + b]
        mu = GradedMorphism.from_entries(mu.source, mu.target, entries)
        return real(params, obj, mu, eta, delta, eps)

    monkeypatch.setattr(frobenius, "FrobeniusAlgebraData", corrupted)
    with pytest.raises(InvariantError) as exc:
        frobenius_zr.__wrapped__(CategoryParams(r))
    assert exc.value.invariant == axiom


def _keep(test):
    """An entry-dict edit keeping the entries whose (row, column) passes `test`."""
    return lambda entries: {k: v for k, v in entries.items() if test(*k)}


def _times(q):
    """An entry-dict edit multiplying every entry by q."""
    return lambda entries: {k: v * q for k, v in entries.items()}


@pytest.mark.parametrize(
    "edits, axiom",
    [
        # mu(1_1 (x) 1_b) = 0 keeps associativity and the left unit
        ({"mu": _keep(lambda row, col: col // 2 != 1)}, "right unit"),
        # Delta(1_1) loses its 1_1 (x) 1_0 term
        ({"delta": _keep(lambda row, col: (row, col) != (2, 1))}, "coassociativity"),
        # Delta(1_c) keeps only its 1_0 (x) 1_c term, which still satisfies the left counit
        ({"delta": _keep(lambda row, col: row // 2 != 1)}, "right counit"),
        # r Delta with eps / r keeps every other axiom, but mu o Delta = r id
        ({"delta": _times(2), "eps": _times(Fraction(1, 2))}, "Delta-separability"),
    ],
)
def test_corrupted_structure_map_fails_its_axiom(edits, axiom):
    # frobenius_zr at r = 2, with entries of its structure maps edited
    params = CategoryParams(2)
    good = frobenius_zr(params)
    maps = {}
    for name in ("mu", "eta", "delta", "eps"):
        m = getattr(good, name)
        edit = edits.get(name)
        maps[name] = m if edit is None else GradedMorphism(m.source, m.target, edit(m._entries()))
    with pytest.raises(InvariantError) as exc:
        FrobeniusAlgebraData(params, good.object, **maps)
    assert exc.value.invariant == axiom


def test_nakayama_closed_form_and_order():
    for r in range(1, 7):
        params = CategoryParams(r)
        fd = frobenius_zr(params)
        pair = nakayama(fd)
        for a in range(r):
            assert pair.forward.matrix[a][a] == params.zeta(-a)
            assert pair.inverse.matrix[a][a] == params.zeta(a)
        assert compose(pair.inverse, pair.forward) == GradedMorphism.identity(fd.object)
        acc = GradedMorphism.identity(fd.object)
        for _ in range(r):
            acc = compose(pair.forward, acc)
        assert acc == GradedMorphism.identity(fd.object)


def test_nakayama_trivial_at_r1():
    fd = frobenius_zr(CategoryParams(1))
    assert nakayama(fd).forward == GradedMorphism.identity(fd.object)


def test_nakayama_evaluated_once_per_algebra(monkeypatch):
    # sigma_F threads one chi per handle and each chi reads the Nakayama
    # inverse; the two rotation diagrams are evaluated only once per algebra
    calls = []
    real = frobenius._nakayama_diagram

    def counting(f_data, direction):
        calls.append(direction)
        return real(f_data, direction)

    monkeypatch.setattr(frobenius, "_nakayama_diagram", counting)
    fd = frobenius_zr.__wrapped__(CategoryParams(2))
    for genus in (2, 3):
        c = standard_decomposition(genus)
        sigma_F(MarkedPLCW(c, 2, {e.id: e.id % 2 for e in c.edges}), fd)
    chi(0, 1, fd)
    assert sorted(calls) == [-1, 1]


@pytest.mark.parametrize("r", range(1, 7))
def test_nakayama_powers_are_the_diagonal_powers(r):
    params = CategoryParams(r)
    fd = frobenius_zr(params)
    powers = fd.nakayama_powers
    assert len(powers) == r and fd.nakayama_powers is powers
    for k, power in enumerate(powers):
        diagonal = {(a, a): params.zeta(-k * a) for a in range(r)}
        assert power == GradedMorphism.from_entries(fd.object, fd.object, diagonal)


def _reweighted(cell):
    """A duality-cell builder whose highest-grade pair weighs zeta times more."""

    def build(x):
        good = cell(x)
        entries = good._entries()
        key = max(entries)
        entries[key] = entries[key] * zeta_power(x.r, 1)
        return GradedMorphism.from_entries(good.source, good.target, entries)

    return build


@pytest.mark.parametrize(
    "cell, invariant",
    [
        # the rightward rotation, N, carries the weighted right cap
        ("cap_right", "Nakayama diagram equals the closed form"),
        # only its mirror, N^-1, passes through the left cap
        ("cap_left", "Nakayama inverse"),
    ],
)
def test_reweighted_duality_cell_fails_its_nakayama_check(monkeypatch, cell, invariant):
    monkeypatch.setattr(frobenius, cell, _reweighted(getattr(frobenius, cell)))
    fd = frobenius_zr(CategoryParams(3))  # the axioms use no duality cell
    with pytest.raises(InvariantError) as exc:
        nakayama(fd)
    assert exc.value.invariant == invariant


@pytest.mark.parametrize(
    "r, diagonal",
    [
        (3, [-1, 1, 1]),  # order 2, which does not divide 3
        (4, [2, 2, 2, 2]),  # no power returns to the identity
    ],
)
def test_nakayama_of_wrong_order_fails_its_check(r, diagonal):
    fd = frobenius_zr.__wrapped__(CategoryParams(r))  # not the shared algebra it writes into
    fake = GradedMorphism.from_entries(
        fd.object, fd.object, {(a, a): CycNum.from_rational(r, d) for a, d in enumerate(diagonal)}
    )
    fd.__dict__["nakayama_pair"] = frobenius.NakayamaPair(fake, fake)
    with pytest.raises(InvariantError) as exc:
        fd.nakayama_powers
    assert exc.value.invariant == "Nakayama order divides r"


def _count_calls(monkeypatch, module, name) -> list:
    """Record the first argument of every call to module.name."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _handle_keys(markings) -> list:
    """The label pairs of every handle of the markings, in order of first use."""
    pairs = (m.indices[i : i + 2] for m in markings for i in range(0, len(m.indices), 2))
    return list(dict.fromkeys(map(tuple, pairs)))


def test_chi_evaluates_one_diagram_per_new_key(monkeypatch):
    # with the Nakayama powers cached, a handle boxes the two powers it needs
    # rather than evaluating them again: sigma_F evaluates its state diagram,
    # and one handle diagram for each label pair it is the first to use
    fd = frobenius_zr.__wrapped__(CategoryParams(4))
    fd.nakayama_powers
    evaluated = _count_calls(monkeypatch, frobenius, "evaluate")
    torus = enumerate_admissible(standard_decomposition(1), 4)
    genus3 = MarkedPLCW(standard_decomposition(3), 4, dict(enumerate([1, 2, 3, 0, 1, 2])))
    seen = set()
    for n, m in enumerate([*torus, *torus, genus3], 1):
        sigma_F(m, fd)
        seen.update(_handle_keys([m]))
        assert len(evaluated) == n + len(seen)
    assert len(seen) == 16


_GOLDEN_SIGMA_CASES = [
    (2, "0,1"),
    (2, "1,1,0,0"),
    (2, "1,0,1,1,1,0"),
    (2, "1,0,1,1,1,0,0,0"),
    (2, "0,0,1,0,0,0,0,0,0,1"),
    (3, "0,2"),
]


def _sigma_markings():
    """(r, markings): the golden grid's sigma-f cases, then every marking at (6, 1)."""
    for r, indices in _GOLDEN_SIGMA_CASES:
        values = [int(i) for i in indices.split(",")]
        yield r, [MarkedPLCW(standard_decomposition(len(values) // 2), r, dict(enumerate(values)))]
    yield 6, enumerate_admissible(standard_decomposition(1), 6)


def test_sigma_vectors_equal_the_full_chi_route(monkeypatch):
    """sigma_F through the handle boxes, chi on 1_0 alone, equals sigma_F
    through the full chis, on an algebra of its own that holds nothing the
    first route cached."""
    cases = list(_sigma_markings())
    on_unit = [
        [sigma_F(m, frobenius_zr(CategoryParams(r))) for m in markings] for r, markings in cases
    ]
    monkeypatch.setattr(frobenius, "_handle", chi)
    full = []
    for r, markings in cases:
        fd = frobenius_zr.__wrapped__(CategoryParams(r))
        full.append([sigma_F(m, fd) for m in markings])
    assert on_unit == full and len(full[-1]) == 36


@pytest.mark.parametrize("r, genus, handles", [(4, 1, None), (4, 3, [(1, 2), (3, 0), (1, 2)])])
def test_sigma_builds_one_chi_column_per_key(monkeypatch, r, genus, handles):
    """The state push boxes, per label pair, chi's column 0 alone, evaluated
    once: eta emits 1_0 on F, and each handle keeps it there.  (r | 2 - 2g,
    so genus 2 has no admissible marking at r = 4; genus 3 repeats a key
    across handles.)"""
    fd = frobenius_zr.__wrapped__(CategoryParams(r))
    fd.nakayama_powers
    complex_ = standard_decomposition(genus)
    if handles is None:
        markings = enumerate_admissible(complex_, r)
    else:
        indices = [i for pair in handles for i in pair]
        markings = [MarkedPLCW(complex_, r, dict(enumerate(indices)))]
    evaluated = _count_calls(monkeypatch, frobenius, "evaluate")
    for m in markings:
        sigma_F(m, fd)
    keys = _handle_keys(markings)
    assert list(fd.handle_memo) == keys
    assert len(evaluated) == len(markings) + len(keys)
    for (a, b), handle in fd.handle_memo.items():
        assert handle.columns[0] and handle.columns[1:] == ((),) * (r - 1)
        assert handle.columns[0] == chi(a, b, fd).columns[0]


def test_a_handle_that_moves_the_face_strand_fails_its_check(monkeypatch):
    """A handle box whose pushed column leaves 1_0 on F would feed the next
    handle a summand its box does not hold, so building it fails.  H has
    grade 0 throughout, so grade support rules such a row out: only columns
    stored unchecked can hold one."""
    r = 3
    fd = frobenius_zr.__wrapped__(CategoryParams(r))
    fd.nakayama_powers
    real = frobenius.evaluate

    def moved(d, params):
        m = real(d, params)
        return GradedMorphism(m.source, m.target, _Columns((((1, params.one()),),)))

    monkeypatch.setattr(frobenius, "evaluate", moved)
    with pytest.raises(InvariantError) as exc:
        sigma_F(enumerate_admissible(standard_decomposition(1), r)[0], fd)
    assert exc.value.invariant == "chi keeps the face strand on 1_0"


def test_chi_closed_form():
    for r in (2, 3, 4, 6):
        fd = frobenius_zr(CategoryParams(r))
        for a in range(r):
            for b in range(r):
                mat = chi(a, b, fd).matrix
                for s in range(r):
                    for t in range(r):
                        value = zeta_power(r, s * a + t * b) * Fraction(1, r * r)
                        for c_in in range(r):
                            for c_out in range(r):
                                got = mat[(s * r + t) * r + c_out][c_in]
                                want = value if c_in == c_out else CycNum.zero(r)
                                assert got == want


def test_chi_labels_count_mod_r():
    for r in (1, 2, 3, 4):
        fd = frobenius_zr(CategoryParams(r))
        for a in range(r):
            for b in range(r):
                assert chi(a, b, fd) == chi(a + r, b - r, fd)
                assert frobenius._handle(a, b, fd) is frobenius._handle(a + r, b - r, fd)


def test_chi_evaluated_once_per_key_per_algebra(monkeypatch):
    # every handle of every marking boxes its label pair's chi on 1_0; each
    # pair's diagram is built once per algebra, while chi builds its own on
    # every call, with the labels reduced mod r.  The memoised algebra keeps
    # its boxes from one call of frobenius_zr to the next; a new one builds its own
    calls = []
    real = frobenius._chi_diagram

    def counting(a, b, f_data):
        calls.append((a, b))
        return real(a, b, f_data)

    monkeypatch.setattr(frobenius, "_chi_diagram", counting)
    fd = frobenius_zr.__wrapped__(CategoryParams(2))
    markings = enumerate_admissible(standard_decomposition(2), 2)
    for m in [*markings, *markings]:
        sigma_F(m, fd)
    keys = _handle_keys(markings)
    assert calls == keys and len(keys) == 4
    chi(3, -1, fd)
    chi(3, -1, fd)
    assert calls == [*keys, (1, 1), (1, 1)]
    sigma_F(markings[0], frobenius_zr(CategoryParams(2)))  # warm, if no earlier test was
    built = len(calls)
    sigma_F(markings[0], frobenius_zr(CategoryParams(2)))
    assert len(calls) == built
    sigma_F(markings[0], frobenius_zr.__wrapped__(CategoryParams(2)))
    assert calls[built:] == _handle_keys(markings[:1])


def test_chi_coefficient_vectors_have_full_rank():
    # the r^2 vectors v_{a,b} read off from chi span Hom(1, H)
    r = 3
    fd = frobenius_zr(CategoryParams(r))
    cols = []
    for a in range(r):
        for b in range(r):
            mat = chi(a, b, fd).matrix
            cols.append([mat[i * r][0] for i in range(r * r)])
    assert rank_cyc([[cols[j][i] for j in range(r * r)] for i in range(r * r)]) == r * r


def _assert_sigma_closed_form(m, fd):
    """sigma_F(m) has coord r^{1-2g} prod_i zeta^{s_i a_i + t_i b_i} at (s_i, t_i)_i."""
    r, genus = m.r, m.complex.genus
    v = sigma_F(m, fd)
    assert (v.r, v.genus) == (r, genus)
    dim = r ** (2 * genus)
    assert len(v.coords) == dim
    scale = Fraction(1, r ** (2 * genus - 1))
    for flat in range(dim):
        word = []
        rest = flat
        for _ in range(2 * genus):
            word.append(rest % r)
            rest //= r
        word.reverse()
        exponent = sum(word[e] * m.edge_index[e] for e in range(2 * genus))
        assert v.coords[flat] == zeta_power(r, exponent) * scale
    return v


def test_sigma_closed_form_and_rank():
    for r, genus in [(1, 1), (2, 1), (3, 1), (2, 2), (1, 3)]:
        fd = frobenius_zr(CategoryParams(r))
        markings = enumerate_admissible(standard_decomposition(genus), r)
        dim = r ** (2 * genus)
        assert len(markings) == dim
        vecs = [_assert_sigma_closed_form(m, fd).coords for m in markings]
        assert rank_cyc([[v[i] for v in vecs] for i in range(dim)]) == dim


def test_sigma_closed_form_at_genus_6():
    fd = frobenius_zr(CategoryParams(2))
    complex_ = standard_decomposition(6)
    for indices in ([0] * 12, [1] * 12, [1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 1]):
        _assert_sigma_closed_form(MarkedPLCW(complex_, 2, dict(enumerate(indices))), fd)


def test_no_library_path_composes_by_hand(monkeypatch):
    """Every library product of morphisms is a diagram evaluation: with the
    dense `compose` and `tensor_morphisms` refusing in every loaded module,
    each construction and CLI handler still runs."""
    from stringnet import centre, cli

    def refuse(*args):
        raise AssertionError("a library path multiplied morphisms by hand")

    for name, module in list(sys.modules.items()):
        if name.startswith("stringnet.") or name == "stringnet":
            for attr in ("compose", "tensor_morphisms"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    params = CategoryParams(3)
    fd = frobenius_zr.__wrapped__(params)  # unshared: its proofs and boxes are built here
    m = MarkedPLCW(standard_decomposition(1), 3, {0: 1, 1: 2})
    _assert_sigma_closed_form(m, fd)
    for orientation in ("anticlockwise", "clockwise"):
        assert tilde_bp_operator(params, 1, orientation=orientation).image_rank == 9
    z = centre.CentreSimple(3, 1, 2)
    centre.p_Y_projector(z, params)
    st = centre.ahat_structure(z, params)
    st.half_braiding(GradedObject(3, (1, 2)))
    f = GradedMorphism.identity(fd.object)
    assert trace(f, "left", params) == trace(f, "right", params) == 0
    frobenius_zr.cache_clear()  # so the CLI handler builds its algebra here too
    for argv in (["frobenius-check", "--r", "3"], ["bp-operator", "--r", "2", "--genus", "1"]):
        assert cli.main(argv) == 0


def test_sigma_zero_marking_is_constant_vector():
    fd = frobenius_zr(CategoryParams(3))
    m = MarkedPLCW(standard_decomposition(1), 3, {0: 0, 1: 0})
    v = sigma_F(m, fd)
    assert set(v.coords) == {CycNum.from_rational(3, Fraction(1, 3))}


def test_sigma_vectors_fixed_by_projector():
    # cross-check against the cylinder-diagram projector route
    for r, genus in [(2, 1), (3, 1), (2, 2)]:
        params = CategoryParams(r)
        fd = frobenius_zr(params)
        report = tilde_bp_operator(params, genus)
        op = report.operator_matrix
        dim = r ** (2 * genus)
        for m in enumerate_admissible(standard_decomposition(genus), r):
            v = sigma_F(m, fd).coords
            image = [
                sum((op[i][j] * 1) * v[j] for j in range(dim)) for i in range(dim)
            ]
            for i in range(dim):
                assert image[i] == v[i]


def test_sigma_no_admissible_markings_when_r_misses_euler():
    assert enumerate_admissible(standard_decomposition(2), 3, cap=10000) == []


def test_sigma_rejects_inadmissible_marking():
    fd = frobenius_zr(CategoryParams(3))
    m = MarkedPLCW(standard_decomposition(2), 3, {i: 0 for i in range(4)})
    with pytest.raises(InadmissibleMarkingError) as exc:
        sigma_F(m, fd)
    assert exc.value.report.residues == {0: 2}


def test_sigma_rejects_nonstandard_complex():
    fd = frobenius_zr(CategoryParams(2))
    m = MarkedPLCW(sphere_decomposition(), 2, {0: 1})
    with pytest.raises(UnsupportedComplexError):
        sigma_F(m, fd)


def test_sigma_rejects_mismatched_r():
    fd = frobenius_zr(CategoryParams(2))
    m = MarkedPLCW(standard_decomposition(1), 3, {0: 0, 1: 0})
    with pytest.raises(ValueError, match="r=3"):
        sigma_F(m, fd)
