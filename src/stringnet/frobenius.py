"""The group Frobenius algebra of Z_r inside the graded category.

F is L, the sum of all simples (`coends.simples_object`), with
multiplication delta_{c,a+b}.  The comultiplication carries a 1/r and the
counit an r so that mu o Delta = id (Delta-separability); the price is that
F is symmetric only up to the Nakayama automorphism N(1_a) = zeta^{-a} 1_a,
which the pivotal structure produces when F is rotated through a cup and a
cap.  The rotation's layers are written once: its mirror image, which
reverses each layer and swaps the left and right duality cells, is N^{-1}.

The nine axioms and the Nakayama round trip are proved as equalities of
slice diagrams built from boxes of mu, eta, Delta, epsilon and identity
strands, so `diagrams.evaluate` is the only product of morphisms here.

`chi` and `sigma_F` evaluate the face morphism of the standard one-face
surface decomposition: one chi per handle threads the face strand through
a coend box.  The state sum is one slice diagram (eta, the chis, eps) that
`diagrams.evaluate` pushes as a sparse vector, and the resulting vectors,
one per admissible r-spin marking, give a basis of the string-net space.
eta emits 1_0 on F and no chi moves the F digit, so the push reads only
column 0 of each chi: `chi` type-checks its diagram at once
(`diagrams.evaluate_lazily`) and builds a column only when it is read.
The structure maps of `frobenius_zr` and the Nakayama closed form are
entry dicts, checked by `GradedMorphism`'s validating constructor; every
evaluated diagram stores its pushed columns unchecked, and `sigma_F` reads
the state's one column straight into a `HomSpaceVector`.
Each algebra evaluates the powers of N once and builds a handle's chi
diagram, which boxes two of them, once per pair of labels mod r; `frobenius_zr`
itself is not memoised, so every algebra it builds proves its axioms again.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import InadmissibleMarkingError, Record, require
from .category import (
    CategoryParams,
    GradedMorphism,
    GradedObject,
    dual_object,
    tensor_objects,
    unit_object,
)
from .coends import HomSpaceVector, coend_object, jmath, simples_object
from .cyclotomic import CycNum
from .diagrams import (
    SliceDiagram,
    box,
    cap_left,
    cap_right,
    cup_left,
    cup_right,
    evaluate,
    evaluate_lazily,
    identity,
)
from .rspin import MarkedPLCW, is_admissible, standard_decomposition


class UnsupportedComplexError(ValueError):
    """sigma_F only evaluates the standard one-face decomposition."""


class FrobeniusAlgebraData(Record):
    """Algebra and coalgebra structure on F; axioms are checked on construction.

    No __slots__: `nakayama_pair`, `nakayama_powers` and the memo of `chi`
    live in the instance dict, filled on first use.
    """

    _fields = ("params", "object", "mu", "eta", "delta", "eps")

    def __init__(
        self,
        params: CategoryParams,
        object: GradedObject,
        mu: GradedMorphism,
        eta: GradedMorphism,
        delta: GradedMorphism,
        eps: GradedMorphism,
    ) -> None:
        super().__init__(params, object, mu, eta, delta, eps)
        self.__post_init__()

    def __post_init__(self):
        """Prove the nine Frobenius-algebra axioms, each side one slice diagram."""
        f = self.object
        ff, fff = tensor_objects(f, f), tensor_objects(f, f, f)
        i = identity(f)
        mu, eta, delta, eps = box(self.mu), box(self.eta), box(self.delta), box(self.eps)

        def ev(top, *layers):
            return evaluate(SliceDiagram(top, layers), self.params)

        require(ev(f, [mu, i], [mu]) == ev(f, [i, mu], [mu]), "associativity")
        require(ev(f, [eta, i], [mu]) == i, "left unit")
        require(ev(f, [i, eta], [mu]) == i, "right unit")
        require(ev(fff, [delta], [delta, i]) == ev(fff, [delta], [i, delta]), "coassociativity")
        require(ev(f, [delta], [eps, i]) == i, "left counit")
        require(ev(f, [delta], [i, eps]) == i, "right counit")
        frob = ev(ff, [mu], [delta])
        require(ev(ff, [delta, i], [i, mu]) == frob, "left Frobenius relation")
        require(ev(ff, [i, delta], [mu, i]) == frob, "right Frobenius relation")
        require(ev(f, [delta], [mu]) == i, "Delta-separability")

    @cached_property
    def nakayama_pair(self) -> NakayamaPair:
        """The Nakayama pair, evaluated once per algebra; see `nakayama`."""
        return nakayama(self)

    @cached_property
    def nakayama_powers(self) -> tuple[GradedMorphism, ...]:
        """N^0 = id, ..., N^(m-1), each one diagram step from the last; m divides r."""
        f, forward, r = self.object, self.nakayama_pair.forward, self.params.r
        powers, power = [identity(f)], forward
        while power != powers[0] and len(powers) < r:
            powers.append(power)
            power = evaluate(SliceDiagram(f, [[box(power)], [box(forward)]]), self.params)
        require(power == powers[0] and r % len(powers) == 0, "Nakayama order divides r")
        return tuple(powers)

    @cached_property
    def handle_memo(self) -> dict[tuple[int, int], GradedMorphism]:
        """chi(a, b) by (a mod r, b mod r), each column built on first read; see `chi`."""
        return {}


def frobenius_zr(params: CategoryParams) -> FrobeniusAlgebraData:
    """Group algebra of Z_r: mu(1_a,1_b) = 1_{a+b}, eps(1_a) = r delta_{a,0}."""
    r = params.r
    f = simples_object(r)
    one = CycNum.one(r)
    mu = GradedMorphism.from_entries(
        tensor_objects(f, f),
        f,
        {((a + b) % r, a * r + b): one for a in range(r) for b in range(r)},
    )
    eta = GradedMorphism.from_entries(unit_object(r), f, {(0, 0): one})
    inv_r = one * Fraction(1, r)
    delta = GradedMorphism.from_entries(
        f,
        tensor_objects(f, f),
        {
            (a * r + b, (a + b) % r): inv_r
            for a in range(r)
            for b in range(r)
        },
    )
    eps = GradedMorphism.from_entries(f, unit_object(r), {(0, 0): one * r})
    return FrobeniusAlgebraData(params, f, mu, eta, delta, eps)


class NakayamaPair(NamedTuple):
    forward: GradedMorphism
    inverse: GradedMorphism


def _nakayama_diagram(f_data: FrobeniusAlgebraData, direction: int) -> GradedMorphism:
    """Rotate F through a cup and cap: ((eps mu)(x) id) then (id (x) (delta eta)).

    direction > 0 turns rightward (spectator dual strand on the right,
    weighted cap); its mirror image, every layer reversed with the left and
    right duality cells swapped, turns leftward and gives the inverse.
    """
    f = f_data.object
    side = identity(dual_object(f))
    cup, cap = (cup_left, cap_right) if direction > 0 else (cup_right, cap_left)
    layers = [
        [identity(f), cup(f)],
        *([box(m), side] for m in (f_data.mu, f_data.eps, f_data.eta, f_data.delta)),
        [identity(f), cap(f)],
    ]
    if direction <= 0:
        layers = [layer[::-1] for layer in layers]
    return evaluate(SliceDiagram(f, layers), f_data.params)


def nakayama(f_data: FrobeniusAlgebraData) -> NakayamaPair:
    """Nakayama automorphism, from the rotation diagram and the closed form.

    The two computations must agree: N(1_a) = zeta^{-a} 1_a, and the
    mirrored diagram gives the inverse.
    """
    params = f_data.params
    r = params.r
    forward = _nakayama_diagram(f_data, +1)
    inverse = _nakayama_diagram(f_data, -1)
    f = f_data.object
    closed = GradedMorphism.from_entries(
        f, f, {(a, a): params.zeta(-a) for a in range(r)}
    )
    require(forward == closed, "Nakayama diagram equals the closed form")
    round_trip = evaluate(SliceDiagram(f, [[box(inverse)], [box(forward)]]), params)
    require(round_trip == GradedMorphism.identity(f), "Nakayama inverse")
    return NakayamaPair(forward, inverse)


def chi(a: int, b: int, f_data: FrobeniusAlgebraData) -> GradedMorphism:
    """Handle morphism F -> H (x) F: on every x the value is v_{a,b} (x) x
    with v_{a,b} = (1/r^2) sum_{s,t} zeta^{sa+tb} e_{(s,t)}.

    The labels count mod r; each algebra builds the diagram once per pair.
    Its layers are type-checked then, but column j is pushed, from basis
    vector j alone, only when first read: the state push reads column 0,
    while equality, hashing and `matrix` build every column.
    """
    r = f_data.params.r
    key = (a % r, b % r)
    memo = f_data.handle_memo
    if key not in memo:
        memo[key] = evaluate_lazily(_chi_diagram(*key, f_data), f_data.params)
    return memo[key]


def _chi_diagram(a: int, b: int, f_data: FrobeniusAlgebraData) -> SliceDiagram:
    """The handle diagram behind `chi(a, b)`."""
    f = f_data.object
    fd = dual_object(f)
    powers = f_data.nakayama_powers
    m = len(powers)

    layers = [
        [cup_right(f), identity(f)],
        [identity(fd), box(f_data.mu)],
        [identity(fd), cup_right(f), identity(f)],
        [identity(fd), identity(fd), box(f_data.mu)],
        [identity(fd), identity(fd), box(f_data.delta)],
        [identity(fd), identity(fd), identity(f), box(f_data.delta)],
        [
            identity(fd),
            identity(fd),
            box(powers[-(a + 1) % m]),
            box(powers[-(b + 1) % m]),
            identity(f),
        ],
        [box(jmath(f, f)), identity(f)],
    ]
    return SliceDiagram(tensor_objects(coend_object(f_data.params.r), f), layers)


def sigma_F(m: MarkedPLCW, f_data: FrobeniusAlgebraData) -> HomSpaceVector:
    """State-sum vector of an admissible marking on the standard decomposition.

    One slice diagram, evaluated as a vector: eta, then one chi per handle
    with that handle's two edge indices beside the H strands already
    emitted, then eps on the leftover face strand.
    """
    params = f_data.params
    r = params.r
    if m.r != r:
        raise ValueError(f"marking has r={m.r}, algebra has r={r}")
    genus = m.complex.genus
    if genus < 1 or m.complex != standard_decomposition(genus):
        raise UnsupportedComplexError(
            "sigma_F needs the standard one-face decomposition"
        )
    report = is_admissible(m)
    if not report:
        raise InadmissibleMarkingError(
            f"marking is not admissible; residues {report.residues}", report
        )
    h = identity(coend_object(r))
    layers = [[box(f_data.eta)]]
    for i in range(genus):
        step = chi(m.indices[2 * i], m.indices[2 * i + 1], f_data)
        layers.append([h] * i + [box(step)])
    layers.append([h] * genus + [box(f_data.eps)])
    top = tensor_objects(*[h.source] * genus)
    state = evaluate(SliceDiagram(top, layers), params)
    return HomSpaceVector(r, genus, state.columns[0])
