"""r-spin structures on closed surfaces as marked PLCW decompositions.

A PLCW decomposition is a combinatorial closed surface: vertices, each an
endpoint of some oriented edge, and faces with a cyclic boundary word that
walks a closed path (each entry ends where the next one starts) and in
which every edge appears exactly twice, once each way; the faces glued
along their shared edges form one connected surface, and the corners at
each vertex form a single cycle, so no vertex is pinched.  A marking
assigns an index s_e in Z_r to each edge, stored as the tuple `indices` in
edge order; the marking is admissible when a per-vertex congruence holds,
and admissible markings on a fixed decomposition count r-spin structures.

There is one census, `enumerate_admissible`, which lists the admissible
markings as `MarkedPLCW` records, or with `records=False` as bare index
tuples.

Conventions pinned here (the source material leaves them to a drawing):
the face orientation is the cyclic order of its boundary list, and the
"clockwise" boundary vertex of the preferred edge is the vertex where its
traversal starts (src for a +1 entry, dst for a -1 entry).
"""

from __future__ import annotations

import itertools
import operator
import sys
from functools import lru_cache
from typing import NamedTuple

from . import Record
from .caps import check_cap, int_digits, power_digits, power_fits, power_width


class Edge(NamedTuple):
    id: int
    src: int
    dst: int

    def is_loop(self) -> bool:
        return self.src == self.dst


class Face(NamedTuple):
    boundary: tuple[tuple[int, int], ...]
    preferred: int


class PLCW(Record):
    """Combinatorial closed, connected, oriented surface; validates on construction."""

    __slots__ = _fields = ("num_vertices", "edges", "faces")

    def __init__(self, num_vertices, edges, faces):
        norm_edges = tuple(
            Edge(*(_integer(v, f"the {part} of edge {k}") for part, v in zip(Edge._fields, e)))
            for k, e in enumerate(edges)
        )
        norm_faces = tuple(
            Face(
                tuple(
                    (_integer(e, f"an edge id on face {k}"), _integer(s, f"a sign on face {k}"))
                    for e, s in f[0]
                ),
                _integer(f[1], f"the preferred index of face {k}"),
            )
            for k, f in enumerate(faces)
        )
        super().__init__(_integer(num_vertices, "the vertex count"), norm_edges, norm_faces)
        self._validate()

    def _validate(self) -> None:
        if self.num_vertices < 0:
            raise ValueError("negative vertex count")
        if not self.faces:
            raise ValueError("a surface needs at least one face")
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids")
        for e in self.edges:
            if not (0 <= e.src < self.num_vertices and 0 <= e.dst < self.num_vertices):
                raise ValueError(f"edge {e.id} references a missing vertex")
        bare = set(range(self.num_vertices)).difference(*((e.src, e.dst) for e in self.edges))
        if bare:
            raise ValueError(f"vertices {sorted(bare)} are not an endpoint of any edge")
        uses: dict[int, list[tuple[int, int]]] = {i: [] for i in ids}  # (sign, face)
        for fi, f in enumerate(self.faces):
            if not f.boundary:
                raise ValueError(f"face {fi} has empty boundary")
            if not (0 <= f.preferred < len(f.boundary)):
                raise ValueError(f"face {fi} preferred index out of range")
            for eid, sign in f.boundary:
                if eid not in uses:
                    raise ValueError(f"face {fi} references unknown edge {eid}")
                if sign not in (1, -1):
                    raise ValueError(f"face {fi} has boundary sign {sign}, want +-1")
                uses[eid].append((sign, fi))
        ends = {e.id: (e.src, e.dst) for e in self.edges}  # traversal (start, end) of a +1 entry
        for fi, f in enumerate(self.faces):
            walk = [ends[eid][::sign] for eid, sign in f.boundary]
            if any(a[1] != b[0] for a, b in zip(walk, walk[1:] + walk[:1])):
                raise ValueError(f"face {fi} boundary entries do not chain into a closed walk")
        bad = [eid for eid, u in uses.items() if len(u) != 2]
        if bad:
            raise ValueError(
                f"edges {bad} do not appear exactly twice in face boundaries"
            )
        # an orientable surface traverses each edge once each way
        bad = [eid for eid, ((s1, _), (s2, _)) in uses.items() if s1 == s2]
        if bad:
            raise ValueError(f"edges {bad} are not traversed once with +1 and once with -1")
        reached, todo = {0}, [0]  # faces glued along shared edges, from face 0
        while todo:
            for eid, _ in self.faces[todo.pop()].boundary:
                for _, fj in uses[eid]:
                    if fj not in reached:
                        reached.add(fj)
                        todo.append(fj)
        if len(reached) != len(self.faces):
            raise ValueError("the faces do not glue into one connected surface")
        chi = self.euler_characteristic
        if chi % 2 != 0 or chi > 2:
            raise ValueError(f"Euler characteristic {chi} is not 2-2g")
        # Corner k of a face sits where its entry k ends.  Leaving that corner
        # along entry k+1 and coming back along the other use of the same edge
        # reaches the next corner around the vertex; on a surface the corners
        # at each vertex form one such cycle, its link circle.
        entry_at = {
            (eid, sign): (fi, k)
            for fi, f in enumerate(self.faces)
            for k, (eid, sign) in enumerate(f.boundary)
        }
        cycles = [0] * self.num_vertices
        seen: set[tuple[int, int]] = set()
        for start in entry_at.values():
            if start in seen:
                continue
            fi, k = start
            eid, sign = self.faces[fi].boundary[k]
            cycles[ends[eid][::sign][1]] += 1
            corner = start
            while corner not in seen:
                seen.add(corner)
                boundary = self.faces[corner[0]].boundary
                eid, sign = boundary[(corner[1] + 1) % len(boundary)]
                corner = entry_at[(eid, -sign)]
        pinched = [v for v, n in enumerate(cycles) if n > 1]
        if pinched:
            raise ValueError(
                f"the corners at vertices {pinched} do not form one cycle: "
                "the surface is pinched there"
            )

    @property
    def euler_characteristic(self) -> int:
        return self.num_vertices - len(self.edges) + len(self.faces)

    @property
    def genus(self) -> int:
        return (2 - self.euler_characteristic) // 2

    def edge(self, edge_id: int) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(edge_id)


class MarkedPLCW(Record):
    """An edge-index assignment in Z_r on a fixed decomposition.

    `indices` holds one index in range(r) per edge, in `complex.edges` order;
    `edge_index` is the same marking as a dict keyed by edge id.
    """

    __slots__ = _fields = ("complex", "r", "indices")

    def __init__(self, complex: PLCW, r: int, edge_index: dict[int, int]):
        r = _integer(r, "r")
        if r < 1:
            raise ValueError(f"r must be positive, got {r}")
        missing = [e.id for e in complex.edges if e.id not in edge_index]
        if missing:
            raise ValueError(f"edges {missing} have no index")
        indices = tuple(
            _integer(edge_index[e.id], f"the index of edge {e.id}") % r for e in complex.edges
        )
        super().__init__(complex, r, indices)

    @property
    def edge_index(self) -> dict[int, int]:
        return {e.id: s for e, s in zip(self.complex.edges, self.indices)}


def _integer(value, name: str) -> int:
    """`value` through `operator.index`; a ValueError naming `name` if it is no integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _vertex_profiles(complex: PLCW) -> list[tuple[list[int], list[int], int]]:
    """Per vertex: the positions in `complex.edges` of its outgoing and its
    incoming non-loop edges, and the index-independent part of the residue.

    The hat index of an edge at a vertex is s_e when the edge leaves it,
    -1-s_e when it arrives and -1 on a loop; the -1s land in the constant."""
    loops = [0] * complex.num_vertices
    ends = [0] * complex.num_vertices
    outs: list[list[int]] = [[] for _ in range(complex.num_vertices)]
    ins: list[list[int]] = [[] for _ in range(complex.num_vertices)]
    for i, e in enumerate(complex.edges):
        if e.is_loop():
            loops[e.src] += 1
            ends[e.src] += 2
        else:
            outs[e.src].append(i)
            ins[e.dst].append(i)
            ends[e.src] += 1
            ends[e.dst] += 1
    d = [0] * complex.num_vertices
    for f in complex.faces:
        eid, sign = f.boundary[f.preferred]
        e = complex.edge(eid)
        d[e.src if sign == 1 else e.dst] += 1
    profiles = []
    for v in range(complex.num_vertices):
        const = -loops[v] - len(ins[v]) - d[v] + ends[v] - 1
        profiles.append((outs[v], ins[v], const))
    return profiles


def _residue(profile: tuple[list[int], list[int], int], indices, r: int) -> int:
    """One vertex's side of the congruence under `indices`, mod r: its
    constant, plus its outgoing and minus its incoming edges' indices."""
    outs, ins, const = profile
    return (const + sum(indices[i] for i in outs) - sum(indices[i] for i in ins)) % r


class AdmissibilityReport(Record):
    """Whether a marking is admissible, with its residue at each vertex."""

    __slots__ = _fields = ("ok", "residues")

    def __bool__(self) -> bool:
        return self.ok


def is_admissible(m: MarkedPLCW) -> AdmissibilityReport:
    """Check the per-vertex congruence sum(hat s_e) = D_v - N_v + 1 mod r.

    Loops contribute once to the sum (with hat index -1) and twice to N_v.
    Returns the report with one residue per vertex; admissible iff all
    residues vanish.
    """
    residues = {
        v: _residue(profile, m.indices, m.r)
        for v, profile in enumerate(_vertex_profiles(m.complex))
    }
    return AdmissibilityReport(all(x == 0 for x in residues.values()), residues)


def enumerate_admissible(
    complex: PLCW, r: int, *, cap: int | None = None, records: bool = True
) -> list[MarkedPLCW] | list[tuple[int, ...]]:
    """The census: every admissible marking, orientations and preferred edges
    held fixed, in `itertools.product` order, as a `MarkedPLCW` or, with
    `records=False`, as its bare index tuple.

    The r^n assignments are priced before anything is built, a vertex with
    only loops that fails decides the census without enumerating, and when
    no vertex congruence involves an index (the standard decomposition)
    every assignment is a row, listed without a check per assignment.
    """
    r = _integer(r, "r")
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    n_edges = len(complex.edges)
    check_cap("edge-index assignments", r, n_edges, cap)
    compiled = []
    for outs, ins, const in _vertex_profiles(complex):
        if outs or ins:
            compiled.append((outs, ins, const))
        elif const % r:  # a vertex with only loops fails whatever the indices
            return []
    assignments = itertools.product(range(r), repeat=n_edges)
    if not compiled:
        rows = list(assignments)
    else:
        rows = [a for a in assignments if not any(_residue(p, a, r) for p in compiled)]
    if not records:
        return rows
    found = []
    for row in rows:
        # what MarkedPLCW.__init__ checks holds: one index in range(r) per edge, in order
        m = object.__new__(MarkedPLCW)
        Record.__init__(m, complex, r, row)
        found.append(m)
    return found


def count_rspin(genus: int, r: int) -> int:
    """Closed-form count of r-spin structures: r^{2g} when r | 2-2g, else 0.

    A count longer than `sys.get_int_max_str_digits()` is refused unbuilt; a
    digit count, r or genus too long to print is named by its digit count.
    """
    genus, r = _integer(genus, "genus"), _integer(r, "r")
    if genus < 0:
        raise ValueError(f"genus must be non-negative, got {genus}")
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    if (2 - 2 * genus) % r != 0:
        return 0
    limit = sys.get_int_max_str_digits()
    if limit and not power_fits(r, 2 * genus, limit):
        width = power_width(r, 2 * genus)
        shown = power_digits(r, 2 * genus) if width <= limit else f"n digits, n of {width}"
        named = ", ".join(
            f"{k}={v}" if int_digits(v) <= limit else f"{k} of {int_digits(v)} digits"
            for k, v in (("r", r), ("genus", genus))
        )
        raise ValueError(
            f"the count r^2g for {named} has {shown} digits, "
            f"more than the {limit} Python prints"
        )
    return r ** (2 * genus)


# Bound of the memoised decompositions, immutable values that a `sigma-f`
# call builds once for its marking and looks up again in `sigma_F`.
DECOMPOSITION_MEMO_SIZE = 64


@lru_cache(maxsize=DECOMPOSITION_MEMO_SIZE)
def standard_decomposition(genus: int) -> PLCW:
    """One vertex, 2g loops, a single 4g-gon with word f1 f2 f1^- f2^- ...

    The preferred edge is position 0.  At the unique vertex the congruence
    reads -2g = 1 - 4g + 1 mod r, independent of all indices, so every
    assignment is admissible exactly when r divides 2-2g.  Memoised, so
    each genus is built and validated once.
    """
    if genus < 1:
        raise ValueError("standard decomposition needs genus >= 1; "
                         "use sphere_decomposition() for genus 0")
    edges = [(i, 0, 0) for i in range(2 * genus)]
    word: list[tuple[int, int]] = []
    for i in range(genus):
        a, b = 2 * i, 2 * i + 1
        word.extend([(a, 1), (b, 1), (a, -1), (b, -1)])
    return PLCW(1, edges, [(word, 0)])


@lru_cache(maxsize=1)
def sphere_decomposition() -> PLCW:
    """Two vertices joined by one edge; one bigon traversing it both ways."""
    return PLCW(2, [(0, 0, 1)], [([(0, 1), (0, -1)], 0)])
