"""Modular-data files, and the dimension of the one-marked-point sphere space
after a pivotal deformation by an invertible simple.

The s-matrix is stored unnormalized (trace of the double braiding), so every
scalar stays inside one cyclotomic field and no square root of the global
dimension ever appears.  A file is accepted only if s is symmetric, its first
column repeats the dims, no dim vanishes, duality is an involution fixing the
unit, and the orthogonality relation

    sum_R s_{A,R} s_{R,B^dual} = global_dim * delta_{A,B}

holds exactly; `validate-modular` in the CLI surfaces the violation list.

An invertible J deforms the pivotal structure.  The right dim of X becomes
s_{J,X}/s_{J,1}, the left dim uses J^dual, and the deformation is spherical
exactly when the two agree for every X, equivalently when J tensor J is the
unit.  The charge criterion `sphere_charge_dim` decides whether the sphere
with one marked point (U, V) supports a state: dimension 1 when U is J tensor
J and V its dual, 0 otherwise, computed through the orthogonality sum rather
than by building any diagram, and without dividing.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import ModularDataError, Record
from .cyclotomic import CycNum, from_json
from .linalg import rank_cyc


def _shape_violations(labels, dual, dims, s) -> list[str]:
    n = len(labels)
    out = []
    if not n:
        out.append("the label list is empty")
    if len(set(labels)) != n:
        out.append("labels are not distinct")
    if len(dual) != n or len(dims) != n:
        out.append(f"dual and dims must both have length {n}")
    if any(not isinstance(d, int) or isinstance(d, bool) for d in dual):
        out.append("dual entries must be integers")
    if len(s) != n or any(len(row) != n for row in s):
        out.append(f"s must be a {n}x{n} matrix")
    orders = {d.order for d in dims} | {e.order for row in s for e in row}
    if len(orders) > 1:
        out.append("entries use mixed cyclotomic orders")
    return out


class ModularData(Record):
    """Labels, duality involution, dims, and the unnormalized s-matrix.

    Construction validates every defining identity and raises
    ModularDataError with the full violation list when any fails.
    """

    __slots__ = _fields = ("labels", "dual", "dims", "s_unnorm")

    def __init__(self, labels, dual, dims, s_unnorm) -> None:
        super().__init__(
            tuple(str(x) for x in labels),
            tuple(dual),
            tuple(dims),
            tuple(tuple(row) for row in s_unnorm),
        )
        violations = _shape_violations(self.labels, self.dual, self.dims, self.s_unnorm)
        if not violations:
            violations = self._identity_violations()
        if violations:
            raise ModularDataError(violations)

    def _identity_violations(self) -> list[str]:
        n = len(self.labels)
        s, dims, dual = self.s_unnorm, self.dims, self.dual
        one = CycNum.one(self.order)
        out = []
        if any(not (0 <= dual[i] < n) or dual[dual[i]] != i for i in range(n)):
            out.append("dual is not an involution")
            return out
        if dual[0] != 0:
            out.append("the unit is not self-dual")
        if dims[0] != one:
            out.append("dim of the unit is not 1")
        for a in range(n):
            if not dims[a]:
                out.append(f"dim of {self.labels[a]} vanishes")
        for a in range(n):
            for b in range(a + 1, n):
                if s[a][b] != s[b][a]:
                    out.append(
                        f"s is not symmetric at ({self.labels[a]}, {self.labels[b]})"
                    )
        for a in range(n):
            if s[a][0] != dims[a]:
                out.append(f"s column at the unit disagrees with dim({self.labels[a]})")
        if not self.global_dim:
            out.append("global dimension vanishes")
        if rank_cyc([list(row) for row in s]) != n:
            out.append("s is not invertible")
        for a in range(n):
            for b in range(n):
                total = CycNum.zero(self.order)
                for r_ in range(n):
                    total = total + s[a][r_] * s[r_][dual[b]]
                want = self.global_dim if a == b else CycNum.zero(self.order)
                if total != want:
                    out.append(
                        "orthogonality fails at "
                        f"({self.labels[a]}, {self.labels[b]})"
                    )
        return out

    @property
    def order(self) -> int:
        """Cyclotomic order shared by every entry."""
        return self.dims[0].order

    @property
    def global_dim(self) -> CycNum:
        total = CycNum.zero(self.order)
        for d in self.dims:
            total = total + d * d
        return total

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(
                f"unknown label {label!r}; have {', '.join(self.labels)}"
            ) from None


def modular_data_from_json(obj: dict) -> ModularData:
    try:
        labels = obj["labels"]
        dual = tuple(obj["dual"])
        dims = [from_json(d) for d in obj["dims"]]
        s = [[from_json(e) for e in row] for row in obj["s"]]
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"not a modular-data object: {exc}") from exc
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError("not a modular-data object: labels must be a list of strings")
    return ModularData(labels, dual, dims, s)


def load_modular_data(path) -> ModularData:
    """Parse and validate a modular-data JSON file.

    Raises FileNotFoundError, ValueError on malformed JSON, and
    ModularDataError when an identity fails.
    """
    return modular_data_from_json(json.loads(Path(path).read_text()))


def sample_path(name: str) -> Path:
    """Path of a shipped sample file: trivial, semion, z3_pointed, z5_pointed."""
    p = Path(__file__).with_name("data") / f"{name}.json"
    if not p.is_file():
        raise ValueError(f"no sample data file named {name!r}")
    return p


def _invertible_index(label: str, m: ModularData) -> int:
    i = m.index(label)
    if m.dims[i] * m.dims[i] != CycNum.one(m.order):
        raise ValueError(f"label {label!r} is not invertible (dim^2 != 1)")
    return i


def _fusion_square(ji: int, m: ModularData) -> int:
    """Index of J tensor J, from s_{J,R}^2 = dim(R) s_{JJ,R} for all R."""
    n = len(m.labels)
    hits = [
        k
        for k in range(n)
        if all(
            m.s_unnorm[k][r_] * m.dims[r_] == m.s_unnorm[ji][r_] * m.s_unnorm[ji][r_]
            for r_ in range(n)
        )
    ]
    if len(hits) != 1:
        raise ValueError(
            f"cannot identify {m.labels[ji]} tensor {m.labels[ji]} among the simples"
        )
    return hits[0]


def sphere_charge_dim(j: str, u: str, v: str, m: ModularData) -> int:
    """Dimension (0 or 1) of the one-marked-point sphere space for (U, V).

    The space is a line iff (1/global_dim) sum_R s_{(JJ)^dual,R} s_{R,U} / dim(U)
    is 1 and V is the dual of U.  Both global_dim and dim(U) are nonzero in
    valid data, so the scalar test is decided by cross-multiplying:
    sum_R s_{(JJ)^dual,R} s_{R,U} == global_dim * dim(U).
    """
    ji = _invertible_index(j, m)
    ui = m.index(u)
    vi = m.index(v)
    kd = m.dual[_fusion_square(ji, m)]
    total = CycNum.zero(m.order)
    for r_ in range(len(m.labels)):
        total = total + m.s_unnorm[kd][r_] * m.s_unnorm[r_][ui]
    return 1 if total == m.global_dim * m.dims[ui] and vi == m.dual[ui] else 0
