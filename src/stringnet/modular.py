"""Modular-data files, and the dimension of the one-marked-point sphere space
after a pivotal deformation by an invertible simple.

The s-matrix is stored unnormalized (trace of the double braiding), so every
scalar stays inside one cyclotomic field and no square root of the global
dimension ever appears.  A file is accepted only if s is symmetric, its first
column repeats the dims, no dim vanishes, duality is an involution fixing the
unit, and the orthogonality relation

    sum_R s_{A,R} s_{R,B^dual} = global_dim * delta_{A,B}

holds exactly; `validate-modular` in the CLI surfaces the violation list.
The orthogonality sums are integer work: over one common denominator each
entry's numerators are packed into one int, a value of its polynomial at a
power of two wide enough for every summed coefficient (Kronecker
substitution), so each sum is n int products; its digits are unpacked and
reduced modulo the cyclotomic polynomial once.

`load_modular_data` checks a file's price against the cap on every call,
and proves each file's content once per process: the price and the proven
data, both read from the file's text, are memoised on that text
(`MODULAR_MEMO_SIZE` entries), so an edited file is priced and proven
afresh, and a file that fails raises the same error on every call.

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
from functools import lru_cache
from math import lcm
from operator import mul
from pathlib import Path

from . import ModularDataError, Record, require
from .caps import check_cap
from .cyclotomic import CycNum, _folded, degree, from_json
from .linalg import rank_cyc


def _shape_violations(labels, dual, dims, s, orders) -> list[str]:
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
    if len(orders) > 1:
        out.append("entries use mixed cyclotomic orders")
    return out


class ModularData(Record):
    """Labels, duality involution, dims, and the unnormalized s-matrix.

    Construction validates every defining identity and raises
    ModularDataError with the full violation list when any fails.  The
    global dimension, sum_R dim(R)^2, is computed once then, into a slot
    outside `_fields`: it is a function of the dims, so equality, hashing
    and repr ignore it.
    """

    _fields = ("labels", "dual", "dims", "s_unnorm")
    __slots__ = (*_fields, "global_dim")

    def __init__(self, labels, dual, dims, s_unnorm) -> None:
        super().__init__(
            tuple(str(x) for x in labels),
            tuple(dual),
            tuple(dims),
            tuple(tuple(row) for row in s_unnorm),
        )
        orders = {e.order for row in (self.dims, *self.s_unnorm) for e in row}
        violations = _shape_violations(self.labels, self.dual, self.dims, self.s_unnorm, orders)
        if not violations:
            # the shape check found one conductor and at least one dim
            total = CycNum.zero(self.order)
            for d in self.dims:
                total = total + d * d
            object.__setattr__(self, "global_dim", total)
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
        global_dim, zero = self.global_dim, CycNum.zero(self.order)
        if not global_dim:
            out.append("global dimension vanishes")
        if rank_cyc([list(row) for row in s]) != n:
            out.append("s is not invertible")
        for a, sums in enumerate(_orthogonality_sums(s, dual, self.order)):
            for b, total in enumerate(sums):
                if total != (global_dim if a == b else zero):
                    out.append(
                        "orthogonality fails at "
                        f"({self.labels[a]}, {self.labels[b]})"
                    )
        return out

    @property
    def order(self) -> int:
        """Cyclotomic order shared by every entry."""
        return self.dims[0].order

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(
                f"unknown label {label!r}; have {', '.join(self.labels)}"
            ) from None


def _pack(coeffs, bits: int) -> int:
    """The integer polynomial `coeffs` (lowest degree first) at x = 2^bits."""
    packed = 0
    for c in reversed(coeffs):
        packed = (packed << bits) + c
    return packed


def _unpack(packed: int, bits: int, count: int) -> list[int]:
    """The `count` coefficients of a packed polynomial, each of absolute value
    below 2^(bits - 1): balanced base-2^bits digits, lowest first."""
    mask, half, digits = (1 << bits) - 1, 1 << (bits - 1), []
    for _ in range(count):
        digit = packed & mask
        if digit >= half:
            digit -= mask + 1
        digits.append(digit)
        packed = (packed - digit) >> bits
    require(not packed, "nothing is left after the last digit")
    return digits


def _orthogonality_sums(s, dual, order: int) -> list[list[CycNum]]:
    """sum_R s_{A,R} s_{R,B^dual} for every (A, B), by Kronecker substitution.

    Over D, the lcm of the denominators, every entry has phi(order) integer
    numerators of absolute value at most m.  Each coefficient of a sum of n
    products is a sum of at most n phi products of two numerators, so at most
    n phi m^2 in absolute value; with `bits` its bit length plus a sign bit,
    the coefficients are the balanced digits of the sum of the packed
    products, which `_folded` reduces over D^2 once per (A, B).
    """
    n, d = len(s), degree(order)
    den = lcm(*(x.den for row in s for x in row))
    top = max(max(map(abs, x.nums)) * (den // x.den) for row in s for x in row)
    bits = (n * d * top * top).bit_length() + 1
    # packing is linear, so each entry is packed over its own denominator and scaled to D
    packed = [[_pack(x.nums, bits) * (den // x.den) for x in row] for row in s]
    columns = [[row[dual[b]] for row in packed] for b in range(n)]
    return [
        [
            _folded(order, _unpack(sum(map(mul, row, column)), bits, 2 * d - 1), den * den)
            for column in columns
        ]
        for row in packed
    ]


def _raw_orders(dims, s) -> set[int]:
    """The integer `order`s of the raw JSON entries of dims and s; a malformed
    part is left out, for the parse to report."""
    rows = [dims] + (s if isinstance(s, list) else [])
    cells = [c for row in rows if isinstance(row, list) for c in row if isinstance(c, dict)]
    return {o for o in (c.get("order") for c in cells) if type(o) is int}


def _price_base(obj) -> int:
    """labels x conductor from the raw JSON, the conductor the largest integer
    `order` in dims and s; a malformed part counts 1, for the parse to report."""
    if not isinstance(obj, dict):
        return 1
    labels = obj.get("labels")
    orders = [o for o in _raw_orders(obj.get("dims"), obj.get("s")) if o > 1]
    return (len(labels) if isinstance(labels, list) and labels else 1) * max(orders, default=1)


def _check_price(base: int) -> None:
    check_cap("(labels x conductor)^2 of the modular data", base, 2)


def modular_data_from_json(obj: dict) -> ModularData:
    """Parse and validate; the price, (labels x conductor)^2, and the shape are
    read from the raw JSON, so both refuse a file before any field element."""
    _check_price(_price_base(obj))
    try:
        labels, dual, dims = obj["labels"], tuple(obj["dual"]), list(obj["dims"])
        s = [list(row) for row in obj["s"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a modular-data object: {exc}") from exc
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError("not a modular-data object: labels must be a list of strings")
    if violations := _shape_violations(labels, dual, dims, s, _raw_orders(dims, s)):
        raise ModularDataError(violations)
    try:
        dims = [from_json(d) for d in dims]
        s = [[from_json(e) for e in row] for row in s]
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"not a modular-data object: {exc}") from exc
    return ModularData(labels, dual, dims, s)


def load_modular_data(path) -> ModularData:
    """Parse and validate a modular-data JSON file.

    The price is checked against the cap on every call; the proof is made
    once per content (`_proven`).  Raises FileNotFoundError, ValueError on
    malformed JSON, SizeCapError when the file's price exceeds the cap, and
    ModularDataError when an identity fails.
    """
    base, data = _proven(Path(path).read_text())
    _check_price(base)
    return data


# Bound of the memo of proven files, keyed on the whole text.  One entry
# holds the text and its ModularData: 0.02 MB (tracemalloc) for pointed Z_9,
# 486 coefficients, the most a pointed file has under the default cap (price
# 81^2).  An entry grows with the text, whose numerators the price does not
# bound, and with the cap; a process that loads more files evicts the least
# recently used, whose next load proves it again.
MODULAR_MEMO_SIZE = 16


@lru_cache(maxsize=MODULAR_MEMO_SIZE)
def _proven(text: str) -> tuple[int, ModularData]:
    """labels x conductor, read from the raw JSON of a file's text, and the
    validated data.  A refused price or a failed proof raises, and an
    exception is never memoised; the price base is kept, since the cap may
    be lower at the next call."""
    obj = json.loads(text)
    return _price_base(obj), modular_data_from_json(obj)


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
    squares = [x * x for x in m.s_unnorm[ji]]
    hits = [
        k
        for k in range(n)
        if all(m.s_unnorm[k][r_] * m.dims[r_] == squares[r_] for r_ in range(n))
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
