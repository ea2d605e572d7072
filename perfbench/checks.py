"""Independent checks of every CLI output, and the golden stdout digests.

Each checker recomputes what the output must say from the case's own flags:
the closed forms r^{2g}[r | 2-2g] and r[a = b], the projector as its scalar
times the identity with the scalar rebuilt from `zeta_power`, the Nakayama
diagonal zeta^{-a} and its order r, the full marking census, and the charge
criterion from the group law of the shipped pointed data.  The only library
code a checker calls is `zeta_power`, to write down a root of unity.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

from cases import MODULAR_DATA, data_path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def closed_dim(r: int, genus: int) -> int:
    """r^{2g} when r divides 2 - 2g, else 0."""
    return r ** (2 * genus) if (2 - 2 * genus) % r == 0 else 0


def _cyc(obj) -> tuple[int, tuple[Fraction, ...]]:
    return int(obj["order"]), tuple(Fraction(c) for c in obj["coeffs"])


def _zeta(n: int, k: int) -> tuple[int, tuple[Fraction, ...]]:
    from stringnet.cyclotomic import zeta_power

    return n, tuple(Fraction(c) for c in zeta_power(n, k).coeffs)


def _zero(n: int, degree: int) -> tuple[int, tuple[Fraction, ...]]:
    return n, (Fraction(0),) * degree


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _check_sn_dim(f, p, problems):
    _expect(problems, "dim", p["dim"], closed_dim(f["r"], f["genus"]))


def _check_sphere(f, p, problems):
    _expect(problems, "dim", p["dim"], closed_dim(f["r"], 0))


def _check_annulus(f, p, problems):
    _expect(problems, "dim", p["dim"], f["r"] if f["a"] == f["b"] else 0)


def _check_rspin_count(f, p, problems):
    _expect(problems, "count", p["count"], closed_dim(f["r"], f["genus"]))


def _check_rspin_enumerate(f, p, problems):
    r, g = f["r"], f["genus"]
    _expect(problems, "count", p["count"], closed_dim(r, g))
    # On the standard decomposition every assignment is admissible or none is.
    want = [list(m) for m in itertools.product(range(r), repeat=2 * g)] if closed_dim(r, g) else []
    if p["markings"] != want:
        problems.append(f"markings: {len(p['markings'])} rows, not the full census of {len(want)}")


def _check_rspin_check(f, p, problems):
    # One vertex with 2g loops: the residue is 2g - 2 whatever the indices.
    residue = (2 * f["genus"] - 2) % f["r"]
    _expect(problems, "residues", p["residues"], {"0": residue})
    _expect(problems, "admissible", p["admissible"], residue == 0)


def _check_bp_operator(f, p, problems):
    r, g = f["r"], f["genus"]
    n = r ** (2 * g)
    total = [Fraction(0)] * len(_zeta(r, 0)[1])
    for u in range(r):
        for i, c in enumerate(_zeta(r, (2 - 2 * g) * u)[1]):
            total[i] += c
    scalar = (r, tuple(c / r for c in total))
    closed = (Fraction(1) if (2 - 2 * g) % r == 0 else Fraction(0),) + (Fraction(0),) * (len(total) - 1)
    _expect(problems, "rebuilt scalar against its closed form", scalar[1], closed)
    _expect(problems, "dim", p["dim"], n)
    _expect(problems, "scalar", _cyc(p["scalar"]), scalar)
    matrix = p["matrix"]
    if len(matrix) != n or any(len(row) != n for row in matrix):
        problems.append(f"matrix is not {n}x{n}")
        return
    zero = _zero(r, len(total))
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            want = scalar if i == j else zero
            if _cyc(entry) != want:
                problems.append(f"matrix[{i}][{j}] is not scalar*identity")
                return
    _expect(problems, "rank", p["rank"], n if any(scalar[1]) else 0)


def _check_torus_basis(f, p, problems):
    r = f["r"]
    _expect(problems, "rank", p["rank"], r * r)
    _expect(problems, "vector count", len(p["vectors"]), r * r)
    zs = sorted((v["z"]["a"], v["z"]["k"]) for v in p["vectors"])
    _expect(problems, "centre simples", zs, sorted(itertools.product(range(r), repeat=2)))
    if any(len(v["coords"]) != r * r for v in p["vectors"]):
        problems.append(f"a torus vector does not have {r * r} coordinates")


def _check_sigma_f(f, p, problems):
    r, g = f["r"], f["genus"]
    v = p["vector"]
    _expect(problems, "vector r", v["r"], r)
    _expect(problems, "vector genus", v["genus"], g)
    _expect(problems, "coordinate count", len(v["coords"]), r ** (2 * g))
    if not any(any(_cyc(c)[1]) for c in v["coords"]):
        problems.append("state-sum vector is zero")
    indices = [int(x) for x in f["indices"].split(",")]
    _expect(problems, "marking", p["marking"]["indices"], {str(i): x % r for i, x in enumerate(indices)})


def _check_frobenius_check(f, p, problems):
    r = f["r"]
    _expect(problems, "nakayama_order", p["nakayama_order"], r)
    diagonal = [_cyc(c) for c in p["nakayama_diagonal"]]
    _expect(problems, "nakayama_diagonal", diagonal, [_zeta(r, -a) for a in range(r)])


def _modular(data: str):
    for stem, labels, dual in MODULAR_DATA:
        if data_path(stem) == data:
            return labels, dual
    raise KeyError(data)


def _check_charge(f, p, problems):
    labels, dual = _modular(f["data"])
    n = len(labels)
    j, u, v = (labels.index(f[k]) for k in ("j", "u", "v"))
    # Pointed data: the space is a line iff U = J (x) J and V = U^dual.
    _expect(problems, "dim", p["dim"], int(u == (2 * j) % n and v == dual[u]))


def _check_validate_modular(f, p, problems):
    _expect(problems, "valid", p["valid"], True)
    _expect(problems, "violations", p["violations"], [])


CHECKERS = {
    "sn-dim": _check_sn_dim,
    "sphere": _check_sphere,
    "annulus": _check_annulus,
    "rspin-count": _check_rspin_count,
    "rspin-enumerate": _check_rspin_enumerate,
    "rspin-check": _check_rspin_check,
    "bp-operator": _check_bp_operator,
    "torus-basis": _check_torus_basis,
    "sigma-f": _check_sigma_f,
    "frobenius-check": _check_frobenius_check,
    "charge": _check_charge,
    "validate-modular": _check_validate_modular,
}
INT_FLAGS = ("r", "genus", "a", "b")


def check_output(argv: list[str], returncode: int, out: bytes, root: Path) -> list[str]:
    """Every way the output of `stringnet <argv>` is wrong; empty when correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        payload = json.loads(out)
    except ValueError:
        return ["stdout is not JSON"]
    command = argv[0]
    if "--json-schema" in argv:
        schema = root / "src" / "stringnet" / "schemas" / f"{command}.json"
        return [] if out == schema.read_bytes() else ["schema differs from the shipped file"]
    flags = {k[2:]: v for k, v in zip(argv[1::2], argv[2::2])}
    for k in INT_FLAGS:
        if k in flags:
            flags[k] = int(flags[k])
    problems: list[str] = []
    try:
        CHECKERS[command](flags, payload, problems)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed payload: {type(exc).__name__}: {exc}")
    return problems
