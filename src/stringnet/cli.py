"""Deterministic JSON command line: one subcommand per computation.

Every subcommand echoes its inputs (each flag it declares except `--approx`),
names the quantity it computes in a "reference" field, and builds every
payload in key order, so its JSON lists every object's keys sorted and
identical invocations are byte-identical.  Exit codes: 0 success, 1 a
domain error raised by the computation, 2 a bad invocation (including missing
files), 3 a failed theorem check (an InvariantError, named in the payload).
A reader that closes stdout early ends the run with exit 1 and nothing on
stderr.  The brute-force subcommands price their work against one size cap,
the `STRINGNET_CAP` setting.  `--json-schema` on any subcommand prints the
shipped schema for its output and exits.

Each subcommand loads only the modules it runs: its handler imports the
library functions it calls, and the errors `main` reports live in the
package itself.  Loading this module and parsing the command line import
none of the arithmetic, so `--json-schema`, usage errors, `sn-dim`, the
r-spin commands and the modular-data commands never load the category,
diagram, coend, centre, spaces or Frobenius layers.  No subcommand loads
`fractions` or `decimal` on a successful run, the modular-data commands
included when every coefficient is written as `to_json` writes it; only
`--approx` loads `fractions`, and a size error or a count too long to print
loads `decimal`.  Parsing builds only the named subcommand's parser, one
`_Parser` with no top-level parser above it, which reads the arguments
after the name; help, an unknown command and other top-level errors get
the full parser, which lists every subcommand.  The CLI builds each parser once per process and reuses it on
every later call.  A handler renders each distinct scalar of its payload once,
through a memo that lives for that call only, so repeated cells of a
matrix or vector share one rendering, and builds each object of its payload
in key order, so `_emit` sorts only the top level.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import InadmissibleMarkingError, InvariantError, ModularDataError
from .caps import SizeCapError, check_cap


class _FlagError(Exception):
    """Bad invocation detected after argparse; exits with code 2."""


class _NegativeNumber:
    """argparse's test for a value that starts with a minus sign, widened.

    argparse reads "-1" and "-.5" as values but "-1,5" as an option; a comma
    list of integers is a value too, so "--indices -1,5" reads as
    "--indices=-1,5" does.  argparse asks it about each flag it declares
    and, when parsing, only about an argument that starts with "-" and names
    no flag, so a parse of flags and plain values pays nothing; no pattern
    is compiled for it.
    """

    def __init__(self, number) -> None:
        self.number = number  # argparse's own compiled pattern

    def match(self, text: str):
        return self.number.match(text) or all(
            part.removeprefix("-").isdecimal() for part in text.split(",")
        )


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeNumber(self._negative_number_matcher)

    def error(self, message):
        _emit({"error": message})
        raise SystemExit(2)


class _SchemaAction(argparse.Action):
    def __init__(self, option_strings, dest, command=None, **kwargs):
        super().__init__(
            option_strings,
            dest,
            nargs=0,
            help="print this subcommand's output schema and exit",
        )
        self.command = command

    def __call__(self, parser, namespace, values, option_string=None):
        sys.stdout.write(schema_text(self.command))
        raise SystemExit(0)


def schema_text(command: str) -> str:
    if command not in _SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {command!r}")
    path = os.path.join(os.path.dirname(__file__), "schemas", f"{command}.json")
    with open(path, encoding="utf-8") as file:
        return file.read()


def _emit(payload: dict) -> None:
    """Print `payload` as indented JSON, every object's keys in sorted order.

    Every nested dict is built in key order where this module makes it, so
    only the top level, which `_run` extends with the inputs, is ordered
    here; the encoder then writes the bytes `sort_keys=True` would, without
    sorting each dict again.
    """
    # every payload is a fresh tree built by one call, so it holds no cycle
    print(json.dumps(dict(sorted(payload.items())), check_circular=False, indent=2))


def _render(a, approx: bool, cyclotomic) -> dict:
    """A CycNum as JSON in key order, with its decimal value when `approx` is set.

    The caller passes the loaded `cyclotomic` module, which keeps the import
    out of this per-scalar call.
    """
    coeffs = cyclotomic.to_json(a)["coeffs"]
    if approx:
        z = cyclotomic.approx_complex(a)
        return {"approx": f"{z.real:.12g}{z.imag:+.12g}j", "coeffs": coeffs, "order": a.order}
    return {"coeffs": coeffs, "order": a.order}


def _renderer(r: int, approx: bool):
    """`_render` fixed to one call's `approx` choice, once per distinct scalar.

    A repeat is one dict lookup that returns the dict made for the first, so
    the cells of a payload that hold one value share one rendering (payloads
    are only serialised).  The memo is keyed by the scalar's order, numerators
    and denominator, all that its rendering reads, and dies with the handler
    that made it.  Most cells of a matrix are the shared `CycNum.zero(r)`,
    which is recognised by identity before any key is built.
    """
    from . import cyclotomic

    zero, zero_obj, memo = cyclotomic.CycNum.zero(r), None, {}

    def render(a) -> dict:
        nonlocal zero_obj
        if a is zero and zero_obj is not None:
            return zero_obj
        key = (a.order, a.nums, a.den)
        obj = memo.get(key)
        if obj is None:
            obj = memo[key] = _render(a, approx, cyclotomic)
        if a is zero:
            zero_obj = obj
        return obj

    return render


def _residues(report) -> dict:
    """Per-vertex residues keyed by the vertex's decimal string, in key order."""
    return dict(sorted((str(v), res) for v, res in report.residues.items()))


def _marking_json(marking) -> dict:
    """A marking as JSON: r, and each edge's index keyed by the edge id's
    decimal string; keys in order, so edge 10 comes before edge 2."""
    indices = dict(sorted((str(e), s) for e, s in marking.edge_index.items()))
    return {"indices": indices, "r": marking.r}


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _existing_file(text: str):
    from pathlib import Path

    path = Path(text)
    if not path.is_file():
        raise _FlagError(f"no such file: {text}")
    return path


def _decomposition(genus: int):
    from .rspin import sphere_decomposition, standard_decomposition

    return sphere_decomposition() if genus == 0 else standard_decomposition(genus)


def _marking(args):
    from .rspin import MarkedPLCW

    # the decomposition has 2g edges (1 on the sphere): count before building it
    n_edges = 2 * args.genus or 1
    if len(args.indices) != n_edges:
        raise _FlagError(
            f"genus {args.genus} needs {n_edges} indices, got {len(args.indices)}"
        )
    return MarkedPLCW(_decomposition(args.genus), args.r, dict(enumerate(args.indices)))


def _cmd_sn_dim(args) -> dict:
    from .rspin import count_rspin

    return {
        "reference": "closed-surface string-net dimension r^2g when r divides 2-2g",
        "dim": count_rspin(args.genus, args.r),
    }


def _cmd_sphere(args) -> dict:
    from .category import CategoryParams
    from .spaces import sphere_sn_dim

    # r loop diagrams, whose scalars in Q(zeta_r) carry r coefficients each
    check_cap("sphere loop-sum terms", args.r, 2)
    return {
        "reference": "sphere string-net dimension via sum of dim_r(U)^2 over Dim",
        "dim": sphere_sn_dim(CategoryParams(args.r)),
    }


def _cmd_torus_basis(args) -> dict:
    from .category import CategoryParams
    from .centre import list_centre_simples, torus_vectors
    from .linalg import rank_cyc

    # r^2 vectors of r^2 coordinates: the rank input and the output
    check_cap("torus-basis coordinates", args.r, 4)
    params = CategoryParams(args.r)
    render = _renderer(args.r, args.approx)
    vectors = []
    coords_matrix = []
    for z, v in zip(list_centre_simples(params), torus_vectors(params)):
        vectors.append({"coords": list(map(render, v.coords)), "z": {"a": z.a, "k": z.k}})
        coords_matrix.append(list(v.coords))
    rank = rank_cyc([list(col) for col in zip(*coords_matrix)]) if vectors else 0
    return {
        "reference": "torus vectors h_Z, one per simple of the centre",
        "vectors": vectors,
        "rank": rank,
    }


def _cmd_bp_operator(args) -> dict:
    from .category import CategoryParams
    from .spaces import tilde_bp_operator

    report = tilde_bp_operator(CategoryParams(args.r), args.genus, orientation=args.orientation)
    render = _renderer(args.r, args.approx)
    return {
        "reference": "plaquette projector on the genus-g handle space",
        "dim": args.r ** (2 * args.genus),
        "scalar": render(report.analytic_scalar),
        "matrix": [list(map(render, row)) for row in report.operator_matrix],
        "rank": report.image_rank,
    }


def _cmd_annulus(args) -> dict:
    from .category import CategoryParams
    from .spaces import annulus_hom_dim

    if not (0 <= args.a < args.r and 0 <= args.b < args.r):
        raise _FlagError(f"boundary grades must lie in 0..{args.r - 1}")
    check_cap("annulus hull summands", args.r, 1)  # the hull of C_b has r summands
    return {
        "reference": "annulus space dimension r when the boundary grades agree",
        "dim": annulus_hom_dim(args.a, args.b, CategoryParams(args.r)),
    }


def _cmd_rspin_count(args) -> dict:
    from .rspin import count_rspin

    return {
        "reference": "closed-form r-spin count r^2g when r divides 2-2g",
        "count": count_rspin(args.genus, args.r),
    }


def _cmd_rspin_enumerate(args) -> dict:
    from .rspin import enumerate_admissible

    # priced before building the 2g edges (1 on the sphere) of the decomposition
    check_cap("edge-index assignments", args.r, 2 * args.genus or 1)
    rows = enumerate_admissible(_decomposition(args.genus), args.r, records=False)
    return {
        "reference": "admissible edge-index assignments on the standard decomposition",
        "count": len(rows),
        "markings": rows,
    }


def _cmd_rspin_check(args) -> dict:
    from .rspin import is_admissible

    report = is_admissible(_marking(args))
    return {
        "reference": "per-vertex residues of one edge-index assignment",
        "admissible": report.ok,
        "residues": _residues(report),
    }


def _cmd_sigma_f(args) -> dict:
    from .category import CategoryParams
    from .frobenius import frobenius_zr, sigma_F

    marking = _marking(args)
    check_cap("state-sum coordinates", args.r, 2 * args.genus)
    vector = sigma_F(marking, frobenius_zr(CategoryParams(args.r)))
    return {
        "reference": "state-sum vector of an admissible marking in the handle space",
        "marking": _marking_json(marking),
        "vector": {
            "coords": list(map(_renderer(args.r, args.approx), vector.coords)),
            "genus": vector.genus,
            "r": vector.r,
        },
    }


def _cmd_frobenius_check(args) -> dict:
    from .category import CategoryParams
    from .frobenius import frobenius_zr

    # the coassociativity and Frobenius-relation proofs push F (x) F (x) F
    check_cap("Frobenius axiom terms", args.r, 3)
    f_data = frobenius_zr(CategoryParams(args.r))
    forward = f_data.nakayama_pair.forward
    render = _renderer(args.r, args.approx)
    return {
        "reference": "Frobenius axioms and the Nakayama automorphism of the group algebra",
        "nakayama_diagonal": [render(forward.entry(a, a)) for a in range(args.r)],
        "nakayama_order": len(f_data.nakayama_powers),
    }


def _cmd_charge(args) -> dict:
    from .modular import load_modular_data, sphere_charge_dim

    data = load_modular_data(_existing_file(args.data))
    return {
        "reference": "dimension of the one-marked-point sphere space at background J",
        "dim": sphere_charge_dim(args.j, args.u, args.v, data),
    }


def _cmd_validate_modular(args) -> dict:
    from .modular import load_modular_data

    path = _existing_file(args.data)
    reference = "defining identities of an unnormalized s-matrix"
    try:
        load_modular_data(path)
    except ModularDataError as exc:
        return {"reference": reference, "valid": False, "violations": list(exc.violations)}
    return {"reference": reference, "valid": True, "violations": []}


_POSITIVE, _NONNEGATIVE = _int_at_least(1), _int_at_least(0)
_R = {"type": _POSITIVE, "required": True}
_NATURAL = {"type": _NONNEGATIVE, "required": True}  # a genus or a grade
_APPROX = {"action": "store_true"}
_ORIENTATION = {"choices": ["anticlockwise", "clockwise"], "default": "anticlockwise"}
_INDICES = {
    "type": _int_list,
    "required": True,
    "help": "comma-separated edge indices in edge order",
}
_REQUIRED = {"required": True}

# Each subcommand's handler and flags, in the order help lists them.
_SUBCOMMANDS = {
    "sn-dim": (_cmd_sn_dim, {"r": _R, "genus": _NATURAL}),
    "sphere": (_cmd_sphere, {"r": _R}),
    "torus-basis": (_cmd_torus_basis, {"r": _R, "approx": _APPROX}),
    "bp-operator": (
        _cmd_bp_operator,
        {"r": _R, "genus": _NATURAL, "orientation": _ORIENTATION, "approx": _APPROX},
    ),
    "annulus": (_cmd_annulus, {"r": _R, "a": _NATURAL, "b": _NATURAL}),
    "rspin-count": (_cmd_rspin_count, {"r": _R, "genus": _NATURAL}),
    "rspin-enumerate": (_cmd_rspin_enumerate, {"r": _R, "genus": _NATURAL}),
    "rspin-check": (_cmd_rspin_check, {"r": _R, "genus": _NATURAL, "indices": _INDICES}),
    "sigma-f": (
        _cmd_sigma_f,
        {"r": _R, "genus": _NATURAL, "indices": _INDICES, "approx": _APPROX},
    ),
    "frobenius-check": (_cmd_frobenius_check, {"r": _R, "approx": _APPROX}),
    "charge": (
        _cmd_charge,
        {
            "data": {"required": True, "help": "modular-data JSON file"},
            "j": _REQUIRED,
            "u": _REQUIRED,
            "v": _REQUIRED,
        },
    ),
    "validate-modular": (_cmd_validate_modular, {"data": _REQUIRED}),
}
COMMANDS = tuple(_SUBCOMMANDS)


def _declare(parser: _Parser, name: str) -> _Parser:
    """Give `parser` subcommand `name`'s flags, `--json-schema` and defaults."""
    handler, flags = _SUBCOMMANDS[name]
    for flag, options in flags.items():
        parser.add_argument(f"--{flag}", **options)
    parser.add_argument("--json-schema", action=_SchemaAction, command=name)
    inputs = tuple(sorted(f for f in flags if f != "approx"))  # in key order
    parser.set_defaults(command=name, handler=handler, inputs=inputs)
    return parser


@functools.lru_cache(maxsize=None)  # at most 13 keys: the subcommands and None
def _build_parser(command: str | None = None) -> _Parser:
    """Subcommand `command`'s own parser, or the full parser when it is None.

    The subcommand's parser reads the arguments after its name and gives the
    namespace, output and exit code the full parser gives for the whole line.
    A parser is built once per process and keeps nothing between calls: its
    prog is fixed, its defaults are immutable, and help, errors and
    `--json-schema` look up `sys.stdout` and `sys.stderr` when they write.
    """
    if command is not None:
        return _declare(_Parser(prog=f"stringnet {command}"), command)
    parser = _Parser(prog="stringnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in _SUBCOMMANDS:
        _declare(sub.add_parser(name), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()  # a closed pipe shows up here, not at exit
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the flush at exit
        # stays quiet too, and fail without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv: list[str] | None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _SUBCOMMANDS:
        args = _build_parser(argv[0]).parse_args(argv[1:])
    else:
        args = _build_parser().parse_args(argv)
    try:
        payload = args.handler(args)
    except _FlagError as exc:
        _emit({"error": str(exc)})
        return 2
    except SizeCapError as exc:
        _emit({"error": str(exc), "size": exc.size, "cap": exc.cap})
        return 1
    except InadmissibleMarkingError as exc:
        _emit({"error": str(exc), "residues": _residues(exc.report)})
        return 1
    except ModularDataError as exc:
        _emit({"error": str(exc), "violations": list(exc.violations)})
        return 1
    except ValueError as exc:
        _emit({"error": str(exc)})
        return 1
    except InvariantError as exc:
        _emit({"error": str(exc), "invariant": exc.invariant})
        return 3
    payload["inputs"] = {flag: getattr(args, flag) for flag in args.inputs}
    _emit(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
