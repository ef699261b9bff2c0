"""Batch command-line interface with deterministic machine-readable output.

Subcommands: classify, spectrum, shapes-enumerate, chartab, flip-demo,
spherical-check, verify.  Global flags: --config PATH, --seed N, --depth N,
--format json|csv; the ARBOCOH_CONFIG environment variable supplies a
default config path.

main can be called any number of times in one process: it builds its
parser once, on the first call, and reads the config file and
ARBOCOH_CONFIG afresh on every call.

Output is byte-deterministic for identical inputs and config: dict keys
are emitted in a fixed order, floats are rounded to 12 significant digits
before serialization, and every randomized report embeds its seed.

Descriptor JSON: {"tag": "spherical"|"special"|"cuspidal",
                  "z": "a+bi", "sign": "+"|"-",
                  "shape": {q, vertices, edges},
                  "irrep": row index or spectrum fingerprint,
                  "q": branching parameter}.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import math
import sys

from . import verify as verify_mod
from .catalog import enumerate_complete_shapes
from .chartab import character_table
from .config import MAX_DEPTH, MAX_RAYS, Config, load_config
from .errors import ArbocohError, InvalidDescriptor, InvalidInput, UnknownSuite
from .flip import find_flip, check_flip_witness
from .perm import DEFAULT_ORDER_BOUND, shape_automorphism_group
from .reptheory import RepDescriptor, analysis, classify_bounded_cohomology, enumerate_nondegenerate
from .shapes import Shape, classify_shape, json_int
from .spherical import eigen_residual, gram_psd_check, is_admissible, mu_of_z, phi_values
from .tree import Vertex
from .verify import random_rays, random_flip_instance


# -- deterministic emission ----------------------------------------------------


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, complex):
        return {"re": float(f"{obj.real:.12g}"), "im": float(f"{obj.imag:.12g}")}
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def emit(data, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    data = _round_floats(data)
    if fmt == "csv" and isinstance(data, dict) and "rows" in data and "columns" in data:
        cols = data["columns"]
        print(",".join(str(c) for c in cols), file=stream)
        for row in data["rows"]:
            print(",".join(str(row[c]) for c in cols), file=stream)
        return
    print(json.dumps(data, indent=2), file=stream)


def parse_complex(text: str) -> complex:
    try:
        z = complex(str(text).replace(" ", "").replace("i", "j"))
    except ValueError:
        raise InvalidInput(f"not a complex number: {text!r}") from None
    if not cmath.isfinite(z):
        raise InvalidInput(f"not a finite complex number: {text!r}")
    return z


def format_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def descriptor_from_json(data: dict, bound: int = DEFAULT_ORDER_BOUND) -> RepDescriptor:
    """Parse a descriptor; bound caps |Aut(shape)| when a fingerprint
    names the row.  Malformed data raises InvalidDescriptor."""
    if not isinstance(data, dict):
        raise InvalidDescriptor("a descriptor is a JSON object")
    tag = data.get("tag")
    if tag not in ("spherical", "special", "cuspidal"):
        raise InvalidDescriptor(f"unknown descriptor tag {tag!r}")
    try:
        if tag == "cuspidal":
            shape, irrep = Shape.from_json(data["shape"]), data["irrep"]
        elif tag == "spherical":
            return RepDescriptor.spherical(json_int(data.get("q", 2)), parse_complex(data["z"]))
        else:
            sign = {"−": "-"}.get(data["sign"], data["sign"])
            return RepDescriptor.special(json_int(data.get("q", 2)), sign)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDescriptor(f"malformed {tag} descriptor: {exc!r}") from None
    return RepDescriptor.cuspidal(shape, _resolve_row(shape, irrep, bound))


def _resolve_row(shape: Shape, irrep, bound: int) -> int:
    """Row index from an integer, or from a string of ASCII digits after an
    optional minus sign that int() converts; any other string is looked up
    as a character fingerprint as printed by the spectrum command.  A JSON
    boolean is neither."""
    if isinstance(irrep, bool):
        raise InvalidDescriptor(f"irrep must be a row index or a fingerprint, got {irrep!r}")
    if isinstance(irrep, int):
        return irrep
    digits = irrep.removeprefix("-") if isinstance(irrep, str) else ""
    if digits.isascii() and digits.isdigit():
        try:
            return int(irrep)
        except ValueError:  # more digits than int() converts
            pass
    table = character_table(shape_automorphism_group(shape, bound))
    row = analysis(shape, table).row_of_fingerprint.get(irrep) if isinstance(irrep, str) else None
    if row is None:
        raise InvalidDescriptor(f"no character row with fingerprint {irrep!r}")
    return row


def _json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise InvalidInput(f"{what} is not valid JSON: {exc}") from None


def _shape_arg(text: str) -> Shape:
    return Shape.from_json(_json_arg(text, "shape"))


def _require(ok: bool, message: str) -> None:
    """Reject an out-of-range argument."""
    if not ok:
        raise InvalidInput(message)


# -- subcommands ----------------------------------------------------------------


def cmd_classify(args, cfg: Config) -> int:
    data = _json_arg(args.descriptor, "descriptor")
    _require(args.n >= 1, f"cohomology degree -n must be >= 1, got {args.n}")
    desc = descriptor_from_json(data, cfg.group_order_bound)
    dim = classify_bounded_cohomology(desc, args.n, cfg.group_order_bound)
    emit({"descriptor": data, "n": args.n, "dim": dim}, "json")
    return 0


def cmd_spectrum(args, cfg: Config) -> int:
    shape = _shape_arg(args.shape)
    table = character_table(shape_automorphism_group(shape, cfg.group_order_bound))
    fingerprint = analysis(shape, table).fingerprint
    rows = [
        {"row": row, "degree": degree, "fingerprint": fingerprint(row), "h2_dim": h2}
        for row, degree, h2 in enumerate_nondegenerate(shape, cfg.group_order_bound)
    ]
    emit(
        {
            "shape": shape.to_json(),
            "group_order": table.group.order,
            "columns": ["row", "degree", "fingerprint", "h2_dim"],
            "rows": rows,
        },
        cfg.output_format,
    )
    return 0


def cmd_shapes_enumerate(args, cfg: Config) -> int:
    _require(args.q >= 2, f"--q must be >= 2, got {args.q}")
    shapes = enumerate_complete_shapes(args.q, args.max_diameter)
    rows = []
    for s in shapes:
        cls = classify_shape(s)
        rows.append(
            {
                "vertices": len(s.vertices),
                "diameter": s.diameter(),
                "class": cls.tag if cls.tag != "centipede" else f"centipede({cls.k})",
                "json": json.dumps(s.to_json(), separators=(",", ":")),
            }
        )
    emit(
        {
            "q": args.q,
            "max_diameter": args.max_diameter,
            "count": len(rows),
            "columns": ["vertices", "diameter", "class", "json"],
            "rows": rows,
        },
        cfg.output_format,
    )
    return 0


def cmd_chartab(args, cfg: Config) -> int:
    shape = _shape_arg(args.shape)
    table = character_table(shape_automorphism_group(shape, cfg.group_order_bound))
    emit(table.to_json(), "json")
    return 0


def cmd_flip_demo(args, cfg: Config) -> int:
    import numpy as np

    rng = np.random.default_rng(cfg.seed)
    q = args.q
    depth = args.depth or cfg.default_depth
    n = args.rays
    _require(n is None or 3 <= n <= MAX_RAYS, f"--rays must be in 3..{MAX_RAYS}, got {n}")
    if n:
        rays = random_rays(rng, q, n, depth)
        s = None
    else:
        rays, s = random_flip_instance(rng, q, depth)
    w = find_flip(q, rays, s, depth)
    fails = check_flip_witness(q, rays, s, w)
    emit(
        {
            "seed": cfg.seed,
            "q": q,
            "depth": depth,
            "rays": [list(r.word) for r in rays],
            "subtree": sorted(list(x) for x in s.image_words()) if s else None,
            "swapped": [w.i, w.j],
            "certified_depth": w.certified_depth,
            "isometry_domain_size": len(w.h.mapping),
            "checks_passed": not fails,
            "failures": fails,
        },
        "json",
    )
    return 0 if not fails else 1


def cmd_spherical_check(args, cfg: Config) -> int:
    q = args.q
    _require(q >= 2, f"--q must be >= 2, got {q}")
    z = parse_complex(args.z)
    depth = args.depth or 8
    # every power q^(z b) of phi_z (|b| <= depth), the Gram path (|b| <= 5) and
    # mu(z) stays below e^700, with room for the checks' sums in floats
    top = (abs(z.real) + 1) * max(depth, 5) * math.log(q)
    _require(top < 700, f"q^z overflows a float at q={q}, z={args.z}, depth {depth}")
    phi = phi_values(q, z, depth)
    rows = [
        {"d": d, "re_phi": float(phi[d].real), "im_phi": float(phi[d].imag)}
        for d in range(depth + 1)
    ]
    gram_vertices = [Vertex((0,) * d) for d in range(6)]
    emit(
        {
            "q": q,
            "z": format_complex(z),
            "mu": format_complex(mu_of_z(q, z)),
            "admissible": is_admissible(q, z),
            "eigen_residual": eigen_residual(q, z, depth),
            "gram_min_eigenvalue_path6": gram_psd_check(q, z, gram_vertices),
            "columns": ["d", "re_phi", "im_phi"],
            "rows": rows,
        },
        cfg.output_format,
    )
    return 0


def cmd_verify(args, cfg: Config) -> int:
    report = verify_mod.run_suite(args.suite, cfg)
    emit(report, "json")
    return 0 if report["passed"] else 1


# -- entry point -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise InvalidInput, so that main
    reports them as one JSON object instead of usage text on stderr; its
    subcommand parsers are of the same class."""

    def error(self, message):
        raise InvalidInput(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by
    every later main call in the process: parsing leaves no state on it."""
    p = _Parser(
        prog="arbocoh",
        description="bounded-cohomology dimensions for tree automorphism groups",
    )
    p.add_argument("--config", help="config JSON path (overrides ARBOCOH_CONFIG)")
    p.add_argument("--seed", type=int, help="seed for randomized suites")
    p.add_argument("--depth", type=int, help=f"default ray-prefix depth, 1..{MAX_DEPTH}")
    p.add_argument("--format", choices=["json", "csv"], help="output format")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="dimension of H^n_cb for a descriptor")
    c.add_argument("descriptor", help="descriptor JSON")
    c.add_argument("-n", type=int, required=True, help="cohomology degree")
    c.set_defaults(fn=cmd_classify)

    c = sub.add_parser("spectrum", help="non-degenerate irreducibles of a shape")
    c.add_argument("shape", help="shape JSON")
    c.set_defaults(fn=cmd_spectrum)

    c = sub.add_parser("shapes-enumerate", help="complete shapes up to a diameter")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--max-diameter", type=int, required=True)
    c.set_defaults(fn=cmd_shapes_enumerate)

    c = sub.add_parser("chartab", help="character table of a shape's automorphisms")
    c.add_argument("shape", help="shape JSON")
    c.set_defaults(fn=cmd_chartab)

    c = sub.add_parser("flip-demo", help="random branch-swap witness")
    c.add_argument("--q", type=int, default=2)
    c.add_argument("--rays", type=int, help="ray count (omit for a random subtree too)")
    c.set_defaults(fn=cmd_flip_demo)

    c = sub.add_parser("spherical-check", help="radial table and residuals")
    c.add_argument("--q", type=int, default=2)
    c.add_argument("--z", required=True, help='complex parameter, e.g. "0.5+0.7i"')
    c.set_defaults(fn=cmd_spherical_check)

    c = sub.add_parser("verify", help="run an invariant suite")
    c.add_argument("suite", help="geometry | flip | groups | reps | spherical | all")
    c.set_defaults(fn=cmd_verify)
    return p


def _config(args) -> Config:
    """The config file with the global flags applied over it."""
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.depth is not None:
        updates["default_depth"] = args.depth
    if args.format is not None:
        updates["output_format"] = args.format
    try:
        return dataclasses.replace(load_config(args.config), **updates)
    except (OSError, ValueError) as exc:
        raise InvalidInput(f"bad configuration: {exc}") from None


def main(argv=None) -> int:
    """Run one command.  Exit codes: 0 success, 1 a library error or a
    failed check, 2 bad input, 3 an unknown verify suite; every error is
    one JSON object {"error", "message"} on stdout, command-line errors
    included (exit 2); -h prints help and exits 0."""
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args, _config(args))
    except ArbocohError as exc:
        emit({"error": type(exc).__name__, "message": str(exc)}, "json")
        if isinstance(exc, UnknownSuite):
            return 3
        return 2 if isinstance(exc, InvalidInput) else 1


if __name__ == "__main__":
    sys.exit(main())
