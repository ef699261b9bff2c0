"""The benchmark's four workloads: inputs, operations and answer checks.

Every workload is a function ``(p, seed, pass_index)`` that first builds
its inputs (set-up), calls ``p.setup_done()`` and then runs its
operations through ``p.op(label, reference_key, call, answer, check)``:
``call`` runs the program, ``answer`` reduces its result to the form kept
in reference.json, and ``check`` compares the two.  The seed relabels every shape's vertex ids before
the shape reaches the program, so element and class orders inside the
program change while every answer stays the same; each pass of a run
draws its own relabelling from (seed, pass).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from functools import partial

from arbocoh import catalog, cli, shapes
from arbocoh.shapes import Shape
from arbocoh.tree import RayPrefix
from passes import ProgramError

# catalog-spectrum: catalog (q, max diameter) -> enumeration indices of the
# shapes run.  These are the shapes of diameter >= 2 with |Aut(S)| <= 120,
# plus q2d6#15 (|Aut(S)| = 64 with 25 classes); the larger ones are left
# out for run length (see NOTES.md).
SPECTRUM_SHAPES = {
    (2, 6): (2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 14, 15),
    (3, 4): (2, 3),
    (4, 3): (2,),
}

# large-group: the q=6 star, Aut = S_7 (order 5040, 15 classes).
LARGE_GROUP = ("star6", 6)

# shapes-catalog: every shape of these catalogs is classified; hit counts
# are taken for the listed shapes of diameter 2..4 on HIT_TRIPLES triples.
CLASSIFY_CATALOGS = ((2, 7), (3, 6), (4, 5))
HIT_SHAPES = {(2, 7): (2, 3, 4, 5), (3, 6): (2, 3, 4)}
HIT_TRIPLES = 2
HIT_RAY_DEPTH = 12

VERIFY_SUITES = ("geometry", "flip", "groups", "reps", "spherical")


# -- inputs ----------------------------------------------------------------


def pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def relabel(s: Shape, rng: random.Random) -> Shape:
    """The same tree under fresh random vertex ids."""
    ids = rng.sample(range(100 * len(s.vertices)), len(s.vertices))
    new = {v: f"x{i}" for v, i in zip(s.vertices, ids)}
    return Shape(s.q, [new[v] for v in s.vertices], [(new[a], new[b]) for a, b in s.edges])


def random_triple(rng: random.Random, q: int, depth: int = HIT_RAY_DEPTH):
    """Three ray prefixes that pairwise diverge before depth - 1."""
    while True:
        words = [
            (rng.randrange(q + 1),) + tuple(rng.randrange(q) for _ in range(depth - 1))
            for _ in range(3)
        ]
        heads = {w[: depth - 1] for w in words}
        if len(heads) == 3:
            return tuple(RayPrefix(w) for w in words)


def catalog_key(q: int, d: int, index: int) -> str:
    return f"q{q}d{d}#{index}"


def spectrum_shapes() -> dict:
    """catalog-spectrum's inputs before relabelling: key -> shape."""
    out = {}
    for (q, d), picks in SPECTRUM_SHAPES.items():
        every = catalog.enumerate_complete_shapes(q, d)
        out.update({catalog_key(q, d, i): every[i] for i in picks})
    return out


# -- calling the program -----------------------------------------------------


def run_cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    data = json.loads(buf.getvalue())
    if rc != 0 and "error" in data:
        raise ProgramError(data["error"], f"exit {rc}: {data['error']}: {data.get('message', '')}")
    return data


def spectrum_answer(data: dict) -> dict:
    return {
        "group_order": data["group_order"],
        "spectrum": sorted([r["degree"], r["h2_dim"]] for r in data["rows"]),
    }


def check_spectrum(answer: dict, expected: dict):
    if answer["group_order"] != expected["group_order"] or answer["spectrum"] != expected["spectrum"]:
        return f"spectrum {answer} != reference {expected}"
    if not expected["centipede"] and any(h2 > 0 for _deg, h2 in answer["spectrum"]):
        return "h2_dim > 0 on a shape that is not a centipede"
    return None


def catalog_digest(shape_list) -> str:
    text = json.dumps([s.to_json() for s in shape_list], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# -- workloads ---------------------------------------------------------------


def catalog_spectrum(p, seed: int, pass_index: int):
    rng = pass_rng("catalog-spectrum", seed, pass_index)
    inputs = [(key, relabel(s, rng)) for key, s in spectrum_shapes().items()]
    p.setup_done()
    for key, s in inputs:
        p.op(
            f"spectrum {key}",
            key,
            lambda s=s: run_cli(["spectrum", json.dumps(s.to_json())]),
            spectrum_answer,
            check_spectrum,
        )


def large_group(p, seed: int, pass_index: int):
    rng = pass_rng("large-group", seed, pass_index)
    key, q = LARGE_GROUP
    s = relabel(shapes.star_shape(q), rng)
    shape_json = s.to_json()
    p.setup_done()
    data = p.op(
        f"spectrum {key}",
        key,
        lambda: run_cli(["spectrum", json.dumps(shape_json)]),
        spectrum_answer,
        check_spectrum,
    )
    for row in data["rows"] if data else ():
        fingerprint = row["fingerprint"]
        desc = {"tag": "cuspidal", "shape": shape_json, "irrep": fingerprint}
        p.op(
            f"classify {key} {fingerprint}",
            f"classify {key} {fingerprint}",
            lambda desc=desc: run_cli(["classify", json.dumps(desc), "-n", "2"]),
            lambda out: out["dim"],
            partial(check_row_dim, h2=row["h2_dim"]),
        )


def check_row_dim(dim: int, expected: int, h2: int):
    """A classify row's dim must equal the reference and the h2_dim that
    spectrum printed for the same row in the same pass."""
    if dim != expected:
        return f"dim {dim} != reference {expected}"
    if dim != h2:
        return f"dim {dim} != h2_dim {h2} printed by spectrum for the row"
    return None


def shapes_catalog(p, seed: int, pass_index: int):
    rng = pass_rng("shapes-catalog", seed, pass_index)
    triples = {q: [random_triple(rng, q) for _ in range(HIT_TRIPLES)] for q, _d in HIT_SHAPES}
    p.setup_done()
    hit_inputs = []
    for q, d in CLASSIFY_CATALOGS:
        every = p.op(
            f"enumerate q{q}d{d}",
            f"enumerate q{q}d{d}",
            lambda q=q, d=d: catalog.enumerate_complete_shapes(q, d),
            lambda got: {"count": len(got), "digest": catalog_digest(got)},
        ) or []
        for i, s in enumerate(every):
            key = catalog_key(q, d, i)
            s = relabel(s, rng)
            p.op(
                f"classify_shape {key}",
                f"classify {key}",
                lambda s=s: shapes.classify_shape(s),
                _class_answer,
            )
            if i in HIT_SHAPES.get((q, d), ()):
                hit_inputs.append((key, s))
    for key, s in hit_inputs:
        for t, triple in enumerate(triples[s.q]):
            p.op(
                f"count_hitting {key} triple {t}",
                f"hits {key}",
                lambda s=s, triple=triple: shapes.count_hitting(s, *triple),
            )


def _class_answer(cls) -> list:
    return [cls.tag, cls.k, cls.n_heads, cls.diam]


def verify_suites(p, seed: int, pass_index: int):
    p.setup_done()
    for suite in VERIFY_SUITES:
        p.op(
            f"verify {suite}",
            f"verify {suite}",
            lambda suite=suite: run_cli(["--seed", str(seed), "verify", suite]),
            lambda report: report["passed"],
        )


RUNNERS = {
    "catalog-spectrum": catalog_spectrum,
    "large-group": large_group,
    "shapes-catalog": shapes_catalog,
    "verify-suites": verify_suites,
}
