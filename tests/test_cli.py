"""The batch CLI: subcommands, exit codes, and byte-deterministic output."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import arbocoh
from arbocoh import reptheory
from arbocoh.catalog import enumerate_complete_shapes
from arbocoh.chartab import character_table
from arbocoh.cli import main
from arbocoh.config import MAX_DEPTH, MAX_RAYS, MAX_SUBTREE_Q, Config
from arbocoh.perm import shape_automorphism_group
from arbocoh.reptheory import enumerate_nondegenerate
from arbocoh.shapes import centipede_shape, star_shape


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_classify_spherical(capsys):
    code, out = run(capsys, ["classify", '{"tag": "spherical", "z": "0.5", "q": 2}', "-n", "3"])
    assert code == 0
    assert json.loads(out)["dim"] == 0


def test_classify_special(capsys):
    code, out = run(capsys, ["classify", '{"tag": "special", "sign": "+", "q": 2}', "-n", "2"])
    assert code == 0
    assert json.loads(out)["dim"] == 0


def test_classify_cuspidal_centipede(capsys):
    s = centipede_shape(2, 4)
    hot = next(r for r, _d, h2 in enumerate_nondegenerate(s) if h2 == 1)
    desc = json.dumps({"tag": "cuspidal", "shape": s.to_json(), "irrep": hot})
    code, out = run(capsys, ["classify", desc, "-n", "2"])
    assert code == 0
    assert json.loads(out)["dim"] == 1
    code, out = run(capsys, ["classify", desc, "-n", "4"])
    assert json.loads(out)["dim"] == 0


def test_classify_by_fingerprint(capsys):
    s = centipede_shape(2, 4)
    _, out = run(capsys, ["spectrum", json.dumps(s.to_json())])
    rows = json.loads(out)["rows"]
    hot = next(r for r in rows if r["h2_dim"] == 1)
    desc = json.dumps({"tag": "cuspidal", "shape": s.to_json(), "irrep": hot["fingerprint"]})
    code, out = run(capsys, ["classify", desc, "-n", "2"])
    assert code == 0
    assert json.loads(out)["dim"] == 1
    bad = json.dumps({"tag": "cuspidal", "shape": s.to_json(), "irrep": "deg9[nope]"})
    code, out = run(capsys, ["classify", bad, "-n", "2"])
    assert code == 2


def test_classify_invalid_descriptor_exit_2(capsys):
    code, out = run(capsys, ["classify", '{"tag": "spherical", "z": "2.0", "q": 2}', "-n", "2"])
    assert code == 2
    assert json.loads(out)["error"] == "InvalidDescriptor"


def test_spectrum_star(capsys):
    code, out = run(capsys, ["spectrum", json.dumps(star_shape(2).to_json())])
    assert code == 0
    data = json.loads(out)
    assert data["group_order"] == 6
    assert len(data["rows"]) == 1
    assert data["rows"][0]["degree"] == 1
    assert data["rows"][0]["h2_dim"] == 1


def test_spectrum_cent4_rows(capsys):
    code, out = run(capsys, ["spectrum", json.dumps(centipede_shape(2, 4).to_json())])
    data = json.loads(out)
    assert len(data["rows"]) == 2
    assert sorted(r["h2_dim"] for r in data["rows"]) == [0, 1]


def test_spectrum_csv_format(capsys):
    code, out = run(
        capsys, ["--format", "csv", "spectrum", json.dumps(star_shape(2).to_json())]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "row,degree,fingerprint,h2_dim"
    assert len(lines) == 2


def test_output_byte_deterministic(capsys):
    argv = ["spectrum", json.dumps(centipede_shape(2, 4).to_json())]
    _, out1 = run(capsys, argv)
    _, out2 = run(capsys, argv)
    assert out1 == out2
    argv = ["--seed", "1", "verify", "groups"]
    _, out1 = run(capsys, argv)
    _, out2 = run(capsys, argv)
    assert out1 == out2


def test_shapes_enumerate(capsys):
    code, out = run(capsys, ["shapes-enumerate", "--q", "2", "--max-diameter", "3"])
    assert code == 0
    data = json.loads(out)
    # vertex, edge, star, 3-centipede
    assert data["count"] == 4
    classes = [r["class"] for r in data["rows"]]
    assert classes == ["vertex", "edge", "centipede(2)", "centipede(3)"]


def test_chartab_command(capsys):
    code, out = run(capsys, ["chartab", json.dumps(star_shape(2).to_json())])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 6
    assert sorted(data["degrees"]) == [1, 1, 2]
    assert len(data["classes"]) == 3
    # the integer proof is the one check: no float residual beside it
    assert set(data) == {"order", "degrees", "classes", "characters"}
    assert all(type(v) is int for row in data["characters"] for v in row)


def test_flip_demo(capsys):
    code, out = run(capsys, ["--seed", "4", "flip-demo", "--q", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["checks_passed"]
    assert data["seed"] == 4
    assert len(data["swapped"]) == 2


def test_spherical_check_csv(capsys):
    code, out = run(
        capsys, ["--format", "csv", "spherical-check", "--q", "2", "--z", "0.5+0.7i"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,re_phi,im_phi"
    assert len(lines) == 10  # d = 0..8


def test_verify_geometry(capsys):
    code, out = run(capsys, ["verify", "geometry"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"]
    assert data["seed"] == 0


def test_verify_unknown_suite_exit_3(capsys):
    code, out = run(capsys, ["verify", "nonsense"])
    assert code == 3
    assert json.loads(out)["error"] == "UnknownSuite"


def test_config_file_and_env(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "output_format": "json"}))
    monkeypatch.setenv("ARBOCOH_CONFIG", str(cfg))
    code, out = run(capsys, ["verify", "groups"])
    assert code == 0
    assert json.loads(out)["seed"] == 9
    # explicit flag beats the config file
    code, out = run(capsys, ["--seed", "2", "verify", "groups"])
    assert json.loads(out)["seed"] == 2


def test_depth_maximum():
    assert Config(default_depth=MAX_DEPTH).default_depth == MAX_DEPTH
    with pytest.raises(ValueError, match="exceeds the maximum"):
        Config(default_depth=MAX_DEPTH + 1)


def test_config_tolerances_block_is_rejected(tmp_path, capsys):
    """The tolerances are constants of the verify suites; a config file
    that sets them is rejected like any unknown field."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "tolerances": {"psd": 1e-9}}))
    code, out = run(capsys, ["--config", str(cfg), "verify", "groups"])
    assert code == 2
    data = json.loads(out)
    assert data["error"] == "InvalidInput" and "tolerances" in data["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["flip-demo", "--q", "1"],
        ["--depth", "2", "flip-demo", "--rays", "7"],
        ["flip-demo", "--rays", "500"],
    ],
    ids=["q1", "more-rays-than-prefixes", "improbable-distinct-batch"],
)
def test_flip_demo_impossible_rays_exit_1(argv):
    """Rays that cannot be drawn end in a JSON error, not a hang."""
    src = os.path.dirname(os.path.dirname(arbocoh.__file__))
    env = {k: v for k, v in os.environ.items() if k != "ARBOCOH_CONFIG"}
    env["PYTHONPATH"] = src
    out = subprocess.run(
        [sys.executable, "-m", "arbocoh.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 1
    assert json.loads(out.stdout)["error"] == "TooManyRays"
    assert "Traceback" not in out.stderr


SPECIAL = '{"tag": "special", "sign": "+", "q": 2}'
EDGE = '"vertices": ["a", "b"], "edges": [["a", "b"]]'
STAR = json.dumps(star_shape(2).to_json())
# irrep strings that str.isdigit accepts after stripping minus signs but
# int() refuses: each is looked up as a fingerprint, and none is one
ROW_TEXTS_NOT_INT = ("\u00b2", "1\u00b2", "--1", "1" * 5000)
# config files by placeholder: JSON booleans are not integers, and a
# nesting too deep to decode is not a config
CONFIGS = {
    "{empty}": "",
    "{bound-true}": '{"group_order_bound": true}',
    "{seed-false}": '{"seed": false}',
    "{depth-true}": '{"default_depth": true}',
    "{nested}": "[" * 3000 + "]" * 3000,
}


@pytest.mark.parametrize(
    "argv",
    [
        ["--config", "{empty}", "verify", "groups"],
        ["--config", "{missing}", "verify", "groups"],
        ["classify", "{bad", "-n", "2"],
        ["classify", SPECIAL, "-n", "0"],
        ["spectrum", '{"q":2}'],
        ["chartab", "[1]"],
        ["spherical-check", "--z", "abc"],
        ["spherical-check", "--q", "1", "--z", "0.5"],
        ["shapes-enumerate", "--q", "1", "--max-diameter", "3"],
        ["--depth", "0", "flip-demo"],
        ["flip-demo", "--rays", "2"],
        ["spectrum", '{"q": 1e400, %s}' % EDGE],
        ["chartab", '{"q": 1e400, %s}' % EDGE],
        ["classify", '{"tag": "cuspidal", "shape": {"q": 1e400, %s}, "irrep": 0}' % EDGE, "-n", "2"],
        ["classify", '{"tag": "spherical", "z": "0.5", "q": 1e400}', "-n", "2"],
        ["classify", '{"tag": "special", "sign": "+", "q": 1e400}', "-n", "2"],
        ["spectrum", '{"q": 2.5, %s}' % EDGE],
        ["classify", '{"tag": "special", "sign": "+", "q": 2.5}', "-n", "2"],
        ["spherical-check", "--z", "1e400"],
        ["--depth", str(MAX_DEPTH + 1), "flip-demo"],
        ["spherical-check", "--q", "2", "--z", "300"],
        ["flip-demo", "--q", "5", "--rays", str(MAX_RAYS + 1)],
        ["flip-demo", "--q", str(2**63), "--rays", "3"],
        ["flip-demo", "--q", str(MAX_SUBTREE_Q + 1)],
        ["verify"],
        ["spectrum", "-:"],
        ["no-such-command"],
        ["--seed", "x", "verify", "groups"],
        ["classify", '{"tag": "cuspidal", "shape": %s, "irrep": true}' % STAR, "-n", "2"],
        ["classify", '{"tag": "cuspidal", "shape": %s, "irrep": false}' % STAR, "-n", "2"],
        ["--config", "{bound-true}", "spectrum", STAR],
        ["--config", "{seed-false}", "spectrum", STAR],
        ["--config", "{depth-true}", "spectrum", STAR],
        ["--config", "{nested}", "verify", "groups"],
        *(
            ["classify", '{"tag": "cuspidal", "shape": %s, "irrep": %s}' % (STAR, json.dumps(irrep)), "-n", "2"]
            for irrep in ROW_TEXTS_NOT_INT
        ),
    ],
    ids=[
        "empty-config", "missing-config", "bad-descriptor-json", "degree-0",
        "shape-without-vertices", "shape-not-an-object", "z-not-complex",
        "spherical-q1", "enumerate-q1", "depth-0", "two-rays",
        "spectrum-q-overflow", "chartab-q-overflow", "cuspidal-q-overflow",
        "spherical-q-overflow", "special-q-overflow", "shape-q-fraction",
        "special-q-fraction", "z-overflow", "depth-over-max",
        "phi-overflow", "rays-over-max", "flip-q-over-int64", "subtree-q-over-max",
        "verify-without-suite", "shape-read-as-flag", "unknown-command", "seed-not-int",
        "irrep-true", "irrep-false", "config-bound-true", "config-seed-false",
        "config-depth-true", "config-nested-too-deep",
        "irrep-superscript-two", "irrep-digit-superscript-two", "irrep-double-minus",
        "irrep-5000-digits",
    ],
)
def test_input_errors_exit_2(argv, tmp_path):
    """Bad outside input ends in exit code 2 and a JSON error, never a
    traceback."""
    paths = {"{missing}": str(tmp_path / "missing.json")}
    for i, (key, text) in enumerate(CONFIGS.items()):
        paths[key] = str(tmp_path / f"config{i}.json")
        (tmp_path / f"config{i}.json").write_text(text)
    argv = [paths.get(a, a) for a in argv]
    src = os.path.dirname(os.path.dirname(arbocoh.__file__))
    env = {k: v for k, v in os.environ.items() if k != "ARBOCOH_CONFIG"}
    env["PYTHONPATH"] = src
    out = subprocess.run(
        [sys.executable, "-m", "arbocoh.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert json.loads(out.stdout)["error"] in ("InvalidInput", "InvalidDescriptor")
    assert "Traceback" not in out.stderr


def test_help_exits_0(capsys):
    # -h is the one command line that prints usage text and no JSON
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: arbocoh")


PINNED_REPORTS = [
    (
        ["--seed", "2", "verify", "geometry"],
        "a1846956af7d16591f343e60c850c9f7d80f7e4400587d45a105ce0384068837",
    ),
    (
        ["--seed", "2", "verify", "flip"],
        "3003f0a0df3cdfe0fcae04a431182e0af3f87a00712cbbf3a8ca63520f6d2e3d",
    ),
    (
        ["--seed", "7", "flip-demo", "--q", "3"],
        "c88c1db458ed7b6427141f69a2df89e98601b0df7c2ad140b4668fd4330ec578",
    ),
    (
        ["--seed", "2", "verify", "groups"],
        "b8a6ddec1300e2295627100eb4293987bc01d9876c269be60a6ecda87fc73752",
    ),
    (
        ["--seed", "2", "verify", "reps"],
        "93ab4ba2f3bde382bf136ef39f7a0bfd9170e0f7acf9a0276bb81f249daec344",
    ),
    (
        ["chartab", json.dumps(star_shape(3).to_json())],
        "61134347d061b8152f4fee40cbb844cc8057ca0bead7823b52e80d24011afb36",
    ),
    (
        ["chartab", json.dumps(centipede_shape(2, 4).to_json())],
        "b700c5430dcba0f1a8075b1777135721aa3cbfb44ae0bbd68926b7e57af29831",
    ),
    (
        ["spectrum", json.dumps(star_shape(6).to_json())],
        "e9a1a7beb567c2cd31b41843d30a5ee2097fd6d579416339730c801aa566e965",
    ),
    (
        ["spectrum", json.dumps(centipede_shape(4, 3).to_json())],
        "4c39628fe9552509e3de7918b20433f247b00eed61ff868a418ca9a5d8a772a6",
    ),
    (
        ["--seed", "1", "verify", "flip"],
        "2f202a8c5d7a83f9c269bbd028d8cc0b3f3fc18cc03b13d25eed30aaa3f08dcb",
    ),
    (
        ["--seed", "1", "verify", "geometry"],
        "9ef98ceb29e49180bbc1b1b2a86378ecffea54d0126b0967bde96a1f1ce7f5b5",
    ),
    (
        ["--seed", "2", "verify", "spherical"],
        "b11a376dc00bcc71fecff24be48bcaa198278d85e114a7f818843930bcdfb4cf",
    ),
    (
        ["--seed", "1", "verify", "reps"],
        "df9444077ad92a7386bb46ec06e34408ac6de5bd0c0129ec54dee3eb1d408dca",
    ),
    (
        ["--seed", "0", "verify", "flip"],
        "575ceac77e5aaa13d13858614cbf6501d1a3d18d890c2cf5429669abd902c848",
    ),
    (
        ["--seed", "3", "verify", "geometry"],
        "5d3204219069b4bb89240ce7a59ac20c027c648256b4a73dba9e84816266dc98",
    ),
    (
        ["--seed", "1", "verify", "spherical"],
        "e8886b2d19aae5d39c925cb9b2f85e0d4fb9c28ac47380933dc6f80acdf090be",
    ),
    (
        ["--depth", "3", "flip-demo", "--q", "2", "--rays", "3"],
        "01d9d649d9e07ba381f0234733203c3a3c62957b78dac161695ee638cdcef6e6",
    ),
]


@pytest.mark.parametrize("argv, digest", PINNED_REPORTS)
def test_pinned_reports(capsys, argv, digest):
    # sha256 of stdout: the first three computed before BFS-coded
    # isometries, the closed-form Gromov product and kept branch-swap walk
    # states; the next six before the element-object view of groups and
    # character tables was dropped; the next four (the benchmark's own
    # seeds) before the verify suites cached their invariant work, the
    # seed-1 reps report again once its witness check ran to its end; the
    # last four before flip products came from one lcp table, fixed words
    # skipped the branch-swap walk and drawn isometries kept their codes.
    # The two chartab digests were taken again when the table JSON wrote
    # its int64 characters as integers instead of [re, im] float pairs, and
    # the two spherical ones when the intertwiner came in closed form, which
    # changed the float residuals of intertwiner_identity and pi_z_unitary.
    # The two chartab digests and the two reps ones (seeds 1 and 2) were
    # taken again when the float orthogonality residuals, all 0.0, left the
    # table JSON and character_tables_orthogonal, which now reports the
    # number of tables the integer proof certified and the shapes it refused.
    # The two reps and the two spherical digests were taken again when the
    # test-only acceptance criteria moved into verify: reps gained the
    # dihedral_example, diameter_two_spectrum and hit_counts_constant checks,
    # and intertwiner_identity checks depths 1 to 4 and reports them.  The
    # seed-2 groups digest was taken again when the groups suite gained
    # conjugacy_classes_match_brute_force
    code, out = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_one_parser_serves_every_call(capsys):
    """main reuses one parser per process: each pinned report, asked for
    twice with failing command lines before each, comes out byte for byte
    as the first time."""
    failing = [["spectrum", "-:"], ["verify"]]
    first = {}
    for _ in range(2):
        for argv, digest in PINNED_REPORTS:
            for bad in failing:
                code, out = run(capsys, bad)
                assert code == 2 and json.loads(out)["error"] == "InvalidInput"
            code, out = run(capsys, argv)
            assert code == 0
            assert first.setdefault(tuple(argv), out) == out
            assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_parser_built_once_on_first_call():
    """Importing the CLI builds no parser; the first main call builds the
    one parser that every later call uses."""
    src = os.path.dirname(os.path.dirname(arbocoh.__file__))
    env = {k: v for k, v in os.environ.items() if k != "ARBOCOH_CONFIG"}
    env["PYTHONPATH"] = src
    script = (
        "import contextlib, io\n"
        "from arbocoh import cli\n"
        "assert cli.build_parser.cache_info().misses == 0\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['spherical-check', '--z', '0.5']) for _ in range(4)]\n"
        "    codes.append(cli.main(['verify']))\n"
        "assert codes == [0, 0, 0, 0, 2], codes\n"
        "assert cli.build_parser.cache_info().misses == 1, cli.build_parser.cache_info()\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr


def _fingerprint_of(degree, values) -> str:
    # the fingerprint the spectrum command prints, as documented there
    return f"deg{degree}[{','.join(map(str, values))}]"


@pytest.mark.parametrize("shape", [star_shape(6), centipede_shape(3, 3)], ids=["star6", "cent3_3"])
def test_classify_by_fingerprint_matches_row_index(capsys, shape):
    """Every character row, named by its fingerprint, classifies as the
    row index does, degenerate rows (exit 2) included."""
    shape_json = shape.to_json()
    _, out = run(capsys, ["chartab", json.dumps(shape_json)])
    table = json.loads(out)
    assert len(table["degrees"]) == len(table["characters"]) >= 5
    fingerprints = [_fingerprint_of(d, c) for d, c in zip(table["degrees"], table["characters"])]
    assert len(set(fingerprints)) == len(fingerprints)

    def classify(irrep):
        desc = json.dumps({"tag": "cuspidal", "shape": shape_json, "irrep": irrep})
        code, out = run(capsys, ["classify", desc, "-n", "2"])
        data = json.loads(out)
        return code, data.get("dim"), data.get("error")

    results = [classify(row) for row in range(len(fingerprints))]
    assert {code for code, _dim, _err in results} == {0, 2}
    assert [classify(fp) for fp in fingerprints] == results


def test_fingerprint_map_built_once_per_table(capsys, monkeypatch):
    """spectrum formats only the rows it prints; the first classify by
    fingerprint maps every row of the table once, and the later classify
    calls of that table reuse the map and the spectrum's analysis."""
    formatted = []
    real = reptheory.Analysis.fingerprint

    def counting(self, row):
        formatted.append(row)
        return real(self, row)

    monkeypatch.setattr(reptheory.Analysis, "fingerprint", counting)
    reptheory.analysis.cache_clear()
    s = star_shape(6)
    code, out = run(capsys, ["spectrum", json.dumps(s.to_json())])
    rows = json.loads(out)["rows"]
    assert code == 0 and formatted == [r["row"] for r in rows]
    for r in rows:
        desc = json.dumps({"tag": "cuspidal", "shape": s.to_json(), "irrep": r["fingerprint"]})
        code, out = run(capsys, ["classify", desc, "-n", "2"])
        assert code == 0 and json.loads(out)["dim"] == r["h2_dim"]
    n_rows = character_table(shape_automorphism_group(s)).n_rows
    assert len(rows) > 1 and len(formatted) == len(rows) + n_rows
    assert reptheory.analysis.cache_info().misses == 1


def test_oversized_catalog_fails_fast(capsys):
    """The q=2 catalog to diameter 12 would grow trees for hours: the
    enumeration stops at its work budget with a JSON error and exit 1."""
    start = time.perf_counter()
    code, out = run(capsys, ["shapes-enumerate", "--q", "2", "--max-diameter", "12"])
    assert code == 1
    assert json.loads(out)["error"] == "CatalogTooLarge"
    assert time.perf_counter() - start < 20


def test_huge_diameter_fails_fast(capsys):
    """The size bound of the internal trees is capped at the growth budget,
    so a diameter of 10^18 is refused as fast as 12, where multiplying out
    the bound level by level never returned."""
    start = time.perf_counter()
    code, out = run(capsys, ["shapes-enumerate", "--q", "2", "--max-diameter", str(10**18)])
    assert code == 1
    assert json.loads(out)["error"] == "CatalogTooLarge"
    assert time.perf_counter() - start < 20


def test_catalog_budget_covers_the_largest_catalog():
    # q=2 to diameter 9 grows about 21,000 trees, within the budget
    assert len(enumerate_complete_shapes(2, 9)) == 1839


def test_module_entry_point():
    """`python -m arbocoh` runs the same command line as the script."""
    src = os.path.dirname(os.path.dirname(arbocoh.__file__))
    env = {k: v for k, v in os.environ.items() if k != "ARBOCOH_CONFIG"}
    env["PYTHONPATH"] = src
    out = subprocess.run(
        [sys.executable, "-m", "arbocoh", "--seed", "2", "verify", "groups"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["suite"] == "groups"
