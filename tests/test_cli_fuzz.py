"""A small fuzz run of the CLI: malformed and oversized JSON and numbers
for spectrum, chartab, classify, shapes-enumerate, spherical-check and
flip-demo, texts argparse reads as flags, config files, and verify suite
names.  Every run must exit 0 to 3, print one JSON object (an {"error",
"message"} object when it fails) and raise nothing."""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arbocoh import catalog, cli, verify
from arbocoh.config import MAX_DEPTH
from arbocoh.shapes import star_shape

# JSON number texts, with those that used to end in a traceback (1e400)
# or be truncated (2.5) first
NUMBERS = st.one_of(
    st.sampled_from(
        ["1e400", "-1e400", "2.5", "2.0", "NaN", "Infinity", "1" * 5000,
         "true", "null", '"3"', '"x"', "[]", "2", "3"]
    ),
    st.integers(-10, 10**30).map(str),
    st.floats().map(json.dumps),
)
JUNK = st.one_of(
    st.text(max_size=30),
    st.sampled_from(["[" * 3000 + "]" * 3000, '{"q": 2', "[]", "null", "1e400", "{}"]),
)


@st.composite
def shape_texts(draw):
    """Shape JSON with up to 8 vertices: a tree or any edge list, any
    number text for q, and sometimes a field left out."""
    n = draw(st.integers(0, 8))
    ids = [f"v{i}" for i in range(n)]
    if n and draw(st.booleans()):  # a tree: each vertex hung on an earlier one
        edges = [[ids[draw(st.integers(0, i - 1))], ids[i]] for i in range(1, n)]
    else:
        names = st.sampled_from(ids + ["w"])
        edges = draw(st.lists(st.lists(names, max_size=3), max_size=n + 1))
    fields = {"q": draw(NUMBERS), "vertices": json.dumps(ids), "edges": json.dumps(edges)}
    drop = draw(st.sampled_from([None, None, "q", "vertices", "edges"]))
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items() if k != drop) + "}"


# complex parameter texts: overflowing, not a number, and a + bi forms
Z_TEXTS = st.one_of(
    st.sampled_from(["1e400", "nan", "inf", "abc", "", "300", "-300", "120", "0.5+0.7i", "0.3+4.53i"]),
    st.tuples(st.floats(-1000, 1000), st.floats(-1000, 1000)).map(lambda c: f"{c[0]}{c[1]:+}i"),
)
# a branching parameter: small, or up to far past int64 and the float range
Q_TEXTS = st.one_of(st.integers(-3, 12), st.integers(-3, 10**400)).map(str)


def optional_flag(name, values):
    """[] or ["--name=value"]."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


@st.composite
def argvs(draw):
    shape = draw(st.one_of(shape_texts(), JUNK))
    command = draw(st.sampled_from(
        ["spectrum", "chartab", "classify", "shapes-enumerate", "spherical-check", "flip-demo"]
    ))
    if command in ("spherical-check", "flip-demo"):
        # "--flag=value", so that argparse reads "-0.5+1i" as a value
        args = [*draw(optional_flag("depth", st.integers(-2, MAX_DEPTH + 2))), command]
        args.append(f"--q={draw(Q_TEXTS)}")
        if command == "spherical-check":
            return [*args, f"--z={draw(Z_TEXTS)}"]
        return [*args, *draw(optional_flag("rays", st.integers(-2, 10**6)))]
    if command in ("spectrum", "chartab"):
        return [command, shape]
    if command == "shapes-enumerate":
        q = draw(st.one_of(st.integers(-5, 12), st.integers(-5, 10**12)))
        d = draw(st.integers(-3, 30))
        return [command, "--q", str(q), "--max-diameter", str(d)]
    z = draw(st.sampled_from(['"1e400"', '"nan"', '"0.5+0.7i"', '"abc"', "0.5", "null"]))
    sign = draw(st.sampled_from(['"+"', '"-"', '"x"', "1"]))
    irrep = draw(st.one_of(NUMBERS, st.just('"deg1[1]"')))
    descriptor = draw(st.sampled_from([
        '{"tag": "cuspidal", "shape": %s, "irrep": %s}' % (shape, irrep),
        '{"tag": "spherical", "z": %s, "q": %s}' % (z, draw(NUMBERS)),
        '{"tag": "special", "sign": %s, "q": %s}' % (sign, draw(NUMBERS)),
        shape,
    ]))
    return [command, descriptor, "-n", str(draw(st.integers(-1, 4)))]


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    """A group-order bound of 720, so no drawn shape needs a large table."""
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps({"group_order_bound": 720}))
    return str(path)


EDGE = '"vertices": ["a", "b"], "edges": [["a", "b"]]'
STAR = json.dumps(star_shape(2).to_json())


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
@example(argv=["spectrum", '{"q": 1e400, %s}' % EDGE])
@example(argv=["chartab", '{"q": 1e400, %s}' % EDGE])
@example(argv=["spectrum", '{"q": 2.5, %s}' % EDGE])
@example(argv=["classify", '{"tag": "cuspidal", "shape": {"q": 1e400, %s}, "irrep": 0}' % EDGE, "-n", "2"])
@example(argv=["classify", '{"tag": "spherical", "z": "0.5", "q": 1e400}', "-n", "2"])
@example(argv=["classify", '{"tag": "special", "sign": "+", "q": 2.5}', "-n", "2"])
@example(argv=["spherical-check", "--z", "1e400"])
@example(argv=["--depth", "100000", "flip-demo"])
@example(argv=["shapes-enumerate", "--q", "1000000000000", "--max-diameter", "3"])
@example(argv=["shapes-enumerate", "--q", "2", "--max-diameter", "1000000000000000000"])
@example(argv=["spherical-check", "--q", "2", "--z", "300"])
@example(argv=["flip-demo", "--q", "5", "--rays", "51"])
@example(argv=["spectrum", "-:"])
@example(argv=["classify", '{"tag": "cuspidal", "shape": %s, "irrep": "\u00b2"}' % STAR, "-n", "2"])
@example(argv=["classify", '{"tag": "cuspidal", "shape": %s, "irrep": "1\u00b2"}' % STAR, "-n", "2"])
@example(argv=["classify", '{"tag": "cuspidal", "shape": %s, "irrep": "--1"}' % STAR, "-n", "2"])
@example(argv=["classify", '{"tag": "cuspidal", "shape": %s, "irrep": "%s"}' % (STAR, "1" * 5000), "-n", "2"])
def test_cli_fuzz(config, argv):
    """The work budgets of the catalog and of flip-demo are lowered, so
    that an input past them fails in milliseconds; test_cli checks the
    budgets themselves."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(catalog, "GROWTH_BUDGET", 500), \
            mock.patch.object(catalog, "VERTEX_BUDGET", 5000), \
            mock.patch.object(cli, "MAX_RAYS", 50), \
            mock.patch.object(verify, "MAX_SUBTREE_Q", 12):
        code = cli.main(["--config", config, *argv])
    assert code in (0, 1, 2, 3)
    data = json.loads(out.getvalue())
    assert isinstance(data, dict)
    if code:
        assert set(data) == {"error", "message"}
    assert "Traceback" not in err.getvalue()


def run_main(argv) -> tuple:
    """(exit code, the one JSON object printed), with nothing on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert err.getvalue() == ""
    data = json.loads(out.getvalue())
    assert isinstance(data, dict)
    return code, data


# texts that are no suite name, none read as a flag; an unknown suite is
# refused before any suite runs
SUITE_NAMES = st.one_of(JUNK, NUMBERS).filter(
    lambda s: s not in verify.SUITES and s != "all" and not s.startswith("-")
)


@settings(max_examples=100, deadline=None)
@given(suite=SUITE_NAMES)
@example(suite="")
@example(suite="ALL")
@example(suite="geometry ")
def test_verify_fuzz(config, suite):
    code, data = run_main(["--config", config, "verify", suite])
    assert code == 3
    assert data == {"error": "UnknownSuite", "message": f"no suite named {suite!r}"}


CONFIG_FIELDS = ("default_depth", "group_order_bound", "output_format", "seed")


@st.composite
def config_texts(draw):
    """A config file: each of the four fields left out or set to a number
    or junk text, sometimes with an unknown key; or no object at all."""
    values = st.one_of(NUMBERS, JUNK, st.sampled_from(['"json"', '"csv"']))
    fields = {k: draw(values) for k in CONFIG_FIELDS if draw(st.booleans())}
    if draw(st.booleans()):
        fields[draw(st.sampled_from(["tolerances", "depth", "x"]))] = draw(NUMBERS)
    text = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
    return draw(st.one_of(st.just(text), st.just(text), JUNK, NUMBERS))


@settings(max_examples=150, deadline=None)
@given(text=config_texts())
@example(text='{"group_order_bound": true}')
@example(text='{"seed": false}')
@example(text='{"default_depth": 1e400}')
@example(text="[" * 3000 + "]" * 3000)
@example(text="[]")
def test_config_fuzz(config, text):
    """A config file is read before the command runs: a bad one exits 2,
    and a good one reaches the unknown suite, which exits 3."""
    path = os.path.join(os.path.dirname(config), "drawn.json")
    with open(path, "w") as fh:
        fh.write(text)
    code, data = run_main(["--config", path, "verify", "no-such-suite"])
    assert (code, data["error"]) in ((2, "InvalidInput"), (3, "UnknownSuite"))
    assert set(data) == {"error", "message"}
