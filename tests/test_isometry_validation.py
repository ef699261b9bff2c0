"""TreeIsometry validation: the incremental check accepts and rejects
exactly what the full check accepts and rejects, with the same error."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from arbocoh.tree import TreeIsometry
from arbocoh.verify import random_isometry_on, random_word


def _check_word(word, q):
    if not word or (min(word) >= 0 and word[0] <= q and max(word[1:], default=0) < q):
        return
    for i, lab in enumerate(word):
        hi = q if i == 0 else q - 1
        if not 0 <= lab <= hi:
            raise ValueError(f"label {lab} at position {i} out of range 0..{hi}")


def _adjacent(a, b):
    if len(a) < len(b):
        a, b = b, a
    return len(a) == len(b) + 1 and a[:-1] == b


def _full_validate(q, m):
    """The validation TreeIsometry ran before the incremental pass: labels,
    then injectivity, then adjacency and connectivity."""
    if not m:
        raise ValueError("empty isometry domain")
    for w, v in m.items():
        _check_word(w, q)
        _check_word(v, q)
    if len(set(m.values())) != len(m):
        raise ValueError("mapping is not injective")
    roots = 0
    for w in m:
        p = w[:-1]
        if w and p in m:
            if not _adjacent(m[w], m[p]):
                raise ValueError(
                    f"adjacency broken at {list(w)}: image not adjacent to parent image"
                )
        else:
            roots += 1
    if roots != 1:
        raise ValueError("domain is not a connected subtree")


def _outcome(fn):
    try:
        fn()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


FAULTS = (
    "none", "domain_label", "image_label", "not_injective", "adjacency",
    "disconnected", "empty", "random", "none_image",
)


def _bad_label(draw, word, q):
    """word with one label moved out of range (a fresh word when empty)."""
    if not word:
        return (draw(st.sampled_from([-1, q + 1])),)
    i = draw(st.integers(0, len(word) - 1))
    hi = q if i == 0 else q - 1
    lab = draw(st.sampled_from([-1, hi + 1, hi + 5]))
    return word[:i] + (lab,) + word[i + 1:]


@st.composite
def partial_maps(draw):
    q = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = [random_word(rng, q, draw(st.integers(0, 6))) for _ in range(draw(st.integers(1, 4)))]
    base = random_isometry_on(rng, q, words, move=draw(st.integers(0, 3)))
    items = list(base.mapping.items())
    fault = draw(st.sampled_from(FAULTS))
    n = len(items)
    if fault == "domain_label":
        i = draw(st.integers(0, n - 1))
        items[i] = (_bad_label(draw, items[i][0], q), items[i][1])
    elif fault == "image_label":
        i = draw(st.integers(0, n - 1))
        items[i] = (items[i][0], _bad_label(draw, items[i][1], q))
    elif fault == "not_injective" and n >= 2:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        items[j] = (items[j][0], items[i][1])
    elif fault == "adjacency" and n >= 2:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        items[i], items[j] = (items[i][0], items[j][1]), (items[j][0], items[i][1])
    elif fault == "disconnected":
        del items[draw(st.integers(0, n - 1))]
    elif fault == "empty":
        items = []
    elif fault == "none_image":
        i = draw(st.integers(0, n - 1))
        items[i] = (items[i][0], None)
    elif fault == "random":
        short = st.lists(st.integers(-1, q + 1), max_size=3).map(tuple)
        items = draw(st.lists(st.tuples(short, short), min_size=1, max_size=6))
    order = draw(st.permutations(range(len(items))))
    return q, dict(items[i] for i in order)


@settings(max_examples=400, deadline=None)
@given(partial_maps())
def test_incremental_validation_matches_full_checks(case):
    q, m = case
    assert _outcome(lambda: TreeIsometry(q, m)) == _outcome(lambda: _full_validate(q, m))


def test_each_fault_raises_its_error():
    q = 2
    good = {(): (), (0,): (0,), (0, 1): (0, 1), (1,): (1,)}
    TreeIsometry(q, good)
    cases = [
        ({}, "empty isometry domain"),
        ({**good, (0, 2): (0, 0)}, "label 2 at position 1 out of range 0..1"),
        ({**good, (0, 0): (0, 3)}, "label 3 at position 1 out of range 0..1"),
        ({**good, (0, 0): (1,)}, "mapping is not injective"),
        ({**good, (0, 0): (2, 1)}, "adjacency broken at [0, 0]: image not adjacent to parent image"),
        ({**good, (2, 0, 1): (2, 0, 1)}, "domain is not a connected subtree"),
    ]
    for m, message in cases:
        for mapping in (m, dict(reversed(m.items()))):
            got = _outcome(lambda: TreeIsometry(q, mapping))
            assert got == (ValueError, message)
            assert got == _outcome(lambda: _full_validate(q, mapping))
