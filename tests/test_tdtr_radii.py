"""TD-TR's radii come from the selection's own span walks.

Contract: on any columns and any tolerance, ``td_tr_columns`` returns
exactly the kept indexes, and the radii float for float (compared as
``float.hex``), of the two-pass reference below: the selection, then a
second walk over every kept span for its worst SED.  Each radius is the
error the selection measured on the span it kept, with the same
``_worst_sed`` call, so the second walk adds nothing.  ``_worst_sed``
itself, whose zero-span branch sits outside its loop, gives the same
``(index, error)`` as the per-point branch it replaced.

No numpy: TD-TR is pure Python.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Trajectory, td_tr
from repro.compression.tdtr import _worst_sed, td_tr_columns

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# Many steps are zero, and some go back in time, so spans of no time
# (the hoisted branch) occur; the reference treats them alike.
steps = st.one_of(
    st.sampled_from((0.0, 0.0, 0.0, -0.5, 1.0, 3.25)),
    st.floats(min_value=1e-3, max_value=50.0),
)
tolerances = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
)


@st.composite
def columns(draw, strictly_increasing=False):
    n = draw(st.integers(min_value=2, max_value=60))
    step = st.floats(min_value=1e-3, max_value=50.0) if strictly_increasing else steps
    t = [draw(st.floats(min_value=-1e3, max_value=1e3))]
    for _ in range(n - 1):
        t.append(t[-1] + draw(step))
    x = [draw(coords) for _ in range(n)]
    y = [draw(coords) for _ in range(n)]
    return t, x, y


def reference_worst_sed(t, x, y, a, b):
    """``_worst_sed`` with the zero-span test inside the loop, as it
    was written before the branch was hoisted."""
    ta, xa, ya = t[a], x[a], y[a]
    span = t[b] - ta
    dx = x[b] - xa
    dy = y[b] - ya
    worst_i = -1
    worst_err = -1.0
    for i in range(a + 1, b):
        frac = 0.0 if span <= 0.0 else (t[i] - ta) / span
        err = math.hypot(x[i] - (xa + frac * dx), y[i] - (ya + frac * dy))
        if err > worst_err:
            worst_err = err
            worst_i = i
    return worst_i, worst_err


def two_pass(t, x, y, tolerance):
    """The reference: select, then walk every kept span again."""
    keep = {0, len(t) - 1}
    stack = [(0, len(t) - 1)]
    while stack:
        a, b = stack.pop()
        worst_i, worst_err = reference_worst_sed(t, x, y, a, b)
        if worst_err > tolerance:
            keep.add(worst_i)
            stack.append((a, worst_i))
            stack.append((worst_i, b))
    kept = sorted(keep)
    radii = [
        max(_worst_sed(t, x, y, a, b)[1], 0.0) for a, b in zip(kept, kept[1:])
    ]
    return kept, radii


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


@given(columns(), tolerances)
@settings(max_examples=300, deadline=None)
def test_radii_are_the_two_pass_reference(cols, tolerance):
    t, x, y = cols
    want_kept, want_radii = two_pass(t, x, y, tolerance)
    kept, radii = td_tr_columns(t, x, y, tolerance)
    assert kept == want_kept
    assert hexes(radii) == hexes(want_radii)


@given(columns(), st.data())
@settings(max_examples=200, deadline=None)
def test_hoisted_zero_span_branch_changes_no_bit(cols, data):
    t, x, y = cols
    a = data.draw(st.integers(min_value=0, max_value=len(t) - 1))
    b = data.draw(st.integers(min_value=a, max_value=len(t) - 1))
    i, err = _worst_sed(t, x, y, a, b)
    want_i, want_err = reference_worst_sed(t, x, y, a, b)
    assert (i, err.hex()) == (want_i, want_err.hex())


@given(columns(strictly_increasing=True), tolerances)
@settings(max_examples=100, deadline=None)
def test_td_tr_keeps_the_samples_td_tr_columns_keeps(cols, tolerance):
    t, x, y = cols
    trajectory = Trajectory(0, list(zip(x, y, t)))
    kept, _radii = td_tr_columns(t, x, y, tolerance)
    assert list(td_tr(trajectory, tolerance)) == [trajectory[i] for i in kept]
