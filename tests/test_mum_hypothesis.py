"""Property test of the certified modular nullspace: integer matrices
with a planted nullspace of dimension 0, 1 or 2 give exactly the basis
of the Fraction elimination."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from padicfrob.mum import _certified_nullspace, _nullspace  # noqa: E402


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), ncols=st.integers(2, 6), nullity=st.integers(0, 2),
       extra=st.integers(0, 3), size=st.sampled_from((9, 10 ** 6)))
def test_planted_nullity_matches_fraction_path(data, ncols, nullity, extra,
                                               size):
    # rows = B C with C of rank <= ncols - nullity; at size 10^6 the
    # kernel vectors pass the first modulus's reconstruction bound, so
    # they are certified at a larger one
    rank = ncols - nullity
    entries = st.integers(-size, size)
    C = data.draw(st.lists(st.lists(entries, min_size=ncols,
                                    max_size=ncols),
                           min_size=rank, max_size=rank))
    B = data.draw(st.lists(st.lists(entries, min_size=rank, max_size=rank),
                           min_size=ncols + extra, max_size=ncols + extra))
    rows = [[sum(b * c[j] for b, c in zip(brow, C)) for j in range(ncols)]
            for brow in B]
    want = _nullspace(rows, ncols)
    assert len(want) >= nullity
    assert _certified_nullspace(rows, ncols) == want
