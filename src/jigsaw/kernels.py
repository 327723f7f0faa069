"""Backtracking search kernel, compiled with numba when available.

The search below is the hot loop of the whole package: the
phase-transition sweeps call it hundreds of times per (n, q) cell.  It
is written in array-only style so the same function body runs both ways:

* compiled with ``numba.njit(cache=True, nogil=True)`` (default), or
* as plain Python when the environment variable ``JIGSAW_DISABLE_NUMBA``
  is set to a non-empty value, or when numba is not importable.

``search_compiled`` / ``search_python`` are both exported so tests can
run one against the other; ``search`` is the selected default.  Under
numba, ``nogil=True`` lets sweep threads overlap searches.

Inputs come from ``as_backend`` and scratch buffers from ``zeros``:
int64 arrays for numba, plain ``list``s of Python ints for the Python
body, which indexes a list several times faster than a numpy array.
The stored-placement buffer ``sols`` is an int64 array on both: it is
sized by the caller's limit but only written once per stored placement,
so its untouched pages cost no memory.

Cell order is data.  Position d of the search fills one grid cell;
``top_pos[d]`` and ``left_pos[d]`` give the positions of that cell's top
and left neighbours, or -1 for none, and every neighbour comes earlier.
solver._SearchPlan passes the growing-square order: shell k is column
``(0..k-1, k)`` from the top down, then row ``(k, 0..k)`` from left to
right.  The cells with one placed neighbour (first row and column) then
come one per half-shell, each followed by cells that match on two
sides and prune its branches at once; the scanline order places the
whole first row, n - 1 cells matched on one side, before any other.

Candidates for a position are the orientations (``4 * piece +
rotation``) whose shown (top, left) colours match the neighbours'
shown (bottom, right) colours.  ``keys`` is an open-addressing table of
``top * width + left`` keys in ``2**bits`` slots, probed linearly from
``home_slot`` (-1 marks an empty slot, and at least one slot is empty);
slot s holds candidates ``items[los[s]:his[s]]`` in (piece, rotation)
order.

A border budget prunes the first row and column.  Every internal edge
joins two sides of one colour, so a colour shows on the border as many
times, mod 2, as it occurs in the bag, and at most ``slack`` border
sides show a colour that occurs an even number of times (see
solver._SearchPlan).  The border cells of the search are those with a
missing neighbour: the tops of row 0 and the lefts of column 0 face
out.  ``tcost``/``lcost`` are 1 for an orientation whose top/left
colour is even, and ``spent[k]`` counts the even sides that the border
positions before k turned outwards: on entering k, the kernel adds the
cost of ``chosen[p]`` at ``p = prev_out[k]``, the border position before
it, to ``spent[p]``.  A missing neighbour then shows one of two
wildcard colours: ``width - 1`` (any side) while budget is left, and
``width - 2`` (odd colours only) once ``spent[k]`` reaches ``slack``.
Cell (0, 0) has its wildcard list cut to the orientations within the
whole slack.  ``prev_out`` is all -1 when the budget cannot bind, and
then nothing is charged.  Interior cells never test for a wildcard.

A node is one successful placement.  Statuses: 0 = search space
exhausted (count is exact), 1 = count reached `limit`, 2 = node budget
exhausted.
"""

from __future__ import annotations

import os

import numpy as np

STATUS_COMPLETE = 0
STATUS_LIMIT = 1
STATUS_BUDGET = 2


def _search_impl(items, keys, los, his, bits, width, top_pos, left_pos,
                 bottoms, rights, slack, prev_out, tcost, lcost,
                 limit, budget, max_store, sols,
                 used, chosen, ptr, end, spent):
    """Count placements of one piece per position whose touching sides match.

    bottoms/rights give each orientation's shown bottom/right colour.
    used (per piece) and chosen/ptr/end/spent (per position) are zeroed
    scratch buffers.  The first max_store placements found are copied,
    one row of len(top_pos) orientations each, into the flat sols.
    Returns (status, count, nodes, stored).
    """
    num_cells = len(top_pos)
    last = num_cells - 1
    wild = width - 2  # odd colours only; wild + 1 is any colour
    mask = (1 << bits) - 1
    count = 0
    nodes = 0
    stored = 0
    it = 0
    k = 0
    while True:
        # position k was just reached: find its candidate range
        tp = top_pos[k]
        lp = left_pos[k]
        if tp >= 0 and lp >= 0:
            key = bottoms[chosen[tp]] * width + rights[chosen[lp]]
        else:
            p = prev_out[k]
            if p >= 0:
                c = chosen[p]
                spent[k] = spent[p] + (tcost[c] if top_pos[p] < 0 else 0) + (lcost[c] if left_pos[p] < 0 else 0)
            w = wild + 1 if spent[k] < slack else wild
            key = (w if tp < 0 else bottoms[chosen[tp]]) * width + (w if lp < 0 else rights[chosen[lp]])
        s = ((key * 0x9E3779B1) & 0xFFFFFFFF) >> (32 - bits)  # home_slot, inlined
        while keys[s] != key and keys[s] != -1:
            s = (s + 1) & mask
        i = los[s]
        h = his[s]
        while True:
            while i < h and used[items[i] >> 2] == 1:
                i += 1
            if i < h:
                it = items[i]
                nodes += 1
                if nodes > budget:
                    return STATUS_BUDGET, count, nodes, stored
                chosen[k] = it
                if k < last:
                    break
                count += 1
                if stored < max_store:
                    base = stored * num_cells
                    for d in range(num_cells):
                        sols[base + d] = chosen[d]
                    stored += 1
                if count >= limit:
                    return STATUS_LIMIT, count, nodes, stored
                i += 1
            else:
                if k == 0:
                    return STATUS_COMPLETE, count, nodes, stored
                k -= 1
                used[chosen[k] >> 2] = 0
                i = ptr[k] + 1
                h = end[k]
        used[it >> 2] = 1
        ptr[k] = i
        end[k] = h
        k += 1


search_python = _search_impl
search_compiled = None

_DISABLED = bool(os.environ.get("JIGSAW_DISABLE_NUMBA"))
if not _DISABLED:
    try:
        import numba

        search_compiled = numba.njit(cache=True, nogil=True)(_search_impl)
    except ImportError:
        search_compiled = None

if search_compiled is not None:
    search = search_compiled
    ACTIVE_BACKEND = "numba"
else:
    search = search_python
    ACTIVE_BACKEND = "python"


def home_slot(key, bits):
    """First slot probed for key in a table of 2**bits slots (Fibonacci hashing).

    The keys of one table run in blocks of consecutive integers, which
    a plain low-bits hash would pile into one long probe run.
    """
    return ((key * 0x9E3779B1) & 0xFFFFFFFF) >> (32 - bits)


def as_backend(values):
    """A list of ints or an int array in the form the active kernel indexes
    fastest: an int64 array for numba, a list of Python ints for the
    Python body.  An array goes through ``tolist``: ``list(array)`` would
    hold numpy scalars, which the body handles more than twice as slowly."""
    if ACTIVE_BACKEND == "numba":
        return np.asarray(values, dtype=np.int64)
    return values.tolist() if isinstance(values, np.ndarray) else values


def zeros(size):
    """A zeroed scratch buffer in the form of as_backend."""
    return as_backend([0] * size)
