"""Backtracking search kernel: one search, two bodies.

The search below is the hot loop of the whole package: the
phase-transition sweeps call it hundreds of times per (n, q) cell.
``_search_impl`` is the reference body, in plain Python.  ``_kernel.c``
repeats it statement for statement in C, and a change to one body is
made to the other.

* ``search_c`` runs the C body.  On import, kernels compiles
  ``_kernel.c`` once with ``cc -O2 -shared -fPIC`` into
  ``$XDG_CACHE_HOME/jigsaw`` (default ``~/.cache/jigsaw``), or into a
  private folder under ``tempfile.gettempdir()`` when that one is not
  writable, and loads it with ctypes.  The library's name carries a
  CRC-32 of the source, the flags and ``platform.machine()``, and each
  build is renamed into place, so processes building at once do not
  clash.  ctypes releases the interpreter lock during the call, so sweep
  threads overlap searches.
* ``search_python`` runs the Python body.

``search`` is the selected default and ``ACTIVE_BACKEND`` names it:
``"c"``, or ``"python"`` when there is no ``cc``, the build or the load
fails, or the environment variable ``JIGSAW_DISABLE_NUMBA`` is set to a
non-empty value (a name kept from an earlier compiled backend).

Inputs come from ``as_backend`` and scratch buffers from ``zeros``:
int64 arrays for C, plain ``list``s of Python ints for the Python
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

import ctypes
import os
import platform
import zlib

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

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")
_I64 = ctypes.c_int64
_P64 = ctypes.POINTER(ctypes.c_int64)
# jigsaw_search's parameters: _search_impl's, with the lengths C cannot
# see after items, left_pos and bottoms, and a result buffer at the end
_ARGTYPES = (
    _P64, _I64, _P64, _P64, _P64, _I64, _I64, _P64, _P64, _I64, _P64, _P64, _I64, _I64, _P64, _P64, _P64,
    _I64, _I64, _I64, _P64, _P64, _P64, _P64, _P64, _P64, _P64,
)


def _open(path):
    """jigsaw_search from the library at path, in a folder no other user can write."""
    folder = os.stat(os.path.dirname(path))
    if folder.st_uid != os.getuid() or folder.st_mode & 0o022:
        raise OSError(f"{os.path.dirname(path)} is writable by other users")
    try:
        function = ctypes.CDLL(path).jigsaw_search
    except AttributeError as e:
        raise OSError(f"{path} has no jigsaw_search") from e
    function.argtypes = _ARGTYPES
    function.restype = _I64
    return function


def _build(path):
    """Compile _kernel.c into path, through a temporary file renamed into place."""
    import subprocess
    import tempfile

    os.makedirs(os.path.dirname(path), mode=0o700, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        subprocess.run(["cc", *_CFLAGS, "-o", tmp, _SOURCE], check=True, capture_output=True, timeout=120)
        os.replace(tmp, path)
    except subprocess.SubprocessError as e:
        raise OSError(f"cc failed: {e}") from e
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return _open(path)


def _library_name():
    """The library's file name, from a CRC-32 of the source, the flags and the machine."""
    with open(_SOURCE, "rb") as f:
        tag = zlib.crc32(b"\0".join((f.read(), " ".join(_CFLAGS).encode(), platform.machine().encode())))
    return f"kernel-{tag:08x}.so"


def _load_c():
    """The C kernel's entry point, loaded from the cache or built into it.

    Raises OSError when no folder yields a library that loads.
    """
    if os.name != "posix":
        raise OSError("the C kernel is built only on POSIX systems")
    name = _library_name()
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    errors = []
    for folder in (os.path.join(cache, "jigsaw"), None):
        if folder is None:
            import tempfile

            folder = os.path.join(tempfile.gettempdir(), f"jigsaw-{os.getuid()}")
        for attempt in (_open, _build):
            try:
                return attempt(os.path.join(folder, name))
            except OSError as e:
                errors.append(f"{attempt.__name__} {folder}: {e}")
    raise OSError("; ".join(errors))


_NAMES = (
    "items", "keys", "los", "his", "top_pos", "left_pos", "bottoms", "rights", "prev_out", "tcost", "lcost",
    "sols", "used", "chosen", "ptr", "end", "spent",
)
_INT64 = np.dtype(np.int64)
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _int64(value):
    """value clamped to int64, which ctypes would otherwise wrap around."""
    return min(max(value, _INT64_MIN), _INT64_MAX)


def _pointer(array):
    """A ctypes pointer to the data of a checked int64 array (None when empty).

    from_buffer is several times faster than ``array.ctypes`` and keeps
    the array alive, but it needs a writable buffer of at least one value.
    """
    if not len(array):
        return None
    if array.flags.writeable:
        return ctypes.c_int64.from_buffer(array)
    return ctypes.cast(array.ctypes.data, _P64)


def search_c(items, keys, los, his, bits, width, top_pos, left_pos,
             bottoms, rights, slack, prev_out, tcost, lcost,
             limit, budget, max_store, sols,
             used, chosen, ptr, end, spent):
    """_search_impl on the C body, with the same arguments and results.

    Every numpy array must be one-dimensional, int64 and C-contiguous,
    and sols must be one, which the kernel fills in place; any other
    sequence is copied into a fresh int64 array.  Before a pointer is
    passed, every buffer must hold what the search can index: keys, los
    and his 2**bits slots, every per-position buffer len(top_pos)
    values, rights, tcost and lcost len(bottoms) orientations, used one
    value per piece (four orientations), and sols max_store rows.  The C
    body then checks, before it searches, that every index it reads out
    of one array lands inside the buffer it indexes.  Either failure
    raises ValueError.  slack, limit, budget and max_store are clamped
    to int64.
    """
    if not 0 <= bits <= 32:
        raise ValueError(f"bits is {bits}, not in 0..32")
    if not 2 <= width <= 2**31:
        raise ValueError(f"width is {width}, not in 2..2**31")
    if not isinstance(sols, np.ndarray):
        raise ValueError("sols must be a numpy array for the kernel to fill in place")
    cells, orients, slots = len(top_pos), len(bottoms), 1 << bits
    max_store = max(max_store, 0)
    sizes = (0, slots, slots, slots, 0, cells, 0, orients, cells, orients, orients,
             max_store * cells, -(-orients // 4), cells, cells, cells, cells)
    arrays = (items, keys, los, his, top_pos, left_pos, bottoms, rights, prev_out, tcost, lcost,
              sols, used, chosen, ptr, end, spent)
    p = []
    for name, a, size in zip(_NAMES, arrays, sizes):
        if not isinstance(a, np.ndarray):
            a = np.array(a, dtype=np.int64)
        if a.dtype != _INT64 or a.ndim != 1 or not a.flags.c_contiguous:
            raise ValueError(f"{name} must be a one-dimensional C-contiguous int64 array")
        if len(a) < size:
            raise ValueError(f"{name} holds {len(a)} values, the search can index {size}")
        p.append(_pointer(a))
    result = (ctypes.c_int64 * 3)()
    status = _search_c(
        p[0], len(items), p[1], p[2], p[3], bits, width, p[4], p[5], cells, p[6], p[7], orients,
        _int64(slack), p[8], p[9], p[10], _int64(limit), _int64(budget), _int64(max_store), *p[11:], result,
    )
    if status < 0:
        raise ValueError("the search inputs index outside their buffers")
    return status, result[0], result[1], result[2]


# why search is not search_c, kept for the tests to report
_search_c, _C_ERROR = None, "JIGSAW_DISABLE_NUMBA is set"
if not os.environ.get("JIGSAW_DISABLE_NUMBA"):
    try:
        _search_c, _C_ERROR = _load_c(), None
    except OSError as e:
        _C_ERROR = str(e)

if _search_c is not None:
    search = search_c
    ACTIVE_BACKEND = "c"
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
    fastest: a fresh writable int64 array for C (see _pointer), a list
    of Python ints for the Python body.  An array goes through
    ``tolist``: ``list(array)`` would hold numpy scalars, which the body
    handles more than twice as slowly."""
    if ACTIVE_BACKEND == "python":
        return values.tolist() if isinstance(values, np.ndarray) else values
    return np.array(values, dtype=np.int64)


def zeros(size):
    """A zeroed scratch buffer in the form of as_backend."""
    if ACTIVE_BACKEND == "python":
        return [0] * size
    return np.zeros(size, dtype=np.int64)
