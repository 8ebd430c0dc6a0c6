"""Undirected simple graphs in compressed adjacency form, plus generators and IO.

The :class:`Graph` here is the shared substrate for everything else in the
package: the classical solvers walk its neighbor lists, and the GCN uses its
sparse adjacency for neighborhood aggregation. Graphs are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


class EdgeListParseError(ValueError):
    """A line of an edge-list file could not be parsed."""


class EmptyGraphError(ValueError):
    """An edge-list file contained no edges at all."""


def derive_seed(master: int, *parts) -> int:
    """Derive a stable 63-bit sub-seed from a master seed and a label path.

    Hash-based so that independently named streams never collide or overlap,
    and reproducible across platforms and Python processes.
    """
    text = "/".join([str(master)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the one PRNG used everywhere in the package."""
    return np.random.Generator(np.random.PCG64(seed))


class Graph:
    """Immutable undirected simple graph stored as offsets + sorted targets.

    Invariants:
      * no self-loops, no duplicate neighbor entries,
      * neighbor lists sorted ascending,
      * symmetric: ``u in N(v)`` iff ``v in N(u)``,
      * ``len(targets) == 2 * m``.
    """

    def __init__(self, n: int, edges: np.ndarray):
        """Build from an ``(m, 2)`` integer array of undirected edges.

        ``edges`` must already be clean: endpoints in ``[0, n)``, no
        self-loops, each undirected edge listed once. Use
        :func:`load_edge_list` for dirty input.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        n = int(n)
        if n < 0:
            raise ValueError("node count must be non-negative")
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValueError("self-loop in edge array")
        u, v = edges.T
        if self._build(n, np.concatenate([u * n + v, v * n + u])):
            raise ValueError("duplicate edge in edge array")

    def _build(self, n: int, key: np.ndarray) -> int:
        """Set the graph up from the keys ``src * n + dst`` of both
        directions of every edge; returns how many repeated keys it dropped.

        Sorting the keys in place lists each node's neighbours in order, and
        a repeated edge, either way round, shows as equal adjacent keys.
        """
        key.sort()
        repeat = key[1:] == key[:-1]
        dropped = int(np.count_nonzero(repeat))
        if dropped:
            key = key[np.concatenate(([True], ~repeat))]
        offsets = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum(np.bincount(key // n, minlength=n), out=offsets[1:])
            key %= n
        offsets.setflags(write=False)
        key.setflags(write=False)
        self.n = n
        self.m = len(key) // 2
        self.offsets = offsets
        self.targets = key
        self._edges = None
        self._lists = None
        self._mean_csr = None
        return dropped

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (a read-only view)."""
        return self.targets[self.offsets[v]:self.offsets[v + 1]]

    def degrees(self) -> np.ndarray:
        """Degree of every node; entries sum to ``2 * m``."""
        return np.diff(self.offsets)

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Adjacency test by binary search in the shorter neighbor list."""
        if self.degree(u) > self.degree(v):
            u, v = v, u
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array with ``u < v``, cached."""
        if self._edges is None:
            rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
            keep = self.targets > rows
            e = np.column_stack([rows[keep], self.targets[keep]])
            e.setflags(write=False)
            self._edges = e
        return self._edges

    def neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor ids of every node as tuples of Python ints,
        cached: entry ``v`` equals ``neighbors(v).tolist()``.

        Pure-Python loops index these instead of slicing a numpy row per
        node; tuples keep the shared cache read-only.
        """
        if self._lists is None:
            t = self.targets.tolist()
            o = self.offsets.tolist()
            self._lists = tuple([tuple(t[o[v]:o[v + 1]]) for v in range(self.n)])
        return self._lists

    def mean_adjacency_csr(self):
        """Row-normalized adjacency D^-1 A as a scipy CSR matrix (cached).

        Row v averages v's neighbors; an isolated node's row is empty, so it
        aggregates to zero. scipy is imported here, not with the module, so
        the solvers and the edge-list reader run without loading it.
        """
        if self._mean_csr is None:
            import scipy.sparse as sp

            deg = self.degrees()
            data = np.repeat(1.0 / np.maximum(deg, 1), deg)
            self._mean_csr = sp.csr_matrix(
                (data, self.targets, self.offsets), shape=(self.n, self.n)
            )
        return self._mean_csr

    def count_in_mask(self, mask: np.ndarray) -> np.ndarray:
        """Per node, how many of its neighbors fall inside a boolean mask."""
        hits = mask[self.targets].astype(np.int64)
        out = np.zeros(self.n, dtype=np.int64)
        starts = self.offsets[:-1]
        nonempty = starts < self.offsets[1:]
        if hits.size:
            sums = np.add.reduceat(hits, starts[nonempty])
            out[nonempty] = sums
        return out

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class NodeSet:
    """A set of node ids over a fixed universe, stored as a boolean mask."""

    __slots__ = ("mask", "size")

    def __init__(self, mask: np.ndarray):
        mask = np.ascontiguousarray(mask, dtype=bool)
        mask.setflags(write=False)
        self.mask = mask
        self.size = int(mask.sum())

    @classmethod
    def from_ids(cls, ids, n: int) -> "NodeSet":
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ValueError("node id out of range")
        mask = np.zeros(n, dtype=bool)
        mask[ids] = True
        return cls(mask)

    @property
    def universe(self) -> int:
        return len(self.mask)

    def ids(self) -> np.ndarray:
        """Member ids in ascending order."""
        return np.flatnonzero(self.mask)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, v) -> bool:
        return bool(self.mask[v])

    def __eq__(self, other) -> bool:
        return isinstance(other, NodeSet) and np.array_equal(self.mask, other.mask)

    def __repr__(self) -> str:
        return f"NodeSet(size={self.size}, universe={self.universe})"


def check_ba_args(n: int, m: int, seed: int) -> None:
    """Raise ValueError, naming the argument, unless ``generate_ba`` accepts them."""
    if m < 1:
        raise ValueError("attachment count m must be >= 1")
    if n <= m:
        raise ValueError(f"need n > m, got n={n}, m={m}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def generate_ba(n: int, m: int, seed: int) -> Graph:
    """Barabasi-Albert graph: clique on the first ``m`` nodes, then each new
    node attaches to ``m`` distinct existing nodes drawn with probability
    proportional to current degree (duplicate draws rejected).

    Total edge count is always ``m*(m-1)/2 + m*(n-m)``. Deterministic for a
    given seed.
    """
    check_ba_args(n, m, seed)
    rng = make_rng(seed)
    edges = []
    # endpoint multiset: drawing uniformly from it is degree-proportional
    repeated = []
    for i in range(m):
        for j in range(i + 1, m):
            edges.append((i, j))
            repeated.append(i)
            repeated.append(j)
    for v in range(m, n):
        chosen = set()
        while len(chosen) < m:
            if repeated:
                pick = repeated[rng.integers(0, len(repeated))]
            else:
                # only possible while m == 1 and no edge exists yet
                pick = int(rng.integers(0, v))
            if pick not in chosen:
                chosen.add(pick)
        for u in sorted(chosen):
            edges.append((u, v))
            repeated.append(u)
            repeated.append(v)
    return Graph(n, np.array(edges, dtype=np.int64))


@dataclass(frozen=True)
class EdgeListResult:
    """A loaded graph plus counts of lines that were silently dropped."""

    graph: Graph
    dropped_self_loops: int
    dropped_duplicates: int


class _BadRow(Exception):
    """A data line of an integer-row file that does not parse. Its args are
    the line number, the stripped line, and whether the token count is
    wrong (else a token is not an integer)."""


_NEWLINE, _SPACE, _HASH, _PLUS, _MINUS, _UNDERSCORE, _ZERO = b"\n #+-_0"
# A token of at most this many characters fits in an int64.
_SHORT_TOKEN = 18


def _ascii_image(text: str) -> bytes:
    """One byte per character of ``text``, read as ``int()`` reads it.

    ASCII stays as it is. Other whitespace becomes a space and other decimal
    digits their ASCII digit; anything else becomes ``?``, which no integer
    contains.
    """
    if text.isascii():
        return text.encode("ascii")
    table = {
        ord(c): " " if c.isspace() else str(int(c)) if c.isdecimal() else "?"
        for c in set(text) if not c.isascii()
    }
    return text.translate(table).encode("ascii")


def _spans(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Every position of the spans ``[lo, hi)``, span by span."""
    size = hi - lo
    return np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())


def _read_int_rows(path, width: int) -> np.ndarray:
    """Parse a text file of integers, ``width`` of them on each data line.

    The format is that of :func:`load_edge_list`: whitespace-separated
    tokens, blank lines and lines whose first token starts with ``#``
    skipped, LF and CRLF line ends. A token is an integer exactly when
    ``int()`` accepts it. Returns an ``(rows, width)`` int64 array, or an
    object array of Python ints when a value does not fit in int64. Raises
    :class:`_BadRow` for the first data line with a wrong token count or a
    non-integer token.

    Only the bytes of a token that are not ASCII digits get the check of
    ``int()``'s grammar (a sign at the start, an underscore between two
    digits), so a file of plain digits skips it. ``np.fromstring`` then
    reads the values, with the comment lines blanked: it reads a sign and
    ASCII digits, which is what every integer token is in
    :func:`_ascii_image`, except a token with an underscore or more than
    ``_SHORT_TOKEN`` characters. Those are blanked to ``0`` and read by
    ``int()``.
    """
    with open(path) as fh:  # universal newlines: CRLF and CR arrive as LF
        text = fh.read()
    b = np.frombuffer(bytearray(_ascii_image(text)), dtype=np.uint8)
    # The ASCII whitespace of str.split(): \t \n \v \f \r, \x1c-\x1f, space.
    # np.fromstring skips all of it but \x1c-\x1f.
    odd_space = (b - np.uint8(28)) < 4
    word = ~((b == _SPACE) | ((b - np.uint8(9)) < 5) | odd_space)
    # The changes of the word mask alternate between token starts and ends.
    bounds = np.flatnonzero(np.diff(word, prepend=False, append=False))
    starts, ends = bounds[::2], bounds[1::2]
    newlines = np.flatnonzero(b == _NEWLINE)
    # A token heads its line when a newline lies between it and the token
    # before it; a one-byte gap is that byte, and only longer gaps are
    # looked up among the newlines.
    head = np.ones(len(starts), dtype=bool)
    gap_end = starts[1:]
    head[1:] = b[gap_end - 1] == _NEWLINE
    wide = np.flatnonzero(gap_end - ends[:-1] > 1)
    if wide.size:
        found = np.searchsorted(newlines, [ends[wide], gap_end[wide]])
        head[wide + 1] = found[0] < found[1]
    comment = b[starts[head]] == _HASH
    if comment.any():
        drop = comment[np.cumsum(head) - 1]
        b[_spans(starts[drop], ends[drop])] = _SPACE
        keep = ~drop
        starts, ends, head = starts[keep], ends[keep], head[keep]

    heads = np.flatnonzero(head)
    bad_count = heads[np.diff(heads, append=len(starts)) != width]
    # A token is an integer iff each character is a digit, an underscore
    # between two digits, or a sign at its start followed by a digit. A
    # token's neighbour bytes are whitespace, so a digit next to a character
    # is in its token.
    odd = np.flatnonzero(word & ((b - np.uint8(_ZERO)) >= 10))
    owner = np.searchsorted(starts, odd, side="right") - 1
    inside = owner >= 0
    inside[inside] = odd[inside] < ends[owner[inside]]
    odd, owner = odd[inside], owner[inside]
    last = len(b) - 1
    before = (odd > 0) & ((b[odd - 1] - np.uint8(_ZERO)) < 10)
    after = (odd < last) & ((b[np.minimum(odd + 1, last)] - np.uint8(_ZERO)) < 10)
    underscore = b[odd] == _UNDERSCORE
    sign = ((b[odd] == _PLUS) | (b[odd] == _MINUS)) & (odd == starts[owner])
    bad_token = owner[~(after & (sign | underscore & before))]
    if bad_count.size or bad_token.size:
        # line numbers, counted from 0, only grow with the token index
        first_token = min(bad_count.min(initial=len(starts)), bad_token.min(initial=len(starts)))
        first = int(np.searchsorted(newlines, starts[first_token]))
        wrong_count = np.searchsorted(newlines, starts[bad_count]) == first
        lo = newlines[first - 1] + 1 if first else 0
        hi = newlines[first] if first < len(newlines) else len(text)
        raise _BadRow(first + 1, text[lo:hi].strip(), bool(wrong_count.any()))

    if not len(starts):  # np.fromstring reads a blank text as one 0
        return np.zeros((0, width), dtype=np.int64)
    if odd_space.any():
        b[odd_space] = _SPACE
    exact = np.flatnonzero(ends - starts > _SHORT_TOKEN)
    if underscore.any():
        exact = np.union1d(exact, owner[underscore])
    if exact.size:
        b[_spans(starts[exact] + 1, ends[exact])] = _SPACE
        b[starts[exact]] = _ZERO
    values = np.fromstring(b.tobytes(), dtype=np.int64, sep=" ")
    if exact.size:
        big = [int(text[s:e]) for s, e in zip(starts[exact].tolist(), ends[exact].tolist())]
        if not all(-(2**63) <= v < 2**63 for v in big):
            values = values.astype(object)
        values[exact] = big
    return values.reshape(-1, width)


def _number_by_first_appearance(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Replace each value by the rank of its first appearance in ``values``;
    also return the number of distinct values.

    Non-negative int64 values below twice their count, which the ids of a
    file numbered from 0 with few gaps are, go through a table indexed by
    value: each value's first index, then the rank of each first index.
    Sparse, negative or beyond-int64 values are sorted instead.
    """
    count = len(values)
    if values.dtype == np.int64 and count and 0 <= values.min() and values.max() < 2 * count:
        table = np.full(int(values.max()) + 1, count, dtype=np.int64)
        np.minimum.at(table, values, np.arange(count))
        seen = np.flatnonzero(table < count)
        table[seen[np.argsort(table[seen])]] = np.arange(len(seen))
        return table[values], len(seen)
    order = np.argsort(values)
    ordered = values[order]
    new = np.ones(len(values), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    n = len(first)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(n)
    ids = np.empty(len(values), dtype=np.int64)
    ids[order] = rank[np.cumsum(new) - 1]
    return ids, n


def load_edge_list(path) -> EdgeListResult:
    """Read an edge list: one ``u v`` pair of integer node ids per line.

    The format:

    * tokens are separated by whitespace (spaces, tabs, any other character
      ``str.split()`` splits on), leading and trailing whitespace included;
    * lines end in LF or CRLF (a lone CR ends a line too), and the last
      line needs no line end;
    * blank lines are skipped, and so is a line whose first non-whitespace
      character is ``#``; a ``#`` later in a line is not a comment, so
      ``0 1 # note`` is an error;
    * every other line holds exactly two tokens, each an integer as
      ``int()`` reads it: optional sign, decimal digits, single underscores
      between digits, any magnitude;
    * node ids are compacted to ``0..n-1`` in order of first appearance,
      reading the file left to right.

    Self-loops and repeated edges (``u v`` after ``u v`` or ``v u``) are
    dropped, with counts reported in the result. A malformed line raises
    :class:`EdgeListParseError` naming the first one (``line N``, counted
    from 1); a file without any edge line raises :class:`EmptyGraphError`.

    The work is a few whole-file numpy passes: :func:`_read_int_rows` checks
    the tokens and reads the values, :func:`_number_by_first_appearance`
    numbers the ids (by a table when they are dense, as in every file
    ``dump_edge_list`` writes), and one sort of both directions' edge keys
    yields the neighbour lists, a repeated edge showing as equal keys.
    """
    try:
        rows = _read_int_rows(path, 2)
    except _BadRow as e:
        lineno, line, wrong_count = e.args
        what = "expected two integers, got" if wrong_count else "non-integer token in"
        raise EdgeListParseError(f"{path}: line {lineno}: {what} {line!r}") from None
    if not len(rows):
        raise EmptyGraphError(f"{path}: no edges found")
    ids, n = _number_by_first_appearance(rows.ravel())
    u, v = ids.reshape(-1, 2).T
    loop = u == v
    u, v = u[~loop], v[~loop]
    # Graph() would refuse the repeated edges that _build drops and counts
    graph = Graph.__new__(Graph)
    repeats = graph._build(n, np.concatenate([u * n + v, v * n + u]))
    # a repeated edge repeats the keys of both its directions
    return EdgeListResult(graph, int(loop.sum()), repeats // 2)


def _int_rows_text(rows: np.ndarray) -> str:
    """Decimal text of a 2-D integer array: one line per row, columns
    separated by one space."""
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    return (line * len(rows)) % tuple(rows.ravel().tolist())


def dump_edge_list(g: Graph, path) -> None:
    """Write one ``u v`` line per edge with ``u < v``."""
    with open(path, "w") as fh:
        fh.write(_int_rows_text(g.edge_array()))
