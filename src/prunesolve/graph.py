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


def _plain_rows(text: str, width: int):
    """The rows of ``text`` as an ``(rows, width)`` int64 array when it has
    the plain layout, else None.

    The plain layout, which every file the package writes has: leading
    lines that start with ``#``, then rows of ``width`` tokens of 1 to 18
    ASCII digits, the tokens of a row separated by one space or tab, each
    row ending in LF except perhaps the last. An 18-digit token fits in an
    int64. The checks are whole-buffer passes, and one ``np.fromstring``
    reads the values.
    """
    start = 0
    while text.startswith("#", start):
        end = text.find("\n", start)
        start = len(text) if end < 0 else end + 1
    body = text[start:-1] if text.endswith("\n") else text[start:]
    if not body.isascii():
        return None
    data = body.encode("ascii")
    if data.translate(None, b"0123456789 \t\n"):
        return None
    b = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero(b < ord("0"))  # space, tab or LF
    sizes = np.diff(seps, prepend=-1, append=len(b)) - 1
    if len(sizes) % width or sizes.min() < 1 or sizes.max() > 18:
        return None
    row_end = np.append(b[seps] == ord("\n"), True).reshape(-1, width)
    if row_end[:, :-1].any() or not row_end[:, -1].all():
        return None
    return np.fromstring(data, dtype=np.int64, sep=" ").reshape(-1, width)


def _read_int_rows(path, width: int) -> np.ndarray:
    """Parse a text file of integers, ``width`` of them on each data line,
    in the format of :func:`load_edge_list`.

    Returns an ``(rows, width)`` int64 array, or an object array of Python
    ints when a value does not fit in int64. Raises :class:`_BadRow` for the
    first data line with a wrong token count or a non-integer token. A file
    in the plain layout of :func:`_plain_rows` is read in one numpy pass,
    any other file line by line with ``str.split()`` and ``int()``.
    """
    with open(path) as fh:  # universal newlines: CRLF and CR arrive as LF
        text = fh.read()
    rows = _plain_rows(text, width)
    if rows is not None:
        return rows
    values = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != width:
            raise _BadRow(lineno, line.strip(), True)
        try:
            values += map(int, tokens)
        except ValueError:
            raise _BadRow(lineno, line.strip(), False) from None
    try:
        rows = np.array(values, dtype=np.int64)
    except OverflowError:
        rows = np.array(values, dtype=object)
    return rows.reshape(-1, width)


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

    A file in the layout every writer of the package uses (``#`` lines
    first, then one ``u v`` row per line, see :func:`_plain_rows`) is read
    by one ``np.fromstring`` pass, any other file line by line.
    :func:`_number_by_first_appearance` numbers the ids, and one sort of
    both directions' edge keys yields the neighbour lists, a repeated edge
    showing as equal keys.
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
