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
import scipy.sparse as sp


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
        m = len(edges)
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        # Sorting by (src, dst) as one key lists both directions of every
        # edge, so a repeated edge, either way round, shows as equal
        # neighbours. Keys of a valid edge array are distinct, so the order
        # does not depend on the sort's stability.
        key = src * n + dst
        order = np.argsort(key)
        key = key[order]
        if np.any(key[1:] == key[:-1]):
            raise ValueError("duplicate edge in edge array")
        targets = dst[order]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
        offsets.setflags(write=False)
        targets.setflags(write=False)
        self.n = n
        self.m = m
        self.offsets = offsets
        self.targets = targets
        self._edges = None
        self._lists = None
        self._mean_csr = None

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

    def mean_adjacency_csr(self) -> sp.csr_matrix:
        """Row-normalized adjacency D^-1 A as a scipy CSR matrix (cached).

        Row v averages v's neighbors; an isolated node's row is empty, so it
        aggregates to zero.
        """
        if self._mean_csr is None:
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


_NEWLINE, _HASH, _PLUS, _MINUS, _UNDERSCORE, _ZERO = b"\n#+-_0"
# A token of at most this many characters fits in an int64 digit by digit.
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


def _read_int_rows(path, width: int) -> np.ndarray:
    """Parse a text file of integers, ``width`` of them on each data line.

    The format is that of :func:`load_edge_list`: whitespace-separated
    tokens, blank lines and lines whose first token starts with ``#``
    skipped, LF and CRLF line ends. A token is an integer exactly when
    ``int()`` accepts it. Returns an ``(rows, width)`` int64 array, or an
    object array of Python ints when a value does not fit in int64. Raises
    :class:`_BadRow` for the first data line with a wrong token count or a
    non-integer token.
    """
    with open(path) as fh:  # universal newlines: CRLF and CR arrive as LF
        text = fh.read()
    b = np.frombuffer(_ascii_image(text), dtype=np.uint8)
    # The ASCII whitespace of str.split(): \t \n \v \f \r, \x1c-\x1f, space.
    word = ~((b == 32) | ((b - np.uint8(9)) < 5) | ((b - np.uint8(28)) < 4))
    padded = np.concatenate(([False], word, [False]))
    start = word & ~padded[:-2]
    ends = np.flatnonzero(word & ~padded[2:]) + 1
    # Token starts and line ends in file order: a token heads its line when
    # the event before it is a line end.
    event = np.flatnonzero(start | (b == _NEWLINE))
    newline = b[event] == _NEWLINE
    token = ~newline
    starts = event[token]
    line = np.cumsum(newline)[token]
    head = np.concatenate(([True], newline))[:-1][token]
    comment = b[starts[head]] == _HASH
    if comment.any():
        keep = ~comment[np.cumsum(head) - 1]
        starts, ends, line, head = starts[keep], ends[keep], line[keep], head[keep]

    heads = np.flatnonzero(head)
    counts = np.diff(heads, append=len(starts))
    bad_count = line[heads[counts != width]]
    # A token is an integer iff each character is a digit, an underscore
    # between two digits, or a sign at its start followed by a digit.
    digit = (b - np.uint8(_ZERO)) < 10
    around = np.concatenate(([False], digit, [False]))
    before, after = around[:-2], around[2:]
    valid = digit | ((b == _UNDERSCORE) & before & after)
    valid |= ((b == _PLUS) | (b == _MINUS)) & after & start
    wrong = np.flatnonzero(word & ~valid)
    owner = np.searchsorted(starts, wrong, side="right") - 1
    inside = owner >= 0
    inside[inside] = wrong[inside] < ends[owner[inside]]
    bad_token = line[owner[inside]]
    if bad_count.size or bad_token.size:
        first = int(min(bad_count.min(initial=len(b)), bad_token.min(initial=len(b))))
        newlines = event[newline]
        lo = newlines[first - 1] + 1 if first else 0
        hi = newlines[first] if first < len(newlines) else len(text)
        raise _BadRow(first + 1, text[lo:hi].strip(), bool(np.any(bad_count == first)))

    # Horner's rule, one character column at a time over all tokens.
    lengths = ends - starts
    b = np.append(b, np.zeros(_SHORT_TOKEN, dtype=np.uint8))
    values = np.zeros(len(starts), dtype=np.int64)
    for j in range(min(int(lengths.max(initial=0)), _SHORT_TOKEN)):
        d = b[starts + j] - np.uint8(_ZERO)
        values = np.where((d < 10) & (j < lengths), values * 10 + d, values)
    values[b[starts] == _MINUS] *= -1
    long = np.flatnonzero(lengths > _SHORT_TOKEN)
    if long.size:
        exact = [int(text[s:e]) for s, e in zip(starts[long], ends[long])]
        if not all(-(2**63) <= v < 2**63 for v in exact):
            values = values.astype(object)
        values[long] = exact
    return values.reshape(-1, width)


def _number_by_first_appearance(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Replace each value by the rank of its first appearance in ``values``;
    also return the number of distinct values."""
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
    ids = ids.reshape(-1, 2)
    loop = ids[:, 0] == ids[:, 1]
    u, v = ids[~loop].T
    key = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    key = key[np.diff(key, prepend=-1) > 0]
    graph = Graph(n, np.column_stack([key // n, key % n]))
    return EdgeListResult(graph, int(loop.sum()), len(u) - len(key))


def _int_rows_text(rows: np.ndarray) -> str:
    """Decimal text of a 2-D integer array: one line per row, columns
    separated by one space."""
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    return (line * len(rows)) % tuple(rows.ravel().tolist())


def dump_edge_list(g: Graph, path) -> None:
    """Write one ``u v`` line per edge with ``u < v``."""
    with open(path, "w") as fh:
        fh.write(_int_rows_text(g.edge_array()))
