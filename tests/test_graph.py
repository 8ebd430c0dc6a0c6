"""Graph construction, generation, IO, and seeding."""

import numpy as np
import pytest

from _brute import brute_csr, brute_edge_list, validate
from conftest import graph_from_edges, random_graph
from prunesolve.graph import (
    EdgeListParseError,
    EmptyGraphError,
    Graph,
    NodeSet,
    derive_seed,
    dump_edge_list,
    generate_ba,
    load_edge_list,
    make_rng,
    _plain_rows,
)
from prunesolve.cli import _write_good_nodes


class TestGraphStructure:
    def test_neighbors_sorted_and_symmetric(self):
        g = graph_from_edges(4, [(2, 0), (3, 1), (0, 1)])
        validate(g)
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(1)) == [0, 3]
        for u in range(4):
            for v in range(4):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_degrees(self, triangle, star5):
        assert list(triangle.degrees()) == [2, 2, 2]
        assert list(star5.degrees()) == [4, 1, 1, 1, 1]
        assert triangle.degrees().sum() == 2 * triangle.m

    def test_rejects_dirty_edge_arrays(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 5)])

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (1, 0)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 1)],
        [(3, 4), (1, 2), (2, 3), (0, 1), (4, 3)],
    ])
    def test_rejects_duplicate_in_any_row(self, edges):
        with pytest.raises(ValueError, match="duplicate edge"):
            Graph(5, edges)

    def test_neighbor_lists_match_lexsort_reference(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 40))
            g = random_graph(n, float(rng.uniform(0.05, 0.6)), seed)
            edges = g.edge_array()[rng.permutation(g.m)]
            flip = rng.random(g.m) < 0.5
            edges = np.where(flip[:, None], edges[:, ::-1], edges)
            rebuilt = Graph(n, edges)
            offsets, targets = brute_csr(n, edges)
            assert np.array_equal(rebuilt.offsets, offsets)
            assert np.array_equal(rebuilt.targets, targets)
            validate(rebuilt)

    @pytest.mark.parametrize("g", [
        generate_ba(300, 3, 4),
        Graph(6, np.empty((0, 2), dtype=np.int64)),
        Graph(0, np.empty((0, 2), dtype=np.int64)),
    ], ids=["ba", "edgeless", "n=0"])
    def test_neighbor_lists_match_rows(self, g):
        lists = g.neighbor_lists()
        assert len(lists) == g.n
        for v in range(g.n):
            assert lists[v] == tuple(g.neighbors(v).tolist())
            assert all(type(u) is int for u in lists[v])
        assert g.neighbor_lists() is lists

    def test_edge_array_canonical(self, cycle5):
        e = cycle5.edge_array()
        assert e.shape == (5, 2)
        assert np.all(e[:, 0] < e[:, 1])

    def test_validate_checks_symmetry(self, cycle5):
        validate(cycle5)
        # path 0-1-2 with row 0 pointing at 2: still 2m sorted entries and
        # no self-loop, but 0 -> 2 and 1 -> 0 have no twins
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        g.targets = np.array([2, 0, 2, 1])
        with pytest.raises(ValueError, match="not symmetric"):
            validate(g)

    def test_mean_adjacency_averages_neighbors(self):
        g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3)])  # node 4 isolated
        x = np.array([10.0, 1.0, 2.0, 6.0, 7.0])
        assert np.allclose(g.mean_adjacency_csr() @ x, [3.0, 10.0, 10.0, 10.0, 0.0])

    def test_count_in_mask_against_naive(self):
        for seed in range(5):
            g = random_graph(12, 0.3, seed)
            rng = np.random.default_rng(seed + 100)
            mask = rng.random(g.n) < 0.5
            counts = g.count_in_mask(mask)
            for v in range(g.n):
                assert counts[v] == sum(mask[u] for u in g.neighbors(v))

    def test_empty_graph(self, edgeless6):
        validate(edgeless6)
        assert edgeless6.m == 0
        assert edgeless6.edge_array().shape == (0, 2)
        assert list(edgeless6.count_in_mask(np.ones(6, bool))) == [0] * 6


class TestNodeSet:
    def test_roundtrip(self):
        s = NodeSet.from_ids([3, 1], 5)
        assert list(s.ids()) == [1, 3]
        assert len(s) == 2 and s.universe == 5
        assert 1 in s and 0 not in s

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            NodeSet.from_ids([5], 5)

    def test_full_empty_eq(self):
        assert NodeSet(np.ones(4, dtype=bool)).size == 4
        assert NodeSet(np.zeros(4, dtype=bool)).size == 0
        assert NodeSet.from_ids([0, 1], 3) == NodeSet.from_ids([1, 0], 3)
        assert NodeSet.from_ids([0], 3) != NodeSet.from_ids([1], 3)


class TestGenerateBa:
    def test_small_is_complete_graph(self):
        # n=5, m=4: clique on 4 nodes plus one node attached to all of them
        g = generate_ba(5, 4, seed=123)
        assert g.m == 10
        assert all(g.degree(v) == 4 for v in range(5))

    def test_edge_count_formula(self):
        for n, m, seed in [(1000, 4, 7), (50, 3, 0), (10, 1, 2)]:
            g = generate_ba(n, m, seed)
            assert g.m == m * (m - 1) // 2 + m * (n - m)
            validate(g)

    def test_deterministic(self):
        a = generate_ba(1000, 4, seed=7)
        b = generate_ba(1000, 4, seed=7)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.targets, b.targets)

    def test_seed_changes_graph(self):
        a = generate_ba(200, 4, seed=1)
        b = generate_ba(200, 4, seed=2)
        assert not np.array_equal(a.targets, b.targets)

    def test_degree_sum(self):
        g = generate_ba(1000, 4, seed=7)
        assert g.degrees().sum() == 7980

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_ba(4, 4, seed=0)
        with pytest.raises(ValueError):
            generate_ba(10, 0, seed=0)


class TestEdgeListIo:
    def test_duplicates_dropped(self, tmp_path):
        p = tmp_path / "tri.txt"
        p.write_text("0 1\n1 2\n2 0\n2 0\n")
        res = load_edge_list(p)
        assert res.graph.n == 3 and res.graph.m == 3
        assert res.dropped_duplicates == 1
        assert res.dropped_self_loops == 0

    def test_self_loop_dropped(self, tmp_path):
        p = tmp_path / "loop.txt"
        p.write_text("5 5\n5 6\n")
        res = load_edge_list(p)
        assert res.graph.n == 2 and res.graph.m == 1
        assert res.dropped_self_loops == 1

    def test_parse_error_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\n1 2\na b\n")
        with pytest.raises(EdgeListParseError, match="line 3"):
            load_edge_list(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# only a comment\n")
        with pytest.raises(EmptyGraphError):
            load_edge_list(p)

    def test_ids_compacted_in_first_appearance_order(self, tmp_path):
        p = tmp_path / "ids.txt"
        p.write_text("10 3\n3 7\n")
        g = load_edge_list(p).graph
        # 10 -> 0, 3 -> 1, 7 -> 2
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# header\n\n0 1\n")
        assert load_edge_list(p).graph.m == 1

    def test_dump_format_is_one_line_per_edge(self, tmp_path):
        g = generate_ba(300, 3, seed=4)
        p = tmp_path / "ba.txt"
        dump_edge_list(g, p)
        expected = "".join(f"{u} {v}\n" for u, v in g.edge_array())
        assert p.read_bytes() == expected.encode("ascii")
        dump_edge_list(Graph(3, np.empty((0, 2), dtype=np.int64)), p)
        assert p.read_bytes() == b""

    @pytest.mark.parametrize("body", ["+1 2\n", "007 1_0\n", "-0 5\n", "1\x0c2\n"])
    def test_int_forms_accepted(self, tmp_path, body):
        p = tmp_path / "forms.txt"
        p.write_text(body)
        assert load_edge_list(p).graph.m == 1

    def test_ids_beyond_int64_stay_distinct(self, tmp_path):
        p = tmp_path / "huge.txt"
        big = 10**25
        p.write_text(f"{big} 1\n{big} {-big}\n{big + 1} 1\n1_{big} {big}\n")
        res = load_edge_list(p)
        assert (res.graph.n, res.graph.m) == (5, 4)
        assert res.graph.has_edge(0, 2) and res.graph.has_edge(3, 1)

    def test_dump_load_roundtrip(self, tmp_path):
        g = generate_ba(80, 3, seed=5)
        p = tmp_path / "ba.txt"
        dump_edge_list(g, p)
        back = load_edge_list(p).graph
        assert back.n == g.n and back.m == g.m
        assert sorted(back.degrees()) == sorted(g.degrees())

    def test_every_writer_uses_the_plain_layout(self, tmp_path):
        # the files the package and its benchmark write take the reader's
        # one-pass path, not its line loop
        g = generate_ba(300, 3, seed=4)
        edges = g.edge_array()
        dump = tmp_path / "dump.txt"
        dump_edge_list(g, dump)
        good = tmp_path / "good.txt"
        _write_good_nodes(NodeSet.from_ids([12, 3, 40], 60), good)
        bench = tmp_path / "bench.txt"  # perfbench/inputs.write_edge_list
        bench.write_text("\n".join(f"{u} {v}" for u, v in edges.tolist()) + "\n")
        dirty = tmp_path / "dirty.txt"  # a SNAP-style copy
        dirty.write_bytes(b"# dirty copy\r\n# n m\r\n"
                          + "".join(f"{u}\t{v}\r\n" for u, v in edges).encode("ascii"))
        for path, width, rows in [(dump, 2, edges), (good, 1, [[3], [12], [40]]),
                                  (bench, 2, edges), (dirty, 2, edges)]:
            with open(path) as fh:
                got = _plain_rows(fh.read(), width)
            assert got is not None, path.name
            assert np.array_equal(got, rows)


def _dirty_edge_lines(rng, dense=False) -> list[str]:
    """Lines of a random edge list in the layouts the loader accepts: sparse
    and negative ids, self-loops, repeated and reversed edges, blank and
    comment lines, tabs and stray spaces. With ``dense`` the ids are
    ``0..k-1`` for a small k instead, which the loader numbers by table."""
    if dense:
        pool = np.arange(int(rng.integers(2, 30)))
    else:
        pool = rng.integers(0, 10**9, size=int(rng.integers(2, 30)))
        pool[::3] %= 100
        pool[1::3] = -1 - pool[1::3] % 50
    seen = []
    lines = []
    for _ in range(int(rng.integers(1, 60))):
        kind = rng.random()
        if kind < 0.08:
            lines.append(rng.choice(["", " ", "\t"]))
            continue
        if kind < 0.16:
            lines.append(rng.choice(["#", "# comment 1 2", "  #x", "\t# 3"]))
            continue
        if seen and kind < 0.3:
            u, v = seen[int(rng.integers(len(seen)))]
            if rng.random() < 0.5:
                u, v = v, u
        else:
            u, v = (str(x) for x in rng.choice(pool, 2))
            if rng.random() < 0.05:
                v = u
            if rng.random() < 0.05:
                u = rng.choice(["+", "00", "-0"]) + u.lstrip("-")
        seen.append((u, v))
        sep = rng.choice([" ", "  ", "\t", " \t "])
        lead = rng.choice(["", "", " ", "\t"])
        trail = rng.choice(["", "", " ", "\t "])
        lines.append(f"{lead}{u}{sep}{v}{trail}")
    return lines


def _plain_edge_lines(rng, dense=False) -> list[str]:
    """Lines of a random edge list in the plain layout the loader reads in
    one pass: a few comment lines, then one row per edge of two non-negative
    ids separated by one space or tab, self-loops and repeats included.
    With ``dense`` the ids are ``0..k-1``."""
    k = int(rng.integers(2, 30))
    pool = np.arange(k) if dense else rng.integers(0, 10**9, size=k)
    head = [str(rng.choice(["#", "# comment 1 2", "#\tx"]))
            for _ in range(int(rng.integers(0, 3)))]
    rows = rng.choice(pool, size=(int(rng.integers(1, 60)), 2)).tolist()
    seps = rng.choice([" ", "\t"], size=len(rows))
    return head + [f"{u}{sep}{v}" for (u, v), sep in zip(rows, seps)]


def _write_lines(path, lines, rng):
    crlf = rng.random() < 0.5
    ends = [("\r\n" if (crlf if rng.random() < 0.9 else not crlf) else "\n")
            for _ in lines]
    if rng.random() < 0.3:
        ends[-1] = ""  # no newline at the end of the file
    path.write_bytes("".join(a + b for a, b in zip(lines, ends)).encode("ascii"))


def _error(load, path):
    """The type and message of the loader error ``load(path)`` raises, or None."""
    try:
        load(path)
    except (EdgeListParseError, EmptyGraphError) as e:
        return type(e), str(e)
    return None


def _assert_plain(path):
    with open(path) as fh:
        assert _plain_rows(fh.read(), 2) is not None


def _assert_same_as_line_parser(path):
    """``load_edge_list(path)`` raises what the line parser raises, or
    returns its graph and drop counts."""
    expected_error = _error(brute_edge_list, path)
    if expected_error:
        assert _error(load_edge_list, path) == expected_error
        return
    n, edges, loops, dups = brute_edge_list(path)
    offsets, targets = brute_csr(n, edges)
    got = load_edge_list(path)
    assert got.graph.n == n
    assert np.array_equal(got.graph.offsets, offsets)
    assert np.array_equal(got.graph.targets, targets)
    assert (got.dropped_self_loops, got.dropped_duplicates) == (loops, dups)


class TestEdgeListDifferential:
    """The loader, by both of its paths, against the line-by-line reference parser."""

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_line_parser(self, tmp_path, seed):
        # every third file has the plain layout, so both paths are checked
        rng = np.random.default_rng(seed)
        plain = seed % 3 == 0
        lines = _plain_edge_lines(rng) if plain else _dirty_edge_lines(rng)
        malformed = seed % 4 == 3
        if malformed:  # one bad line somewhere
            bad = rng.choice(["7", "1 2 3", "1 x", "0 1 # note", "1.5 2", "_1 2",
                              "0x1 2", "1 2 3 4", "1__0 2"])
            lines.insert(int(rng.integers(0, len(lines) + 1)), str(bad))
        path = tmp_path / f"dirty{seed}.txt"
        _write_lines(path, lines, rng)
        if plain and not malformed:
            _assert_plain(path)
        _assert_same_as_line_parser(path)

    @pytest.mark.parametrize("body", [
        "",
        "\n\n",
        "# only a comment",
        "0 1\n2\n",
        "0 1\r\n2 3 4\r\n",
        "0 1\n\n# c\n1 y\n",
        "0 1 # note\n",
        "0 1\n1 2\n3 4 5",
        "# 1 2\n  \t\n12 x3\n",
        "# a\n# b\n",
        "0 \n1 2\n",
        "0\n1\n",
    ])
    def test_malformed_same_error(self, tmp_path, body):
        path = tmp_path / "bad.txt"
        path.write_bytes(body.encode("ascii"))
        expected = _error(brute_edge_list, path)
        assert expected is not None
        assert _error(load_edge_list, path) == expected

    @pytest.mark.parametrize("seed", range(60))
    def test_dense_ids_match_line_parser(self, tmp_path, seed):
        # ids 0..k-1 (the layout every file dump_edge_list writes) take the
        # loader's table numbering, not its sort; every third file has the
        # plain layout
        rng = np.random.default_rng(1000 + seed)
        path = tmp_path / f"dense{seed}.txt"
        plain = seed % 3 == 0
        lines = (_plain_edge_lines if plain else _dirty_edge_lines)(rng, dense=True)
        _write_lines(path, lines, rng)
        if plain:
            _assert_plain(path)
        _assert_same_as_line_parser(path)

    @pytest.mark.parametrize("body", [
        "0\x1c1\n1\x1d2\x1e\n\x1f2 0\n",
        "0\u20031\n1\u2003\u20032\n",
        "0 1\x85\n\x851 2\n",
        "0 1\x852 3\n",
        "0 1\u2028\n1 2\n",
        "0 1\u20282 3\n",
        "\ufeff0 1\n1 2\n",
        "\ufeff# header\n0 1\n",
        "\u0660 \u0661\n\u0661 \u0662\n2 0\n",
        "0 1\n1 \u00b2\n",
        "0 1\n1 2_0\n20 3\n1_0 10\n",
        "0 1\n1 0000000000000000000002\n2 -123456789012345678901\n2 0\n",
        "0 1\n1 2\n2 3_\n",
        "0 1\n+1 +2_2\n22 -0\n",
        "9223372036854775807 9223372036854775808\n0 -9223372036854775809\n",
        "0 123456789012345678\n123456789012345678 1\n",
        "0 1234567890123456789\n1234567890123456789 1\n",
        "9223372036854775807 9223372036854775808\n",
        "0  1\n1 2\n",
        "0 1 \n1 2\n",
        "0 1\n1 2\n\n",
        "0 1\n# c\n1 2\n",
        "0 1\n1 2",
        "# h\r\n0\t1\r\n1 2\r\n",
    ])
    def test_unusual_bodies_match_line_parser(self, tmp_path, body):
        # separators, line breaks and digits outside ASCII, tokens that
        # np.fromstring cannot read, and the edges of the plain layout
        path = tmp_path / "unusual.txt"
        path.write_bytes(body.encode("utf-8"))
        _assert_same_as_line_parser(path)


class TestSeeding:
    def test_derive_seed_stable(self):
        assert derive_seed(7, "labels") == derive_seed(7, "labels")

    def test_derive_seed_separates_streams(self):
        seen = {
            derive_seed(7, "labels"),
            derive_seed(7, "teacher"),
            derive_seed(8, "labels"),
            derive_seed(7, "labels", 0),
        }
        assert len(seen) == 4

    def test_derive_seed_in_63_bit_range(self):
        for s in [0, 1, 2**40]:
            d = derive_seed(s, "x")
            assert 0 <= d < 2**63

    def test_make_rng_reproducible(self):
        a = make_rng(42).random(4)
        b = make_rng(42).random(4)
        assert np.array_equal(a, b)
