"""Labeled regular graph model, enumeration, and serialization tests.

The enumerator is the foundation of the exhaustive search, so it is checked
against an independent brute-force oracle: filter every m-subset of the
complete graph's edge set for d-regularity.  The walk's pruning hook is
checked call by call against the recursive reference walk, and the memo
that only the hookless walk keeps against that walk and the hooked one.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcross.errors import ResourceLimitError
from maxcross.graph import (
    GRAPH_FORMAT_HEADER,
    RegularGraph,
    connected_components,
    enumerate_labeled_regular,
    feasible,
    graph_from_text,
    graph_to_text,
    lex_fill,
    load_graph,
    make_circulant,
    make_complete,
    make_cycle,
    make_graph,
    shard_prefixes,
)
from reference import reference_walk


def brute_force_regular(n: int, d: int) -> set[tuple]:
    """All labeled d-regular graphs on n vertices, by edge-subset filtering."""
    m = n * d // 2
    found = set()
    for subset in combinations(combinations(range(n), 2), m):
        degree = [0] * n
        for u, v in subset:
            degree[u] += 1
            degree[v] += 1
        if all(x == d for x in degree):
            found.add(subset)
    return found


def edge_prefixes(n, d):
    """(open star, past star, dead star), prefixes that start the walk off
    a whole star.  Part of a star leaves vertex 0 with free stubs, so the
    root tests itself; the first d + 1 edges of the first graph saturate
    vertex 0 and stop part-way through vertex 1, so the root goes on filling
    vertex 1; and the last star without its first edge leaves vertex 0 no
    partner, so nothing is yielded and no node is offered to the hook."""
    prefixes = shard_prefixes(n, d)
    return (
        prefixes[len(prefixes) // 2][: d // 2],
        next(lex_fill(n, d))[: d + 1],
        prefixes[-1][1:],
    )


class TestFeasible:
    def test_parity(self):
        assert feasible(6, 3)
        assert not feasible(5, 3)
        assert not feasible(7, 3)
        assert feasible(7, 4)

    def test_bad_ranges_raise(self):
        with pytest.raises(ValueError):
            feasible(2, 1)
        with pytest.raises(ValueError):
            feasible(6, 1)
        with pytest.raises(ValueError):
            feasible(6, 6)


class TestRegularGraph:
    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            RegularGraph(4, 2, ((0, 1), (1, 2), (2, 3), (1, 3)))

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            RegularGraph(3, 2, ((0, 2), (0, 1), (1, 2)))

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError):
            RegularGraph(5, 3, ())

    def test_adjacency(self):
        g = make_cycle(4)
        assert g.adjacency == ((1, 3), (0, 2), (1, 3), (0, 2))

    def test_complement_of_cycle(self):
        g = make_cycle(5)
        c = g.complement()
        assert c.d == 2
        assert c.edges == ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4))

    def test_degree_one_diameter_class(self):
        g = make_circulant(8, [4])
        assert g.d == 1
        assert g.edges == ((0, 4), (1, 5), (2, 6), (3, 7))


class TestConstructors:
    def test_cycle(self):
        assert make_cycle(5).edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))

    def test_complete(self):
        g = make_complete(5)
        assert g.d == 4
        assert len(g.edges) == 10

    def test_circulant_degree(self):
        assert make_circulant(8, [1, 4]).d == 3
        assert make_circulant(10, range(2, 6)).d == 7

    def test_circulant_bad_offset(self):
        with pytest.raises(ValueError):
            make_circulant(8, [5])
        with pytest.raises(ValueError):
            make_circulant(8, [0])

    def test_make_graph_normalizes(self):
        g = make_graph(3, 2, [(2, 1), (1, 0), (0, 2)])
        assert g.edges == ((0, 1), (0, 2), (1, 2))


class TestComponents:
    def test_two_triangles(self):
        g = make_graph(6, 2, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert connected_components(g) == [[0, 1, 2], [3, 4, 5]]

    def test_single_cycle(self):
        assert connected_components(make_cycle(6)) == [[0, 1, 2, 3, 4, 5]]


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,d,count",
        [
            (4, 2, 3), (4, 3, 1), (5, 2, 12), (6, 2, 70), (6, 3, 70),
            # OEIS A001205 (d = 2) and A002829 (d = 3)
            (7, 2, 465), (8, 2, 3507), (8, 3, 19355), (9, 2, 30016),
            # the 4-regular graphs on 8 vertices are the cubic ones' complements
            (8, 4, 19355),
        ],
    )
    def test_counts(self, n, d, count):
        assert sum(1 for _ in enumerate_labeled_regular(n, d)) == count

    @pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (6, 2), (6, 3)])
    def test_matches_brute_force(self, n, d):
        ours = {g.edges for g in enumerate_labeled_regular(n, d)}
        assert ours == brute_force_regular(n, d)

    def test_lexicographic_order(self):
        stream = [g.edges for g in enumerate_labeled_regular(6, 2)]
        assert stream == sorted(stream)

    def test_complete_graph_unique(self):
        graphs = list(enumerate_labeled_regular(5, 4))
        assert graphs == [make_complete(5)]

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            list(enumerate_labeled_regular(11, 2))

    def test_infeasible_yields_empty_stream(self):
        assert list(enumerate_labeled_regular(5, 3)) == []

    def test_complement_closure(self):
        # complementation is a bijection between the (6,2) and (6,3) streams
        low = {g.edges for g in enumerate_labeled_regular(6, 2)}
        high = {g.complement().edges for g in enumerate_labeled_regular(6, 3)}
        assert low == high

    def test_shard_prefixes_partition_stream(self):
        full = list(lex_fill(6, 2))
        sharded = []
        for prefix in shard_prefixes(6, 2):
            sharded.extend(lex_fill(6, 2, prefix))
        assert sharded == full

    @given(
        st.sampled_from([(4, 2), (5, 2), (5, 4), (6, 2), (6, 3), (6, 4), (6, 5)])
    )
    @settings(max_examples=7, deadline=None)
    def test_every_graph_is_regular(self, pair):
        n, d = pair
        for g in enumerate_labeled_regular(n, d):
            assert g.n == n and g.d == d

    def test_prune_skips_exactly_the_subtree(self):
        # cutting the node whose first k edges are P removes exactly the
        # graphs that start with P and leaves the rest of the stream in order;
        # with k = m = 6 the node is a leaf and only that graph goes
        full = list(lex_fill(6, 2))
        for k in (1, 3, 5, 6):
            prefix = full[len(full) // 2][:k]

            def prune(stack, remaining):
                return tuple(stack[:k]) == prefix

            kept = [edges for edges in full if edges[:k] != prefix]
            assert len(kept) < len(full)
            assert list(lex_fill(6, 2, prune=prune)) == kept
        # a complete prefix is a leaf too
        done = full[0]
        assert list(lex_fill(6, 2, done, lambda stack, remaining: False)) == [done]
        assert list(lex_fill(6, 2, done, lambda stack, remaining: True)) == []

    def test_prefix_must_saturate_lower_vertices(self):
        # (1, 3) is placed while vertex 0 still has a free stub, so no graph
        # extends this prefix; the walk refuses it rather than yield non-graphs
        with pytest.raises(ValueError) as caught:
            list(lex_fill(5, 2, ((0, 2), (1, 3))))
        assert str(caught.value) == (
            "prefix edge (1, 3) is placed while vertex 0 has free stubs"
        )

    @pytest.mark.parametrize(
        "n, d, prefix, message",
        [
            (6, 2, ((0, 6),), "bad prefix edge (0, 6)"),
            (6, 2, ((0, 2), (0, 1)), "prefix edges must be strictly increasing"),
            (6, 2, ((0, 1), (0, 2), (0, 3)), "prefix edge (0, 3) oversaturates a vertex"),
        ],
    )
    def test_bad_prefix_rejected(self, n, d, prefix, message):
        # a prefix no sorted edge list of a d-regular graph starts with
        with pytest.raises(ValueError) as caught:
            list(lex_fill(n, d, prefix))
        assert str(caught.value) == message

    @pytest.mark.parametrize("n,d", [(7, 4), (8, 3)])
    def test_matches_reference_walk(self, n, d):
        # a seeded random cut on both walks: equal streams and the same
        # hook calls in the same order, so the cuts fall on the same nodes,
        # leaves included: every graph yielded was offered first.  Without
        # a hook the streams are equal too, so the memo that only the
        # hookless walk keeps is checked against a walk that shares no code
        prefixes = shard_prefixes(n, d)
        open_star, past_star, dead_star = edge_prefixes(n, d)
        cases = (
            [()] + prefixes[:: len(prefixes) // 3]
            + [open_star, past_star, dead_star]
        )
        for seed, prefix in enumerate(cases):
            assert list(lex_fill(n, d, prefix)) == list(reference_walk(n, d, prefix))
            runs = []
            for walk in (lex_fill, reference_walk):
                calls = []
                rng = random.Random(seed)

                def prune(stack, remaining):
                    calls.append((tuple(stack), tuple(remaining)))
                    return rng.random() < 0.05

                runs.append((list(walk(n, d, prefix, prune)), calls))
            assert runs[0] == runs[1]
            if prefix == dead_star:
                assert runs[0] == ([], [])
            else:
                assert runs[0][0] and len(runs[0][1]) > len(runs[0][0])
                assert set(runs[0][0]) <= {stack for stack, _ in runs[0][1]}

    @pytest.mark.parametrize(
        "n,d",
        [(n, d) for n in range(3, 9) for d in range(2, n) if feasible(n, d)] + [(9, 2)],
    )
    def test_memo_matches_walk_without_memo(self, n, d):
        # a hook that never cuts turns the memo off and changes nothing
        # else, so the hookless stream must equal it from every prefix:
        # none, each vertex-0 star, the three prefixes that start the walk
        # off a whole star, and a complete graph
        def never(stack, remaining):
            return False

        cases = [()] + shard_prefixes(n, d) + list(edge_prefixes(n, d))
        cases.append(next(lex_fill(n, d)))
        for prefix in cases:
            assert list(lex_fill(n, d, prefix)) == list(lex_fill(n, d, prefix, never))


class TestSerialization:
    def test_round_trip(self):
        g = make_circulant(7, [1, 3])
        assert graph_from_text(graph_to_text(g)) == g

    def test_header(self):
        assert graph_to_text(make_cycle(4)).startswith(GRAPH_FORMAT_HEADER)

    def test_comments_skipped(self):
        text = graph_to_text(make_cycle(4)) + "# trailing note\n"
        assert graph_from_text(text) == make_cycle(4)

    @pytest.mark.parametrize(
        "good, bad, message",
        # every damaged graph file, on C4: '4 2' then edges 0 1, 0 3, 1 2, 2 3
        [(b"\n1 2\n", b"\n1 2 5\n", "bad edge line '1 2 5'"),
         (b"\n1 2\n", b"\n1 \xff\n", "not UTF-8 text"),
         (b"regular-graph v1", b"regular-graph v9", "missing 'regular-graph v1' header"),
         (b"regular-graph v1", b"bogus v9", "missing 'regular-graph v1' header"),
         (b"\n4 2\n", b"\n4 -2\n", "negative count in size line '4 -2'"),
         (b"\n0 3\n", b"\n", "expected 4 edge lines, got 3"),
         # the rest is RegularGraph's, the one validator of a file's edge list
         (b"\n4 2\n0 1\n0 3\n1 2\n2 3\n", b"\n4 0\n", "degree 0 out of range for n=4"),
         (b"\n4 2\n", b"\n5 3\n0 2\n1 3\n2 4\n", "no d-regular graph exists for n=5, d=3"),
         (b"\n2 3\n", b"\n2 9\n", "bad edge (2, 9)"),
         (b"\n2 3\n", b"\n1 3\n", "vertices [1, 2] do not have degree 2")],
    )
    def test_load_error_names_the_file(self, tmp_path, good, bad, message):
        path = tmp_path / "bad.graph"
        text = graph_to_text(make_cycle(4)).encode()
        assert good in text
        path.write_bytes(text.replace(good, bad))
        with pytest.raises(ValueError) as caught:
            load_graph(str(path))
        assert str(caught.value) == f"graph {path}: {message}"
