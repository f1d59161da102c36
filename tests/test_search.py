"""Exhaustive convex-position search and randomized probes."""

import functools
import math
import os
import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcross.cli import main
from maxcross.constructions import ConvexOrder, crossings_convex, interleave_masks
from maxcross.errors import ResourceLimitError
from maxcross.formulas import best_known, exact_odd, exact_r_n_2_even, lower_bound_even
from maxcross.geometry import count_crossings_geometric
from maxcross.graph import (
    RegularGraph,
    connected_components,
    enumerate_labeled_regular,
    feasible,
    lex_fill,
    make_complete,
    shard_prefixes,
)
from maxcross.search import (
    REFERENCE_VALUES,
    _pool_size,
    _search_shard,
    _searches_complement,
    convex_max,
    load_shard_checkpoint,
    perturbation_probe,
    reproduce_table,
    sample_drawing,
    sample_regular_graph,
    write_shard_checkpoint,
)
from reference import (
    complement_prune_decision,
    dihedral_relabelings,
    keeps_dihedral_representative,
    prune_decision,
    sample_by_pairing,
)

DATA = Path(__file__).parent / "data"


@functools.cache
def _convex_stream(n, d):
    """(edges, convex crossings) of every labeled graph, in stream order."""
    order = ConvexOrder.identity(n)
    return [
        (graph.edges, crossings_convex(graph, order).total)
        for graph in enumerate_labeled_regular(n, d)
    ]


@functools.cache
def _kept_stream(n, d):
    """The part of _convex_stream that keeps the dihedral reference test."""
    return [
        (edges, total)
        for edges, total in _convex_stream(n, d)
        if keeps_dihedral_representative(RegularGraph(n, d, edges))
    ]


def _record_searched_stars(monkeypatch):
    """Prefixes convex_max passes to _search_shard, in call order."""
    import maxcross.search as search

    searched = []
    original = search._search_shard

    def spy(n, d, prefix, floor):
        searched.append(prefix)
        return original(n, d, prefix, floor)

    monkeypatch.setattr(search, "_search_shard", spy)
    return searched


def _count_prune_calls(monkeypatch):
    """[hook calls, cuts] of every prune hook the search hands to lex_fill."""
    import maxcross.search as search

    counts = [0, 0]
    original = search.lex_fill

    def spy(n, d, prefix, prune):
        def counted(stack, remaining):
            cut = prune(stack, remaining)
            counts[0] += 1
            counts[1] += cut
            return cut

        return original(n, d, prefix, counted)

    monkeypatch.setattr(search, "lex_fill", spy)
    return counts


class TestConvexMax:
    @pytest.mark.parametrize(
        "n,d,value",
        [
            (4, 2, 1), (4, 3, 1), (5, 2, 5), (5, 4, 5),
            (6, 2, 7), (6, 3, 15), (6, 4, 15), (6, 5, 15),
            (7, 2, 14), (7, 4, 35), (7, 6, 35),
        ],
    )
    def test_small_values(self, n, d, value):
        assert convex_max(n, d).max_crossings == value

    def test_witness_attains_maximum(self):
        result = convex_max(6, 2)
        report = crossings_convex(result.witness, ConvexOrder.identity(6))
        assert report.total == result.max_crossings

    def test_witness_is_lex_least(self):
        # the first graph of the unpruned stream attaining the maximum must be
        # the one the search returns, in every feasible cell with n <= 8
        for n in range(4, 9):
            for d in range(2, n):
                if n * d % 2:
                    continue
                stream = _convex_stream(n, d)
                best = max(total for _, total in stream)
                first = next(e for e, total in stream if total == best)
                result = convex_max(n, d)
                assert (result.max_crossings, result.witness.edges) == (best, first), (n, d)

    @pytest.mark.parametrize("n,d", [(6, 4), (7, 4), (8, 2), (8, 3), (8, 4), (8, 5), (8, 6)])
    def test_every_shard_matches_brute_force(self, n, d, monkeypatch):
        # with floor 0 nothing but the bound and the dihedral test prunes, so a
        # bound that is too tight anywhere shows as a wrong shard maximum or
        # witness among the graphs the reference predicate keeps; a star that
        # convex_max does not search must start no kept graph at all
        searched = _record_searched_stars(monkeypatch)
        convex_max(n, d)
        monkeypatch.undo()
        assert searched
        for prefix in shard_prefixes(n, d):
            shard = [(e, total) for e, total in _kept_stream(n, d) if e[:d] == prefix]
            if prefix not in searched:
                assert not shard, prefix
                continue
            best = max((total for _, total in shard), default=0)
            first = next((e for e, total in shard if total == best), None)
            assert _search_shard(n, d, prefix, 0)[:2] == (best, first), prefix

    @pytest.mark.parametrize("n,d", [(6, 2), (7, 4), (8, 3), (8, 4)])
    def test_orbit_minimum_is_kept(self, n, d):
        # the search may drop every labeling but one per dihedral orbit only
        # if the one it keeps is the orbit's least, where the lex-least
        # maximizer lives; the predicate must also drop something
        seen = set()
        rejected = 0
        for graph in enumerate_labeled_regular(n, d):
            if graph.edges in seen:
                continue
            orbit = set(dihedral_relabelings(graph))
            seen |= orbit
            assert min(orbit) == graph.edges  # the stream is lexicographic
            assert keeps_dihedral_representative(graph), graph.edges
            rejected += not keeps_dihedral_representative(RegularGraph(n, d, max(orbit)))
        assert rejected

    def test_shard_with_a_smaller_reflected_star_is_skipped(self, tmp_path, monkeypatch):
        # reflecting the labels through 0 turns N(0) = {1, 3, 7, 8} into
        # {1, 2, 6, 8}, so no graph of this shard is kept; vertex 8 ties with
        # vertex 0 on its first offset, so only the star at vertex 0 rules it out
        prefix = ((0, 1), (0, 3), (0, 7), (0, 8))
        assert shard_prefixes(9, 4)[24] == prefix
        graph = RegularGraph(9, 4, next(lex_fill(9, 4, prefix)))
        assert not keeps_dihedral_representative(graph)
        searched = _record_searched_stars(monkeypatch)
        convex_max(9, 4, checkpoint_dir=str(tmp_path))
        assert searched and prefix not in searched
        names = os.listdir(tmp_path)
        assert len(names) == len(searched) and "shard-24.ckpt" not in names

    def test_only_kept_shards_are_written_and_old_files_ignored(self, tmp_path):
        # stars 8, 9 and 11-14 of (7, 4) hold no kept graph; files for them in
        # the form a run that still searched every star wrote are not read
        n, d = 7, 4
        prefixes = shard_prefixes(n, d)
        dropped = {8, 9, 11, 12, 13, 14}
        fresh = convex_max(n, d, checkpoint_dir=str(tmp_path))
        written = {f"shard-{i}.ckpt" for i in range(len(prefixes)) if i not in dropped}
        assert len(written) == 9 and set(os.listdir(tmp_path)) == written
        floor = best_known(n, d).lower
        for index in dropped:
            path = str(tmp_path / f"shard-{index}.ckpt")
            write_shard_checkpoint(path, (n, d, index, prefixes[index]), (floor, None, 0))
        resumed = convex_max(n, d, checkpoint_dir=str(tmp_path))
        assert (resumed.max_crossings, resumed.witness, resumed.graphs_examined) == (
            fresh.max_crossings,
            fresh.witness,
            fresh.graphs_examined,
        )

    @pytest.mark.parametrize("n,d", [(7, 4), (8, 3), (8, 4)])
    def test_future_pair_bound_is_admissible(self, n, d):
        # two edges meeting at a vertex never cross, so after the first k edges
        # of any graph the other m - k cross each other at most
        # C(m - k, 2) - sum_v C(r_v, 2) times, r_v the free stubs at v
        all_edges = list(combinations(range(n), 2))
        masks = dict(zip(all_edges, interleave_masks(all_edges)))
        bits = {e: 1 << i for i, e in enumerate(all_edges)}
        m = n * d // 2
        for graph in enumerate_labeled_regular(n, d):
            free = [0] * n
            later = crossed = 0
            for k in range(m - 1, -1, -1):
                u, v = edge = graph.edges[k]
                crossed += (masks[edge] & later).bit_count()
                later |= bits[edge]
                free[u] += 1
                free[v] += 1
                shared = sum(r * (r - 1) // 2 for r in free)
                assert crossed <= (m - k) * (m - k - 1) // 2 - shared, (graph.edges, k)

    @pytest.mark.parametrize("n,d", [(7, 4), (8, 3), (8, 4)])
    def test_residual_capacity_matches_reference(self, n, d, monkeypatch):
        # the hook's cut at every node must equal the decision rebuilt from the
        # dihedral predicate, the future-pair bound and the stack-based
        # capacity, with best the largest kept leaf so far: the capacity pass
        # stops once it reaches the slack, which must not change a cut.  The
        # bound is exact one edge before a leaf, so at a leaf the cut is the
        # whole graph's dihedral verdict alone
        import maxcross.search as search

        original = search.lex_fill
        order = ConvexOrder.identity(n)
        m = n * d // 2
        decisions = Counter()
        leaves = Counter()
        for floor in (0, best_known(n, d).lower):
            for prefix in shard_prefixes(n, d):
                best = floor

                def spy(n_, d_, prefix_, prune):
                    def check(stack, remaining):
                        cut = prune(stack, remaining)
                        expected = prune_decision(n, d, stack, remaining, best)
                        assert cut == expected, (stack, remaining, best)
                        decisions[cut] += 1
                        if len(stack) == m:
                            graph = RegularGraph(n, d, tuple(stack))
                            assert cut != keeps_dihedral_representative(graph), stack
                            leaves[cut] += 1
                        return cut

                    nonlocal best
                    for edges in original(n_, d_, prefix_, check):
                        graph = RegularGraph(n, d, edges)
                        if keeps_dihedral_representative(graph):
                            best = max(best, crossings_convex(graph, order).total)
                        yield edges

                monkeypatch.setattr(search, "lex_fill", spy)
                assert _search_shard(n, d, prefix, floor)[0] == best
        assert decisions[True] and decisions[False]
        assert leaves[True] and leaves[False]

    def test_determinism_across_workers(self):
        runs = [convex_max(7, 4, workers=w) for w in (1, 2, 8)]
        baseline = (runs[0].max_crossings, runs[0].witness, runs[0].graphs_examined)
        for result in runs[1:]:
            assert (result.max_crossings, result.witness, result.graphs_examined) == baseline

    def test_matches_closed_forms_through_n7(self):
        for n in range(4, 8):
            for d in range(2, n):
                if n * d % 2:
                    continue
                assert convex_max(n, d).max_crossings == best_known(n, d).lower

    def test_pool_size_is_bounded(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _pool_size(10**9, 100) == 4
        assert _pool_size(3, 100) == 3
        assert _pool_size(8, 2) == 2
        assert _pool_size(0, 5) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _pool_size(8, 5) == 1

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            convex_max(10, 2)
        with pytest.raises(ResourceLimitError):
            convex_max(13, 2, long_run=True)

    def test_long_run_cells(self):
        # n = 11 and 12 are in reach of long-run mode: the exact odd cells and
        # the conjectured (12, 4), where the star-like count is the convex maximum
        cells = [(11, 4, exact_odd(11, 4)), (12, 3, exact_odd(12, 3)),
                 (12, 5, exact_odd(12, 5)), (12, 4, 169)]
        assert lower_bound_even(12, 4) == 169
        for n, d, value in cells:
            result = convex_max(n, d, long_run=True)
            recount = crossings_convex(result.witness, ConvexOrder.identity(n)).total
            assert result.max_crossings == recount == value, (n, d)

    def test_golden_cells(self, capsys):
        # convex_cells.txt holds the `search --long-run` stdout of every
        # feasible cell with 4 <= n <= 12, six lines each; the n <= 11 cells
        # must match byte for byte, and CI re-runs the n = 12 cells
        lines = (DATA / "convex_cells.txt").read_text().splitlines(keepends=True)
        blocks = ["".join(lines[i : i + 6]) for i in range(0, len(lines), 6)]
        assert len(blocks) == 44
        for expected in blocks:
            n, d = (int(line.split()[1]) for line in expected.splitlines()[:2])
            if n > 11:
                continue
            argv = ["search", "--n", str(n), "--d", str(d), "--long-run"]
            assert main(argv) == 0
            assert capsys.readouterr().out == expected, (n, d)

    @pytest.mark.parametrize(
        "n,d,calls,cuts",
        [(8, 4, 240, 115), (9, 6, 205, 168), (10, 6, 31738, 12260), (11, 8, 492, 422)],
    )
    def test_pruning_work_is_pinned(self, n, d, calls, cuts, monkeypatch):
        # nodes offered to the prune hook and nodes it cut, shard roots and
        # leaves included; a change to the bound or the node step shows here
        # first.  (9, 6) and (11, 8) search the complement
        counts = _count_prune_calls(monkeypatch)
        convex_max(n, d, long_run=True)
        assert counts == [calls, cuts]

    def test_infeasible(self):
        with pytest.raises(ValueError):
            convex_max(7, 3)

    def test_mode_field(self):
        result = convex_max(5, 2)
        assert result.mode == "convex-exhaustive"
        assert result.elapsed >= 0


class TestComplementSearch:
    def test_cells_that_search_the_complement(self):
        # the rule 0 < n - 1 - d < d / 2, on every feasible cell with n <= 12
        cells = [
            (n, d)
            for n in range(4, 13)
            for d in range(2, n)
            if n * d % 2 == 0 and _searches_complement(n, d)
        ]
        assert cells == [
            (6, 4), (8, 5), (8, 6), (9, 6), (10, 7),
            (10, 8), (11, 8), (12, 8), (12, 9), (12, 10),
        ]

    @given(st.integers(4, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_crossings_through_the_complement(self, n, data):
        # cr(G) = C(n, 4) - sum of c(e) over the edges e of H = K_n - G, plus
        # cr(H), where c(e) = (k - 1)(n - k - 1) counts the chords of K_n
        # that cross a chord e spanning k = b - a steps
        d = data.draw(st.sampled_from([d for d in range(2, n - 1) if n * d % 2 == 0]))
        graph = sample_regular_graph(n, d, random.Random(data.draw(st.integers(0, 2**32))))
        complement = graph.complement()
        order = ConvexOrder.identity(n)
        crossed = crossings_convex(make_complete(n), order).per_edge
        weight = 0
        for a, b in complement.edges:
            k = b - a
            assert crossed[a, b] == (k - 1) * (n - k - 1), (a, b)
            weight += crossed[a, b]
        total = crossings_convex(graph, order).total
        assert total == math.comb(n, 4) - weight + crossings_convex(complement, order).total

    @pytest.mark.parametrize("n,d", [(8, 4), (8, 5), (8, 6)])
    def test_hook_matches_reference(self, n, d, monkeypatch):
        # the hook walks H = K_n - G; its cut at every node must equal the
        # decision rebuilt from the definitions, with best the largest kept
        # G so far.  At a complete H the cut is G's dihedral verdict or its
        # count below best, and with best at the lower bound the second cuts.
        # (8, 4) is forced into H: its degree 3 there makes the owed weight
        # positive, while up to 2 free stubs the cheapest edges, the sides
        # (0, 1) and (0, n - 1), weigh 0
        import maxcross.search as search

        monkeypatch.setattr(search, "_searches_complement", lambda n, d: True)
        original = search.lex_fill
        order = ConvexOrder.identity(n)
        spare = n - 1 - d
        m = n * spare // 2
        decisions = Counter()
        leaves = Counter()
        for floor in (0, best_known(n, d).lower):
            for prefix in shard_prefixes(n, d):
                best = floor

                def spy(n_, d_, prefix_, prune):
                    assert (n_, d_) == (n, spare)

                    def check(stack, remaining):
                        cut = prune(stack, remaining)
                        expected = complement_prune_decision(n, d, stack, remaining, best)
                        assert cut == expected, (stack, remaining, best)
                        decisions[cut] += 1
                        if len(stack) == m:
                            graph = RegularGraph(n, spare, tuple(stack)).complement()
                            kept = keeps_dihedral_representative(graph)
                            below = crossings_convex(graph, order).total < best
                            assert cut == (not kept or below), stack
                            leaves[kept, below] += 1
                        return cut

                    nonlocal best
                    for edges in original(n_, d_, prefix_, check):
                        graph = RegularGraph(n, spare, edges).complement()
                        best = max(best, crossings_convex(graph, order).total)
                        yield edges

                monkeypatch.setattr(search, "lex_fill", spy)
                assert _search_shard(n, d, prefix, floor)[0] == best
        assert decisions[True] and decisions[False]
        assert leaves[True, True] and leaves[True, False] and leaves[False, False]

    @pytest.mark.parametrize("n,d", [(6, 2), (7, 4), (8, 2), (8, 4), (8, 5)])
    def test_both_spaces_give_every_shard_the_same_outcome(self, n, d, monkeypatch):
        # a shard searched in G or in H must give the same best and witness
        # at floor 0, and at the lower bound, the maximum of these cells, the
        # same examined count too: the kept graphs that attain it
        import maxcross.search as search

        for floor in (0, best_known(n, d).lower):
            outcomes = []
            for complement in (False, True):
                monkeypatch.setattr(
                    search, "_searches_complement", lambda n, d, c=complement: c
                )
                outcomes.append([_search_shard(n, d, p, floor) for p in shard_prefixes(n, d)])
            if floor:
                assert outcomes[0] == outcomes[1]
            else:
                assert [o[:2] for o in outcomes[0]] == [o[:2] for o in outcomes[1]]


class TestWitnessStructure:
    def test_n8_is_two_quadrilaterals(self):
        witness = convex_max(8, 2).witness
        assert sorted(len(c) for c in connected_components(witness)) == [4, 4]

    def test_n6_is_one_hexagon(self):
        witness = convex_max(6, 2).witness
        assert sorted(len(c) for c in connected_components(witness)) == [6]


def _real_shard(index):
    """Run and outcome of shard index of (6, 2), searched from the floor:
    shard 0 records no witness, shard 4 the run's witness."""
    n, d = 6, 2
    prefix = shard_prefixes(n, d)[index]
    return (n, d, index, prefix), _search_shard(n, d, prefix, best_known(n, d).lower)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        # real shard records, one without a witness and one with the run's
        witnesses = {0: None, 4: ((0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (3, 5))}
        for index, witness in witnesses.items():
            run, outcome = _real_shard(index)
            assert outcome[1] == witness
            path = str(tmp_path / f"shard-{index}.ckpt")
            write_shard_checkpoint(path, run, outcome)
            assert load_shard_checkpoint(path, run, 7, 7) == outcome

    def test_header_line(self, tmp_path):
        # the whole ckpt v1 text of two real shards, header line first
        tails = {
            0: "prefix 0-1 0-2\nexamined 0\nbest 7\nwitness -\n",
            4: "prefix 0-2 0-3\nexamined 1\nbest 7\nwitness 0-2 0-3 1-4 1-5 2-4 3-5\n",
        }
        for index, tail in tails.items():
            path = tmp_path / f"shard-{index}.ckpt"
            write_shard_checkpoint(str(path), *_real_shard(index))
            expected = f"ckpt v1\nn 6\nd 2\nshard {index}\n{tail}"
            assert path.read_bytes() == expected.encode()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "shard-0.ckpt"
        path.write_text("ckpt v2\nn 6\n")
        with pytest.raises(ValueError, match="header"):
            load_shard_checkpoint(str(path), _real_shard(0)[0], 7, 7)

    def test_resume_after_partial_run(self, tmp_path):
        full = convex_max(6, 4)
        first = convex_max(6, 4, checkpoint_dir=str(tmp_path))
        written = sorted(os.listdir(tmp_path))
        assert written and all(name.endswith(".ckpt") for name in written)
        # drop some shards and resume; merged outcome must not change
        for name in written[::2]:
            os.unlink(tmp_path / name)
        resumed = convex_max(6, 4, checkpoint_dir=str(tmp_path))
        for result in (first, resumed):
            assert result.max_crossings == full.max_crossings
            assert result.witness == full.witness
            assert result.graphs_examined == full.graphs_examined

    @pytest.mark.parametrize(
        "best, witness",
        [
            ("999", "0-1 0-2 1-3 2-4 3-5 4-5"),  # recount is not 999
            ("999", "-"),  # above the floor without a witness
            ("7", "0-1 0-2"),  # not a 2-regular graph
            ("7", "0-2 0-3 1-4 1-5 2-4 3-5"),  # another shard's witness
        ],
    )
    def test_tampered_checkpoint_rejected(self, capsys, tmp_path, best, witness):
        argv = ["search", "--n", "6", "--d", "2", "--checkpoint-dir", str(tmp_path)]
        assert main(argv) == 0
        path = tmp_path / "shard-0.ckpt"
        lines = path.read_text().splitlines()
        assert lines[6:] == ["best 7", "witness -"]
        path.write_text("\n".join(lines[:6] + [f"best {best}", f"witness {witness}"]))
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: checkpoint ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "line, replacement, message",
        [
            (1, "", "missing field 'n'"),
            (1, "n six", "bad field n"),
            (2, "d 2.0", "bad field d"),
            (3, "shard", "bad field shard"),
            (4, "prefix 0-2-0-3", "bad field prefix"),
            (4, "prefix 0-2 0-x", "bad field prefix"),
            (5, "examined x", "bad field examined"),
            (6, "best", "bad field best"),
            (7, "witness 1-4-1", "bad field witness"),
            (3, "shard 3", "different run"),
            (5, "examined -1", "negative examined"),
        ],
    )
    def test_field_rejection_names_the_file(self, tmp_path, line, replacement, message):
        # a missing or unparsable field, or one that does not match the run,
        # is refused with a message that names the file (and the field)
        run, outcome = _real_shard(4)
        path = tmp_path / "shard-4.ckpt"
        write_shard_checkpoint(str(path), run, outcome)
        lines = path.read_text().splitlines()
        lines[line] = replacement
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message) as caught:
            load_shard_checkpoint(str(path), run, 7, 7)
        assert str(path) in str(caught.value)

    def test_non_utf8_checkpoint_names_the_file(self, tmp_path):
        path = tmp_path / "shard-4.ckpt"
        path.write_bytes(b"ckpt v1\nn 6\nd \xff\n")
        with pytest.raises(ValueError) as caught:
            load_shard_checkpoint(str(path), _real_shard(4)[0], 7, 7)
        assert str(caught.value) == f"checkpoint {path}: not UTF-8 text"

    @pytest.mark.parametrize(
        "line, replacement, name",
        [(5, "examined x", "examined"), (7, "witness 0-2 0-3 1-4-1 1-5 2-4 3-5", "witness")],
    )
    def test_malformed_field_named_on_stderr(self, capsys, tmp_path, line, replacement, name):
        argv = ["search", "--n", "6", "--d", "2", "--checkpoint-dir", str(tmp_path)]
        assert main(argv) == 0
        path = tmp_path / "shard-4.ckpt"
        lines = path.read_text().splitlines()
        lines[line] = replacement
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: checkpoint {path}: bad field {name}\n"

    def test_witness_without_examined_graphs_rejected(self, capsys, tmp_path):
        # the search counts a leaf before keeping it as the witness, so a
        # witness beside examined 0 would silently lower graphs_examined
        argv = ["search", "--n", "6", "--d", "2", "--checkpoint-dir", str(tmp_path)]
        assert main(argv) == 0
        path = tmp_path / "shard-4.ckpt"
        lines = path.read_text().splitlines()
        assert lines[5] != "examined 0" and lines[7] != "witness -"
        path.write_text("\n".join(lines[:5] + ["examined 0"] + lines[6:]) + "\n")
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: checkpoint {path}: witness recorded with examined 0\n"

    @pytest.mark.parametrize("examined, code", [(210, 0), (211, 2)])
    def test_examined_above_what_a_shard_holds_rejected(
        self, capsys, tmp_path, examined, code
    ):
        # a shard of (6, 2) holds at most C(C(5, 2), 4) = 210 graphs, the edge
        # sets on vertices 1..5 that can complete vertex 0's star; a count up
        # to that is trusted, since only a new search could refute it
        argv = ["search", "--n", "6", "--d", "2", "--checkpoint-dir", str(tmp_path)]
        assert main(argv) == 0
        path = tmp_path / "shard-4.ckpt"
        lines = path.read_text().splitlines()
        assert lines[5] == "examined 1"
        path.write_text("\n".join(lines[:5] + [f"examined {examined}"] + lines[6:]) + "\n")
        capsys.readouterr()
        assert main(argv) == code
        out, err = capsys.readouterr()
        if code:
            assert out == ""
            message = f"examined {examined} above the limit 210"
            assert err == f"error: checkpoint {path}: {message}\n"
        else:
            assert f"graphs_examined {examined}" in out.splitlines()

    def test_checkpoints_without_any_witness_rejected(self, tmp_path):
        convex_max(6, 2, checkpoint_dir=str(tmp_path))
        for path in tmp_path.iterdir():
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[:-1] + ["witness -"]))
        with pytest.raises(ValueError, match="no witness"):
            convex_max(6, 2, checkpoint_dir=str(tmp_path))

    def test_foreign_checkpoint_rejected(self, tmp_path):
        convex_max(6, 2, checkpoint_dir=str(tmp_path))
        with pytest.raises(ValueError):
            convex_max(6, 4, checkpoint_dir=str(tmp_path))

    def test_resume_from_checkpoints_of_every_labeling(self, tmp_path):
        # a search that kept every labeling recorded, per shard, the first
        # graph of the whole shard reaching its best at or above the floor;
        # resuming from half the shards in that form must not move the result
        n, d = 7, 4
        floor = best_known(n, d).lower
        fresh = convex_max(n, d)
        for index, prefix in enumerate(shard_prefixes(n, d)):
            if index % 2:
                continue
            shard = [(e, total) for e, total in _convex_stream(n, d) if e[:d] == prefix]
            best = max([floor] + [total for _, total in shard])
            first = next((e for e, total in shard if total == best), None)
            path = str(tmp_path / f"shard-{index}.ckpt")
            write_shard_checkpoint(path, (n, d, index, prefix), (best, first, len(shard)))
        resumed = convex_max(n, d, checkpoint_dir=str(tmp_path))
        assert (resumed.max_crossings, resumed.witness) == (fresh.max_crossings, fresh.witness)
        # the written shards were merged: they count every labeled graph
        assert resumed.graphs_examined > fresh.graphs_examined

    def test_interrupted_run_keeps_every_finished_shard(self, tmp_path, monkeypatch):
        import maxcross.search as search

        class Stop(Exception):
            """Stands in for Ctrl-C, which pytest would take as a session abort."""

        fresh_dir, run_dir = tmp_path / "fresh", tmp_path / "run"
        fresh = convex_max(7, 4, checkpoint_dir=str(fresh_dir))
        stop_at = 5  # the sixth shard search raises
        original = search._search_shard
        calls = []

        def interrupted(*args, **kwargs):
            if len(calls) == stop_at:
                raise Stop
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(search, "_search_shard", interrupted)
        with pytest.raises(Stop):
            convex_max(7, 4, checkpoint_dir=str(run_dir))
        kept = {f"shard-{i}.ckpt" for i in range(stop_at)}
        assert set(os.listdir(run_dir)) == kept
        monkeypatch.undo()
        resumed = convex_max(7, 4, checkpoint_dir=str(run_dir))
        assert resumed.max_crossings == fresh.max_crossings
        assert resumed.witness == fresh.witness
        assert resumed.graphs_examined == fresh.graphs_examined
        names = sorted(os.listdir(fresh_dir))
        assert sorted(os.listdir(run_dir)) == names and len(names) > stop_at
        for name in names:
            assert (run_dir / name).read_bytes() == (fresh_dir / name).read_bytes(), name


class TestSamplers:
    def test_graph_sampler_valid_and_deterministic(self):
        for n, d in [(5, 2), (6, 3), (7, 4), (7, 6), (8, 5), (6, 4)]:
            a = sample_regular_graph(n, d, random.Random(11))
            b = sample_regular_graph(n, d, random.Random(11))
            assert a == b
            assert a.n == n and a.d == d

    @pytest.mark.parametrize(
        "n, d, seed, edges",
        [
            # sparse, sampled directly
            (12, 4, 3, "0-1 0-2 0-4 0-7 1-2 1-7 1-9 2-9 2-10 3-4 3-5 3-6 3-8 4-10 "
                       "4-11 5-6 5-9 5-11 6-10 6-11 7-8 7-10 8-9 8-11"),
            # odd degree, from a circulant with the offset n/2
            (10, 3, 4, "0-4 0-6 0-7 1-2 1-3 1-5 2-6 2-9 3-6 3-7 4-8 4-9 5-8 5-9 7-8"),
            # dense, the complement of a sampled 2-regular graph
            (9, 6, 5, "0-1 0-2 0-3 0-6 0-7 0-8 1-2 1-3 1-5 1-7 1-8 2-3 2-4 2-5 2-7 "
                      "3-4 3-5 3-6 4-5 4-6 4-7 4-8 5-6 5-8 6-7 6-8 7-8"),
        ],
    )
    def test_graph_sampler_draws_are_pinned(self, n, d, seed, edges):
        # the random stream of every probe trial runs through this sampler
        graph = sample_regular_graph(n, d, random.Random(seed))
        assert " ".join(f"{u}-{v}" for u, v in graph.edges) == edges

    def test_drawing_sampler_general_position(self):
        from maxcross.geometry import validate_general_position

        rng = random.Random(5)
        for _ in range(20):
            drawing = sample_drawing(sample_regular_graph(6, 3, rng), rng)
            assert validate_general_position(drawing) is None

    def test_coordinates_in_box(self):
        rng = random.Random(5)
        drawing = sample_drawing(sample_regular_graph(6, 3, rng), rng)
        span = 4 * 36
        for p in drawing.positions:
            assert 0 <= p.x <= span and 0 <= p.y <= span

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            sample_regular_graph(5, 3, random.Random(0))

    def test_every_small_cell_and_the_dense_24_12(self):
        # every call runs a fixed number of switch attempts, so the dense
        # (24, 12), out of reach of stub pairing, returns at once
        cells = [(n, d) for n in range(3, 17) for d in range(2, n) if feasible(n, d)]
        rng = random.Random(7)
        for n, d in cells + [(24, 12)]:
            graph = sample_regular_graph(n, d, rng)
            assert RegularGraph(n, d, graph.edges) == graph, (n, d)


def _triangles(graph):
    adjacent = [0] * graph.n
    for u, v in graph.edges:
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
    return sum((adjacent[u] & adjacent[v]).bit_count() for u, v in graph.edges) // 3


def _chi2_limit(dof):
    """Upper 0.999 quantile of chi-squared (Wilson-Hilferty approximation)."""
    scale = 2 / (9 * dof)
    return dof * (1 - scale + 3.09 * math.sqrt(scale)) ** 3


class TestSamplerUniformity:
    """The switch chain against exactly uniform references, at fixed seeds."""

    def test_every_labeled_graph_of_7_4(self):
        # 465 labeled graphs, sampled through the complement of the (7, 2) chain
        graphs = [graph.edges for graph in enumerate_labeled_regular(7, 4)]
        rng = random.Random(1)
        samples = 10 * len(graphs)
        seen = Counter(sample_regular_graph(7, 4, rng).edges for _ in range(samples))
        assert set(seen) <= set(graphs)
        expected = samples / len(graphs)
        chi2 = sum((seen[edges] - expected) ** 2 / expected for edges in graphs)
        assert chi2 < _chi2_limit(len(graphs) - 1), chi2

    def test_triangle_histogram_of_8_3(self):
        # exact histogram over all 19,355 labeled cubic graphs on 8 vertices:
        # 0, 1, 2, 4 or 8 triangles, the last expected about 5 times in 3000
        exact = Counter(_triangles(graph) for graph in enumerate_labeled_regular(8, 3))
        total = sum(exact.values())
        rng = random.Random(2)
        samples = 3000
        seen = Counter(_triangles(sample_regular_graph(8, 3, rng)) for _ in range(samples))
        assert set(seen) <= set(exact)
        chi2 = 0.0
        for count, graphs in exact.items():
            expected = samples * graphs / total
            chi2 += (seen[count] - expected) ** 2 / expected
        assert chi2 < _chi2_limit(len(exact) - 1), chi2

    def test_triangle_histogram_of_10_3_matches_pairing(self):
        # two-sample test against the pairing model, beyond reach of enumeration;
        # 4 or more triangles share one bin so every bin is well filled
        rng = random.Random(3)
        samples = 1500
        chain = Counter(min(_triangles(sample_regular_graph(10, 3, rng)), 4) for _ in range(samples))
        pairing = Counter(min(_triangles(sample_by_pairing(10, 3, rng)), 4) for _ in range(samples))
        bins = set(chain) | set(pairing)
        chi2 = sum((chain[b] - pairing[b]) ** 2 / (chain[b] + pairing[b]) for b in bins)
        assert chi2 < _chi2_limit(len(bins) - 1), chi2


class TestPerturbationProbe:
    def test_never_beats_convex_oracle(self):
        for n, d in [(4, 2), (5, 2), (6, 2), (4, 3), (6, 3), (5, 4)]:
            cap = convex_max(n, d).max_crossings
            probe = perturbation_probe(n, d, 300, seed=2)
            assert probe.max_crossings <= cap

    def test_attains_known_maxima(self):
        assert perturbation_probe(5, 2, 1000, seed=1).max_crossings == 5
        assert perturbation_probe(6, 2, 1000, seed=1).max_crossings <= 7

    def test_k4_range(self):
        result = perturbation_probe(4, 3, 10, seed=1)
        assert result.max_crossings in (0, 1)

    def test_result_is_pinned(self):
        # graphs and positions share one random stream, so a sampler that
        # draws differently moves this result
        result = perturbation_probe(10, 4, 200, seed=7)
        edges = " ".join(f"{u}-{v}" for u, v in result.witness.edges)
        assert (result.max_crossings, edges) == (
            57,
            "0-1 0-2 0-5 0-9 1-3 1-5 1-6 2-3 2-4 2-9 3-7 3-9 4-6 4-7 4-8 5-8 5-9 6-7 6-8 7-8",
        )

    def test_deterministic(self):
        a = perturbation_probe(6, 3, 200, seed=9)
        b = perturbation_probe(6, 3, 200, seed=9)
        assert (a.max_crossings, a.witness) == (b.max_crossings, b.witness)

    def test_result_fields(self):
        result = perturbation_probe(5, 2, 50, seed=0)
        assert result.mode == "perturbation"
        assert result.graphs_examined == 50
        assert result.witness.n == 5

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            perturbation_probe(5, 2, 0, seed=0)


class TestReproduceTable:
    def test_reference_cells_match(self):
        entries = {(e.n, e.d): e for e in reproduce_table(10)}
        for (n, d), reference in REFERENCE_VALUES.items():
            entry = entries[(n, d)]
            if (n, d) == (10, 6):
                assert entry.status == "discrepancy"
                assert entry.value == 173
                assert entry.reference == 133
            else:
                assert entry.value == reference, (n, d)
                assert entry.status in ("proven", "conjectured")

    def test_search_confirmation_column(self):
        entries = reproduce_table(6)
        for entry in entries:
            assert entry.search_value == entry.value

    def test_every_feasible_cell_present(self):
        entries = reproduce_table(8)
        expected = {
            (n, d) for n in range(4, 9) for d in range(2, n) if n * d % 2 == 0
        }
        assert {(e.n, e.d) for e in entries} == expected

    def test_status_partition(self):
        for entry in reproduce_table(10):
            exact = best_known(entry.n, entry.d).exact
            if entry.status == "proven":
                assert exact
            elif entry.status == "conjectured":
                assert not exact

    def test_range_validated(self):
        with pytest.raises(ValueError):
            reproduce_table(3)
        with pytest.raises(ValueError):
            reproduce_table(11)


class TestOracleConfirmsFormulas:
    def test_odd_cells_n8(self):
        for n, d in [(8, 3), (8, 5), (8, 7)]:
            assert convex_max(n, d).max_crossings == exact_odd(n, d)

    def test_degree_two_cells(self):
        for n in (4, 6, 8):
            assert convex_max(n, 2).max_crossings == exact_r_n_2_even(n)
