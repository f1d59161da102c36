"""Exhaustive convex-position search and randomized probes."""

import dataclasses
import functools
import hashlib
import math
import multiprocessing
import os
import random
import shutil
from collections import Counter
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcross.cli import run
from maxcross.constructions import (
    ConvexOrder,
    crossings_convex,
    generalized_star,
    interleave_masks,
    star_like_even,
)
from maxcross.errors import ResourceLimitError
from maxcross.formulas import (
    best_known,
    exact_odd,
    exact_r_n_2_even,
    lower_bound_even,
    min_noncrossing_pairs,
    thrackle_upper,
    upper_bound,
)
from maxcross.geometry import count_crossings_geometric, drawing_to_text
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
    _search_cell,
    _search_shard,
    _searched_stars,
    _searches_complement,
    convex_max,
    load_shard_checkpoint,
    perturbation_probe,
    reproduce_table,
    sample_drawing,
    sample_positions,
    sample_regular_graph,
    write_shard_checkpoint,
)
from reference import (
    dihedral_relabelings,
    keeps_dihedral_representative,
    kept_stars_by_tuples,
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


def _record_search(monkeypatch):
    """One [prefix, hook calls, cuts] per shard convex_max searches
    in-process, in call order; every search node, shard roots and leaves
    included, is one call of the prune hook the search hands to lex_fill."""
    import maxcross.search as search

    shards = []
    search_shard, fill = search._search_shard, search.lex_fill

    def recorded(n, d, prefix, floor):
        shards.append([prefix, 0, 0])
        return search_shard(n, d, prefix, floor)

    def counted_fill(n, d, prefix, prune):
        record = shards[-1]

        def counted(stack, remaining):
            cut = prune(stack, remaining)
            record[1] += 1
            record[2] += cut
            return cut

        return fill(n, d, prefix, counted)

    monkeypatch.setattr(search, "_search_shard", recorded)
    monkeypatch.setattr(search, "lex_fill", counted_fill)
    return shards


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
        # the dihedral rule drops must start no kept graph at all, and one
        # that the root bound drops no kept graph reaching the floor
        shards = _record_search(monkeypatch)
        convex_max(n, d)
        monkeypatch.undo()
        searched = [prefix for prefix, _, _ in shards]
        kept = [prefix for _, prefix in kept_stars_by_tuples(n, d)]
        floor = best_known(n, d).lower
        assert searched
        for prefix in shard_prefixes(n, d):
            shard = [(e, total) for e, total in _kept_stream(n, d) if e[:d] == prefix]
            if prefix not in kept:
                assert not shard, prefix
                continue
            if prefix not in searched:
                assert all(total < floor for _, total in shard), prefix
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
        shards = _record_search(monkeypatch)
        convex_max(9, 4, checkpoint_dir=str(tmp_path))
        searched = [prefix for prefix, _, _ in shards]
        assert searched and prefix not in searched
        names = os.listdir(tmp_path)
        assert len(names) == len(searched) and "shard-24.ckpt" not in names

    def test_only_kept_shards_are_written_and_old_files_ignored(self, tmp_path):
        # stars 8, 9 and 11-14 of (7, 4) hold no kept graph, and the root
        # bound drops stars 1, 2, 4 and 5; files for them in the form a run
        # that still searched every star wrote are not read
        n, d = 7, 4
        prefixes = shard_prefixes(n, d)
        dropped = {1, 2, 4, 5, 8, 9, 11, 12, 13, 14}
        fresh = convex_max(n, d, checkpoint_dir=str(tmp_path))
        written = {f"shard-{i}.ckpt" for i in range(len(prefixes)) if i not in dropped}
        assert len(written) == 5 and set(os.listdir(tmp_path)) == written
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

    @pytest.mark.parametrize(
        "n,d,complement",
        [(7, 4, False), (8, 3, False), (8, 4, False), (8, 4, True), (8, 5, True), (8, 6, True)],
        ids=["7-4", "8-3", "8-4", "8-4-H", "8-5-H", "8-6-H"],
    )
    def test_residual_capacity_matches_reference(self, n, d, complement, monkeypatch):
        # the hook's cut at every node must equal the decision rebuilt from the
        # dihedral predicate, the future-pair bound, the owed weight and the
        # stack-based capacity, with best the largest kept G so far: the
        # capacity pass stops once it reaches the slack, which must not change
        # a cut.  At a leaf the cut is G's dihedral verdict or its count below
        # best; in G the bound is exact one edge before a leaf, so no leaf
        # below best is reached, while in H, with best at the lower bound,
        # some are.  The -H cells walk H = K_n - G; (8, 4) is forced into it:
        # its degree 3 there makes the owed weight positive, while up to 2
        # free stubs the cheapest edges, the sides (0, 1) and (0, n - 1), weigh 0
        import maxcross.search as search

        monkeypatch.setattr(search, "_searches_complement", lambda n, d: complement)
        original = search.lex_fill
        order = ConvexOrder.identity(n)
        degree = n - 1 - d if complement else d

        def in_g(edges):
            walked = RegularGraph(n, degree, tuple(edges))
            return walked.complement() if complement else walked

        decisions = Counter()
        leaves = Counter()
        for floor in (0, best_known(n, d).lower):
            for prefix in shard_prefixes(n, d):
                best = floor

                def spy(n_, d_, prefix_, prune):
                    assert (n_, d_) == (n, degree)

                    def check(stack, remaining):
                        cut = prune(stack, remaining)
                        expected = prune_decision(n, d, stack, remaining, best, complement)
                        assert cut == expected, (stack, remaining, best)
                        decisions[cut] += 1
                        if not any(remaining):
                            graph = in_g(stack)
                            kept = keeps_dihedral_representative(graph)
                            below = crossings_convex(graph, order).total < best
                            assert cut == (not kept or below), stack
                            assert complement or not below, stack
                            leaves[kept, below] += 1
                        return cut

                    nonlocal best
                    for edges in original(n_, d_, prefix_, check):
                        best = max(best, crossings_convex(in_g(edges), order).total)
                        yield edges

                monkeypatch.setattr(search, "lex_fill", spy)
                assert _search_shard(n, d, prefix, floor)[0] == best
        assert decisions[True] and decisions[False]
        assert leaves[True, False] and leaves[False, False]
        assert leaves[True, True] or not complement

    def test_determinism_across_workers(self, monkeypatch):
        import maxcross.search as search

        # at the default (7, 4) ends in-process; at 0 the pool searches every shard
        for pool_after in (search.POOL_AFTER_S, 0):
            monkeypatch.setattr(search, "POOL_AFTER_S", pool_after)
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
            fields = dict(line.split(" ", 1) for line in expected.splitlines())
            n, d, value = (int(fields[key]) for key in ("n", "d", "max_crossings"))
            # every stored cell, n = 12 too: the value is the best known lower
            # bound and its witness is a d-regular graph that recounts to it
            witness = RegularGraph(n, d, tuple(
                tuple(map(int, edge.split("-"))) for edge in fields["witness"].split()
            ))
            recount = crossings_convex(witness, ConvexOrder.identity(n)).total
            assert value == best_known(n, d).lower == recount, (n, d)
            if n > 11:
                continue
            argv = ["search", "--n", str(n), "--d", str(d), "--long-run"]
            assert run(argv) == 0
            assert capsys.readouterr().out == expected, (n, d)

    @pytest.mark.parametrize(
        "n,d,calls,cuts",
        [(8, 4, 233, 108), (9, 6, 205, 168), (10, 6, 31738, 12260), (11, 8, 492, 422)],
    )
    def test_pruning_work_is_pinned(self, n, d, calls, cuts, monkeypatch):
        # nodes offered to the prune hook and nodes it cut, shard roots and
        # leaves included; a change to the bound or the node step shows here
        # first.  (9, 6) and (11, 8) search the complement
        shards = _record_search(monkeypatch)
        convex_max(n, d, long_run=True)
        assert [sum(s[1] for s in shards), sum(s[2] for s in shards)] == [calls, cuts]

    @pytest.mark.parametrize(
        "job,searched,root_cut",
        [
            ((10, 3), 2, 0), ((9, 4), 11, 0), ((8, 4), 12, 0), ((9, 6), 16, 0),
            ("table", 46, 0),
        ],
    )
    def test_shard_work_is_pinned(self, job, searched, root_cut, monkeypatch):
        # shards searched, and those of them that end at their root's single
        # hook call, on the `exhaustive` benchmark cells and the table's
        # searches; a change to the star rule, the root bound or the root
        # step shows here.  The root bound leaves no shard that its root cuts
        shards = _record_search(monkeypatch)
        if job == "table":
            reproduce_table(10)
        else:
            convex_max(*job, long_run=True)
        assert len(shards) == searched
        assert [work for _, *work in shards].count([1, 1]) == root_cut

    @pytest.mark.parametrize("n", range(4, 15))
    def test_star_keys_keep_the_tuple_rule_stars(self, n, monkeypatch):
        # with a floor below every root score, _searched_stars keeps exactly
        # the stars whose sorted backward pattern is at least the star, with
        # the same indices and prefixes, in both spaces: in H through the
        # reversed key rule and the reversed star order; pinned up to
        # n = 14, past LONG_RUN_CAP
        import maxcross.search as search

        for d in range(2, n):
            if not feasible(n, d):
                continue
            # H has degree 0 when d = n - 1: no walk there
            for complement in (False, True)[: 1 + (d < n - 1)]:
                monkeypatch.setattr(
                    search, "_searches_complement", lambda n, d, c=complement: c
                )
                assert _searched_stars(n, d, -n ** 4) == kept_stars_by_tuples(n, d), (
                    d, complement,
                )

    @pytest.mark.parametrize("n", range(4, 15))
    def test_root_bound_is_the_roots_decision(self, n, monkeypatch):
        # _searched_stars must drop a kept star exactly when the prune hook
        # cuts its shard at the root, in both spaces, pinned up to n = 14,
        # past LONG_RUN_CAP: the spy records the real hook's answer at the
        # root, then cuts.  Every n drops some stars in G, and the even n
        # from 6 on some in H, where the chords weigh more than 0
        import maxcross.search as search

        walk = search.lex_fill
        answers = []

        def root_only(n_, d_, prefix, prune):
            def root(stack, remaining):
                answers.append(prune(stack, remaining))
                return True

            return walk(n_, d_, prefix, root)

        monkeypatch.setattr(search, "lex_fill", root_only)
        dropped = Counter()
        for d in range(2, n):
            if not feasible(n, d):
                continue
            floor = best_known(n, d).lower
            # H has degree 0 when d = n - 1: no walk there
            for complement in (False, True)[: 1 + (d < n - 1)]:
                monkeypatch.setattr(
                    search, "_searches_complement", lambda n, d, c=complement: c
                )
                searched = _searched_stars(n, d, floor)
                for star in kept_stars_by_tuples(n, d):
                    answers.clear()
                    outcome = _search_shard(n, d, star[1], floor)
                    assert len(answers) == 1 and outcome == (floor, None, 0)
                    assert answers[0] == (star not in searched), (d, complement, star)
                    dropped[complement] += answers[0]
        assert dropped[False] and (dropped[True] or n % 2 or n == 4)

    def test_unattained_floor_is_an_internal_error(self, monkeypatch):
        # a shard records a witness only at or above the floor, the known
        # lower bound, so a floor above the maximum leaves the merge with no
        # witness; no checkpoint was loaded, so that is a broken bound
        import maxcross.search as search

        known = search.best_known

        def raised(n, d):
            report = known(n, d)
            return dataclasses.replace(report, lower=report.lower + 1, upper=report.upper + 1)

        monkeypatch.setattr(search, "best_known", raised)
        with pytest.raises(AssertionError) as caught:
            convex_max(6, 2)
        assert str(caught.value) == "seeded lower bound was never attained"

    def test_infeasible(self):
        with pytest.raises(ValueError):
            convex_max(7, 3)
        with pytest.raises(ValueError) as caught:
            _searched_stars(7, 3, 0)
        assert str(caught.value) == "no d-regular graph exists for n=7, d=3"

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

    @pytest.mark.parametrize("n", range(4, 15))
    def test_tables_match_the_closed_forms(self, n):
        # the tables read weights and start values off the interleave masks;
        # pinned here up to n = 14, past LONG_RUN_CAP.  In H chord (a, b)
        # crosses c(e) = (k - 1)(n - k - 1) chords of K_n, k = b - a, the
        # empty walk is K_n with C(n, 4) crossings, and each of the 2n
        # pattern rows holds every offset 1..n-1, its bits n-2..0
        closed = {a * n + b: (b - a - 1) * (n - b + a - 1) for a, b in combinations(range(n), 2)}
        in_h = _search_cell(n, 2, True)
        *_, weight, step, value, keys = in_h
        assert weight == tuple(closed.get(j, 0) for j in range(n * n))
        cheapest = sorted(closed[w] for w in range(1, n))
        assert step == tuple(2 * r + c for r, c in enumerate(cheapest))
        assert value == math.comb(n, 4)
        assert keys == sum(((1 << n - 1) - 1) << row * n for row in range(2 * n))
        # in G the walk starts from the empty graph: nothing to weigh or owe
        in_g = _search_cell(n, 2, False)
        *_, weight, step, value, keys = in_g
        assert weight == (0,) * (n * n)
        assert step == tuple(2 * r for r in range(n - 1))
        assert (value, keys) == (0, 0)
        # the two spaces share masks, chord bits, pattern bits and starts;
        # of the chord tables only the fields checked above differ
        assert in_g[5:9] == in_h[5:9]

    def test_cell_state_follows_the_space_chosen_at_call_time(self, monkeypatch):
        # the per-cell state is keyed on the space as well as (n, d): once a
        # shard of (8, 4) has been searched in G, forcing the complement
        # must make the same call walk H, where the hook sees degree 3, and
        # end with the same outcome
        import maxcross.search as search

        n, d = 8, 4
        result = convex_max(n, d)
        prefix = result.witness.edges[:d]
        floor = best_known(n, d).lower
        degrees = []
        original = search.lex_fill

        def spy(n_, d_, prefix_, prune):
            degrees.append(d_)
            return original(n_, d_, prefix_, prune)

        monkeypatch.setattr(search, "lex_fill", spy)
        in_g = _search_shard(n, d, prefix, floor)
        monkeypatch.setattr(search, "_searches_complement", lambda n, d: True)
        in_h = _search_shard(n, d, prefix, floor)
        assert degrees == [d, n - 1 - d]
        assert in_h == in_g
        assert in_g[:2] == (result.max_crossings, result.witness.edges)

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


def _resume_damaged(capsys, tmp_path, shard, damage):
    """Run `search --n 6 --d 2` with checkpoints in tmp_path, replace lines
    of shard's file by damage's {line index: text}, and run it again:
    (the file's path, exit code, stdout, stderr) of the second run."""
    argv = ["search", "--n", "6", "--d", "2", "--checkpoint-dir", str(tmp_path)]
    assert run(argv) == 0
    path = tmp_path / f"shard-{shard}.ckpt"
    lines = path.read_text().splitlines()
    for line, text in damage.items():
        lines[line] = text
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run(argv)
    return (path, code, *capsys.readouterr())


class TestShardScheduling:
    """convex_max searches in-process until POOL_AFTER_S, then hands the
    shards left to one pool."""

    @pytest.mark.parametrize("n, d", [(7, 4), (10, 3)])
    def test_short_run_starts_no_pool(self, n, d, monkeypatch):
        # both cells end in a few milliseconds, far below POOL_AFTER_S
        def refuse(*args):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        result = convex_max(n, d, workers=2, long_run=True)
        monkeypatch.undo()
        single = convex_max(n, d, long_run=True)
        assert (result.max_crossings, result.witness, result.graphs_examined) == (
            single.max_crossings, single.witness, single.graphs_examined
        )

    @pytest.mark.parametrize("k", [1, 6])
    @pytest.mark.parametrize("resume", [False, True])
    def test_pool_takes_over_at_the_threshold(self, k, resume, tmp_path, monkeypatch):
        import maxcross.search as search

        single_dir, run_dir = tmp_path / "single", tmp_path / "run"
        single = convex_max(9, 4, checkpoint_dir=str(single_dir))
        names = sorted(os.listdir(single_dir))
        run_dir.mkdir()
        if resume:
            for name in names[::4]:
                shutil.copy(single_dir / name, run_dir / name)
        loaded = len(os.listdir(run_dir))

        # the clock crosses POOL_AFTER_S once k shards searched in-process are written
        def clock():
            written = len(os.listdir(run_dir)) - loaded
            return search.POOL_AFTER_S if written >= k else 0.0

        handed = []
        real_pool = multiprocessing.Pool

        def recording_pool(*args):
            pool = real_pool(*args)
            imap = pool.imap

            def recording_imap(func, tasks, chunksize=1):
                handed.append(len(tasks))
                return imap(func, tasks, chunksize)

            pool.imap = recording_imap
            return pool

        monkeypatch.setattr(search, "time", SimpleNamespace(perf_counter=clock))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
        result = convex_max(9, 4, workers=2, checkpoint_dir=str(run_dir))
        assert handed == [len(names) - loaded - k]
        assert (result.max_crossings, result.witness, result.graphs_examined) == (
            single.max_crossings, single.witness, single.graphs_examined
        )
        assert sorted(os.listdir(run_dir)) == names
        for name in names:
            assert (run_dir / name).read_bytes() == (single_dir / name).read_bytes(), name


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

    @pytest.mark.parametrize(
        "text, reason",
        [("ckpt v2\nn 6\n", "missing 'ckpt v1' header"), ("ckpt v1\n", "missing field 'n'")],
    )
    def test_rejection_text_shape(self, tmp_path, text, reason):
        # every checkpoint error reads "checkpoint <path>: <reason>"
        path = tmp_path / "shard-0.ckpt"
        path.write_text(text)
        with pytest.raises(ValueError) as caught:
            load_shard_checkpoint(str(path), _real_shard(0)[0], 7, 7)
        assert str(caught.value) == f"checkpoint {path}: {reason}"

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
        "shard, damage, reason",
        [
            (5, {6: "best 999"}, "best 999 without a witness"),
            (5, {6: "best 7", 7: "witness 0-1 0-2 1-3 2-4 3-5 4-5"},
             "witness recorded with examined 0"),
            (4, {3: "shard 3"}, "belongs to a different run"),
            (4, {5: "examined x"}, "bad field examined"),
            (4, {5: "examined -1"}, "negative examined count"),
            (4, {5: "examined 0"}, "witness recorded with examined 0"),
            (4, {5: "examined 211"}, "examined 211 above the limit 210"),
            (4, {7: "witness 0-2 0-3 1-4-1 1-5 2-4 3-5"}, "bad field witness"),
            (4, {7: "witness 0-2 0-3"}, "bad witness: expected 6 edges, got 2"),
            (4, {7: "witness 0-1 0-2 1-3 2-4 3-5 4-5"},
             "witness does not extend the shard prefix"),
            (4, {6: "best 999"}, "best 999 but the witness has 7 crossings"),
            (4, {6: "best 4", 7: "witness 0-2 0-3 1-4 1-5 2-3 4-5"},
             "best 4 outside the bounds [7, 7]"),
        ],
    )
    def test_damaged_checkpoint_exits_2_with_one_line(
        self, capsys, tmp_path, shard, damage, reason
    ):
        # each row reaches its own re-check through the CLI; the run writes
        # shards 4 and 5 alone, and the witness rows damage shard 4, which
        # holds the run's witness, so that no earlier check refuses the file
        # first
        path, code, out, err = _resume_damaged(capsys, tmp_path, shard, damage)
        assert (code, out, err) == (2, "", f"error: checkpoint {path}: {reason}\n")

    def test_examined_up_to_what_a_shard_holds_is_trusted(self, capsys, tmp_path):
        # a shard of (6, 2) holds at most C(C(5, 2), 4) = 210 graphs, the edge
        # sets on vertices 1..5 that can complete vertex 0's star; a count up
        # to that is trusted, since only a new search could refute it
        _, code, out, _ = _resume_damaged(capsys, tmp_path, 4, {5: "examined 210"})
        assert code == 0
        assert "graphs_examined 210" in out.splitlines()

    def test_checkpoints_without_any_witness_rejected(self, capsys, tmp_path):
        # each file edited to `witness -` at the floor passes its own
        # re-check, but together they leave the merge with no witness
        argv = ["search", "--n", "6", "--d", "2", "--checkpoint-dir", str(tmp_path)]
        assert run(argv) == 0
        for path in tmp_path.iterdir():
            lines = path.read_text().splitlines()
            lines[6:] = ["best 7", "witness -"]
            path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: checkpoints in {tmp_path} hold no witness\n")

    def test_foreign_checkpoint_rejected(self, tmp_path):
        # (6, 2) writes shards 4 and 5, and (8, 4) searches shard 4 too
        convex_max(6, 2, checkpoint_dir=str(tmp_path))
        with pytest.raises(ValueError, match="belongs to a different run"):
            convex_max(8, 4, checkpoint_dir=str(tmp_path))

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
        stop_at = 3  # the fourth shard search raises; (7, 4) searches 0, 3, 6, 7 and 10
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
        kept = {f"shard-{i}.ckpt" for i in (0, 3, 6)}
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


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class TestStreamPins:
    """The random streams of the samplers and the probe, and the bytes of the
    two drawing files, pinned by digest: a sampler, probe or Point that is
    faster must draw, find and write exactly these."""

    @pytest.mark.parametrize(
        "n, d, pinned",
        [
            (10, 4, "e4cee26972e75a2a"),  # sparse
            (12, 5, "b3e28bd1f4e5b1a8"),  # sparse, odd degree
            (10, 6, "a8601408e0fd96c5"),  # dense: the complement of a (10, 3) draw
            (7, 6, "45d0b5d13745c4e4"),  # complete: the graph draws nothing
        ],
    )
    def test_sampler_draws_and_rng_states(self, n, d, pinned):
        draws = []
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            graph = sample_regular_graph(n, d, rng)
            after_graph = rng.getstate()
            pts = sample_positions(n, rng)
            draws.append((graph.edges, after_graph, pts, rng.getstate()))
        assert _digest(draws) == pinned

    @pytest.mark.parametrize(
        "n, d, trials, seed, best, witness",
        [
            (10, 4, 1000, 1, 59, "d2e8811f66d8e253"),
            (10, 4, 1000, 2, 64, "3f3bd0060280a48b"),
            (12, 5, 50, 1, 127, "749f6d4729447c35"),
            (12, 5, 50, 2, 122, "b2a71cf991ea8fcb"),
        ],
    )
    def test_probe_results(self, n, d, trials, seed, best, witness):
        result = perturbation_probe(n, d, trials, seed)
        assert (result.max_crossings, _digest(result.witness.edges)) == (best, witness)

    @pytest.mark.parametrize(
        "build, n, d, pinned",
        [(generalized_star, 29, 14, "7a6ad9eda76a2966"), (star_like_even, 22, 10, "9b6aa3b23ae5ae5d")],
    )
    def test_drawing_file_bytes(self, build, n, d, pinned):
        assert _digest(drawing_to_text(build(n, d))) == pinned


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


# The one error text of each cell outside R_{n,d}: no graph, or out of range.
NO_GRAPH_TEXTS = {
    (5, 3): "no d-regular graph exists for n=5, d=3",
    (2, 2): "need n >= 3, got n=2",
    (6, 1): "need 2 <= d <= n-1, got d=1 for n=6",
    (6, 6): "need 2 <= d <= n-1, got d=6 for n=6",
}
# Entry points that need a graph to exist.
NEEDS_A_GRAPH = {
    "convex_max": convex_max,
    "perturbation_probe": lambda n, d: perturbation_probe(n, d, 1, 0),
    "sample_regular_graph": lambda n, d: sample_regular_graph(n, d, random.Random(0)),
    "best_known": best_known,
    "upper_bound": upper_bound,
    "thrackle_upper": thrackle_upper,
    "min_noncrossing_pairs": min_noncrossing_pairs,
    "shard_prefixes": shard_prefixes,
}
# Entry points with a case check of their own, which rejects (5, 3) in its
# own words; they share only the range texts.
OWN_CASE_CHECK = {
    "exact_odd": exact_odd,
    "lower_bound_even": lower_bound_even,
    "generalized_star": generalized_star,
}


class TestNoGraphCells:
    @pytest.mark.parametrize("n, d", sorted(NO_GRAPH_TEXTS))
    @pytest.mark.parametrize("name", sorted(NEEDS_A_GRAPH))
    def test_one_text_per_cell(self, name, n, d):
        with pytest.raises(ValueError) as caught:
            NEEDS_A_GRAPH[name](n, d)
        assert str(caught.value) == NO_GRAPH_TEXTS[(n, d)]

    @pytest.mark.parametrize("n, d", [(2, 2), (6, 1), (6, 6)])
    @pytest.mark.parametrize("name", sorted(OWN_CASE_CHECK))
    def test_one_range_text(self, name, n, d):
        with pytest.raises(ValueError) as caught:
            OWN_CASE_CHECK[name](n, d)
        assert str(caught.value) == NO_GRAPH_TEXTS[(n, d)]

    @pytest.mark.parametrize("command", ["search", "formula"])
    def test_one_error_line_on_stderr(self, capsys, command):
        assert run([command, "--n", "5", "--d", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: no d-regular graph exists for n=5, d=3\n"


class TestOracleConfirmsFormulas:
    def test_odd_cells_n8(self):
        for n, d in [(8, 3), (8, 5), (8, 7)]:
            assert convex_max(n, d).max_crossings == exact_odd(n, d)

    def test_degree_two_cells(self):
        for n in (4, 6, 8):
            assert convex_max(n, 2).max_crossings == exact_r_n_2_even(n)
