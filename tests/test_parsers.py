"""Fuzzing the three text parsers: damage may only ever raise ValueError.

Inputs are small: a few short lines of tokens, or a few edits of a valid
file, so no parsed count can ask for a large allocation.
"""

import os
import tempfile
from contextlib import suppress

from hypothesis import given, settings
from hypothesis import strategies as st

from maxcross.constructions import star_like_even
from maxcross.formulas import best_known
from maxcross.geometry import DRAWING_FORMAT_HEADER, drawing_from_text, drawing_to_text
from maxcross.graph import (
    GRAPH_FORMAT_HEADER,
    graph_from_text,
    graph_to_text,
    make_cycle,
    shard_prefixes,
)
from maxcross.search import (
    CHECKPOINT_HEADER,
    _search_shard,
    load_shard_checkpoint,
    write_shard_checkpoint,
)

tokens = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(-10**12, 10**12).map(str),
    st.sampled_from(["-", "0-1", "1-2-3", "-4", "x", "1/2", "1e3", "0x10", "٣"]),
    st.sampled_from(["n", "d", "shard", "prefix", "examined", "best", "witness"]),
)
lines = st.lists(st.lists(tokens, max_size=5).map(" ".join), max_size=12)
# characters splitlines() treats as line breaks, and '#' for comment lines
noise = st.text(alphabet="0123456789 -#\n\r\x0b\x1c vxabcdefghknprstw", max_size=4)


def token_files(headers):
    return st.builds(
        lambda header, body: "\n".join([header] + body), st.sampled_from(headers), lines
    )


@st.composite
def edited(draw, valid):
    """A valid file with up to four short spans replaced by noise."""
    text = draw(st.sampled_from(valid))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 3)))
        text = text[:start] + draw(noise) + text[stop:]
    return text


def _real_checkpoint(n, d, index):
    """(run, ckpt v1 text) of one shard as a search from the floor writes it."""
    run = (n, d, index, shard_prefixes(n, d)[index])
    outcome = _search_shard(n, d, run[3], best_known(n, d).lower)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "shard.ckpt")
        write_shard_checkpoint(path, run, outcome)
        with open(path, encoding="utf-8") as handle:
            return run, handle.read()


VALID_DRAWINGS = [drawing_to_text(star_like_even(6, 2)), drawing_to_text(star_like_even(4, 2))]
VALID_GRAPHS = [graph_to_text(make_cycle(5)), graph_to_text(make_cycle(4))]
# shard 4 of (6, 2) records the run's witness, shard 0 none
VALID_CHECKPOINTS = [_real_checkpoint(6, 2, 4), _real_checkpoint(6, 2, 0)]
RUNS = [run for run, _ in VALID_CHECKPOINTS]
BOUNDS = best_known(6, 2)


@st.composite
def edited_checkpoint(draw):
    """(run, bytes): a real shard file edited, paired with the run it
    records, so an edit that still parses reaches the re-checks."""
    run, text = draw(st.sampled_from(VALID_CHECKPOINTS))
    return run, draw(edited([text])).encode()


def _load_checkpoint_bytes(run, data):
    """Load data as a checkpoint file; a rejection must name that file."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "shard-0.ckpt")
        with open(path, "wb") as handle:
            handle.write(data)
        try:
            return load_shard_checkpoint(path, run, BOUNDS.lower, BOUNDS.upper)
        except ValueError as exc:
            assert path in str(exc), exc
            raise


class TestParsersRaiseOnlyValueError:
    @given(st.one_of(
        token_files([DRAWING_FORMAT_HEADER, "drawing v2", ""]),
        edited(VALID_DRAWINGS),
        st.text(max_size=40),
    ))
    @settings(max_examples=200, deadline=None)
    def test_drawing_from_text(self, text):
        with suppress(ValueError):
            drawing_from_text(text)

    @given(st.one_of(
        token_files([GRAPH_FORMAT_HEADER, "regular-graph v2", ""]),
        edited(VALID_GRAPHS),
        st.text(max_size=40),
    ))
    @settings(max_examples=200, deadline=None)
    def test_graph_from_text(self, text):
        with suppress(ValueError):
            graph_from_text(text)

    @given(st.one_of(
        st.tuples(st.sampled_from(RUNS), token_files([CHECKPOINT_HEADER]).map(str.encode)),
        edited_checkpoint(),
        st.tuples(st.sampled_from(RUNS), st.binary(max_size=40)),
    ))
    @settings(max_examples=200, deadline=None)
    def test_load_shard_checkpoint(self, case):
        with suppress(ValueError):
            _load_checkpoint_bytes(*case)
