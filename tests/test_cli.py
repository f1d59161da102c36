"""End-to-end command-line behavior, exit codes, and output stability."""

import os
from pathlib import Path

import pytest

from maxcross.cli import render_svg, run
from maxcross.constructions import (
    CONSTRUCTION_CAP,
    generalized_star,
    star_like_deletion,
    star_like_even,
)
from maxcross.graph import RegularGraph
from maxcross.search import PROBE_CAP

DATA = Path(__file__).parent / "data"
# the size line, points and edges of `construct starlike --n 4 --d 2`
STARLIKE_BODY = b"\n4 4\n0 1 0 1\n1 1 1 1\n2 1 4 1\n3 1 9 1\n0 2\n0 3\n1 2\n1 3\n"


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstructAndCount:
    def test_star_pipeline(self, capsys, tmp_path):
        drw = str(tmp_path / "s.drw")
        code, _, _ = run_cli(capsys, "construct", "star", "--n", "10", "--d", "7", "-o", drw)
        assert code == 0
        code, out, _ = run_cli(capsys, "count", drw)
        assert code == 0
        assert out.splitlines()[0] == "crossings 210"
        assert "noncrossing 175" in out
        assert "pairs 385" in out

    def test_starlike_pipeline(self, capsys, tmp_path):
        drw = str(tmp_path / "sl.drw")
        code, _, _ = run_cli(capsys, "construct", "starlike", "--n", "10", "--d", "2", "-o", drw)
        assert code == 0
        code, out, _ = run_cli(capsys, "count", drw)
        assert out.splitlines()[0] == "crossings 32"

    def test_trailer_comment(self, capsys, tmp_path):
        drw = tmp_path / "s.drw"
        run_cli(capsys, "construct", "star", "--n", "9", "--d", "4", "-o", str(drw))
        assert drw.read_text().rstrip().endswith("# construction star 9 4")
        run_cli(capsys, "construct", "starlike", "--n", "8", "--d", "4", "-o", str(drw))
        assert drw.read_text().rstrip().endswith("# construction starlike 8 4 case even")
        run_cli(capsys, "construct", "starlike", "--n", "10", "--d", "2", "-o", str(drw))
        assert drw.read_text().rstrip().endswith("# construction starlike 10 2 case odd")

    def test_stdout_when_no_output_file(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "star", "--n", "5", "--d", "2")
        assert code == 0
        assert out.startswith("drawing v1\n")


class TestFormula:
    def test_even_even_pair(self, capsys):
        code, out, _ = run_cli(capsys, "formula", "--n", "8", "--d", "4")
        assert code == 0
        lines = out.splitlines()
        assert "lower 52" in lines
        assert "upper 56" in lines
        assert "exact no" in lines
        assert "conjectured yes" in lines

    def test_odd_pair(self, capsys):
        _, out, _ = run_cli(capsys, "formula", "--n", "10", "--d", "7")
        lines = out.splitlines()
        assert "lower 210" in lines
        assert "upper 210" in lines
        assert "exact yes" in lines


class TestAnalyze:
    def test_key_value_report(self, capsys, tmp_path):
        drw = str(tmp_path / "s.drw")
        run_cli(capsys, "construct", "star", "--n", "10", "--d", "7", "-o", drw)
        code, out, _ = run_cli(capsys, "analyze", drw)
        assert code == 0
        lines = out.splitlines()
        assert "y 20 20 20 10" in lines
        assert "M 350" in lines
        assert "N 175" in lines
        assert "P 385" in lines
        assert "crossings 210" in lines
        assert "coverage ok" not in lines

    def test_one_validation_count_and_profile(self, capsys, tmp_path, monkeypatch):
        import maxcross.cli as cli
        import maxcross.geometry as geometry

        calls = {}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(geometry, "validate_general_position")
        counted(cli, "count_crossings_geometric")
        counted(cli, "type_profile")
        drw = str(tmp_path / "s.drw")
        run_cli(capsys, "construct", "star", "--n", "9", "--d", "4", "-o", drw)
        code, out, _ = run_cli(capsys, "analyze", "--check-lemma", drw)
        assert code == 0 and "coverage ok" in out
        assert calls == {
            "validate_general_position": 1,
            "count_crossings_geometric": 1,
            "type_profile": 1,
        }

    def test_check_lemma_flag(self, capsys, tmp_path):
        drw = str(tmp_path / "s.drw")
        run_cli(capsys, "construct", "star", "--n", "9", "--d", "4", "-o", drw)
        _, out, _ = run_cli(capsys, "analyze", drw, "--check-lemma")
        assert out.splitlines()[-1] == "coverage ok"


class TestSearchCommand:
    def test_convex(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "6", "--d", "2")
        assert code == 0
        lines = out.splitlines()
        assert "max_crossings 7" in lines
        assert "mode convex-exhaustive" in lines
        assert any(line.startswith("witness ") for line in lines)

    def test_probe(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--n", "5", "--d", "2",
            "--mode", "probe", "--trials", "300", "--seed", "1",
        )
        assert code == 0
        assert "max_crossings 5" in out.splitlines()
        assert "graphs_examined 300" in out.splitlines()

    def test_dense_probe_returns(self, capsys):
        # stub pairing gave no result here in 20 s; the switch chain is bounded
        code, out, _ = run_cli(
            capsys, "search", "--n", "24", "--d", "12",
            "--mode", "probe", "--trials", "1",
        )
        assert code == 0
        fields = dict(line.split(" ", 1) for line in out.splitlines())
        edges = tuple(tuple(map(int, e.split("-"))) for e in fields["witness"].split())
        RegularGraph(24, 12, edges)  # raises unless the witness is 12-regular

    def test_stdout_stable_across_runs(self, capsys):
        argv = ("search", "--n", "6", "--d", "3", "--mode", "probe",
                "--trials", "100", "--seed", "3")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestTable:
    def test_csv_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-n", "10", "--format", "csv")
        assert code == 0
        assert out == (DATA / "table_max10.csv").read_text()

    def test_discrepancy_row_reports_both_values(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--max-n", "10")
        row = next(line for line in out.splitlines() if line.split()[:2] == ["10", "6"])
        assert "discrepancy" in row
        assert "173" in row and "133" in row

    def test_text_header(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--max-n", "4")
        head = out.splitlines()[0].split()
        assert head == ["n", "d", "value", "status", "reference", "search"]

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--max-n", "8")
        _, second, _ = run_cli(capsys, "table", "--max-n", "8")
        assert first == second


class TestRender:
    def test_star_figure_counts(self, capsys, tmp_path):
        drw = str(tmp_path / "s.drw")
        svg_path = tmp_path / "s.svg"
        run_cli(capsys, "construct", "star", "--n", "10", "--d", "7", "-o", drw)
        code, _, _ = run_cli(capsys, "render", drw, "-o", str(svg_path), "--circle-layout")
        assert code == 0
        svg = svg_path.read_text()
        assert svg.count("<circle") == 10
        assert svg.count("<line") == 35
        assert "stroke-dasharray" not in svg

    def test_deleted_edges_dashed(self, capsys, tmp_path):
        # the degree-4 star-like drawing on 8 vertices keeps 16 edges; its
        # 4 deleted edges render dashed on top of them
        _, removed = star_like_deletion(8, 4)
        dashed_arg = ",".join(f"{u}-{v}" for u, v in sorted(removed))
        drw = str(tmp_path / "sl.drw")
        svg_path = tmp_path / "sl.svg"
        run_cli(capsys, "construct", "starlike", "--n", "8", "--d", "4", "-o", drw)
        run_cli(capsys, "render", drw, "-o", str(svg_path), "--dashed", dashed_arg)
        svg = svg_path.read_text()
        solid = svg.count("<line") - svg.count("stroke-dasharray")
        assert solid == 16
        assert svg.count("stroke-dasharray") == 4

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        drw = str(tmp_path / "s.drw")
        run_cli(capsys, "construct", "star", "--n", "7", "--d", "2", "-o", drw)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli(capsys, "render", drw, "-o", str(a))
        run_cli(capsys, "render", drw, "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_viewbox_present(self, capsys, tmp_path):
        drw = str(tmp_path / "s.drw")
        run_cli(capsys, "construct", "star", "--n", "5", "--d", "2", "-o", drw)
        svg_path = tmp_path / "s.svg"
        run_cli(capsys, "render", drw, "-o", str(svg_path))
        assert 'viewBox="0 0 ' in svg_path.read_text()


class TestRenderStyle:
    def test_highlight_membership_splits_styles(self):
        drawing = star_like_even(8, 4)
        svg = render_svg(drawing, frozenset({drawing.graph.edges[0]}))
        assert svg.count("stroke-dasharray") == 1
        assert svg.count("<line") == 16

    def test_api_default_no_dashes(self):
        svg = render_svg(generalized_star(5, 2))
        assert "stroke-dasharray" not in svg


class TestExitCodes:
    def test_argument_errors(self, capsys):
        assert run_cli(capsys, "formula", "--n", "7", "--d", "3")[0] == 2
        assert run_cli(capsys, "search", "--n", "11", "--d", "2")[0] == 2
        assert run_cli(capsys, "table", "--max-n", "3")[0] == 2
        assert run_cli(capsys, "count", "/nonexistent/path.drw")[0] == 2

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("search", "--n", "7", "--d", "4", "--workers", "-1"), "need workers >= 1, got -1"),
            (("search", "--n", "7", "--d", "4", "--workers", "0"), "need workers >= 1, got 0"),
            (("construct", "starlike", "--n", "2", "--d", "2"), "need n >= 3, got n=2"),
            (
                ("construct", "starlike", "--n", "6", "--d", "8"),
                "need 2 <= d <= n-1, got d=8 for n=6",
            ),
            (
                ("render", "s.drw", "-o", "x.svg", "--dashed", "0-x"),
                "bad edge '0-x', expected like 0-3",
            ),
            (
                ("render", "s.drw", "-o", "x.svg", "--dashed", "2-2"),
                "bad edge '2-2': endpoints must differ",
            ),
        ],
    )
    def test_argument_error_line(self, capsys, tmp_path, monkeypatch, argv, line):
        # the render rows read s.drw from the working directory; a refused
        # command writes nothing there
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "construct", "star", "--n", "5", "--d", "2", "-o", "s.drw")
        assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")
        assert os.listdir() == ["s.drw"]

    def test_probe_cap(self, capsys):
        argv = ("search", "--mode", "probe", "--n", str(PROBE_CAP + 1), "--d", "4")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "kind, n, d",
        [("star", CONSTRUCTION_CAP + 1, CONSTRUCTION_CAP), ("starlike", CONSTRUCTION_CAP + 2, 4)],
    )
    def test_construction_cap(self, capsys, monkeypatch, kind, n, d):
        import maxcross.constructions as constructions

        def refuse(*args):
            raise AssertionError("the graph was built")

        monkeypatch.setattr(constructions, "make_circulant", refuse)
        code, out, err = run_cli(capsys, "construct", kind, "--n", str(n), "--d", str(d))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 2
        assert run_cli(capsys, "formula", "--n", "8")[0] == 2
        assert run_cli(capsys, "render", "x.drw")[0] == 2

    def test_degeneracy_error(self, capsys, tmp_path):
        from maxcross.geometry import GeometricDrawing, drawing_to_text, point
        from maxcross.graph import make_cycle

        pts = (point(0, 0), point(4, 0), point(2, 0), point(0, 5))
        drw = tmp_path / "bad.drw"
        drw.write_text(drawing_to_text(GeometricDrawing(make_cycle(4), pts)))
        code, _, err = run_cli(capsys, "count", str(drw))
        assert code == 3
        assert "general position" in err

    @pytest.mark.parametrize("command", [["count"], ["analyze"], ["render", "-o", "x.svg"]])
    @pytest.mark.parametrize(
        "good, bad",
        # an edge naming vertex 7 of 4; a zero denominator
        [("\n1 2\n", "\n2 7\n"), ("\n1 1 1 1\n", "\n1 0 1 1\n")],
    )
    def test_bad_drawing_file(self, capsys, tmp_path, command, good, bad):
        drw = tmp_path / "bad.drw"
        text = run_cli(capsys, "construct", "starlike", "--n", "4", "--d", "2")[1]
        assert good in text
        drw.write_text(text.replace(good, bad))
        argv = [command[0], str(drw)] + command[1:]
        reason = {
            "\n2 7\n": "bad edge (2, 7)",
            "\n1 0 1 1\n": "zero denominator in point line '1 0 1 1'",
        }[bad]
        assert run_cli(capsys, *argv) == (2, "", f"error: drawing {drw}: {reason}\n")

    @pytest.mark.parametrize(
        "good, bad, message",
        # every damaged drawing file but the two of test_bad_drawing_file
        [
            (b"\n1 1 1 1\n", b"\n1 1 0 q\n", "bad point line '1 1 0 q'"),
            (b"\n1 2\n", b"\n1 2 5\n", "bad edge line '1 2 5'"),
            (b"\n1 2\n", b"\n1 \xff\n", "not UTF-8 text"),
            (b"drawing v1", b"drawing v9", "missing 'drawing v1' header"),
            (b"drawing v1", b"nope", "missing 'drawing v1' header"),
            (b"\n0 2\n0 3\n", b"\n0 3\n0 2\n", "edges must be strictly increasing"),
            (b"\n4 4\n", b"\n4 -4\n", "negative count in size line '4 -4'"),
            # n + m matches the empty body, so only the sign check refuses it
            (STARLIKE_BODY, b"\n1000000 -1000000\n",
             "negative count in size line '1000000 -1000000'"),
            (b"\n0 2\n0 3\n", b"\n0 3\n", "expected 4 point and 4 edge lines, got 7"),
            (b"\n1 3\n", b"\n", "expected 4 point and 4 edge lines, got 7"),
            (b"\n4 4\n0 1 0 1\n", b"\n3 4\n", "edge list is not regular: 4 edges on 3 vertices"),
            # the rest is RegularGraph's, for the degree d = 2m/n
            (STARLIKE_BODY, b"\n0 0\n", "need n >= 3, got n=0"),
            (STARLIKE_BODY, b"\n2 1\n0 1 0 1\n1 1 1 1\n0 1\n", "need n >= 3, got n=2"),
            (STARLIKE_BODY, b"\n4 0\n0 1 0 1\n1 1 1 1\n2 1 4 1\n3 1 9 1\n",
             "degree 0 out of range for n=4"),
            (b"\n1 2\n", b"\n-1 2\n", "bad edge (-1, 2)"),
            (b"\n1 3\n", b"\n2 3\n", "vertices [1, 2] do not have degree 2"),
        ],
    )
    def test_drawing_error_names_the_file(self, capsys, tmp_path, good, bad, message):
        drw = tmp_path / "bad.drw"
        text = run_cli(capsys, "construct", "starlike", "--n", "4", "--d", "2")[1].encode()
        assert good in text
        drw.write_bytes(text.replace(good, bad))
        code, out, err = run_cli(capsys, "count", str(drw))
        assert code == 2
        assert out == ""
        assert err == f"error: drawing {drw}: {message}\n"

    def test_dashed_vertex_out_of_range(self, capsys, tmp_path):
        drw = str(tmp_path / "s5.drw")
        run_cli(capsys, "construct", "star", "--n", "5", "--d", "2", "-o", drw)
        svg = tmp_path / "x.svg"
        code, out, err = run_cli(capsys, "render", drw, "-o", str(svg), "--dashed", "0-9")
        assert (code, out, err) == (2, "", "error: dashed edge 0-9 names a vertex outside 0..4\n")
        assert not svg.exists()

    def test_starlike_deletion_fault(self, capsys, monkeypatch):
        # a deletion pattern that drops one edge too many must end in the
        # construction exit code with one line, not in a traceback
        import maxcross.constructions as constructions

        original = constructions.star_like_deletion

        def one_edge_short(n, d):
            drawing, removed = original(n, d)
            extra = next(e for e in drawing.graph.edges if e not in removed)
            return drawing, removed | {extra}

        monkeypatch.setattr(constructions, "star_like_deletion", one_edge_short)
        code, out, err = run_cli(capsys, "construct", "starlike", "--n", "8", "--d", "4")
        assert code == 3
        assert out == ""
        assert err.startswith("error: star-like deletion: ") and err.count("\n") == 1

    def test_construction_argument_error(self, capsys):
        assert run_cli(capsys, "construct", "starlike", "--n", "9", "--d", "4")[0] == 2

    def test_success_is_zero(self, capsys):
        assert run_cli(capsys, "formula", "--n", "6", "--d", "3")[0] == 0

    def test_parser_reuse(self, capsys, tmp_path):
        import maxcross.cli as cli

        drw = str(tmp_path / "s.drw")
        sequence = [
            ("formula", "--n", "8"),
            ("formula", "--n", "8", "--d", "4"),
            ("search", "--n", "7", "--d", "4", "--workers", "2"),
            ("construct", "star", "--n", "9", "--d", "4", "-o", drw),
            ("count", drw),
            ("analyze", drw, "--check-lemma"),
        ]
        cli._build_parser.cache_clear()
        first = [run_cli(capsys, *argv) for argv in sequence]
        again = [run_cli(capsys, *argv) for argv in sequence]
        assert cli._build_parser.cache_info().misses == 1
        assert first == again
        code, out, err = first[0]
        assert code == 2 and out == "" and err.startswith("usage: maxcross formula")
        assert [code for code, _, _ in first[1:]] == [0] * 5
        assert "crossings 81" in first[4][1].splitlines()

    def test_interrupt(self, capsys, monkeypatch):
        import maxcross.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_formula", interrupted)
        code, out, err = run_cli(capsys, "formula", "--n", "6", "--d", "3")
        assert code == 130
        assert out == ""
        assert err == "error: interrupted\n"
