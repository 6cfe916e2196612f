import ast
import errno
import functools
import hashlib
import json
import math
import operator
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ribbon_embed import (
    Diagnostics,
    InternalInvariantError,
    MetricGraph,
    SchemaFormatError,
    analyze,
    cli,
    default_rotation,
    errors,
    essential_genus,
    format_graph,
    graph_hash,
    invariants,
    moves,
    parse_graph,
    reduce_move,
    rotation,
    schema_from_json,
    schema_to_json,
    subdivide,
    verify_schema,
)
from ribbon_embed import graph as graph_module
from ribbon_embed.cli import main

from conftest import BOUQUET2, DUMBBELL, K4, K5, THETA
from helpers import (
    STALLS_AT_THREE_WALKS,
    grid,
    prism,
    random_multigraph,
    ring_of_blobs,
    ring_of_loops,
    run,
    short_order_lists,
    timed,
    two_thetas_schema,
    wheel,
)

CYCLE = "edge a u v 1.0\nedge b v u 2.0\n"
DANGLING = "edge a u v 1.0\nedge b u v 1.0\nedge c u w 1.0\n"


@pytest.fixture()
def graph_file(tmp_path):
    def write(text, name="g.graph"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_analyze_text(graph_file, capsys):
    assert main(["analyze", graph_file(THETA)]) == 0
    out = capsys.readouterr().out
    assert "essential_genus  2" in out
    assert "zeta             0" in out


def test_analyze_json(graph_file, capsys):
    assert main(["analyze", graph_file(K4), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["essential_genus"] == 3
    assert doc["zeta"] == 1
    assert doc["ge_max_bound"] == "4"


def test_a_graph_file_may_open_with_a_byte_order_mark(tmp_path, capsys):
    # it failed with "line 1: unknown record type '\ufeffedge'"
    plain, marked = tmp_path / "plain.graph", tmp_path / "marked.graph"
    plain.write_text(K4, encoding="utf-8")
    marked.write_text(K4, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert main(["analyze", str(plain), "--json"]) == 0
    want = capsys.readouterr().out
    assert main(["analyze", str(marked), "--json"]) == 0
    assert capsys.readouterr().out == want


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/no/such/file.graph"]) == 2
    assert "error" in capsys.readouterr().err


def test_analyze_bad_syntax(graph_file, capsys):
    assert main(["analyze", graph_file("edge a u v\n")]) == 2
    assert "line 1" in capsys.readouterr().err


LONG_TOKEN_LINES = {
    "record type": "x" * 400_000,
    "name": "edge " + "a" * 400_000 + ". u v 1.0",
    "bad length": "edge a u v " + "9" * 400_000 + "z",
    "non-positive length": "edge a u v -" + "0" * 400_000,
}


@pytest.mark.parametrize("case", sorted(LONG_TOKEN_LINES))
def test_parse_errors_quote_a_long_token_cut_short(case, graph_file, capsys):
    line = LONG_TOKEN_LINES[case]
    assert main(["analyze", graph_file(line)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "…" in err
    assert len(err) < 200


# Each length reads as a float that is not finite: a 5001-digit one as inf.
NON_FINITE_LENGTHS = {"1e400": "1e400", "nan": "nan", "inf": "inf", "5001 digits": "9" * 5001}


@pytest.mark.parametrize("case", sorted(NON_FINITE_LENGTHS))
def test_a_non_finite_edge_length_is_refused_as_not_finite(case, graph_file, capsys):
    # it was refused as "edge length must be positive"
    length = NON_FINITE_LENGTHS[case]
    path = graph_file(f"edge a u v {length}\nedge b u v 1.0\nedge c u v 1.0\n")
    assert main(["analyze", path]) == 2
    quoted = errors.clip(length)
    assert capsys.readouterr() == ("", f"error: line 1: edge length must be finite, got {quoted}\n")


@pytest.mark.parametrize(
    ("bom", "command"),
    [(b"", "analyze"), (b"\xef\xbb\xbf", "analyze"), (b"", "verify"), (b"\xef\xbb\xbf", "verify")],
    ids=["plain", "byte-order mark", "plain, verify", "byte-order mark, verify"],
)
def test_a_graph_file_that_is_not_utf8_is_refused_at_its_line(bom, command, tmp_path, capsys):
    # it was refused in the codec's words, with a byte offset and no line;
    # verify reads its schema as a graph file is read
    path = tmp_path / "latin1.graph"
    text = "edge a u v 1.0\nedge b u v 1.0\r\nedge c u v 1.0 # café\n"
    path.write_bytes(bom + text.encode("latin-1"))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured == ("", "error: line 3: not UTF-8 text at byte 0xe9\n")
    assert "codec" not in captured.err


@pytest.mark.parametrize(("command", "line"), [("analyze", 2), ("verify", 1)])
def test_a_bad_byte_is_refused_at_the_line_its_format_counts(command, line, tmp_path, capsys):
    # a line separator ends a line of a graph file, as parse_graph splits
    # it, but not of a schema: JSON counts only "\n".  verify said line 2.
    path = tmp_path / "separator.json"
    path.write_bytes('{"a": "\u2028", "b": "'.encode() + b'\xe9"}')
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: line {line}: not UTF-8 text at byte 0xe9\n")


# A flag value each refusal quotes, of thousands of characters.
LONG_FLAG_VALUES = {
    "count": ("analyze", "--max-trees", "9" * 5001),
    "negative count": ("analyze", "--max-rotations", "-" + "9" * 4000),
    "genus target": ("embed", "--target", "genus=" + "9" * 5001),
    "unknown target": ("embed", "--target", "x" * 5001),
    "seed": ("embed", "--seed", "9" * 5001),
    "margin": ("embed", "--margin", "x" * 5001),
}


@pytest.mark.parametrize("case", sorted(LONG_FLAG_VALUES))
def test_flag_refusals_quote_a_long_value_cut_short(case, graph_file, capsys):
    # they quoted the whole value; the usage lines above the refusal are
    # argparse's and hold no value
    command, flag, value = LONG_FLAG_VALUES[case]
    assert main([command, graph_file(K4), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    refusal = captured.err[captured.err.index(f"ribbon-embed {command}: error: "):]
    assert f"argument {flag}: " in refusal and "…" in refusal
    assert len(refusal.encode()) < 300
    if command == "analyze":
        assert len(captured.err.encode()) < 300


@pytest.mark.parametrize(("flag", "kind"), [("--seed", "int"), ("--margin", "float")])
def test_seed_and_margin_refusals_keep_argparse_words(flag, kind, graph_file, capsys):
    assert main(["embed", graph_file(K4), flag, "x"]) == 2
    refusal = f"ribbon-embed embed: error: argument {flag}: invalid {kind} value: 'x'\n"
    assert capsys.readouterr().err.endswith(refusal)


def test_unrecognized_arguments_are_quoted_short(graph_file, capsys):
    # argparse echoed them whole: 5114 bytes for the long one
    assert main(["analyze", graph_file(K4), "extra"]) == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: 'extra'\n")
    assert main(["analyze", graph_file(K4), "--bogus", "x" * 5001]) == 2
    err = capsys.readouterr().err
    assert err.endswith("error: unrecognized arguments: '--bogus " + "x" * 31 + "…\n")
    assert len(err.encode()) < 300


@pytest.mark.parametrize(
    "argv", [["x" * 5001], ["x" * 5001, "k4.graph"], ["--bogus", "x" * 5001]],
    ids=["alone", "with a graph", "after an unknown flag"],
)
def test_an_unknown_subcommand_is_quoted_short(argv, capsys):
    # argparse quoted it whole: 5171 bytes for the one with a graph
    assert main(argv) == 2
    captured = capsys.readouterr()
    refusal = captured.err.splitlines()[-1]
    choices = "(choose from 'analyze', 'embed', 'oracle', 'verify')"
    quoted = errors.quote("x" * 5001)
    assert refusal == f"ribbon-embed: error: argument command: invalid choice: {quoted} {choices}"
    assert captured.out == "" and len(refusal.encode()) < 300


def test_a_short_unknown_subcommand_keeps_argparse_words(capsys):
    assert main(["bogus"]) == 2
    assert capsys.readouterr().err.endswith(
        "ribbon-embed: error: argument command: invalid choice: 'bogus' "
        "(choose from 'analyze', 'embed', 'oracle', 'verify')\n"
    )
    # the refusal names the parser's own subcommands, and a help flag still
    # comes first
    assert "{analyze,embed,oracle,verify}" in cli._build_parser().format_usage()
    assert main(["--help", "bogus"]) == 0
    assert capsys.readouterr().out.startswith("usage: ribbon-embed ")


# Files that cannot be opened, each with its errno: the refusal names the
# error and the path, cut short, and no "[Errno N]".
UNREADABLE_FILES = {
    "missing": ("analyze", "missing.graph", errno.ENOENT),
    "directory": ("verify", ".", errno.EISDIR),
    "5001-character path": ("analyze", "x" * 5001, errno.ENAMETOOLONG),
    "output in a missing directory": ("embed", "missing/k4.json", errno.ENOENT),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_FILES))
def test_a_file_that_cannot_be_opened_is_named_short(case, graph_file, tmp_path, capsys):
    # it was worded as "[Errno 2] No such file or directory: '<the whole path>'"
    command, name, code = UNREADABLE_FILES[case]
    path = str(tmp_path / name)
    argv = ["embed", graph_file(K4), "-o", path] if command == "embed" else [command, path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {os.strerror(code)}: {errors.quote(path)}\n"
    assert "Errno" not in err and len(err.encode()) < 300


def test_a_schema_may_open_with_a_byte_order_mark(graph_file, tmp_path, capsys):
    # it was refused as "not valid JSON: Unexpected UTF-8 BOM"
    out_path, text = _k4_schema(graph_file, tmp_path)
    out_path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 0
    assert capsys.readouterr() == ("ok: genus 3, 0 boundary circle(s), construction sigma\n", "")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["analyze", "embed"])
def test_a_closed_stdout_exits_141_with_nothing_printed(command, buffered, graph_file):
    # it exited 2 with "error: [Errno 32] Broken pipe", or, where the report
    # waited in the buffer, 120 with "Exception ignored ... BrokenPipeError"
    env = {"PYTHONUNBUFFERED": "" if buffered else "1"}  # empty is unset
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command writes
    try:
        proc = run([command, graph_file(K4)], 60, env=env, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_a_closed_stdout_in_process_exits_141(graph_file, capsys, monkeypatch):
    # a caller's own stdout, here capsys's, is left as it is, and nothing raises
    def closed(*args, **kwargs):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr(cli, "analyze", closed)
    assert main(["analyze", graph_file(K4)]) == 141
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("command", ["analyze", "embed", "oracle"])
def test_a_stdout_closed_before_the_run_exits_as_the_run_does(command, graph_file):
    # Python sets sys.stdout to None; embed wrote to it and exited 6 with
    # "internal error: AttributeError: 'NoneType' object has no attribute 'write'".
    # The child closes its stdout between fork and exec, as a shell's >&- does.
    closed = functools.partial(os.close, 1)
    proc = run([command, graph_file(K4)], 60, preexec_fn=closed, stderr=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    assert b"error" not in proc.stderr


# The length grammar is Python's float(): each spelling either reads as the
# plain length beside it (the report is the same, graph_hash included) or is
# refused with exit 2 in the words given.
LENGTH_SPELLINGS = {
    "underscore": ("1_0", 0, "10"),
    "Arabic-Indic digit": ("\u0661", 0, "1"),
    "fullwidth digit": ("\uff11", 0, "1"),
    "hex float": ("0x1p3", 2, "bad length '0x1p3'"),
    "inf": ("inf", 2, "edge length must be finite, got inf"),
    "nan": ("nan", 2, "edge length must be finite, got nan"),
    "past the float range": ("1e400", 2, "edge length must be finite, got 1e400"),
    "below the least float": ("1e-400", 2, "edge length must be positive, got 1e-400"),
}


@pytest.mark.parametrize("case", sorted(LENGTH_SPELLINGS))
def test_the_length_grammar_is_floats(case, tmp_path, capsys):
    spelled, code, want = LENGTH_SPELLINGS[case]
    path = tmp_path / "theta.graph"
    path.write_bytes(f"edge a u v {spelled}\nedge b u v 1.0\nedge c u v 1.0\n".encode())
    assert main(["analyze", str(path)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured == ("", f"error: line 1: {want}\n")
        return
    assert captured.err == ""
    path.write_bytes(f"edge a u v {want}\nedge b u v 1.0\nedge c u v 1.0\n".encode())
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr() == captured


# Tokens each written in place of one token of a graph file's records.
HOSTILE_TOKENS = (
    "1e400", "-1e400", "9" * 400, "nan", "-NaN", "inf",  # past the float range, NaN
    "+1.0", "-1.0", "-0", "+0",  # signs
    "1_0", "_1", "1__0", "1_",  # underscores
    "\u0661", "\uff11", "\u00b2", "\u0967",  # non-ASCII digits
    "\x00", "1\x00", "\ufeff", "\ufeff1.0",  # NUL, a byte-order mark
    "a\tb", "\t", "1.0\r\n", "a#b",  # a tab, CRLF, a comment mid-record
    "x" * 5001, "9" * 5001,
)  # fmt: skip


def _graph_file_mutations():
    """Each demo graph file with one token of one record replaced by a
    hostile token or by the previous record's, dropped or doubled, or the
    record commented out; then the whole file with a byte-order mark, CRLF
    or CR line ends, tabs, a NUL, a Latin-1 byte or a line separator, and
    the empty file."""
    for path in sorted(DEMO_GRAPHS.glob("*.graph")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        records = [i for i, line in enumerate(lines) if line.startswith("edge")]
        for k, i in enumerate(records):
            parts, other = lines[i].split(), lines[records[k - 1]].split()
            for j in range(5):
                for edit in [[t] for t in HOSTILE_TOKENS] + [[other[j]], [], [parts[j]] * 2]:
                    line = " ".join(parts[:j] + edit + parts[j + 1:]) + "\n"
                    yield text.replace(lines[i], line, 1).encode()
            yield text.replace(lines[i], "# " + lines[i], 1).encode()
        data = text.encode()
        yield from (b"\xef\xbb\xbf" + data, b"\xef\xbb\xbf" * 2 + data)
        yield from (data.replace(b"\n", b"\r\n"), data.replace(b"\n", b"\r"))
        yield from (data.replace(b" ", b"\t"), data + b"\x00")
        yield from (data.replace(b"\n", b" \xe9\n", 1), data.replace(b"\n", "\u2028".encode()), b"")


# The sha256 of every (exit code, stdout, stderr) of the graph-file corpus, in order.
GRAPH_CORPUS_DIGEST = "61a7ec272449dd178ccd014e0bfa813e4850add4c94dab684e3caebce535f2e0"


def test_analyze_is_total_on_graph_file_mutations(tmp_path, capsys):
    # every mutated file gets a verdict in the package's own words: exit 0,
    # 2 (bad input), 3 (a cycle) or 5, never 6, and no interpreter wording
    path = tmp_path / "mutated.graph"
    exits = Counter()
    digest = hashlib.sha256()
    for data in _graph_file_mutations():
        path.write_bytes(data)
        code = main(["analyze", str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 5), (data[:80], err)
        assert not any(word in err for word in ("Errno", "codec", "Traceback")), err
        exits[code] += 1
        digest.update(repr((code, out, err)).encode())
    assert exits == {2: 3264, 0: 520, 3: 5}
    assert digest.hexdigest() == GRAPH_CORPUS_DIGEST


def test_analyze_cycle(graph_file, capsys):
    assert main(["analyze", graph_file(CYCLE)]) == 3
    assert "every surface" in capsys.readouterr().err


def test_analyze_dangling(graph_file, capsys):
    assert main(["analyze", graph_file(DANGLING)]) == 2


def test_analyze_rotation_cap_is_soft(graph_file, capsys):
    for text, cap in ((K5, "100"), (K4, "1")):
        assert main(["analyze", graph_file(text), "--json", "--max-rotations", cap]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ge_max_exact"] is None


def test_analyze_text_names_an_unknown_ge_max_exact(graph_file, capsys):
    assert main(["analyze", graph_file(K4), "--max-rotations", "1"]) == 0
    out = capsys.readouterr().out
    assert "\nge_max_exact     unknown (rotation cap exceeded; bound still holds)\n" in out


def test_analyze_text_names_an_unknown_tree_count(capsys):
    path = str(DEMO_GRAPHS / "k5.graph")
    assert main(["analyze", path, "--max-trees", "1"]) == 0
    out = capsys.readouterr().out
    assert "\ntree_count       unknown (tree cap exceeded)\n" in out
    # the bridge floor settles zeta with no tree counted
    assert main(["analyze", path, "--max-trees", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["tree_count"], doc["zeta"]) == (None, 0)


def test_analyze_settles_zeta_by_the_trees_past_the_rotation_cap(graph_file, capsys):
    # random_multigraph(27)'s zeta of 3 lies above the floor of 1, so past
    # the rotation cap only the tree rung settles it, and no rung within
    # one tree as well
    path = graph_file(format_graph(random_multigraph(27)))
    assert main(["analyze", path, "--json", "--max-rotations", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["zeta"], doc["tree_count"], doc["ge_max_exact"]) == (3, 3, None)
    assert main(["analyze", path, "--max-rotations", "1", "--max-trees", "1"]) == 5
    assert capsys.readouterr() == (
        "", "error: zeta not certified within the caps of 1 trees and 1 rotations\n"
    )


def test_analyze_checks_the_profile_minimum_against_zeta(graph_file, capsys, monkeypatch):
    # extremes that lost their minimum entry still gave a plausible report;
    # K5's descent reaches the floor, but its ascent stalls short of the
    # plateau (3 walks, genus 4, against 5), so the DP pass still runs
    extremes = moves._extremes

    def without_minimum(graph, orders):
        counts = extremes(graph, orders)
        del counts[min(counts)]
        return counts

    monkeypatch.setattr(moves, "_extremes", without_minimum)
    assert main(["analyze", graph_file(K5)]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal invariant violation: minimum walk count 5 differs from 1 + zeta = 1\n"
    )


def _no_relocation(*args):
    return None


def _one_walk_too_many(dart_count, cycles, faces=rotation._faces):
    face, count, succ = faces(dart_count, cycles)
    return face, count + 1, succ


def _reduce_at_v0_of_k5():
    k5 = parse_graph(K5)
    return reduce_move(k5, default_rotation(k5, 0), 0)  # v0 meets 3 walks


NO_REDUCING_MOVE = "no reducing relocation at vertex v0 although it meets 3 walks"

# Every internal-invariant check, met by breaking one collaborator: the
# attribute replaced and its stand-in, the CLI command and graph text (or
# the library call) that reach the check, and its message.
INVARIANT_CHECKS = {
    "reduce_move": (
        (moves, "_relocated_cycle", _no_relocation),
        _reduce_at_v0_of_k5,
        NO_REDUCING_MOVE,
    ),
    "descent": (
        (moves, "_relocated_cycle", _no_relocation),
        ("analyze", K5),
        NO_REDUCING_MOVE,
    ),
    "oracle move": (
        (moves, "_relocated_cycle", _no_relocation),
        ("oracle", K4),
        NO_REDUCING_MOVE,
    ),
    "search bound": (
        (moves, "zeta_floor", lambda graph: 5),
        ("analyze", K4),
        "count 2 lies beyond the bound 6",
    ),
    "dp witness": (
        (rotation, "_rotation_at", lambda orders, index, at=rotation._rotation_at: at(orders, 0)),
        lambda: analyze(STALLS_AT_THREE_WALKS),
        "witness has 5 walks, not 1",
    ),
    "zeta parity": (
        (moves, "_zeta", lambda *args, **rungs: 2),
        ("analyze", K4),
        "beta=3 and zeta=2 disagree in parity",
    ),
    "girth bound": (
        (moves, "ge_max_bound", lambda graph: Fraction(0)),
        ("analyze", K4),
        "adversarial genus exceeds the girth bound",
    ),
    "euler parity": (
        (rotation, "_faces", _one_walk_too_many),
        ("embed", K4),
        "walk count 3 breaks Euler parity for chi=-2",
    ),
    "bridge floor": (
        (invariants, "zeta_floor", lambda graph: 5),
        ("oracle", K4),
        "zeta 1 lies below its bridge floor 5",
    ),
}


@pytest.mark.parametrize("case", sorted(INVARIANT_CHECKS))
def test_every_internal_invariant_check_is_reached(case, graph_file, capsys, monkeypatch):
    (module, name, stand_in), run, message = INVARIANT_CHECKS[case]
    monkeypatch.setattr(module, name, stand_in)
    if callable(run):
        with pytest.raises(InternalInvariantError) as info:
            run()
        assert str(info.value) == message
    else:
        command, text = run
        assert main([command, graph_file(text)]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal invariant violation: {message}\n"


def test_embed_minimal_verifies(graph_file, tmp_path, capsys):
    out_path = tmp_path / "schema.json"
    assert main(["embed", graph_file(THETA), "-o", str(out_path)]) == 0
    schema = schema_from_json(out_path.read_text())
    assert schema.summary.genus == 2
    assert schema.summary.minimal is True
    assert verify_schema(schema).ok
    assert "certified" in capsys.readouterr().err


def _count_searches(monkeypatch) -> tuple[list[int], list[list[bool]]]:
    """Wrap ``graph._components``: (the edge count of each search with
    nothing cut, the bridge flags of each pieces' search).  The pieces' own
    search, with the bridges cut, is not counted."""
    bridge_flags, searches = [], []
    bridges, components = graph_module._bridges, graph_module._components

    def flagged(graph):
        bridge_flags.append(bridges(graph))
        return bridge_flags[-1]

    def counted(graph, cut):
        if not any(cut is flags for flags in bridge_flags):
            searches.append(graph.edge_count)
        return components(graph, cut)

    monkeypatch.setattr(graph_module, "_bridges", flagged)
    monkeypatch.setattr(graph_module, "_components", counted)
    return searches, bridge_flags


def test_connectivity_is_searched_once_per_embed_and_per_verify(
    graph_file, tmp_path, capsys, monkeypatch
):
    # parse_graph, the schema builder and the verifier each searched the
    # embedded graph; now they read its cached connectivity
    searches, bridge_flags = _count_searches(monkeypatch)
    out_path = tmp_path / "schema.json"
    assert main(["embed", graph_file(K4), "-o", str(out_path)]) == 0
    assert searches == [6]
    searches.clear()
    assert main(["verify", str(out_path)]) == 0
    assert searches == [6]
    assert bridge_flags  # the pieces were searched too, and left out of the count


def test_smoothing_hands_on_the_known_connectivity(graph_file, tmp_path, capsys, monkeypatch):
    # the smoothed graph of a subdivided K4 is connected because the parsed
    # one is, so embed searches once, on the 7 parsed edges
    searches, bridge_flags = _count_searches(monkeypatch)
    subdivided = K4.replace("edge e01 v0 v1 1.0\n", "edge e01a v0 m 0.5\nedge e01b m v1 0.5\n")
    assert main(["embed", graph_file(subdivided), "-o", str(tmp_path / "schema.json")]) == 0
    assert searches == [7]
    assert bridge_flags


def test_embed_stdout_and_determinism(graph_file, capsys):
    path = graph_file(K4)
    assert main(["embed", path, "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["embed", path, "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["summary"]["genus"] == 3


def test_embed_maximal(graph_file, tmp_path, capsys):
    out_path = tmp_path / "schema.json"
    for text, genus in ((K5, 5), (K4, 3)):
        assert main(["embed", graph_file(text), "--target", "maximal", "-o", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["summary"]["genus"] == genus
        capsys.readouterr()
        assert main(["verify", str(out_path)]) == 0
        assert capsys.readouterr().out.startswith(f"ok: genus {genus},")


def test_embed_genus_targets(graph_file, capsys):
    path = graph_file(THETA)
    for g in (2, 3, 4, 5):
        assert main(["embed", path, "--target", f"genus={g}"]) == 0
        schema = schema_from_json(capsys.readouterr().out)
        assert schema.summary.genus == g
        assert schema.summary.minimal is (g == 2)
        assert verify_schema(schema).ok


def test_embed_genus_target_certified_by_the_bridge_floor(graph_file, tmp_path, capsys):
    # 2 walks on a prism meet 1 + its bridge floor, so no spanning tree is
    # needed to certify them or to cap at a chosen genus
    path = graph_file(format_graph(prism(20)))
    out_path = tmp_path / "schema.json"
    g_e = 12  # beta 21, zeta 1: 10 + 2
    assert main(["embed", path, "--target", f"genus={g_e + 1}", "--max-trees", "1",
                 "-o", str(out_path)]) == 0  # fmt: skip
    assert capsys.readouterr().err.endswith(", certified\n")
    assert main(["verify", str(out_path)]) == 0
    assert f"ok: genus {g_e + 1}, 0 boundary circle(s)" in capsys.readouterr().out


def test_embed_genus_target_refused_above_the_floor_without_certificate(graph_file, capsys):
    # zeta exceeds the bridge floor here; with the tree search and the
    # DP both capped, nothing certifies the minimum
    path = graph_file(format_graph(random_multigraph(27)))
    argv = ["embed", path, "--target", "genus=5", "--max-trees", "1", "--restarts", "0",
            "--max-rotations", "1"]  # fmt: skip
    assert main(argv) == 5
    assert "not certified" in capsys.readouterr().err



@pytest.mark.parametrize("margin", [[], ["--margin", "nan"]])
def test_embed_genus_target_refused_before_assembly(margin, graph_file, capsys):
    # the refusal comes before the schema is built: no warning that the
    # best rotation is used, and a margin assembly would reject is never read
    path = graph_file(format_graph(random_multigraph(27)))
    argv = ["embed", path, "--target", "genus=5", "--max-trees", "1", "--restarts", "0",
            "--max-rotations", "1", *margin]  # fmt: skip
    assert main(argv) == 5
    assert capsys.readouterr() == (
        "",
        "error: optimum not certified within the enumeration caps; an exact genus target "
        "needs a certified minimal-boundary surface; raise --max-trees / --max-rotations\n",
    )


def test_embed_maximal_names_the_flags_that_can_help(graph_file, tmp_path, capsys):
    # maximize has no tree rung, so more trees cannot certify its optimum
    path = graph_file(format_graph(prism(30)))
    argv = ["embed", path, "--target", "maximal", "-o", str(tmp_path / "schema.json")]
    assert main(argv) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: optimum not certified within the enumeration caps; using the best rotation "
        "found; raise --restarts / --max-rotations",
        "schema: genus 21, 26 boundary walk(s) before capping, 8 move(s), "
        "no rung settled the optimum, not certified",
    ]
    main(["embed", "--help"])
    assert "minimal and genus targets only" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("target", ["minimal", "genus=4"])
def test_embed_names_the_optimum_its_rotation_misses(target, graph_file, tmp_path, capsys):
    # the trees rung settles the optimum at 1 walk, but the search, with no
    # restart and the DP capped, stops at 3: more trees cannot help
    path = graph_file(format_graph(random_multigraph(3)))
    argv = ["embed", path, "--target", target, "--restarts", "0", "--max-rotations", "10",
            "-o", str(tmp_path / "schema.json")]  # fmt: skip
    gap = "optimum not certified at 3 walk(s); the trees rung settles the optimum at 1; "
    if target == "minimal":
        assert main(argv) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {gap}using the best rotation found; raise --restarts / --max-rotations",
            "schema: genus 3, 3 boundary walk(s) before capping, 0 move(s), "
            "optimum from the trees rung, not certified",
        ]
    else:
        assert main(argv) == 5
        assert capsys.readouterr() == (
            "",
            f"error: {gap}an exact genus target needs a certified minimal-boundary surface; "
            "raise --restarts / --max-rotations\n",
        )


def test_embed_genus_target_capped_with_the_certificate_of_the_sweep(graph_file, tmp_path, capsys):
    # zeta exceeds the bridge floor and one tree is too few for the tree
    # search, so the DP certifies the 4 walks; capping takes that minimum
    # as it is instead of searching the trees again
    path = graph_file(format_graph(random_multigraph(27)))
    out_path = tmp_path / "schema.json"
    argv = ["embed", path, "--target", "genus=5", "--max-trees", "1", "--restarts", "0",
            "-o", str(out_path)]  # fmt: skip
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "4 boundary walk(s) before capping" in err and err.endswith(", certified\n")
    assert main(["verify", str(out_path)]) == 0
    assert "ok: genus 5, 0 boundary circle(s)" in capsys.readouterr().out


def test_embed_genus_unreachable(graph_file, capsys):
    assert main(["embed", graph_file(THETA), "--target", "genus=1"]) == 4
    assert "essential genus" in capsys.readouterr().err


def test_embed_bad_target(graph_file, capsys):
    assert main(["embed", graph_file(THETA), "--target", "bogus"]) == 2
    assert main(["embed", graph_file(THETA), "--target", "genus=x"]) == 2


def test_embed_cycle(graph_file):
    assert main(["embed", graph_file(CYCLE)]) == 3


def test_embed_bad_margin(graph_file, capsys):
    assert main(["embed", graph_file(THETA), "--margin", "-1"]) == 2
    assert "margin" in capsys.readouterr().err


@pytest.mark.parametrize("margin", ["1e-300", "1e-16"])
def test_embed_names_a_margin_too_small_to_scale(margin, graph_file, capsys):
    # the error named only the distance handed to f_inv, never the margin
    assert main(["embed", graph_file(K4), "--margin", margin]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: margin {float(margin)!r} is too small" in captured.err


@pytest.mark.parametrize(
    ("graph", "margin", "message"),
    [
        (K4, "nan", "margin must be positive and finite, got nan"),
        (K4, "inf", "margin must be positive and finite, got inf"),
        (K4, "1e308", "margin 1e+308 gives edge e01 a waist cuff beyond double precision"),
        (
            "edge a u v 1e-320\nedge b u v 1\nedge c u v 1\n",
            "0.1",
            "edge a of length 1e-320 needs a scale beyond double precision at margin 0.1",
        ),
    ],
    ids=["nan", "inf", "1e308", "theta 1e-320"],
)
def test_embed_rejects_a_scale_beyond_double_precision(graph, margin, message, graph_file, capsys):
    # each printed "refusing to emit a schema that does not verify", exit 6
    assert main(["embed", graph_file(graph), "--margin", margin]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_embed_with_a_tiny_margin_verifies(graph_file, tmp_path, capsys):
    # 12 stored digits of t moved the binding gap below f_min in verify
    out_path = tmp_path / "schema.json"
    assert main(["embed", graph_file(K4), "--margin", "1e-12", "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 0
    assert capsys.readouterr().out.startswith("ok: genus 3")


def test_embed_smooths_subdivided_input(graph_file, capsys):
    text = THETA + "edge d u x 1.0\nedge e x v 1.0\n"
    assert main(["embed", graph_file(text)]) == 0
    schema = schema_from_json(capsys.readouterr().out)
    assert schema.graph.vertex_count == 2
    # four parallel strands: beta 3, zeta 1, two walks, genus 1 + 0 + 2
    assert schema.summary.genus == 3


def test_embed_names_merged_edges_apart(graph_file, tmp_path, capsys):
    # smoothing joins a + bc and ab + c, both named abc; with two edges of
    # one name the emitted schema had duplicate block ids (exit 6)
    text = (
        "edge a u x 1.0\nedge bc x v 1.0\nedge ab u y 1.0\nedge c y v 1.0\n"
        "edge d u v 1.0\nedge e u w 1.0\nedge f v w 1.0\nedge g w w 1.0\n"
    )
    out_path = tmp_path / "schema.json"
    assert main(["embed", graph_file(text), "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 0
    edges = json.loads(out_path.read_text())["meta"]["graph"]["edges"]
    assert sorted(name for name, *_ in edges) == ["abc", "abcx", "d", "e", "f", "g"]


def _round_trip_inputs():
    """(name, graph file text, targets) for every graph the round trip
    embeds: the demo graphs at three targets, then seeded multigraphs and
    graphs with degree-2 vertices, which embed smooths first, at two."""
    demos = Path(__file__).resolve().parent.parent / "demos" / "graphs"
    for path in sorted(demos.glob("*.graph")):
        g_e = essential_genus(parse_graph(path.read_text()))
        yield path.stem, path.read_text(), ("minimal", "maximal", f"genus={g_e + 1}")
    graphs = {f"random{seed}": random_multigraph(seed) for seed in range(60)}
    graphs |= {f"prism{n} subdivided": subdivide(prism(n), 0, [0.3, 0.6]) for n in (3, 5, 8, 20)}
    graphs |= {
        f"random{seed} subdivided": subdivide(random_multigraph(seed), 0, [0.5]) for seed in (6, 9)
    }
    for name, graph in graphs.items():
        yield name, format_graph(graph), ("minimal", "maximal")


def test_every_schema_embed_writes_reads_back_to_its_own_bytes(graph_file, tmp_path, capsys):
    # the reader numbers vertices by first mention, so every graph embed
    # writes, the smoothed ones too, must be numbered so, or a schema read
    # back writes its foot, rotation and vertex spheres in another order
    out = tmp_path / "schema.json"
    written = 0
    for name, text, targets in _round_trip_inputs():
        path = graph_file(text)
        for target in targets:
            assert main(["embed", path, "--target", target, "-o", str(out)]) == 0, (name, target)
            doc = out.read_text()
            assert schema_to_json(schema_from_json(doc)) == doc, (name, target)
            written += 1
    capsys.readouterr()
    assert written == 5 * 3 + 66 * 2


def test_embed_skips_a_tree_search_kirchhoffs_count_rules_out(graph_file, capsys, monkeypatch):
    # prism(83)'s floor is 0 but its descent ends at 3 walks; it has far
    # more than 1000 spanning trees, so no tree is visited
    def no_trees(*args, **kwargs):
        raise AssertionError("spanning trees enumerated")

    monkeypatch.setattr(invariants, "spanning_trees", no_trees)
    path = graph_file(format_graph(prism(83)))
    assert main(["embed", path, "--max-trees", "1000"]) == 0
    assert "3 boundary walk(s) before capping" in capsys.readouterr().err


def test_oracle_ok(graph_file, capsys):
    assert main(["oracle", graph_file(THETA)]) == 0
    out = capsys.readouterr().out
    assert "boundary profile: {1: 2, 3: 2}" in out
    assert "min boundaries: 1  (1 + zeta = 1)" in out
    assert "move check: ok" in out
    assert "all checks passed" in out


def test_oracle_bouquet(graph_file, capsys):
    assert main(["oracle", graph_file(BOUQUET2)]) == 0
    assert "{1: 2, 3: 4}" in capsys.readouterr().out


def test_oracle_reports_stalls_without_failing(graph_file, capsys):
    # loops mixed into the graph make some descents stall; the oracle
    # reports that but the theory checks still pass
    text = (
        "edge e0 v0 v0 1.0\nedge e1 v1 v2 1.0\nedge e2 v1 v0 1.0\n"
        "edge e3 v0 v1 1.0\nedge e4 v2 v1 1.0\nedge e5 v2 v2 1.0\n"
    )
    assert main(["oracle", graph_file(text)]) == 0
    out = capsys.readouterr().out
    assert "stalled above the minimum" in out
    assert "all checks passed" in out


def test_oracle_cap(graph_file, capsys):
    assert main(["oracle", graph_file(K5), "--max-rotations", "100"]) == 5
    assert "error" in capsys.readouterr().err


def test_oracle_checks_the_rotation_cap_before_the_tree_search(graph_file, capsys, monkeypatch):
    # the refusal comes from the rotation count alone, with no tree visited
    def no_tree_search(*args):
        raise AssertionError("the tree search ran")

    monkeypatch.setattr(moves, "betti_deficiency", no_tree_search)
    assert main(["oracle", graph_file(K5), "--max-rotations", "100"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "7776 rotation systems exceed the cap of 100" in captured.err


def test_a_raised_rotation_cap_refuses_listing_a_hubs_orders(graph_file, capsys, monkeypatch):
    # it exited 6 with MemoryError: the wheel's 12! * 2^13 rotations lie
    # within the cap, but listing its hub's 12! cyclic orders does not fit.
    # Each run has 20 s.
    monkeypatch.setattr(rotation, "_cyclic_orders", short_order_lists)
    path, cap = graph_file(format_graph(wheel(13))), str(10**21)
    assert timed(20, main, ["analyze", path, "--json", "--max-rotations", cap]) == 0
    assert json.loads(capsys.readouterr().out)["ge_max_exact"] is None
    assert timed(20, main, ["oracle", path, "--max-rotations", cap]) == 5
    assert capsys.readouterr() == (
        "", "error: 479001626 cyclic orders to list exceed the limit of 1000000\n"
    )


def test_a_refusal_for_the_orders_is_named_not_blamed_on_the_rotation_cap(
    graph_file, tmp_path, capsys, monkeypatch
):
    # no --max-rotations lifts a refusal for the cyclic orders, so the text
    # report names it in the gate's words and embed does not advise the
    # flag, at a raised cap and at the default one, where the rotation count
    # refuses too; where the rotation count alone refused, the words stay
    # as they were (test_analyze_text_names_an_unknown_ge_max_exact).  Each
    # run has 20 s.
    monkeypatch.setattr(rotation, "_cyclic_orders", short_order_lists)
    path = graph_file(format_graph(wheel(13)))
    orders = "479001626 cyclic orders to list exceed the limit of 1000000"
    for cap in (["--max-rotations", str(10**21)], []):
        assert timed(20, main, ["analyze", path, *cap]) == 0
        out = capsys.readouterr().out
        assert f"\nge_max_exact     unknown ({orders}; bound still holds)\n" in out
        argv = ["embed", path, "--target", "maximal", *cap, "-o", str(tmp_path / "schema.json")]
        assert timed(20, main, argv) == 0
        err = capsys.readouterr().err
        assert err.splitlines()[0] == (
            f"warning: optimum not certified within the enumeration caps ({orders}); "
            "using the best rotation found; raise --restarts"
        )
        assert "--max-rotations" not in err
    assert main(["oracle", path]) == 5
    assert capsys.readouterr() == ("", f"error: {orders}\n")


def test_rotation_counts_past_the_decimal_digit_limit(graph_file, capsys):
    # the 1000-edge dipole has (999!)**2 rotations, 5130 digits, and the
    # 900-loop bouquet 1799!, 5077: past the interpreter's default limit of
    # 4300 on int -> str.  The report prints the exact count, a refusal
    # names its order of magnitude (the dipole's 2 * 999! cyclic orders,
    # 2565 digits), and main leaves the limit as it was.
    limit = sys.get_int_max_str_digits()
    dipole = graph_file("".join(f"edge e{i} u v 1.0\n" for i in range(1000)), "dipole.graph")
    bouquet = graph_file("".join(f"edge e{i} w w 1.0\n" for i in range(900)), "bouquet.graph")
    outputs = []
    for argv in (["analyze", dipole, "--json"], ["analyze", dipole], ["analyze", bouquet]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
        assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert json.loads(outputs[0])["rotation_count"] == math.factorial(999) ** 2
        assert f"\nrotation_count   {math.factorial(999) ** 2}\n" in outputs[1] + "\n"
        assert f"\nrotation_count   {math.factorial(1799)}\n" in outputs[2] + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert main(["oracle", dipole]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: over 10^2564 cyclic orders to list exceed the limit of 1000000\n"
    assert main(["embed", dipole, "--target", "maximal"]) == 0
    assert capsys.readouterr().err.endswith("not certified\n")


# embed's last stderr line names the rung that settled the optimum, or says
# that none did, before its ending: random_multigraph(196)'s ascent and its
# restarts miss the walk bound, and random_multigraph(27)'s zeta of 3 lies
# above the floor of 1, so past the rotation cap only the tree rung settles it
EMBED_RUNGS = {
    "floor": (
        "k4",
        [],
        "genus 3, 2 boundary walk(s) before capping, 0 move(s), "
        "optimum from the floor rung, certified",
    ),
    "dp": (
        "random196",
        ["--target", "maximal"],
        "genus 4, 6 boundary walk(s) before capping, 0 move(s), "
        "optimum from the dp rung, certified",
    ),
    "trees": (
        "random27",
        ["--max-rotations", "1"],
        "genus 4, 4 boundary walk(s) before capping, 1 move(s), "
        "optimum from the trees rung, certified",
    ),
    "none": (
        "random27",
        ["--max-rotations", "1", "--max-trees", "1"],
        "genus 4, 4 boundary walk(s) before capping, 1 move(s), "
        "no rung settled the optimum, not certified",
    ),
}


@pytest.mark.parametrize("case", sorted(EMBED_RUNGS))
def test_embed_names_the_rung(case, graph_file, tmp_path, capsys):
    name, flags, summary = EMBED_RUNGS[case]
    path = graph_file(_locked_graph_text(name))
    assert main(["embed", path, "-o", str(tmp_path / "schema.json"), *flags]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == f"schema: {summary}"


# exit code of each count flag at 0 on K4: the oracle refuses a cap of 0
ZERO_COUNTS = {
    ("analyze", "--max-trees"): 0,
    ("analyze", "--max-rotations"): 0,
    ("embed", "--restarts"): 0,
    ("embed", "--max-trees"): 0,
    ("embed", "--max-rotations"): 0,
    ("oracle", "--max-trees"): 5,
    ("oracle", "--max-rotations"): 5,
}


@pytest.mark.parametrize(("command", "flag"), sorted(ZERO_COUNTS))
def test_negative_counts_are_bad_usage(command, flag, graph_file, capsys):
    # a negative cap or restart count is refused before any work, with
    # exit 2; 0 is a count like any other
    path = graph_file(K4)
    assert main([command, path, flag, "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: negative count -1; expected 0 or more" in captured.err
    assert main([command, path, flag, "x"]) == 2
    assert f"argument {flag}: invalid int value: 'x'" in capsys.readouterr().err
    assert main([command, path, flag, "0"]) == ZERO_COUNTS[command, flag]


def test_oracle_tree_cap_aborts_on_the_kirchhoff_count(graph_file, capsys):
    path = graph_file(K5)  # 125 spanning trees
    assert main(["oracle", path, "--max-trees", "124"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "spanning tree count exceeds the cap of 124" in captured.err
    assert main(["oracle", path, "--max-trees", "125"]) == 0
    assert capsys.readouterr().out.endswith("oracle: all checks passed\n")
    # 800 vertices: the count stops at its first pivots above the cap
    assert main(["oracle", graph_file(format_graph(prism(400)), "prism400.graph")]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "spanning tree count exceeds the cap of 1000000" in captured.err


def test_oracle_recount_does_not_share_the_kernel(graph_file, capsys, monkeypatch):
    # a tracer that under-counts every rotation by 2 still lets the move
    # search find a "-2" move; only a recount of its own can see the truth
    trace = rotation._trace

    def undercount(succ):
        face, count = trace(succ)
        return face, count - 2

    monkeypatch.setattr(rotation, "_trace", undercount)
    assert main(["oracle", graph_file(K4)]) == 6
    out = capsys.readouterr().out
    assert "fail: reduce_move at vertex 0 changed 2 -> 2, not -2" in out


def test_oracle_checks_the_kernel_count_at_every_rotation(graph_file, capsys, monkeypatch):
    # a tracer that over-counts by 2 only the first rotation where no vertex
    # meets three walks leaves every move check sound: only the recount of
    # every rotation sees it
    trace = rotation._trace
    for text, first, walks, total in ((K4, 0, 2, 16), (K5, 1, 1, 7776)):
        g = parse_graph(text)
        rotations = list(rotation.enumerate_rotations(g))
        faces = [rotation._faces(g.dart_count, r.cycles)[0] for r in rotations]
        calm = [
            not any(rotation._incidence(c, f) >= 3 for c in r.cycles)
            for r, f in zip(rotations, faces)
        ]
        assert calm.index(True) == first
        miscounted = rotation._succ(g.dart_count, rotations[first].cycles)

        def overcount(succ):
            face, count = trace(succ)
            return face, count + 2 * (succ == miscounted)

        monkeypatch.setattr(rotation, "_trace", overcount)
        assert main(["oracle", graph_file(text)]) == 6
        out = capsys.readouterr().out.splitlines()
        assert out[6] == "move check: FAIL"
        assert out[-1] == (
            f"fail: rotation {first} has {walks} walks, the kernel counts {walks + 2}; "
            f"the kernel miscounts 1 of {total} rotations"
        )


# The oracle's two checks from the theory, each failed by K4's sweep once
# the number it is checked against is off: the minimum walk count against
# 1 + zeta, and every walk count's parity against chi.
THEORY_FAULTS = {
    "zeta": ("betti_deficiency", 2, ["fail: minimum 2 differs from 1 + zeta = 4"]),
    "chi": (
        "euler_char",
        1,
        ["parity check: FAIL", "fail: walk counts with wrong parity: [2, 4]"],
    ),
}


@pytest.mark.parametrize("case", sorted(THEORY_FAULTS))
def test_oracle_fails_a_count_the_theory_rules_out(case, graph_file, capsys, monkeypatch):
    name, shift, expected = THEORY_FAULTS[case]
    right = getattr(moves, name)
    monkeypatch.setattr(moves, name, lambda *args: right(*args) + shift)
    assert main(["oracle", graph_file(K4)]) == 6
    out = capsys.readouterr().out.splitlines()
    assert [line for line in expected if line not in out] == []


def test_cli_imports_no_private_names():
    # the demos are read as user code too: they show the public API only
    sources = [Path(cli.__file__), *sorted(DEMO_GRAPHS.parent.glob("*.py"))]
    assert len(sources) == 6
    private = [
        (source.name, alias.name)
        for source in sources
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.rsplit(".", 1)[-1].startswith("_")
    ]
    assert private == []


def test_verify_clean(graph_file, tmp_path, capsys):
    out_path = tmp_path / "schema.json"
    main(["embed", graph_file(DUMBBELL), "-o", str(out_path)])
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 0
    assert capsys.readouterr().out.startswith("ok: genus 2")


def test_verify_tampered(graph_file, tmp_path, capsys):
    out_path = tmp_path / "schema.json"
    main(["embed", graph_file(THETA), "-o", str(out_path)])
    doc = json.loads(out_path.read_text())
    doc["summary"]["genus"] = 7
    out_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 1
    assert "fail:" in capsys.readouterr().out


def test_verify_malformed(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{]")
    assert main(["verify", str(path)]) == 2


@pytest.mark.parametrize(
    "prefix,suffix",
    [("", ""), ('{"schema_version": 1, "meta": ', "}")],
    ids=["document", "meta"],
)
def test_verify_rejects_nesting_too_deep_to_decode(prefix, suffix, tmp_path, capsys):
    # the decoder recurses once per level: past its limit that is bad input, not a bug
    path = tmp_path / "deep.json"
    path.write_text(prefix + "[" * 200000 + "]" * 200000 + suffix)
    assert main(["verify", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def _first_numeric_boundary(doc):
    return next(
        bd for b in doc["blocks"] for bd in b["boundaries"] if not isinstance(bd["length"], str)
    )


NON_FINITE_MUTATIONS = {
    "t": lambda doc: doc["meta"].update(t=math.nan),
    "margin": lambda doc: doc["meta"].update(margin=math.inf),
    "f_min": lambda doc: doc["meta"].update(f_min=-math.inf),
    "foot": lambda doc: doc["meta"]["foot"].update(u=math.nan),
    "clearance": lambda doc: doc["meta"]["clearance"].update(a=math.nan),
    "waist": lambda doc: doc["meta"]["waist"].update(a=math.inf),
    "edge length": lambda doc: doc["meta"]["graph"]["edges"][0].__setitem__(3, math.nan),
    "boundary length": lambda doc: _first_numeric_boundary(doc).update(length=math.nan),
    "twist": lambda doc: doc["gluings"][0].update(twist=math.nan),
    # 400 digits, past the largest float: float() and math.isfinite() raised
    # OverflowError on them, and the reader said "of the wrong JSON type"
    "t past the float range": lambda doc: doc["meta"].update(t=10**399),
    "margin past the float range": lambda doc: doc["meta"].update(margin=10**399),
    "foot past the float range": lambda doc: doc["meta"]["foot"].update(u=10**399),
    "edge length past the float range": (
        lambda doc: doc["meta"]["graph"]["edges"][0].__setitem__(3, 10**399)
    ),
    "boundary length past the float range": (
        lambda doc: _first_numeric_boundary(doc).update(length=10**399)
    ),
    "twist past the float range": lambda doc: doc["gluings"][0].update(twist=10**399),
}


@pytest.mark.parametrize("field", sorted(NON_FINITE_MUTATIONS))
def test_verify_rejects_non_finite_numbers(field, graph_file, tmp_path, capsys):
    # every comparison with NaN is false, so a NaN would slip past each check
    out_path = tmp_path / "schema.json"
    assert main(["embed", graph_file(THETA), "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    NON_FINITE_MUTATIONS[field](doc)
    out_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_verify_rejects_non_object_payload(graph_file, tmp_path, capsys):
    out_path = tmp_path / "schema.json"
    assert main(["embed", graph_file(THETA), "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    spine = next(b for b in doc["blocks"] if b["kind"] == "spine_surface")
    spine["payload"] = list(spine["payload"].values())
    out_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 2
    assert "payload is not an object" in capsys.readouterr().err


def _spine(doc):
    return next(b for b in doc["blocks"] if b["kind"] == "spine_surface")


def _sphere(doc):
    return next(b for b in doc["blocks"] if b["kind"] == "vertex_sphere")


def _block(doc, kind):
    return next(b for b in doc["blocks"] if b["kind"] == kind)


def _repeat_edge_name(doc):
    """Name the theta's second edge like its first, with the hash to match."""
    edges = doc["meta"]["graph"]["edges"]
    edges[1][0] = edges[0][0]
    names = tuple(name for name, *_ in edges)
    graph = MetricGraph((0, 1) * 3, (1.0,) * 3, names, ("u", "v"))
    doc["meta"]["graph"]["hash"] = graph_hash(graph)


# Each mutation left verify_schema to raise (KeyError or TypeError) before
# schema_from_json checked the document's shape.
MALFORMED_MUTATIONS = {
    "missing clearance": (lambda doc: doc["meta"]["clearance"].pop("a"), "clearance has no entry"),
    "missing waist": (lambda doc: doc["meta"]["waist"].pop("b"), "waist has no entry"),
    "walks a number": (lambda doc: _spine(doc)["payload"].update(walks=3), "payload walks"),
    "walk a number": (lambda doc: _spine(doc)["payload"]["walks"].append(4), "payload walks"),
    "gluing side": (lambda doc: doc["gluings"][0]["a"].__setitem__(1, ["x"]), "gluing side"),
    "boundary label": (
        lambda doc: _sphere(doc)["boundaries"][0].update(label=["dart:0"]), "boundary label"
    ),
    "payload vertex": (lambda doc: _sphere(doc)["payload"].update(vertex=["u"]), "payload vertex"),
    # int() would truncate these, and a genus of 2.9 verified as genus 2
    "summary genus float": (lambda doc: doc["summary"].update(genus=2.9), "summary genus"),
    "summary genus bool": (lambda doc: doc["summary"].update(genus=True), "summary genus"),
    "summary boundary count string": (
        lambda doc: doc["summary"].update(boundary_count="0"), "summary boundary_count"
    ),
    "block genus float": (lambda doc: _sphere(doc).update(genus=0.5), "block genus"),
    "block genus string": (lambda doc: _sphere(doc).update(genus="0"), "block genus"),
    # one name -> id map serves the reader and the verifier
    "repeated edge name": (_repeat_edge_name, "repeats an edge name"),
    # waist_distance raised ValueError on these inside verify_schema
    "waist zero": (lambda doc: doc["meta"]["waist"].update(a=0.0), "non-positive number"),
    "margin negative": (lambda doc: doc["meta"].update(margin=-1.0), "non-positive number"),
    # every schema construction records the rotation; only an edited document lacks it
    "rotation null": (lambda doc: doc["meta"].update(rotation=None), "meta has no rotation"),
    "rotation missing": (lambda doc: doc["meta"].pop("rotation"), "meta has no rotation"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MUTATIONS))
def test_verify_rejects_malformed_shapes(case, graph_file, tmp_path, capsys):
    mutate, message = MALFORMED_MUTATIONS[case]
    out_path = tmp_path / "schema.json"
    assert main(["embed", graph_file(THETA), "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    mutate(doc)
    out_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 2
    assert message in capsys.readouterr().err



# A missing key is named with the object it is missing from, counted from 0,
# and a per-name entry with the name that is no vertex or edge.
MISSING_KEYS = {
    "version": (lambda doc: doc.pop("schema_version"), "the document has no key 'schema_version'"),
    "summary": (lambda doc: doc.pop("summary"), "the document has no key 'summary'"),
    "meta t": (lambda doc: doc["meta"].pop("t"), "meta has no key 't'"),
    "meta foot": (lambda doc: doc["meta"].pop("foot"), "meta has no key 'foot'"),
    "graph hash": (lambda doc: doc["meta"]["graph"].pop("hash"), "meta graph has no key 'hash'"),
    "graph edges": (
        lambda doc: doc["meta"]["graph"].pop("edges"), "meta graph has no key 'edges'"
    ),
    "block layer": (lambda doc: doc["blocks"][1].pop("layer"), "block 1 has no key 'layer'"),
    "block boundaries": (
        lambda doc: doc["blocks"][0].pop("boundaries"), "block 0 has no key 'boundaries'"
    ),
    "boundary length": (
        lambda doc: doc["blocks"][2]["boundaries"][1].pop("length"),
        "boundary 1 of block 2 has no key 'length'",
    ),
    "gluing side": (lambda doc: doc["gluings"][3].pop("b"), "gluing 3 has no key 'b'"),
    "summary minimal": (lambda doc: doc["summary"].pop("minimal"), "summary has no key 'minimal'"),
    "foot name": (
        lambda doc: doc["meta"]["foot"].update(zz=1.0), "foot names no vertex of the graph: 'zz'"
    ),
    "clearance name": (
        lambda doc: doc["meta"]["clearance"].update(u=1.0),
        "clearance names no edge of the graph: 'u'",
    ),
    "waist name": (
        lambda doc: doc["meta"]["waist"].update(zz=1.0), "waist names no edge of the graph: 'zz'"
    ),
}


@pytest.mark.parametrize("case", sorted(MISSING_KEYS))
def test_reader_names_where_a_key_is_missing(case, graph_file, tmp_path, capsys):
    mutate, message = MISSING_KEYS[case]
    out_path = tmp_path / "schema.json"
    assert main(["embed", graph_file(THETA), "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    mutate(doc)
    out_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _set(path, value):
    def mutate(doc):
        functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
        return doc

    return mutate


# A container of the wrong JSON type is named as a missing key is.
WRONG_TYPES = {
    "document": (lambda doc: [], "the document is not a JSON object: []"),
    "meta": (_set(("meta",), ["t"]), "meta is not a JSON object: ['t']"),
    "block": (_set(("blocks", 1), "pants"), "block 1 is not a JSON object: 'pants'"),
    "gluing": (_set(("gluings", 2), 7), "gluing 2 is not a JSON object: 7"),
    "boundary": (
        _set(("blocks", 2, "boundaries", 1), [1.0]),
        "boundary 1 of block 2 is not a JSON object: [1.0]",
    ),
    "summary": (_set(("summary",), "genus 3"), "summary is not a JSON object: 'genus 3'"),
    "meta foot": (_set(("meta", "foot"), [0.5]), "meta foot is not a JSON object: [0.5]"),
    "blocks": (_set(("blocks",), 3), "blocks is not a JSON array: 3"),
    "blocks object": (_set(("blocks",), {}), "blocks is not a JSON array: {}"),
    "gluings object": (_set(("gluings",), {"a": 1}), "gluings is not a JSON array: {'a': 1}"),
    "boundaries object": (
        _set(("blocks", 0, "boundaries"), {}),
        "block 0 boundaries is not a JSON array: {}",
    ),
    "meta graph edges": (
        _set(("meta", "graph", "edges"), {"e01": 1}),
        "meta graph edges is not a JSON array: {'e01': 1}",
    ),
    # keyed by the rotation lines, the object would iterate as the lines
    "meta rotation object": (
        lambda doc: _set(("meta", "rotation"), dict.fromkeys(doc["meta"]["rotation"], 1))(doc),
        "meta rotation is not a JSON array: {'rot v0 e01+ e02+ e03+': 1, 'rot v1 e01…",
    ),
    "meta rotation string": (
        lambda doc: _set(("meta", "rotation"), "\n".join(doc["meta"]["rotation"]))(doc),
        "meta rotation is not a JSON array: 'rot v0 e01+ e02+ e03+\\nrot v1 e01- e12+…",
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_reader_names_a_container_of_the_wrong_type(case, graph_file, tmp_path, capsys):
    mutate, message = WRONG_TYPES[case]
    out_path, text = _k4_schema(graph_file, tmp_path)
    out_path.write_text(json.dumps(mutate(json.loads(text))))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _largest_edge_length(doc):
    """Set the theta's first edge length to 10**308, with the graph hash to match."""
    doc["meta"]["graph"]["edges"][0][3] = 10**308
    edited = THETA.replace("edge a u v 1.0", "edge a u v 1e308")
    doc["meta"]["graph"]["hash"] = graph_hash(parse_graph(edited))


# 10**308, an int within the float range, wherever the reader takes a float
LARGEST_FLOATS = {
    "t": lambda doc: doc["meta"].update(t=10**308),
    "margin": lambda doc: doc["meta"].update(margin=10**308),
    "foot": lambda doc: doc["meta"]["foot"].update(u=10**308),
    "clearance": lambda doc: doc["meta"]["clearance"].update(a=10**308),
    "waist": lambda doc: doc["meta"]["waist"].update(a=10**308),
    "edge length": _largest_edge_length,
    "boundary length": lambda doc: _first_numeric_boundary(doc).update(length=10**308),
    "twist": lambda doc: doc["gluings"][0].update(twist=10**308),
}


def test_reader_accepts_the_largest_numbers_a_float_holds(graph_file, tmp_path, capsys):
    # read, then judged by the verifier: exit 1, not 2
    out_path = tmp_path / "schema.json"
    assert main(["embed", graph_file(THETA), "-o", str(out_path)]) == 0
    text = out_path.read_text()
    for case, mutate in LARGEST_FLOATS.items():
        doc = json.loads(text)
        mutate(doc)
        out_path.write_text(json.dumps(doc))
        assert main(["verify", str(out_path)]) == 1, case
        assert "fail:" in capsys.readouterr().out, case


def test_reader_names_an_integer_too_long_to_parse(graph_file, tmp_path, capsys):
    # json.loads refuses an integer of more digits than the interpreter
    # converts with a plain ValueError, which is no JSONDecodeError; at an
    # integer field and at a float one alike
    out_path, text = _k4_schema(graph_file, tmp_path)
    limit = sys.get_int_max_str_digits()
    for parent, key in (("summary", "genus"), ("meta", "t")):
        doc = json.loads(text)
        doc[parent][key] = "BIG"
        out_path.write_text(json.dumps(doc).replace('"BIG"', "9" * 5001))
        capsys.readouterr()
        assert main(["verify", str(out_path)]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: JSON integer too long to read: more than {limit} digits\n",
        )


# A rotation record naming no dart or no vertex of the graph is refused
# with the reader's message for it.
BAD_ROTATION_RECORDS = {
    "bad dart label": (("e01+", "e01"), "bad dart label 'e01'"),
    "unknown edge": (("e01+", "e99+"), "unknown edge 'e99' in dart label"),
    "unknown vertex": (("rot v0", "rot v9"), "unknown vertex 'v9'"),
}


@pytest.mark.parametrize("case", sorted(BAD_ROTATION_RECORDS))
def test_reader_refuses_a_bad_rotation_record(case, graph_file, tmp_path, capsys):
    (old, new), message = BAD_ROTATION_RECORDS[case]
    out_path, text = _k4_schema(graph_file, tmp_path)
    doc = json.loads(text)
    assert doc["meta"]["rotation"][0] == "rot v0 e01+ e02+ e03+"
    doc["meta"]["rotation"][0] = doc["meta"]["rotation"][0].replace(old, new)
    out_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_verify_reports_a_long_waist_that_misses_its_cuff_distance(graph_file, tmp_path, capsys):
    out_path = tmp_path / "schema.json"
    assert main(["embed", graph_file(THETA), "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    doc["meta"]["waist"]["a"] = 1000.0  # cosh(1000) overflows; the log-domain form does not
    out_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 1
    assert "fail: edge a: waist does not invert the cuff distance" in capsys.readouterr().out


@pytest.mark.parametrize("length", [13.96, 18.75, 42.5, 93.0, 93.77, 200.0, 1000.0])
def test_embed_then_verify_long_thetas(length, graph_file, tmp_path, capsys):
    # the schema keeps 12 significant digits, so a waist near 274 misses an
    # absolute 1e-9; from L = 93.77 on, cosh(t * L) overflows a float
    text = f"edge a u v 1.0\nedge b u v 1.0\nedge c u v {length}\n"
    out_path = tmp_path / "schema.json"
    assert main(["embed", graph_file(text), "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 0
    assert capsys.readouterr().out == "ok: genus 2, 0 boundary circle(s), construction sigma\n"


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def _single_leaf_mutations(text):
    """3000 seeded single-leaf mutations of a schema document: a hostile
    value, another leaf's value, or (one in four) the key deleted."""
    paths = list(_leaf_paths(json.loads(text)))
    leaves = [functools.reduce(operator.getitem, path, json.loads(text)) for path in paths]
    rng = random.Random(6)
    hostile = [None, 0, -1, 7.25, 1e308, "", "zz", True, [], {}]
    for _ in range(3000):
        doc = json.loads(text)
        path = rng.choice(paths)
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        if rng.random() < 0.25:
            del parent[path[-1]]
        else:
            parent[path[-1]] = rng.choice(hostile + [rng.choice(leaves)])
        yield doc


def _k4_schema(graph_file, tmp_path):
    """The path of the schema ``embed`` writes for K4, and its text."""
    out_path = tmp_path / "schema.json"
    assert main(["embed", graph_file(K4), "-o", str(out_path)]) == 0
    return out_path, out_path.read_text()


# The sha256 of every (exit code, stdout, stderr) of the corpus, in order: a
# change to the reader or the verifier that moves any verdict or message
# moves it.
MUTATION_CORPUS_DIGEST = "4a9ab46a5ed6de048688861a218d7b58a7ab44dd588d8680a9df8b6f2f4a869c"


def test_verify_is_total_on_single_leaf_mutations(graph_file, tmp_path, capsys):
    # every mutated document gets a verdict (0 ok, 1 failed check, 2 bad
    # input), no exception escapes main, and the tally of verdicts holds
    out_path, text = _k4_schema(graph_file, tmp_path)
    capsys.readouterr()
    exits = Counter()
    digest = hashlib.sha256()
    for doc in _single_leaf_mutations(text):
        out_path.write_text(json.dumps(doc))
        code = main(["verify", str(out_path)])
        exits[code] += 1
        digest.update(repr((code, *capsys.readouterr())).encode())
    assert exits == {2: 2113, 1: 826, 0: 61}
    assert digest.hexdigest() == MUTATION_CORPUS_DIGEST


def _set_edge_field(index, value):
    return lambda doc: doc["meta"]["graph"]["edges"][0].__setitem__(index, value)


NOT_AN_EDGE_RECORD = "is not [name, u, v, length] with string names"

# Records the reader unpacked or hashed unchecked, so that the interpreter's
# own words (an unpacking ValueError, "unhashable type", "'float' object
# has no attribute 'split'") were the message.
MALFORMED_RECORDS = {
    "list endpoint": (
        _set_edge_field(1, []),
        f"edge record ['e01', [], 'v1', 1.0] {NOT_AN_EDGE_RECORD}",
    ),
    "dict endpoint": (
        _set_edge_field(2, {}),
        f"edge record ['e01', 'v0', {{}}, 1.0] {NOT_AN_EDGE_RECORD}",
    ),
    "three items": (
        lambda doc: doc["meta"]["graph"]["edges"][0].pop(),
        f"edge record ['e01', 'v0', 'v1'] {NOT_AN_EDGE_RECORD}",
    ),
    "float rotation record": (
        lambda doc: doc["meta"]["rotation"].__setitem__(0, 7.25),
        "bad rotation record 7.25",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_reader_names_a_malformed_edge_or_rotation_record(case, graph_file, tmp_path, capsys):
    mutate, message = MALFORMED_RECORDS[case]
    out_path, text = _k4_schema(graph_file, tmp_path)
    doc = json.loads(text)
    mutate(doc)
    out_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_schema_is_total_on_documents_the_reader_accepts(graph_file, tmp_path):
    # below main: a stored waist of 0 or -1 passed the reader, and
    # verify_schema raised ValueError from waist_distance
    _, text = _k4_schema(graph_file, tmp_path)
    accepted = 0
    for doc in _single_leaf_mutations(text):
        try:
            schema = schema_from_json(json.dumps(doc))
        except SchemaFormatError:
            continue
        accepted += 1
        assert isinstance(verify_schema(schema), Diagnostics)
    assert accepted > 0


def _leaf_edits(value):
    """Edits of one leaf: null, and a changed flag, integer, number or
    string; and the same value under another type: a number's string form,
    the bool equal to a number that is 0 or 1, and the int equal to a bool."""
    yield None
    if isinstance(value, bool):
        yield not value
        yield int(value)
    elif isinstance(value, (int, float)):
        yield value + 1 if isinstance(value, int) else 1.5 * value + 0.25
        yield str(value)
        if value in (0, 1):
            yield bool(value)
    elif isinstance(value, str):
        yield "zz"


def test_verify_fails_every_single_leaf_edit(graph_file, tmp_path, capsys):
    # soundness: every leaf of the schema is either re-derived or checked,
    # so no edit of one verifies ok; meta.t, meta.margin, meta.foot,
    # meta.clearance, sphere feet, pants scaled lengths and cap fills did
    out_path, text = _k4_schema(graph_file, tmp_path)
    verified = []
    for path in _leaf_paths(json.loads(text)):
        for value in _leaf_edits(functools.reduce(operator.getitem, path, json.loads(text))):
            doc = json.loads(text)
            functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
            out_path.write_text(json.dumps(doc))
            if main(["verify", str(out_path)]) == 0:
                verified.append((path, value))
            capsys.readouterr()
    assert verified == []


def _lengthen_waist(doc):
    _block(doc, "edge_pants")["boundaries"][2]["length"] += 1e-3


# Each of these single-leaf edits of the K4 schema verified ok while the
# reader took the stored field on trust.
STORED_FIELD_MUTATIONS = {
    "graph hash": (lambda doc: doc["meta"]["graph"].update(hash="00"), 2, "graph hash"),
    "f_min": (lambda doc: doc["meta"].update(f_min=7.25), 2, "f_min"),
    "construction": (
        lambda doc: doc["summary"].update(construction="zz"), 1, "construction 'zz'"
    ),
    "layer": (lambda doc: doc["blocks"][0].update(layer="zz"), 2, "block layer"),
    "margin": (lambda doc: doc["meta"].update(margin=0.4), 1, "but margin 0.4 gives"),
    "foot": (lambda doc: doc["meta"]["foot"].update(v0=7.25), 1, "vertex v0: foot 7.25"),
    "clearance": (
        lambda doc: doc["meta"]["clearance"].update(e01=7.25), 1, "edge e01: clearance 7.25"
    ),
    "sphere foot": (
        lambda doc: _sphere(doc)["payload"].update(foot=7.25), 1, "sphere:v0: foot 7.25"
    ),
    "scaled length": (
        lambda doc: _block(doc, "edge_pants")["payload"].update(scaled_length=7.25),
        1,
        "pants:e01: scaled length 7.25",
    ),
    "cap fills": (
        lambda doc: _block(doc, "cap_torus")["payload"].update(fills=["w1"]),
        1,
        "does not match its gluings",
    ),
}
# Failure paths of the verifier that no other test runs.
STORED_FIELD_MUTATIONS |= {
    "waist length": (
        _lengthen_waist,
        1,
        "block pants:e01: cuff waist has length 1.35285087297, expected 1.35185087297",
    ),
    "second spine": (
        lambda doc: doc["blocks"].append({**_spine(doc), "id": "spine2"}),
        1,
        "more than one spine block",
    ),
    "torus cap as three-holed": (
        lambda doc: _block(doc, "cap_torus").update(kind="cap_pants"),
        1,
        "three-holed cap must have genus 0",
    ),
    "genus-0 upgraded cap": (
        lambda doc: _block(doc, "cap_torus").update(kind="cap_surface", genus=0),
        1,
        "upgraded cap must have genus >= 1",
    ),
    "margin underflow": (lambda doc: doc["meta"].update(margin=1e-300), 1, "gives no scale"),
    "margin overflow": (lambda doc: doc["meta"].update(margin=1e308), 1, "gives no scale"),
}


@pytest.mark.parametrize("case", sorted(STORED_FIELD_MUTATIONS))
def test_verify_rederives_stored_fields(case, graph_file, tmp_path, capsys):
    mutate, code, message = STORED_FIELD_MUTATIONS[case]
    out_path = tmp_path / "schema.json"
    assert main(["embed", graph_file(K4), "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    mutate(doc)
    out_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == code
    assert message in "".join(capsys.readouterr())


@pytest.mark.parametrize(
    ("kind", "copy_id", "message"),
    [
        ("vertex_sphere", "sphere:v0x", "vertex v0 has 2 vertex spheres, not 1"),
        ("edge_pants", "pants:e01x", "edge e01 has 2 edge pants, not 1"),
    ],
    ids=["sphere", "pants"],
)
def test_verify_fails_a_second_block_for_one_vertex_or_edge(
    kind, copy_id, message, graph_file, tmp_path, capsys
):
    # a copy of K4's first sphere under a new id verified ok: the verifier
    # only asked whether the set of spheres covered every vertex
    out_path, text = _k4_schema(graph_file, tmp_path)
    doc = json.loads(text)
    block = json.loads(json.dumps(_block(doc, kind)))
    block["id"] = copy_id
    doc["blocks"].append(block)
    out_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 1
    assert f"fail: {message}\n" in capsys.readouterr().out


# Documents whose offending value ran to hundreds of thousands of characters
# in one error: or fail: line, the value quoted whole.
HUGE_VALUE_MUTATIONS = {
    "rotation record": (
        lambda doc: doc["meta"]["rotation"].__setitem__(0, "rot " + "x" * 400_000),
        2,
        "error: bad rotation record 'rot xxx",
    ),
    "boundary label": (
        lambda doc: _sphere(doc)["boundaries"][0].update(label=list(range(100_000))),
        2,
        "boundary label is not a string: [0, 1,",
    ),
    "construction": (
        lambda doc: doc["summary"].update(construction="x" * 400_000),
        1,
        "construction 'xxx",
    ),
    "foot key": (
        lambda doc: doc["meta"]["foot"].update({"x" * 400_000: 1.0}),
        2,
        "error: foot names no vertex of the graph: 'xxx",
    ),
    "block id": (
        lambda doc: _block(doc, "cap_torus").update(id="x" * 400_000),
        1,
        "does not match its gluings",
    ),
    # stored summary values, echoed whole: 100,049 and 4,073 characters
    # (the reader refuses a minimal that is no flag, and quotes it cut)
    "summary minimal": (
        lambda doc: doc["summary"].update(minimal="x" * 100_000),
        2,
        "error: summary minimal is not true, false or null: 'xxx",
    ),
    "summary genus": (
        lambda doc: doc["summary"].update(genus=int("9" * 4000)),
        1,
        "fail: chi additivity broken: surface blocks sum to -4, summary implies -1999",
    ),
    # the implied chi has 4301 digits, one past the interpreter's limit on
    # printing an int: verify exited 2 with "Exceeds the limit (4300 digits)"
    "summary genus at the digit limit": (
        lambda doc: doc["summary"].update(genus=int("9" * 4300)),
        1,
        "fail: chi additivity broken: surface blocks sum to -4, summary implies <int too long",
    ),
}


@pytest.mark.parametrize("case", sorted(HUGE_VALUE_MUTATIONS))
def test_verify_cuts_the_values_it_quotes(case, graph_file, tmp_path, capsys):
    mutate, code, message = HUGE_VALUE_MUTATIONS[case]
    out_path, text = _k4_schema(graph_file, tmp_path)
    doc = json.loads(text)
    mutate(doc)
    out_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == code
    output = "".join(capsys.readouterr())
    assert message in output
    assert max(map(len, output.splitlines())) <= 200


def _edit_rotation_line(doc, vertex, edit):
    """Apply ``edit`` to the ``rot <vertex>`` line of the rotation: a list of
    the lines to put in its place."""
    lines = doc["meta"]["rotation"]
    i = next(i for i, line in enumerate(lines) if line.split()[1] == vertex)
    lines[i : i + 1] = edit(lines[i])


# Each message reached the user as a wrapped repr cut at 40 characters,
# 'malformed schema document: GraphFormatError("vertex 'v0' listed twi…'.
ROTATION_RECORD_MUTATIONS = {
    "listed twice": (
        lambda doc: _edit_rotation_line(doc, "v0", lambda line: [line, line]),
        "vertex 'v0' listed twice",
    ),
    "missing": (
        lambda doc: _edit_rotation_line(doc, "v3", lambda line: []),
        "missing rotation for vertices ['v3']",
    ),
    "wrong dart": (
        lambda doc: _edit_rotation_line(doc, "v0", lambda line: [line.replace("e01+", "e12+")]),
        "cycle at vertex v0 is not a permutation of the darts at that vertex",
    ),
}


@pytest.mark.parametrize("case", sorted(ROTATION_RECORD_MUTATIONS))
def test_verify_quotes_rotation_record_errors_whole(case, graph_file, tmp_path, capsys):
    mutate, message = ROTATION_RECORD_MUTATIONS[case]
    out_path, text = _k4_schema(graph_file, tmp_path)
    doc = json.loads(text)
    mutate(doc)
    out_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_fails_a_disconnected_graph(tmp_path, capsys):
    # two disjoint thetas, capped: two closed genus-2 surfaces, which
    # verified as "ok: genus 3"
    path = tmp_path / "schema.json"
    path.write_text(schema_to_json(two_thetas_schema()))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == "fail: graph is not connected\n"


LONG = "w" * 100_000  # a vertex or edge name parse_graph accepts
LONG_THETA = f"edge {LONG} {LONG} v 1.0\nedge b {LONG} v 1.0\nedge c {LONG} v 1.0\n"


def _second_pants(doc):
    block = json.loads(json.dumps(_block(doc, "edge_pants")))
    block["id"] += "x"
    doc["blocks"].append(block)


# Each wrote its graph name whole into one error: or fail: line.
LONG_NAME_CASES = {
    "degree 1": ("analyze", THETA + f"edge d u {LONG} 1.0\n", None, 2, "error: vertex www"),
    "scale": ("embed", LONG_THETA.replace("1.0", "1e-320", 1), None, 2, "error: edge www"),
    "foot": (
        "verify", LONG_THETA, lambda doc: doc["meta"]["foot"].update({LONG: 7.25}), 1,
        "fail: vertex www",
    ),
    "clearance": (
        "verify", LONG_THETA, lambda doc: doc["meta"]["clearance"].update({LONG: 7.25}), 1,
        "fail: edge www",
    ),
    "waist": (
        "verify", LONG_THETA, lambda doc: doc["meta"]["waist"].update({LONG: 7.25}), 1,
        "fail: edge www",
    ),
    "second pants": ("verify", LONG_THETA, _second_pants, 1, "fail: edge www"),
    "pants gluing": (
        "verify", LONG_THETA, lambda doc: doc["gluings"][0]["b"].__setitem__(1, "dart:2"), 1,
        "fail: edge www",
    ),
}


@pytest.mark.parametrize("case", sorted(LONG_NAME_CASES))
def test_messages_cut_the_graph_names_they_quote(case, graph_file, tmp_path, capsys):
    command, text, mutate, code, message = LONG_NAME_CASES[case]
    path = graph_file(text)
    if mutate is not None:
        out_path = tmp_path / "schema.json"
        assert main(["embed", path, "-o", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        mutate(doc)
        out_path.write_text(json.dumps(doc))
        path = str(out_path)
    capsys.readouterr()
    assert main([command, path]) == code
    output = "".join(capsys.readouterr())
    assert message in output
    assert max(map(len, output.splitlines())) <= 200


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_unexpected_exceptions_exit_6(command, graph_file, tmp_path, capsys, monkeypatch):
    # a bug must not read as exit 1, "verification found errors"
    out_path = tmp_path / "schema.json"
    assert main(["embed", graph_file(THETA), "-o", str(out_path)]) == 0
    capsys.readouterr()

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, {"analyze": "analyze", "verify": "verify_schema"}[command], broken)
    path = graph_file(THETA) if command == "analyze" else str(out_path)
    assert main([command, path]) == 6
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_embed_refuses_a_schema_that_does_not_verify(graph_file, capsys, monkeypatch):
    def failing(schema):
        return Diagnostics(errors=("boom",), notes=())

    monkeypatch.setattr(cli, "verify_schema", failing)
    assert main(["embed", graph_file(K4)]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fail: boom\nrefusing to emit a schema that does not verify\n"


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0


@pytest.mark.parametrize("command", ["analyze", "embed", "oracle"])
def test_the_help_states_the_orders_limit_the_gate_applies(command, capsys):
    # the limit has its own name, so the default cap cannot move it unseen
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    (exponent,) = re.findall(r"list more than 10\^(\d+) cyclic orders", text)
    assert 10 ** int(exponent) == rotation.ORDERS_LIMIT


# Golden lock: exit code and sha256 of stdout for every command on the demo
# graphs and two loop-carrying random multigraphs.  Seed 3 stalls the greedy
# descent and seed 14 the greedy ascent, so with --restarts 0 the frontier
# DP supplies both rotations.  Refactors of the search and tracing code must
# leave every entry unchanged; the values are the essential genera, used for
# the genus=<g_e + 1> target.
DEMO_GRAPHS = Path(__file__).resolve().parent.parent / "demos" / "graphs"
LOCKED_GRAPHS = {
    "bouquet2": 2, "dumbbell": 2, "k4": 3, "k5": 4, "theta": 2, "random3": 3, "random14": 3,
}  # fmt: skip


def _locked_graph_text(name):
    if name.startswith("random"):
        return format_graph(random_multigraph(int(name[len("random"):])))
    return (DEMO_GRAPHS / f"{name}.graph").read_text()


def _golden_cases():
    for name, g_e in LOCKED_GRAPHS.items():
        yield f"{name} analyze", ["analyze", "--json"]
        yield f"{name} oracle", ["oracle"]
        for target in ("minimal", "maximal", f"genus={g_e + 1}"):
            yield f"{name} embed {target}", ["embed", "--target", target]
        if name.startswith("random"):
            for target in ("minimal", "maximal"):
                yield f"{name} embed {target} restarts0", ["embed", "--target", target, "--restarts", "0"]


GOLDEN = {
    "bouquet2 analyze": (0, "63607a0ccea278841d4248438b9c44b47561cb91dd0ef7dfaa8520b42cfae6e4"),
    "bouquet2 oracle": (0, "4bc55a270abdc19ca7d50375dbf6c8e5cfe050c66bef70552d3a7ff8436648b4"),
    "bouquet2 embed minimal": (0, "08984b213bbf5129a4a0f239398eeda52a464c43401bcd3cc57f6ccb18edc9d1"),
    "bouquet2 embed maximal": (0, "a55b5d284fb28fa77fafbe5f479edffce3d286bdc837111c50a8a3db3a06638f"),
    "bouquet2 embed genus=3": (0, "25b9d89238699b9b7732af628464da71e65916a569c42c7cdd10e2ed9a022dcd"),
    "dumbbell analyze": (0, "94375dc11fc5fea67c095bf17d4b559503ca47839a9b4cbe71ea950b1045ee54"),
    "dumbbell oracle": (0, "0c1a15567619a5c199b7df2a245c17aea945606d77ef5c2f38ab77a1a215afd9"),
    "dumbbell embed minimal": (0, "6c57575e9fa9b66585b87709514b34e26a5650f9f6af45cdaf13f4914a3f2a77"),
    "dumbbell embed maximal": (0, "6c57575e9fa9b66585b87709514b34e26a5650f9f6af45cdaf13f4914a3f2a77"),
    "dumbbell embed genus=3": (0, "09f02a12ede0d84087f500887e613390f18afa6b778f3a0b7c5b52179eaa831c"),
    "k4 analyze": (0, "6369394f360243cfa58e12195597263e6b586fb23f852f8b440d7f2b803e0fde"),
    "k4 oracle": (0, "dfb8ca86b3a196da84e16b4f6a5411a64645c19879c32a520b564ce7bc8c9c23"),
    "k4 embed minimal": (0, "9935a7f00f3a102093d9e81474c69ad5881efe89b91ded8a7add0f67d5ae981f"),
    "k4 embed maximal": (0, "9e5311e13e583a7037942a39e67acd21dadd33d24ba3329ad95484b720eb1cb7"),
    "k4 embed genus=4": (0, "e05abd498388fc4a8a98617d09b49366b65febf4bf6327c5ad3636543a93cb24"),
    "k5 analyze": (0, "475be1606840e5160798a5f830969fac314097c2e93b6b8cabde42abf0ecc428"),
    "k5 oracle": (0, "d60892ba41e0dcee2af850a2f0b8ea379318e0c846397d1c85d5a8030c0a2365"),
    "k5 embed minimal": (0, "430117b0c6f815b5e8c3de850bc396196f40402f3826ac3b650abed7603c86dd"),
    "k5 embed maximal": (0, "cb2f704aac4701c60f1a7290fa537aed7f588bcf6ea04c3d174a8156b37ea1c8"),
    "k5 embed genus=5": (0, "442cc66c36e2a8cb5f0af6aabd278013714a6b8f3e105f40ae4a696e9c2d91ad"),
    "theta analyze": (0, "ebfa2f2cfd22c6ebffd71ed42799a9edc02c142c72f8aaedcdfe840e23b119ef"),
    "theta oracle": (0, "fd6cfe93da7533d938d58ea1e0d621282dfde4daae2322bd8b6e8671165a917e"),
    "theta embed minimal": (0, "b759bb77a7734df3ef2c58f2c22a82337e666938f3e6d03c09a107c7d72a1a9f"),
    "theta embed maximal": (0, "a96dc8e9a16aa9f203b7a6a560235062141d0d6c5c3e58028abba20132ac01d1"),
    "theta embed genus=3": (0, "25e4f19ba27f1c28ac12b184c7e93b7ba5fde887bc2c3bde024a77f4a57fb76f"),
    "random3 analyze": (0, "64254f53390cd3368b838b826df332220be6e3e5d2af2331cfee87fea03e4641"),
    "random3 oracle": (0, "75b187d17fe6e178cd1f698635337f8e14d25f2c69130f8c4458389105cd63c1"),
    "random3 embed minimal": (0, "c486d03140844f4c00352a5d362f8e5d368646f5da2511070d75a43ff329a62e"),
    "random3 embed maximal": (0, "8ce442352b793c555fa444cfccb0da9454077a82cbe6100aa09ebc648b96bba8"),
    "random3 embed genus=4": (0, "df83d24cb72e525b32c738625777685d15139116b964b17f5b3771aa34b69dc8"),
    "random3 embed minimal restarts0": (0, "17d25e4ed30f05cb3da4ead6b8234b9cd472e24d6a27eb8c063ca9ed476d398a"),
    "random3 embed maximal restarts0": (0, "8ce442352b793c555fa444cfccb0da9454077a82cbe6100aa09ebc648b96bba8"),
    # the one entry re-recorded since the lock: the parent reported girth 2
    # (and ge_max_bound 5) for this graph, whose parallel pair precedes its loop
    "random14 analyze": (0, "c6eca71cfed2c1c66fbe717572722018392e52283b347f7de9996062af9cfc0c"),
    "random14 oracle": (0, "343af9659fed8def329d25493786b3840aeb860c9c12ba5d433137a4be6ff744"),
    "random14 embed minimal": (0, "9d36bb784053a12f896d79766b7ea5d9b3d0aa236cc2b2ad32486c4d55daecd5"),
    "random14 embed maximal": (0, "8e832ab1056143bc211ad3ea8f68b7e64892b4b6ca71b3476c2e3a7c96c6b0bf"),
    "random14 embed genus=4": (0, "eb19a8826b850d115e840d1582ef05707fdf427c53913429bcda4bce3b2c247e"),
    "random14 embed minimal restarts0": (0, "9d36bb784053a12f896d79766b7ea5d9b3d0aa236cc2b2ad32486c4d55daecd5"),
    "random14 embed maximal restarts0": (0, "f6ab068d54638b6209660892e608ad5d4a4d806a82fc497a3436d0fc9cec1b33"),
}


@pytest.mark.parametrize("case", [case for case, _ in _golden_cases()])
def test_golden_stdout(case, graph_file, capsys):
    args = dict(_golden_cases())[case]
    path = graph_file(_locked_graph_text(case.split()[0]))
    rc = main([args[0], path, *args[1:]])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (rc, digest) == GOLDEN[case]



def _json_fields(**fields):
    """A check that stdout is a JSON object with these fields."""
    return lambda out, err: {key: json.loads(out)[key] for key in fields} == fields


def _certified(out, err):
    return err.endswith(", certified\n")


def _prints(words):
    """A check that stdout holds ``words``."""
    return lambda out, err: words in out


MANY = str(2**800)

# The CLI run as a process of its own, as the installed command runs, with
# each command within its bound in seconds; most graphs here are larger
# than the rest of this module runs.  A row is a graph and the commands run
# on it in turn, each with its bound and a check of its stdout and stderr;
# every command exits 0.  In the commands, {graph} is the graph's file and
# {schema} the schema's.
PROCESS_ROWS = {
    # 2^800 rotations, past the default cap: analyze gives the exact
    # adversarial genus from the planar rung, with no DP pass; the frontier
    # DP's cut stays narrow, so embed's pass at this cap certifies it
    "prism400 analyze": (
        lambda: format_graph(prism(400)),
        [(20, ["analyze", "{graph}", "--json", "--max-rotations", MANY],
          _json_fields(ge_max_exact=268))],
    ),
    # the smoothed 7x7 grid: the descent reaches the floor and the ascent
    # misses the plateau, so the planar rung settles g_e^max, 25, the
    # capped genus of its 2 - chi = 37 walks; the DP pass it spares runs
    # for seconds here
    "grid7 analyze": (
        lambda: format_graph(grid(7, 7)),
        [(3, ["analyze", "{graph}", "--json", "--max-rotations", MANY],
          _json_fields(ge_max_exact=25))],
    ),
    "prism400 maximal": (
        lambda: format_graph(prism(400)),
        [
            (20, ["embed", "{graph}", "--target", "maximal", "--max-rotations", MANY,
                  "-o", "{schema}"], _certified),
            (20, ["verify", "{schema}"], _prints("ok: genus 268,")),
        ],
    ),
    # 8000 vertices: Kirchhoff's count stops at its first pivots above the
    # cap, and the bridge floor settles zeta
    "prism4000 analyze": (
        lambda: format_graph(prism(4000)),
        [(20, ["analyze", "{graph}", "--json"], _json_fields(tree_count=None, zeta=1))],
    ),
    # the schema layer's cost stays linear: a 16 MB document written, then
    # read and verified
    "prism4000 embed": (
        lambda: format_graph(prism(4000)),
        [
            (20, ["embed", "{graph}", "-o", "{schema}"], _certified),
            (20, ["verify", "{schema}"], _prints("ok: genus 2002,")),
        ],
    ),
    # a ring of 1000 vertices, each bridged to a blob of two trees:
    # Kirchhoff's count takes the small pieces first, whose product passes
    # the cap before the ring's piece is counted
    "ring1000 analyze": (
        lambda: format_graph(ring_of_blobs(1000)),
        [(10, ["analyze", "{graph}", "--json"], _json_fields(tree_count=None))],
    ),
    # a ring of 2000 vertices, each bridged to a vertex with one loop: the
    # ring is one piece of 2000 trees, within the cap, and each row of its
    # count steps only its envelope
    "loops2000 analyze": (
        lambda: format_graph(ring_of_loops(2000)),
        [(10, ["analyze", "{graph}", "--json"], _json_fields(tree_count=2000))],
    ),
    # 65536 rotations, each recounted once and checked against the kernel
    "prism8 oracle": (
        lambda: format_graph(prism(8)),
        [(30, ["oracle", "{graph}"], _prints("\noracle: all checks passed\n"))],
    ),
    # an embedding at a genus above g_e = 3, read back as built for it; no
    # bound of its own, so the 60 s of the other processes here
    "k4 genus=5": (
        lambda: K4,
        [
            (60, ["embed", "{graph}", "--target", "genus=5", "-o", "{schema}"], _certified),
            (60, ["verify", "{schema}"], _prints("construction sigma_target(5)")),
        ],
    ),
}


@pytest.mark.parametrize("row", sorted(PROCESS_ROWS))
def test_the_cli_as_a_process_keeps_its_bounds(row, tmp_path):
    graph, commands = PROCESS_ROWS[row]
    paths = {"graph": tmp_path / "g.graph", "schema": tmp_path / "schema.json"}
    paths["graph"].write_text(graph())
    for seconds, argv, check in commands:
        argv = [arg.format_map(paths) for arg in argv]
        proc = run(argv, seconds, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert check(proc.stdout, proc.stderr), (argv[0], proc.stdout[-300:], proc.stderr[-300:])
