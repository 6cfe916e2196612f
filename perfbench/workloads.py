"""The three benchmark workloads, their known-defect probes and output checks.

An op is one CLI invocation on one input file.  Each op carries a check
built from :mod:`oracles` expectations; a check returns whether the output
is right and whether the answer is certified exact.  Nothing here imports
the library under test.
"""

from __future__ import annotations

import ast
import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import oracles
from corpus import (
    Graph,
    bouquet,
    complete,
    cubic_multigraph,
    dumbbell,
    graph_text,
    petersen,
    prism,
    theta,
)

# --max-trees for embed-sparse: keeps every embed under a second while the
# spanning-tree search still does most of the work (about 60 % of prism200).
EMBED_TREE_BUDGET = 1000

# A pass makes this many sweeps over its input set (see ``run.pass_order``):
# light ops, a few to about a hundred milliseconds each at the commit the
# benchmark was written for, run in every sweep; heavy ops in one.  The
# median op of every workload is a light one.  On the shared 2-CPU host this
# was written on, the speed of the machine switched between states up to
# twice apart that held for a fraction of a second to minutes, so one run
# per round left the fastest run of a light op to chance (for a single op
# it spread 30-50 % between runs of the same code); runs spread over the
# pass sample more states.
SWEEPS = 3

# How a run measures each workload: (input sets, seconds a pass over one set
# typically took at the commit the benchmark was written for, 2 CPUs,
# Python 3.11).  A run writes that many input sets and repeats each the same
# number of times whatever the program's speed, so every commit is measured
# on the same amount of work (see ``run.schedule``).
SCHEDULE = {
    "analyze-exhaustive": (2, 4.5),
    "embed-sparse": (2, 4.5),
    "oracle-brute": (2, 3.3),
}

# analyze-exhaustive graphs of one pass: (vertices, loops, spanning-tree band
# or None).  Each loop is an odd co-tree component of every spanning tree, so
# zeta >= loops; with more loops than the parity floor beta % 2, the zeta
# search can never stop early and enumerates every tree.  The bands sit in
# the middle of each class's tree-count distribution.  Classes whose cost
# varies most with structure are left out: 14 vertices with one or two loops
# (0.4-1.6 s) and 16 vertices (1.3-3.2 s).  The counts put the run's median
# op in the middle of the twelve-vertex group; its tail op (the eleventh
# slowest of two sets) is among the slowest twelve-vertex ones.  Graphs with
# loops carry no parallel pair (see ``_analyze_graph``).
ANALYZE_CLASSES = (
    (8, 0, None), (8, 2, None), (10, 0, None), (10, 1, None),
    (12, 0, (3700, 6200)), (12, 0, (3700, 6200)), (12, 0, (3700, 6200)),
    (12, 1, (1900, 2400)), (12, 1, (1900, 2400)), (12, 1, (1900, 2400)),
    (12, 2, (500, 690)), (12, 2, (500, 690)), (12, 3, None), (12, 3, None),
    (14, 0, (18000, 28000)), (14, 0, (18000, 28000)), (14, 3, None), (14, 3, None),
)  # fmt: skip

# oracle-brute cubic graphs of one pass: (vertices, loops).
ORACLE_CUBICS = ((8, 0), (8, 1), (8, 2), (8, 0), (10, 1), (10, 1), (10, 1), (10, 1))

# The walk profile is brute-forced for expectations up to this many rotations.
PROFILE_LIMIT = 8192


@dataclass
class Result:
    """What one op did: exit code, or the exception type it raised."""

    rc: int | None
    error: str | None
    stdout: str
    stderr: str
    seconds: float
    cpu: float = 0.0
    answer: bytes = b""
    digest: str = ""  # sha256 of the answer, kept after the answer is dropped


@dataclass(frozen=True)
class Verdict:
    ok: bool
    exact: bool = False
    why: str = ""


Check = Callable[[Result], Verdict]


@dataclass
class Op:
    op_id: str
    argv: list[str]
    check: Check
    output: Path | None = None  # file holding the answer instead of stdout
    needs: Path | None = None  # skipped, not attempted, while this file is absent
    light: bool = False  # runs in every sweep of a pass (see SWEEPS)


@dataclass
class Probe:
    """An input that exposes a known defect, with the outcome it had when recorded.

    ``recorded`` is ``"exit <code>"`` or the name of the exception raised.
    """

    op: Op
    recorded: str
    defect: str


class Expect:
    """Independent facts about one input graph, each computed on first use."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.beta = oracles.beta(graph.n, graph.edges)
        self.euler = oracles.euler(graph.n, graph.edges)

    @cached_property
    def trees(self) -> int:
        return oracles.kirchhoff_tree_count(self.graph.n, self.graph.edges)

    @cached_property
    def girth(self) -> int:
        return oracles.girth(self.graph.n, self.graph.edges)

    @cached_property
    def rotations(self) -> int:
        return oracles.rotation_count(self.graph.n, self.graph.edges)

    @cached_property
    def profile(self) -> dict[int, int] | None:
        """The brute-force walk profile, for graphs with few enough rotations."""
        if self.rotations > PROFILE_LIMIT:
            return None
        return oracles.walk_profile(self.graph.n, self.graph.edges)

    def capped(self, walks: int) -> int:
        return oracles.capped_genus(self.graph.n, self.graph.edges, walks)


# ---------------------------------------------------------------------------
# checks


def _fail(why: str) -> Verdict:
    return Verdict(False, False, why)


def _exit_ok(res: Result, codes=(0,)) -> str | None:
    if res.error is not None:
        return f"raised {res.error}"
    if res.rc not in codes:
        return f"exit {res.rc}, expected {codes}"
    return None


def check_analyze(exp: Expect) -> Check:
    def check(res: Result) -> Verdict:
        if (why := _exit_ok(res)) is not None:
            return _fail(why)
        try:
            rep = json.loads(res.stdout)
        except json.JSONDecodeError:
            return _fail("stdout is not JSON")
        g = exp.graph
        facts = {
            "vertex_count": g.n,
            "edge_count": len(g.edges),
            "beta": exp.beta,
            "euler": exp.euler,
            "girth": exp.girth,
            "tree_count": exp.trees,
            "rotation_count": exp.rotations,
            "ge_max_bound": str(oracles.girth_bound(g.n, g.edges)),
        }
        for key, want in facts.items():
            if rep.get(key) != want:
                return _fail(f"{key} = {rep.get(key)!r}, expected {want!r}")
        zeta = rep.get("zeta")
        if not isinstance(zeta, int) or zeta < exp.beta % 2 or (exp.beta - zeta) % 2:
            return _fail(f"zeta {zeta!r} breaks parity with beta {exp.beta}")
        if exp.profile is not None and zeta != min(exp.profile) - 1:
            return _fail(f"zeta {zeta} but the brute-force minimum is {min(exp.profile)}")
        if rep.get("max_genus") != (exp.beta - zeta) // 2:
            return _fail("max_genus is not (beta - zeta) / 2")
        if rep.get("essential_genus") != exp.capped(zeta + 1):
            return _fail("essential_genus disagrees with 1 + zeta capped walks")
        ge_max = rep.get("ge_max_exact")
        if ge_max is None:
            return Verdict(True, False)
        if not rep["essential_genus"] <= ge_max <= oracles.girth_bound(g.n, g.edges):
            return _fail(f"ge_max_exact {ge_max} outside [essential genus, girth bound]")
        if exp.profile is not None and ge_max != max(exp.capped(b) for b in exp.profile):
            return _fail("ge_max_exact disagrees with the brute-force profile")
        return Verdict(True, True)

    return check


def _schema_facts(exp: Expect, res: Result) -> tuple[dict, int] | str:
    """The parsed schema and its spine walk count, or why it is wrong."""
    try:
        doc = json.loads(res.answer)
        spine = next(b for b in doc["blocks"] if b["kind"] == "spine_surface")
        walks = len(spine["boundaries"])
        summary = doc["summary"]
        edges = doc["meta"]["graph"]["edges"]
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        return f"schema unreadable: {exc!r}"
    g = exp.graph
    want = sorted(
        (g.ename(e), g.vname(u), g.vname(v)) for e, (u, v) in enumerate(g.edges)
    )
    if sorted(tuple(r[:3]) for r in edges) != want:
        return "schema graph differs from the input"
    lengths = dict(zip((g.ename(e) for e in range(len(g.edges))), g.lengths))
    if any(abs(r[3] - lengths[r[0]]) > 1e-9 * lengths[r[0]] for r in edges):
        return "schema edge lengths differ from the input"
    slack = 2 - exp.euler - walks
    if walks < 1 + exp.beta % 2 or slack % 2:
        return f"{walks} walks impossible for chi = {exp.euler}"
    if spine["genus"] != slack // 2:
        return "spine genus is not (2 - chi - walks) / 2"
    if summary.get("boundary_count") != 0:
        return "schema is not closed"
    return doc, walks


def _certified(res: Result) -> bool | None:
    last = res.stderr.strip().splitlines()[-1:] or [""]
    if last[0].endswith("not certified"):
        return False
    if last[0].endswith("certified"):
        return True
    return None


def check_embed(exp: Expect, target: str, known: tuple[int, int] | None = None) -> Check:
    """``known`` is (walks, genus) of the certified answer when a closed form gives it."""

    def check(res: Result) -> Verdict:
        if target.startswith("genus=") and res.error is None and res.rc == 5:
            if "not certified" in res.stderr:
                return Verdict(True, False)  # refused honestly: not exact, not failed
        if (why := _exit_ok(res)) is not None:
            return _fail(why)
        facts = _schema_facts(exp, res)
        if isinstance(facts, str):
            return _fail(facts)
        doc, walks = facts
        certified = _certified(res)
        if certified is None:
            return _fail("stderr does not say whether the result is certified")
        genus = doc["summary"]["genus"]
        if target.startswith("genus="):
            if genus != int(target[6:]):
                return _fail(f"genus {genus}, asked for {target}")
        elif genus != exp.capped(walks):
            return _fail(f"genus {genus} is not the capped genus of {walks} walks")
        if certified and exp.profile is not None:
            best = min(exp.profile) if target != "maximal" else max(exp.profile)
            if walks != best:
                return _fail(f"certified {walks} walks, brute force gives {best}")
        if certified and known is not None and target == "minimal":
            if (walks, genus) != known:
                return _fail(f"certified (walks, genus) = {(walks, genus)}, closed form {known}")
        return Verdict(True, certified)

    return check


def check_verify(schema: Path, accept: bool) -> Check:
    def check(res: Result) -> Verdict:
        if not accept:
            if res.error is None and res.rc in (1, 2) and not res.stdout.startswith("ok"):
                return Verdict(True, True)
            return _fail(f"bad schema not rejected: exit {res.rc}, error {res.error}")
        if (why := _exit_ok(res)) is not None:
            return _fail(why)
        try:
            genus = json.loads(schema.read_text())["summary"]["genus"]
        except (OSError, ValueError, KeyError, TypeError):
            return _fail("schema to verify is unreadable")
        if not res.stdout.splitlines()[-1:] or not res.stdout.splitlines()[-1].startswith(
            f"ok: genus {genus}, 0 boundary circle(s)"
        ):
            return _fail("verify did not report ok with the schema's genus")
        return Verdict(True, True)

    return check


def check_oracle(exp: Expect) -> Check:
    def check(res: Result) -> Verdict:
        if (why := _exit_ok(res)) is not None:
            return _fail(why)
        lines = res.stdout.splitlines()
        if not lines or lines[-1] != "oracle: all checks passed":
            return _fail("oracle did not pass")
        try:
            total = int(lines[0].split(":")[1])
            profile = ast.literal_eval(lines[1].split(":", 1)[1].strip())
        except (IndexError, ValueError, SyntaxError):
            return _fail("oracle output unreadable")
        if total != exp.rotations or sum(profile.values()) != exp.rotations:
            return _fail(f"{total} rotations, expected {exp.rotations}")
        if any((b - exp.euler) % 2 for b in profile):
            return _fail("a walk count has the wrong parity")
        if exp.profile is not None and profile != exp.profile:
            return _fail("profile differs from the brute-force profile")
        return Verdict(True, True)

    return check


# ---------------------------------------------------------------------------
# workloads
#
# A pass is one op for each entry of a fixed list of op kinds, on one input
# set.  Each input set is drawn from its own stream,
# Random("<workload>:<seed>:<set>"), so one run averages over several graphs
# of every kind and two seeds differ in structure, not in mix.


def _write(d: Path, graph: Graph, stem: str) -> Path:
    path = d / f"{stem}.graph"
    path.write_text(graph_text(graph))
    return path


def _analyze_graph(rng: random.Random, n: int, loops: int, band) -> Graph:
    # The library misreports the girth of a graph whose parallel pair comes
    # before its first loop (probe analyze:girth-pair-before-loop); graphs with
    # loops are drawn without parallel pairs so the measured ops all succeed.
    while True:
        g = cubic_multigraph(rng, n, loops, band)
        if not loops or len(set(map(frozenset, g.edges))) == len(g.edges):
            return g


def analyze_pass(rng: random.Random, d: Path) -> list[Op]:
    graphs = [complete(rng, 4), complete(rng, 5), petersen(rng)]
    graphs += [_analyze_graph(rng, n, loops, band) for n, loops, band in ANALYZE_CLASSES]
    ops = []
    for i, g in enumerate(graphs):
        stem = f"{i:02d}-{g.name}-l{sum(u == v for u, v in g.edges)}"
        path = _write(d, g, stem)
        ops.append(Op(f"analyze:{stem}", ["analyze", str(path), "--json"], check_analyze(Expect(g)),
                      light=g.n <= 12))  # fmt: skip
    return ops


def _embed_pair(d: Path, g: Graph, stem: str, target: str, known=None,
                light: bool = False) -> list[Op]:  # fmt: skip
    path = _write(d, g, stem)
    out = d / f"{stem}.{target.replace('=', '')}.json"
    exp = Expect(g)
    argv = ["embed", str(path), "-o", str(out), "--max-trees", str(EMBED_TREE_BUDGET)]
    if target != "minimal":
        argv += ["--target", target]
    # A genus target refused for want of certification writes no schema, so
    # its verify op is skipped.  Every verify op is light; an embed is light
    # when its graph is small.
    return [
        Op(f"embed:{stem}:{target}", argv, check_embed(exp, target, known), out, light=light),
        Op(f"verify:{stem}:{target}", ["verify", str(out)], check_verify(out, True), needs=out,
           light=True),
    ]  # fmt: skip


def _theta_lengths(rng: random.Random, ladder) -> list[float]:
    return [round(length * rng.uniform(0.9, 1.1), 2) for length in ladder]


def _nan_t(doc: dict) -> None:
    doc["meta"]["t"] = math.nan


def _payload_list(doc: dict) -> None:
    spine = next(b for b in doc["blocks"] if b["kind"] == "spine_surface")
    spine["payload"] = list(spine["payload"].values())


def _missing_key(doc: dict) -> None:
    del doc["meta"]["waist"]


# Broken schema documents, each derived from an emitted schema; every one
# must be rejected by verify.
MUTANTS = {"nan-t": _nan_t, "payload-list": _payload_list, "missing-key": _missing_key}


def _schema_mutants(base: Path, d: Path) -> None:
    for name, mutate in MUTANTS.items():
        doc = json.loads(base.read_text())
        mutate(doc)
        (d / f"mutant-{name}.json").write_text(json.dumps(doc, indent=2))


def _mutant_op(d: Path, name: str) -> Op:
    path = d / f"mutant-{name}.json"
    return Op(f"verify:mutant-{name}", ["verify", str(path)], check_verify(path, False),
              light=True)  # fmt: skip


# Prisms whose schemas ``prepare`` writes once, before measuring; input set k
# verifies row k % 2 in every sweep.  Their verify ops fill the gap at the
# pass median between the 80- and the 100-rung verify (11 and 14 ms at the
# commit the benchmark was written for).  Without them the median jumped
# from one to the other as the seeded cubic ops fell on either side, and
# op_p50_s spread 16 % (IQR/median over ten seeds, 2 CPUs).
VERIFY_LADDER = ((83, 89, 95), (86, 92, 98))


def embed_pass(rng: random.Random, d: Path, fixed: Path, index: int) -> list[Op]:
    # Long thetas are probes: from L = 13.96 the emitted schema can fail to
    # re-verify, and past L = 93.77 embed overflows.
    ops = []
    for length in _theta_lengths(rng, (2, 4, 8)):
        ops += _embed_pair(d, theta(length), f"theta{length:g}", "minimal", (1, 2), light=True)
    ops += _embed_pair(d, theta(_theta_lengths(rng, (5,))[0]), "theta-target", "genus=3",
                       light=True)  # fmt: skip
    for rungs in (10, 20, 50, 80, 100, 200):
        g = prism(rng, rungs)
        ops += _embed_pair(d, g, g.name, "minimal", (2, rungs // 2 + 2), light=rungs <= 20)
        if rungs <= 50:
            ops += _embed_pair(d, g, g.name, f"genus={rungs // 2 + 3}", light=rungs <= 20)
    for rungs in VERIFY_LADDER[index % len(VERIFY_LADDER)]:
        path = fixed / f"ladder-prism{rungs}.minimal.json"  # written by embed_fixed
        ops.append(Op(f"verify:ladder-prism{rungs}", ["verify", str(path)],
                      check_verify(path, True), needs=path, light=True))  # fmt: skip
    for n in (20, 30, 60, 100, 150, 200, 300):
        loops = rng.randrange(2)
        g = cubic_multigraph(rng, n, loops)
        ops += _embed_pair(d, g, f"cubic{n}-l{loops}", "minimal", light=n <= 30)
    ops.append(_mutant_op(fixed, "missing-key"))
    return ops


OVERFLOW = "math.cosh overflows while scaling a theta with lengths 1, 1, L for L > 93.77"


def embed_fixed(rng: random.Random, d: Path) -> tuple[list[Op], list[Probe]]:
    """Untimed embeds feeding the mutants and the verify ladder, and the known-defect probes."""
    # L = 18.75 is one of the lengths whose schema fails to re-verify.
    base = _embed_pair(d, theta(2.0), "base-theta", "minimal", (1, 2))
    roundtrip = _embed_pair(d, theta(18.75), "probe-roundtrip-theta", "minimal", (1, 2))
    probes = [Probe(roundtrip[1], "exit 1",
                    "a schema emitted by embed fails verify: JSON keeps 12 significant digits, "
                    "which for a waist near 274 (theta with lengths 1, 1, 18.75) misses the "
                    "1e-9 length tolerance; thetas from L = 13.96 are affected")]  # fmt: skip
    for nominal, length in zip((200, 1000), _theta_lengths(rng, (200, 1000))):
        op = _embed_pair(d, theta(length), f"probe-theta{nominal}", "minimal", (1, 2))[0]
        probes.append(Probe(op, "OverflowError", OVERFLOW))
    op = _embed_pair(d, prism(rng, 400), "probe-prism400", "minimal", (2, 202))[0]
    probes += [
        Probe(op, "RecursionError", "the recursive spanning-tree enumeration passes the "
              "interpreter's recursion limit on 1200 edges"),
        Probe(_mutant_op(d, "nan-t"), "exit 0", "verify reports ok for a schema whose t is NaN"),
        Probe(_mutant_op(d, "payload-list"), "AttributeError",
              "verify raises instead of rejecting a schema whose spine payload is a list"),
        Probe(_girth_probe(rng, d), "exit 0",
              "girth stops scanning at the first parallel pair and reports 2 for a graph "
              "that has a loop later in edge order; ge_max_bound is wrong with it"),
    ]  # fmt: skip
    ladder = [
        _embed_pair(d, prism(rng, rungs), f"ladder-prism{rungs}", "minimal", (2, rungs // 2 + 2))[0]
        for row in VERIFY_LADDER for rungs in row
    ]  # fmt: skip
    return [base[0], roundtrip[0], *ladder], probes


def _girth_probe(rng: random.Random, d: Path) -> Op:
    """analyze on a cubic graph whose parallel pair precedes its only loop."""
    while True:
        g = cubic_multigraph(rng, 8, 1)
        pairs = [
            e for e in g.edges
            if e[0] != e[1] and g.edges.count(e) + g.edges.count(e[::-1]) > 1
        ]  # fmt: skip
        if pairs:
            break
    loop = next(e for e in g.edges if e[0] == e[1])
    rest = [e for e in g.edges if e != loop]
    first = next(i for i, e in enumerate(rest) if e in pairs)
    edges = tuple(rest[: first + 1] + [loop] + rest[first + 1 :])
    g = Graph("girth-pair-before-loop", g.n, edges, g.lengths)
    path = _write(d, g, "probe-girth-pair-before-loop")
    return Op("analyze:girth-pair-before-loop", ["analyze", str(path), "--json"],
              check_analyze(Expect(g)))  # fmt: skip


def oracle_pass(rng: random.Random, d: Path, index: int) -> list[Op]:
    # Seven ops cost under 10 ms, five 30-70 ms, seven 0.2-0.4 s and one (K5)
    # 1.3-1.8 s, so the pass median falls inside the eight-vertex group and
    # the run's tail inside the 0.2-0.4 s group.  Twelve-vertex oracles are
    # left out (their cost varies 0.75-1.9 s with structure), and so are
    # 16-vertex maximal embeds (0.7-1.1 s), which would put the tail between
    # two groups.  K5 is the same graph in every set but for its edge
    # lengths, which the oracle does not read, so only set 0 runs it: it took
    # a third of every pass, and the time it leaves buys a fourth round.
    graphs = [complete(rng, 4), complete(rng, 5), petersen(rng), theta(1.0),
              bouquet(rng), dumbbell(rng)]  # fmt: skip
    graphs += [cubic_multigraph(rng, n, loops) for n, loops in ORACLE_CUBICS]
    ops = []
    for i, g in enumerate(graphs):
        if g.name == "K5" and index > 0:
            continue
        stem = f"{i:02d}-{g.name}"
        path = _write(d, g, stem)
        exp = Expect(g)
        # The oracle's cost follows the rotation count: light up to eight
        # cubic vertices (256 rotations), heavy from Petersen (1024) on.
        ops.append(Op(f"oracle:{stem}", ["oracle", str(path)], check_oracle(exp),
                      light=exp.rotations <= 256))  # fmt: skip
    for i, n in enumerate((12, 14, 14)):
        g = cubic_multigraph(rng, n, rng.randrange(2))
        ops += _embed_pair(d, g, f"max{i}-{g.name}", "maximal", light=n <= 12)
    return ops


@dataclass
class Workload:
    name: str
    seed: int
    root: Path
    prepare: list[Op] = field(default_factory=list)  # run once, untimed, first
    probes: list[Probe] = field(default_factory=list)  # known defects, run once, untimed

    def set_dir(self, index: int) -> Path:
        return self.root / f"set{index:03d}"

    def make_set(self, index: int) -> list[Op]:
        """Write input set ``index`` and return the ops of one pass over it."""
        d = self.set_dir(index)
        d.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        if self.name == "analyze-exhaustive":
            return analyze_pass(rng, d)
        if self.name == "embed-sparse":
            return embed_pass(rng, d, self.root / "fixed", index)
        return oracle_pass(rng, d, index)

    def derive(self) -> None:
        """Build the inputs that come from the outputs of ``prepare``."""
        if self.prepare:
            _schema_mutants(self.prepare[0].output, self.root / "fixed")


WORKLOADS = ("analyze-exhaustive", "embed-sparse", "oracle-brute")


def build(name: str, seed: int, root: Path) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    wl = Workload(name, seed, root)
    if name == "embed-sparse":
        fixed = root / "fixed"
        fixed.mkdir(parents=True, exist_ok=True)
        wl.prepare, wl.probes = embed_fixed(random.Random(f"{name}:{seed}:fixed"), fixed)
    return wl
