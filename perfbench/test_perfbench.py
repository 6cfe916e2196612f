"""Tests of the benchmark itself: inputs, oracles, span arithmetic, op failures.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import random
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import Op, Verdict  # noqa: E402


def _files(d: Path) -> dict[str, bytes]:
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*.graph"))}


def test_same_seed_same_bytes(tmp_path):
    for name in workloads.WORKLOADS:
        a, b, c = (workloads.build(name, seed, tmp_path / f"{name}-{seed}-{k}")
                   for k, seed in enumerate((7, 7, 8)))  # fmt: skip
        ops = [wl.make_set(1) for wl in (a, b, c)]
        assert _files(a.root) == _files(b.root) != _files(c.root)
        assert [op.op_id for op in ops[0]] == [op.op_id for op in ops[1]]
        assert [p.op.op_id for p in a.probes] == [p.op.op_id for p in c.probes]
        a.make_set(2)
        assert _files(a.set_dir(1)) != _files(a.set_dir(2))


def test_cubic_generator_honours_its_constraints():
    rng = random.Random(3)
    g = corpus.cubic_multigraph(rng, 12, 1, (1900, 2400))
    degree = [0] * g.n
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    assert degree == [3] * 12
    assert sum(u == v for u, v in g.edges) == 1
    assert oracles.is_connected(g.n, g.edges)
    assert 1900 <= oracles.kirchhoff_tree_count(g.n, g.edges) <= 2400


def test_oracles_match_the_seed_suites_known_values():
    rng = random.Random(0)
    k4, k5, pete = corpus.complete(rng, 4), corpus.complete(rng, 5), corpus.petersen(rng)
    # K4: zeta = 1, so the fewest walks is 2
    assert min(oracles.walk_profile(k4.n, k4.edges)) - 1 == 1
    # K5's genus distribution is 462, 4974, 2340 over genus 1, 2, 3
    k5_profile = oracles.walk_profile(k5.n, k5.edges)
    assert k5_profile == {1: 2340, 3: 4974, 5: 462}
    assert max(oracles.capped_genus(k5.n, k5.edges, b) for b in k5_profile) == 5
    assert oracles.girth_bound(k5.n, k5.edges) == Fraction(41, 6)
    assert oracles.walk_profile(pete.n, pete.edges) == {1: 320, 3: 664, 5: 40}
    assert oracles.girth(pete.n, pete.edges) == 5
    assert [oracles.kirchhoff_tree_count(g.n, g.edges) for g in (k4, k5, pete)] == [16, 125, 2000]
    theta = corpus.theta(2.0)
    assert oracles.capped_genus(theta.n, theta.edges, 1) == 2
    prism = corpus.prism(rng, 6)
    assert oracles.beta(prism.n, prism.edges) % 2 == 1
    assert min(oracles.walk_profile(prism.n, prism.edges)) == 2
    assert oracles.capped_genus(prism.n, prism.edges, 2) == 6 // 2 + 2


def test_self_times_of_a_synthetic_span_tree():
    def span(parent, busy):
        return [0, parent, 0.0, busy, busy, 0, 0]

    rows = [span(-1, 10.0), span(0, 4.0), span(0, 3.0), span(1, 1.0), span(-1, 2.0)]
    assert self_times(rows) == [3.0, 3.0, 3.0, 1.0, 2.0]


def _fake_package():
    """A two-module package: a function calling a generator in its own layer."""
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.invariants")

    def spanning_trees(n):
        for i in range(n):
            time.sleep(0.001)
            yield i

    def betti_deficiency(n):
        return sum(1 for _ in inner.spanning_trees(n))

    for fn in (spanning_trees, betti_deficiency):
        fn.__module__ = inner.__name__
        setattr(inner, fn.__name__, fn)
        setattr(pkg, fn.__name__, fn)
    pkg.__all__ = ["spanning_trees", "betti_deficiency", "gone"]
    return pkg, inner


def test_tracer_accounts_for_the_whole_op(monkeypatch):
    pkg, inner = _fake_package()
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.invariants", inner)
    tracer = Tracer(pkg)
    wall = 0.0
    for _ in range(2):  # two traced passes, installed and removed each time
        tracer.install()
        assert hasattr(inner.spanning_trees, "__wrapped__")
        tracer.begin_op("op")
        began = time.perf_counter()
        assert pkg.betti_deficiency(5) == 5
        time.sleep(0.002)
        op_wall = time.perf_counter() - began
        tracer.end_op(op_wall)
        wall += op_wall
        tracer.uninstall()
        assert not hasattr(inner.spanning_trees, "__wrapped__")
    stats = tracer.take_pass()
    m = tracer.metrics(stats, wall, wall, 0.0)
    assert m["invariants.zeta_calls"] == 2
    assert m["invariants.trees_enumerated"] == 10
    assert abs(m["invariants.self_s"] + m["cli.self_s"] - wall) < 1e-9
    assert m["cli.self_s"] >= 0.004
    assert 0 < m["invariants.zeta_s"] <= wall


def test_failed_and_timed_out_ops_are_counted_and_the_run_goes_on(monkeypatch):
    def main(argv):
        if argv[0] == "raise":
            raise RuntimeError("boom")
        if argv[0] == "hang":
            time.sleep(5)
        return 0

    def ok(res):
        return Verdict(res.error is None and res.rc == 0, True)

    monkeypatch.setattr(run, "OP_TIMEOUT", 0.2)
    runner = run.Runner(main, time.monotonic() + 60)
    ops = [Op(name, [name], ok) for name in ("raise", "hang", "fine")]
    record = run.run_pass(runner, ops, {}, traced=False)
    errors = [res.error for _, res, _ in record.results]
    assert errors == ["RuntimeError", "timeout", None]
    assert [v.ok for _, _, v in record.results] == [False, False, True]
    assert record.wall < 2


def test_an_op_cut_by_the_run_deadline_is_not_a_result(monkeypatch):
    def main(argv):
        time.sleep(5)
        return 0

    runner = run.Runner(main, time.monotonic() + 0.2)
    ops = [Op("hang", ["hang"], lambda res: Verdict(True, True))]
    record = run.run_pass(runner, ops, {}, traced=False)
    assert record.results == [] and not record.complete
    assert record.wall < 2


def test_fastest_repetition_per_op_and_set():
    def record(k, seconds):
        results = [(Op(f"op{i}", [], None), workloads.Result(0, None, "", "", s, s), Verdict(True))
                   for i, s in enumerate(seconds)]  # fmt: skip
        return run.PassRecord(k, sum(seconds), results, False)

    passes = [record(0, [1.0, 3.0]), record(1, [2.0]), record(0, [2.0, 1.5])]
    best = run.fastest_runs(passes)
    assert best == {(0, "op0"): (1.0, 1.0), (0, "op1"): (1.5, 1.5), (1, "op0"): (2.0, 2.0)}
    values = run.end_to_end(passes, 2, [0.3, 0.1, 0.2], 2048)
    assert values["wall_s"] == (1.0 + 1.5 + 2.0) / 2
    assert values["op_p50_s"] == 1.5 and abs(values["setup_s"] - 0.15) < 1e-12



def test_light_ops_run_in_every_sweep_and_heavy_ops_once():
    ops = [Op(name, [], None, light=name.startswith("l")) for name in
           ("h1", "l1", "h2", "h3", "l2", "h4")]  # fmt: skip
    order = [op.op_id for op in run.pass_order(ops, 3)]
    assert order == ["h1", "l1", "h2", "l2", "l1", "h3", "l2", "l1", "l2", "h4"]
    assert [op.op_id for op in run.pass_order(ops[1:2], 3)] == ["l1"] * 3


def test_an_answer_counts_once_per_pass_however_often_its_op_runs():
    light, heavy = Op("verify", [], None, light=True), Op("embed", [], None)
    res = workloads.Result(0, None, "", "", 1.0, 1.0)
    results = [(heavy, res, Verdict(True, False))] + [(light, res, Verdict(True, True))] * 3
    values = run.end_to_end([run.PassRecord(0, 4.0, results, False)], 1, [0.1], 1024)
    assert values["exact_ratio"] == 0.5 and values["ok_ratio"] == 1.0
