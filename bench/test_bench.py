"""The benchmark's own tests, on SMOKE sizes (about two minutes):

    python3 -m pytest bench/test_bench.py -q
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check      # noqa: E402
import run        # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def copy_tree(dest, with_src):
    """BENCHMARK.json and bench/ (and src/ if with_src) copied into dest."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(BENCH, dest / "bench", ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result(*args, cwd=ROOT):
    proc = bench(*args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


@pytest.fixture(scope="module")
def smoke_runs():
    """Each workload once untraced and twice traced, seed 5."""
    out = {}
    for w in workloads.WORKLOADS:
        base = ("--workload", w, "--seed", "5", "--seconds", "0", "--smoke")
        out[w, 0] = result(*base, "--trace", "0")
        out[w, 1] = [result(*base, "--trace", "1") for _ in range(2)]
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_metric_names_and_units_match_spec(smoke_runs, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        res = smoke_runs[workload, trace]
        for res, _ in ([res] if trace == 0 else res):
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0
            assert res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want
            assert all(set(v) == {"value", "unit"}
                       for v in res["metrics"].values())


def test_gated_times_are_scaled_by_calibrate():
    """Each command's wall time is divided by the calibrate.py slowdown
    beside it before the median across passes is taken."""
    cmds = [workloads.Command("a", "cli", ()), workloads.Command("b", "cli", ())]
    passes = [[(1.0, 0.9, 1.0), (2.0, 1.8, 1.0)],
              [(1.4, 1.2, 2.0), (4.0, 3.6, 2.0)],
              [(3.0, 2.7, 1.0), (2.2, 2.0, 1.0)]]
    stats, scaled = run.pass_stats(cmds, passes)
    assert stats["wall_s"]["value"] == pytest.approx(1.4 + 2.2)
    assert stats["cpu_s"]["value"] == pytest.approx(1.2 + 2.0)
    assert scaled["a_s"] == pytest.approx(1.0)
    assert scaled["b_s"] == pytest.approx(2.0)
    assert scaled["pass_s"] == pytest.approx(scaled["a_s"] + scaled["b_s"])


def test_calibrate_does_not_use_the_program():
    """calibrate.py must run the same whatever src/ holds."""
    tree = ast.parse((BENCH / "calibrate.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not any(name.startswith("beattykit") for name in imported)
    proc = subprocess.run([sys.executable, "-I", str(BENCH / "calibrate.py")],
                          cwd=BENCH, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(smoke_runs, workload):
    (first, _), (second, _) = smoke_runs[workload, 1]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")]
    for name in counts:
        assert first["metrics"][name]["value"] == \
            second["metrics"][name]["value"], name


def test_layers_reached(smoke_runs):
    """Each workload reaches the layers its README row says it stresses."""
    def points(w, name):
        return smoke_runs[w, 1][0][0]["metrics"][name]["value"]
    assert points("sweep", "surd.floor_frac_many.points") > 0
    assert points("sweep", "counting.kernel_points") > 0
    assert points("sweep", "beatty.bulk_membership.points") > 0
    assert points("sweep", "surd.phases_many.points") == 0
    assert points("phase", "surd.phases_many.points") > 0
    assert points("phase", "expsum.psi_delta.evaluate.point_freqs") > 0
    assert points("phase", "counting.kernel_points") == 0
    assert points("decimal", "irrational.floor_frac_many.points") > 0
    assert points("decimal", "irrational.phases_many.points") > 0
    assert points("decimal", "surd.floor_frac_many.points") == 0
    assert points("decimal", "cli.report_rows") > 2000


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_fit_in_command_time(tmp_path, workload):
    """On every command of a traced pass, each span's self time is >= 0,
    each layer's self time is within its time inside the call, and the
    layer self times leave a non-negative remainder of the command's wall
    time as run.py measured it."""
    runner = run.Runner(tmp_path, json.loads(run.REFS.read_text()))
    per_cmd = []
    for cmd in workloads.commands(workload, 1, smoke=True):
        wall, _, nbytes, spans = runner.run(cmd, traced=True)
        assert runner.failed == 0, runner.problems
        assert sum(s[1] == "cmd" and s[4] == -1 for s in spans) == 1
        m = run.layer_metrics([(wall, nbytes, cmd.kind, spans)])
        assert m["trace.remainder_s"] >= 0, cmd.key
        for key, own in m.items():
            if key.endswith(".self_s"):
                assert 0 <= own <= m[key[: -len("self_s")] + "s"] + 1e-9, key
        per_cmd.append(m)
    if workload == "sweep":     # first command: count sweep on grid 1e2..1e4
        assert per_cmd[0]["counting.kernel_points"] == 100 + 1000 + 10000


def test_wrong_reference_is_caught(tmp_path):
    refs = json.loads((BENCH / "refs.json").read_text())
    cmds = workloads.commands("phase", 5, smoke=True)
    key = next(c.key for c in cmds if c.args[0] == "discrepancy")
    text = refs[key]["text"]
    last = text.rstrip("\n").rsplit("\n", 1)[1].split(",")
    last[0] = str(int(last[0]) + 1)            # M, an integer field
    refs[key]["text"] = text[: text.rstrip("\n").rindex("\n") + 1] + \
        ",".join(last) + "\n"
    copy_tree(tmp_path, with_src=True)
    (tmp_path / "bench" / "refs.json").write_text(json.dumps(refs))
    res, detail = result("--workload", "phase", "--seed", "5", "--seconds",
                         "0", "--trace", "0", "--smoke", cwd=tmp_path)
    assert not res["correct"]
    assert res["failed"] == 2           # warm-up pass and one timed pass
    assert detail["fail_ratio"] == res["failed"] / res["attempted"]


def _report(rows):
    return ("# beattykit count-sweep\n# tol=0.03\nN,lhs,main,abs_err,rel_err\n"
            + "".join(",".join(r) + "\n" for r in rows)).encode()


def test_compare_tolerances():
    ref = {"exit": 0, "text": _report([("1000", "700", "701", "1", "0.001")])
           .decode()}
    assert check.compare(ref, 0, _report([("1000", "700", "701", "1", "0.001")])) == []
    # 1e-9 relative to N = 1000: 5e-7 passes, 5e-6 does not
    assert check.compare(ref, 0, _report(
        [("1000", "700.0000005", "701", "1", "0.001")])) == []
    assert check.compare(ref, 0, _report(
        [("1000", "700.000005", "701", "1", "0.001")]))
    assert check.compare(ref, 0, _report([("1001", "700", "701", "1", "0.001")]))
    assert check.compare(ref, 2, _report([("1000", "700", "701", "1", "0.001")]))
    assert check.compare(ref, 0, b"garbage")


def test_large_reports_checked_by_digest():
    rows = "".join(f"{n},{2 * n}\n" for n in range(1, 3000))
    text = "# beattykit beatty-generate\n# N=2999\nn,term\n" + rows
    ref = check.make_reference(0, text.encode())
    assert "rows_sha256" in ref
    assert check.compare(ref, 0, text.encode()) == []
    assert check.compare(ref, 0, text.replace("10,20\n", "10,21\n").encode())


def test_refs_cover_every_seed():
    refs = json.loads((BENCH / "refs.json").read_text())
    for smoke in (False, True):
        keys = {c.key for c in workloads.every_command(smoke)}
        assert keys <= set(refs)
        for seed in range(200):
            for w in workloads.WORKLOADS:
                assert {c.key for c in workloads.commands(w, seed, smoke)} <= keys
    assert workloads.commands("decimal", 3) == workloads.commands("decimal", 3)


def test_refuses_without_program(tmp_path):
    copy_tree(tmp_path, with_src=False)
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
