"""The file comparison of scripts/check_identity.py, on small hash tables."""

from __future__ import annotations

import hashlib
import json
import importlib.util
import sys
from pathlib import Path

from heraldsim.experiments import load_config

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_identity.py"
spec = importlib.util.spec_from_file_location("check_identity", SCRIPT)
check_identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_identity)

BASE = {
    "default/g2/g2.csv": "aaa",
    "default/end_to_end/samples.csv": "bbb",
    "pipeline/end_to_end/samples.csv": "ccc",
}


def statuses(rows):
    return {path: status for path, _, _, status in rows}


def test_identical_tables_pass():
    rows, ok = check_identity.compare(BASE, dict(BASE), [])
    assert ok
    assert set(statuses(rows).values()) == {"same"}


def test_expected_difference_matches_every_run():
    head = dict(BASE, **{"default/end_to_end/samples.csv": "xxx",
                         "pipeline/end_to_end/samples.csv": "yyy"})
    rows, ok = check_identity.compare(BASE, head, ["end_to_end/samples.csv"])
    assert ok
    assert statuses(rows) == {
        "default/g2/g2.csv": "same",
        "default/end_to_end/samples.csv": "differs (expected)",
        "pipeline/end_to_end/samples.csv": "differs (expected)",
    }


def test_unexpected_difference_fails():
    head = dict(BASE, **{"default/g2/g2.csv": "zzz"})
    rows, ok = check_identity.compare(BASE, head, ["end_to_end/samples.csv"])
    assert not ok
    assert statuses(rows)["default/g2/g2.csv"] == "DIFFERS"


def test_suffix_matches_whole_path_components():
    head = dict(BASE, **{"default/g2/g2.csv": "zzz"})
    _, ok = check_identity.compare(BASE, head, ["2.csv"])
    assert not ok


def test_file_on_one_side_fails():
    head = dict(BASE)
    del head["default/g2/g2.csv"]
    head["default/g2/extra.json"] = "ddd"
    rows, ok = check_identity.compare(BASE, head, [])
    assert not ok
    assert statuses(rows)["default/g2/g2.csv"] == "DIFFERS"
    assert ("default/g2/extra.json", "-", "ddd", "DIFFERS") in rows


def test_csv_changes_counts_rows_and_columns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x,theta_rad\n1.5,0.25\n2,0.5\n3,0.75\n")
    b.write_text("x,theta_rad\n1.5000000000001,0.25\n2,0.5\n3,0.75\n")
    assert check_identity.csv_changes(a, b) == (
        "1 of 3 rows differ; largest change: x 1.0e-13"
    )


def test_expect_diff_takes_several_paths_per_flag():
    paths = ["end_to_end/samples.csv", "end_to_end/report.json", "reconstruction.json"]
    one_flag = check_identity.parse_args(["BASE", "--expect-diff", *paths])
    assert (one_flag.base, one_flag.head, one_flag.expect_diff) == ("BASE", "HEAD", paths)
    repeated = check_identity.parse_args(
        ["BASE", "NEW", "--expect-diff", paths[0], "--expect-diff", *paths[1:]]
    )
    assert (repeated.head, repeated.expect_diff) == ("NEW", paths)
    assert check_identity.parse_args(["BASE"]).expect_diff == []


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_produce_hashes_each_runs_stdout(tmp_path, monkeypatch):
    # the two commands of one run share one stdout file, kept next to the
    # files the run writes
    write = "import pathlib; p = pathlib.Path('identity_out/a'); p.mkdir(); (p / 'f.txt').write_text('f')"
    monkeypatch.setattr(check_identity, "runs", lambda configs: {
        "a": [[sys.executable, "-c", write], [sys.executable, "-c", "print(0.1 + 0.2)"]],
        "b": [[sys.executable, "-c", "print('{}')"]],
    })
    assert check_identity.produce(tmp_path, tmp_path) == {
        "a/f.txt": sha("f"),
        "a.stdout": sha("0.30000000000000004\n"),
        "b.stdout": sha("{}\n"),
    }


def test_json_changes_per_key_path(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({
        "bins": [{"n_pairs": 40, "stderr": [0.1, 0.2], "P2_pull": None},
                 {"n_pairs": 50, "stderr": [0.1, 0.2], "P2_pull": 1.0}],
        "config": {"eta": 0.76, "bootstrap_reps": 16},
    }))
    b.write_text(json.dumps({
        "bins": [{"n_pairs": 40, "stderr": [0.1, 0.25], "P2_pull": 0.5},
                 {"n_pairs": 50, "stderr": [0.125, 0.2], "P2_pull": 1.0}],
        "config": {"eta": 0.76},
    }))
    assert check_identity.json_changes(a, b) == (
        "4 of 10 values differ; largest change: bins[*].P2_pull null -> 0.5, "
        "bins[*].stderr[*] 5.0e-02, config.bootstrap_reps only in base"
    )


def test_json_changes_reads_a_stdout_of_several_documents(tmp_path):
    # reproduce_figures.py prints one indented summary per CLI call
    a, b = tmp_path / "a.stdout", tmp_path / "b.stdout"
    a.write_text(json.dumps({"n_points": 2}, indent=2) + "\n" + json.dumps({"rows": [1.5, 2]}, indent=2) + "\n")
    b.write_text(json.dumps({"n_points": 2}, indent=2) + "\n" + json.dumps({"rows": [1.5, 3]}, indent=2) + "\n")
    assert check_identity.json_changes(a, b) == (
        "1 of 3 values differ; largest change: [*].rows[*] 1.0e+00"
    )
    assert check_identity.json_changes(a, a) == "0 of 3 values differ; largest change: none"


def test_calibrate_run_writes_its_report(tmp_path, monkeypatch):
    # the calibrate command runs in a checkout and leaves its JSON report
    # and its table beside the other runs' files
    root = check_identity.ROOT
    for name in ("scripts", "src"):
        (tmp_path / name).symlink_to(root / name)
    calibrate = check_identity.runs(tmp_path)["calibrate"]
    monkeypatch.setattr(check_identity, "runs", lambda configs: {"calibrate": calibrate})
    hashes = check_identity.produce(tmp_path, tmp_path)
    assert set(hashes) == {"calibrate.json", "calibrate.stdout"}
    report = json.loads((tmp_path / check_identity.OUT / "calibrate.json").read_text())
    assert report["seeds"] == [0, 1]
    assert [p["delta_t_ns"] for p in report["points"]["f1"]] == [0.0, 10.0, 30.0]


def test_end_to_end_runs_read_their_configs(tmp_path):
    # pipeline and selection each run end-to-end, then reconstruct its
    # samples, at a config file that load_config accepts
    check_identity.write_configs(tmp_path)
    commands = check_identity.runs(tmp_path)
    for name in ("pipeline", "selection"):
        (end_to_end, reconstruct) = commands[name]
        assert end_to_end[3] == "end-to-end" and reconstruct[3] == "reconstruct"
        config = end_to_end[end_to_end.index("--config") + 1]
        assert config == str(tmp_path / f"{name}.json")
        load_config(config)
    assert load_config(tmp_path / "selection.json").dead_time_ns == 0.0


def test_trigger_run_reads_its_config(tmp_path):
    # g2 at the perfbench trigger event count, with 0.6 ns bins and a seed
    # other than the default
    check_identity.write_configs(tmp_path)
    (g2,) = check_identity.runs(tmp_path)["trigger"]
    assert g2[3] == "g2"
    assert g2[g2.index("--config") + 1] == str(tmp_path / "trigger.json")
    assert g2[g2.index("--out") + 1] == f"{check_identity.OUT}/trigger"
    config = load_config(tmp_path / "trigger.json")
    assert (config.g2_n_events, config.g2_bin_ns) == (400_000, 0.6)
    assert int(g2[g2.index("--seed") + 1]) != config.rng_seed
