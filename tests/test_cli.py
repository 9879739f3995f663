"""CLI smoke and behaviour tests (python -m repro ...)."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestVerifyCommand:
    def test_accepts_true_mst(self):
        code, text = run_cli(["verify", "--shape", "binary", "--n", "127",
                              "--extra-m", "200"])
        assert code == 0
        assert "is MST:   True" in text

    def test_break_mst_reports_witness(self):
        code, text = run_cli(["verify", "--shape", "random", "--n", "100",
                              "--break-mst"])
        assert code == 0
        assert "is MST:   False" in text
        assert "witness edges" in text

    def test_oracle_labels_flag(self):
        _, full = run_cli(["verify", "--n", "100"])
        _, orc = run_cli(["verify", "--n", "100", "--oracle-labels"])
        assert "substrate 0" not in full
        rounds_full = int(full.split("rounds:   ")[1].split(" ")[0])
        rounds_orc = int(orc.split("rounds:   ")[1].split(" ")[0])
        assert rounds_orc < rounds_full

    def test_distributed_engine(self):
        code, text = run_cli(["verify", "--shape", "star", "--n", "40",
                              "--extra-m", "60", "--engine", "distributed",
                              "--delta", "0.6"])
        assert code == 0 and "is MST:   True" in text


class TestSensitivityCommand:
    def test_lists_fragile_edges(self):
        code, text = run_cli(["sensitivity", "--shape", "caterpillar",
                              "--n", "120", "--top", "4"])
        assert code == 0
        assert "most fragile tree edges" in text
        assert "slack" in text

    def test_bridge_count_reported(self):
        code, text = run_cli(["sensitivity", "--n", "80", "--extra-m", "3"])
        assert code == 0 and "bridges" in text


class TestExplainCommand:
    def test_sensitivity_plan_elides_sorts(self):
        """Acceptance: the sensitivity pipeline's printed plan must show
        at least one elided sort (the optimizer firing end-to-end)."""
        code, text = run_cli(["explain", "--kind", "sensitivity",
                              "--n", "300"])
        assert code == 0
        assert "logical -> physical plan by phase" in text
        assert "sort(s) elided" in text
        assert "join(s) fused with reduce" in text
        totals = text.split("totals:")[1]
        elided = int(totals.split(" sorts elided")[0].split(",")[-1].strip())
        assert elided >= 1
        assert "direct addressing" in totals
        assert "by merge search" in totals

    def test_wide_predecessor_joins_merge(self):
        """At n=2000 the labelling replay's wide-key predecessor joins
        have enough queries to be answered by merge search."""
        code, text = run_cli(["explain", "--kind", "verify", "--n", "2000"])
        assert code == 0
        totals = text.split("totals:")[1]
        merged = int(totals.split(" by merge search")[0].split(",")[-1])
        assert merged >= 1
        assert "merge-search" in text.split("totals:")[0]

    def test_full_listing_shows_nodes(self):
        code, text = run_cli(["explain", "--kind", "verify", "--n", "100",
                              "--full"])
        assert code == 0
        assert "plan nodes:" in text
        assert "core/clustering" in text

    def test_distributed_record_mode(self):
        code, text = run_cli(["explain", "--kind", "verify", "--shape",
                              "star", "--n", "40", "--extra-m", "60",
                              "--engine", "distributed", "--delta", "0.6"])
        assert code == 0
        assert "sample-sort" in text
        assert "0 joins answered by direct addressing" in text


class TestProfileCommand:
    def test_local_profile_lists_primitives(self):
        code, text = run_cli(["profile", "--kind", "sensitivity",
                              "--n", "120"])
        assert code == 0
        assert "per-primitive wall attribution" in text
        for prim in ("sort", "lookup", "scalar"):
            assert prim in text
        assert "(outside primitives)" in text

    def test_distributed_profile_reports_transport(self):
        code, text = run_cli(["profile", "--kind", "verify", "--shape",
                              "star", "--n", "40", "--extra-m", "60",
                              "--engine", "distributed", "--delta", "0.6"])
        assert code == 0
        assert "transport rounds" in text
        assert "is_mst=True" in text

    def test_break_mst_profiles_failing_verify(self):
        code, text = run_cli(["profile", "--kind", "verify", "--n", "100",
                              "--break-mst"])
        assert code == 0
        assert "is_mst=False" in text


class TestPipelineCommand:
    def test_plan_only_lists_stages(self):
        code, text = run_cli(["pipeline", "--kind", "sensitivity",
                              "--n", "80", "--plan-only"])
        assert code == 0
        for stage in ("validate", "clustering", "sens-finalize"):
            assert stage in text
        assert "sensitivity done" not in text

    def test_run_reports_execution(self):
        code, text = run_cli(["pipeline", "--kind", "verify", "--n", "80"])
        assert code == 0
        assert "verification done: is_mst=True" in text
        assert "stages executed: 10" in text

    def test_cache_dir_warm_start(self, tmp_path):
        cache = str(tmp_path / "cache")
        code1, cold = run_cli(["pipeline", "--kind", "verify", "--n", "80",
                               "--cache-dir", cache])
        code2, warm = run_cli(["pipeline", "--kind", "verify", "--n", "80",
                               "--cache-dir", cache])
        assert code1 == code2 == 0
        assert "replayed from cache: 0" in cold and "miss" in cold
        assert "replayed from cache: 10" in warm and "hit" in warm

        def rounds_of(text):
            return text.split("rounds=")[1].split(" ")[0]

        assert rounds_of(cold) == rounds_of(warm)


class TestBatchCommand:
    def test_cache_dir_shares_stages(self, tmp_path):
        code, text = run_cli([
            "batch", "--jobs", "2", "--n", "60", "--processes", "1",
            "--broken", "0", "--cache-dir", str(tmp_path / "c"),
        ])
        assert code == 0

    def test_mixed_workload_end_to_end(self):
        code, text = run_cli(["batch", "--jobs", "6", "--processes", "1",
                              "--n", "60"])
        assert code == 0
        assert "aggregated cost table" in text
        assert "sensitivity" in text and "verify" in text
        assert "6 total, 6 ok, 0 failed" in text

    def test_json_format_stdout_is_pure_json(self, capsys):
        import json

        code, text = run_cli(["batch", "--jobs", "4", "--processes", "1",
                              "--n", "50", "--format", "json"])
        assert code == 0
        payload = json.loads(text)  # no trailing human summary on stdout
        assert len(payload["jobs"]) == 4
        assert all(rec["ok"] for rec in payload["jobs"])
        assert "aggregated cost table" in capsys.readouterr().err

    def test_csv_to_file(self, tmp_path):
        out_file = tmp_path / "report.csv"
        code, text = run_cli(["batch", "--jobs", "4", "--processes", "1",
                              "--n", "50", "--format", "csv",
                              "--out", str(out_file)])
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0].startswith("job_id,kind,shape")
        assert len(lines) == 5
        assert str(out_file) in text

    def test_bad_workload_args_exit_cleanly(self, capsys):
        assert run_cli(["batch", "--jobs", "0"])[0] == 2
        assert run_cli(["batch", "--kinds", ","])[0] == 2
        assert run_cli(["batch", "--shapes", ""])[0] == 2
        assert run_cli(["batch", "--kinds", "bogus"])[0] == 2
        assert "error:" in capsys.readouterr().err

    def test_persist_oracles(self, tmp_path):
        from repro.oracle import SensitivityOracle

        code, text = run_cli(["batch", "--jobs", "4", "--processes", "1",
                              "--n", "50", "--kinds", "sensitivity",
                              "--persist-oracles", str(tmp_path)])
        assert code == 0
        saved = sorted(tmp_path.glob("oracle_*.npz"))
        assert len(saved) == 4
        oracle = SensitivityOracle.load(saved[0])
        assert oracle.m > 0
        assert "persisted 4 oracles" in text


class TestSweepCommands:
    def test_sweep_prints_fit(self):
        code, text = run_cli(["sweep", "--n", "512",
                              "--diameters", "8,64,256"])
        assert code == 0
        assert "R2=" in text and "core rounds" in text

    def test_lower_bound_both_sides(self):
        code, text = run_cli(["lower-bound", "--sizes", "32,64"])
        assert code == 0
        assert "True" in text and "False" in text


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_shape(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--shape", "hypercube"])


class TestServeCommand:
    def test_parser_accepts_service_knobs(self):
        args = build_parser().parse_args(
            ["serve", "--shapes", "random,grid", "--n", "300",
             "--shards", "4", "--port", "0",
             "--max-batch", "128", "--queue-depth", "64"]
        )
        assert args.command == "serve"
        assert args.shapes == "random,grid" and args.shards == 4
        assert args.port == 0

    def test_unknown_shape_exits_cleanly(self, capsys):
        code = main(["serve", "--shapes", "dodecahedron"])
        assert code == 2
        assert "unknown tree shape" in capsys.readouterr().err
