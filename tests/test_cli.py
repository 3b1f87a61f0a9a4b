"""Command-line interface tests, driven through main(argv)."""

import json
import os
import subprocess
import sys

import pytest

from netauction.cli import main
from netauction.graphs import load_profile, profile_to_dict, save_profile
from netauction.simulation import Scenario, chains_profile, generate_scenario


@pytest.fixture
def chain_profile_json(tmp_path):
    # s knows A; A relays to B; bids 30 and 70
    profile = generate_scenario(Scenario("symmetry", sizes=(2,)))
    profile = profile.replace_action("a1", 30.0, profile.action("a1").neighbors)
    profile = profile.replace_action("a2", 70.0, profile.action("a2").neighbors)
    path = tmp_path / "chain.json"
    save_profile(profile, path)
    return str(path)


@pytest.fixture
def edge_list(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text("# demo\na b\nb c\nc d\nd e\nb e\n")
    return str(path)


class TestBasics:
    def test_version_includes_table_checksum(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("netauction 0.1.0 tables ")
        token = out.rsplit(" ", 1)[1].strip()
        assert len(token) == 12

    def test_version_stable_across_calls(self, capsys):
        main(["--version"])
        first = capsys.readouterr().out
        main(["--version"])
        assert capsys.readouterr().out == first

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["ratio", "--rho", "2", "--kmin", "1", "--bogus"]) == 2

    def test_console_script_installed(self):
        # the child finds the package where this process does, installed or
        # on pytest's configured pythonpath
        proc = subprocess.run(
            [sys.executable, "-m", "netauction.cli", "ratio", "--rho", "2", "--kmin", "1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.500000"


class TestReserve:
    def test_gamma_policy(self, capsys):
        code = main(
            ["reserve", "--dist", "uniform:vbar=100", "--policy", "ugamma:k=3"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "62.996052"

    def test_general_gamma_for_a_large_group(self, capsys):
        code = main(["reserve", "--dist", "normal:mu=50,sigma=16.67,vbar=100", "--policy", "ggamma:k=60"])
        assert code == 0
        assert 0.0 < float(capsys.readouterr().out) < 100.0

    def test_ropt_needs_sizes(self, capsys):
        code = main(["reserve", "--dist", "uniform:vbar=100", "--policy", "ropt"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        code = main(
            [
                "reserve",
                "--dist",
                "uniform:vbar=100",
                "--policy",
                "ropt",
                "--sizes",
                "3,6",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "70.498007"

    def test_bad_policy_is_usage_error(self, capsys):
        assert main(["reserve", "--dist", "uniform:vbar=100", "--policy", "zzz"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_distribution_is_usage_error(self, capsys):
        assert main(["reserve", "--dist", "cauchy:vbar=1", "--policy", "none"]) == 2

    def test_out_json(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        main(
            [
                "reserve",
                "--dist",
                "uniform:vbar=100",
                "--policy",
                "fixed:42",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        assert json.loads(out.read_text())["reserve"] == 42.0


class TestRevenue:
    def test_point_value(self, capsys):
        code = main(
            ["revenue", "--sizes", "3,6", "--dist", "uniform:vbar=100", "--r", "0"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "70.714286"

    def test_method_choice_enforced_by_parser(self, capsys):
        code = main(
            [
                "revenue",
                "--sizes",
                "3,6",
                "--dist",
                "uniform:vbar=100",
                "--r",
                "0",
                "--method",
                "guess",
            ]
        )
        assert code == 2

    def test_closed_on_general_family_is_runtime_error(self, capsys):
        code = main(
            [
                "revenue",
                "--sizes",
                "3,6",
                "--dist",
                "exp:lambda=0.08,vbar=100",
                "--r",
                "0",
                "--method",
                "closed",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "revenue",
                "--sizes",
                "3,6",
                "--dist",
                "uniform:vbar=100",
                "--r",
                "50",
                "--sweep",
                "0:80:5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sizes,r,revenue"
        assert len(lines) == 6

    def test_sweep_without_out_is_usage_error(self, capsys):
        code = main(
            [
                "revenue",
                "--sizes",
                "3,6",
                "--dist",
                "uniform:vbar=100",
                "--r",
                "50",
                "--sweep",
                "0:80:5",
            ]
        )
        assert code == 2


class TestAuction:
    def test_explicit_reserve(self, chain_profile_json, capsys):
        code = main(["auction", "--profile", chain_profile_json, "--r", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "winner: a2" in out
        assert "revenue: 50.000000" in out

    def test_policy_reserve_and_out(self, chain_profile_json, tmp_path, capsys):
        out_path = tmp_path / "outcome.json"
        code = main(
            [
                "auction",
                "--profile",
                chain_profile_json,
                "--reserve",
                "ugamma:k=1",
                "--dist",
                "uniform:vbar=100",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        outcome = json.loads(out_path.read_text())
        assert outcome["winner"] == "a2"
        assert outcome["revenue"] == 50.0
        assert outcome["failed"] is False

    def test_missing_profile_is_usage_error(self, capsys):
        assert main(["auction", "--profile", "/nope/missing.json"]) == 2

    def test_failed_auction_reported(self, chain_profile_json, capsys):
        code = main(["auction", "--profile", chain_profile_json, "--r", "90"])
        assert code == 0
        assert "failed" in capsys.readouterr().out


class TestSimulate:
    def test_deterministic_and_thread_invariant(self, tmp_path, capsys):
        args = [
            "simulate",
            "--net",
            "symmetry:sizes=3+3",
            "--dist",
            "uniform:vbar=100",
            "--reserve",
            "fixed:50",
            "--runs",
            "5000",
            "--seed",
            "3",
        ]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--threads", "4", "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_text() == out_b.read_text()
        blob = json.loads(out_a.read_text())
        assert blob["runs"] == 5000
        assert blob["reserve"] == 50.0

    def test_histogram_file(self, tmp_path, capsys):
        hist = tmp_path / "h.csv"
        code = main(
            [
                "simulate",
                "--net",
                "symmetry:sizes=2+2",
                "--dist",
                "uniform:vbar=100",
                "--reserve",
                "none",
                "--runs",
                "300",
                "--hist",
                str(hist),
            ]
        )
        assert code == 0
        capsys.readouterr()
        lines = hist.read_text().strip().splitlines()
        assert len(lines) == 102
        assert sum(int(l.rsplit(",", 1)[1]) for l in lines[1:]) == 300

    def test_edge_list_needs_rho(self, edge_list, capsys):
        code = main(
            [
                "simulate",
                "--net",
                edge_list,
                "--dist",
                "uniform:vbar=100",
                "--reserve",
                "none",
                "--runs",
                "10",
            ]
        )
        assert code == 2

    def test_edge_list_with_rho(self, edge_list, capsys):
        code = main(
            [
                "simulate",
                "--net",
                edge_list,
                "--dist",
                "uniform:vbar=100",
                "--reserve",
                "fixed:50",
                "--runs",
                "500",
                "--rho",
                "3",
            ]
        )
        assert code == 0
        assert "mean:" in capsys.readouterr().out

    def test_impossible_rho_is_runtime_error(self, edge_list, capsys):
        code = main(
            [
                "simulate",
                "--net",
                edge_list,
                "--dist",
                "uniform:vbar=100",
                "--reserve",
                "none",
                "--runs",
                "10",
                "--rho",
                "9",
            ]
        )
        assert code == 1

    def test_infeasible_scenario_is_runtime_error(self, capsys):
        code = main(
            [
                "simulate",
                "--net",
                "mer:n=10,pct=30",
                "--dist",
                "uniform:vbar=100",
                "--reserve",
                "none",
                "--runs",
                "10",
            ]
        )
        assert code == 1


class TestScenario:
    def test_stdout_summary_and_json(self, capsys):
        code = main(["scenario", "--spec", "md:n=9,depth=4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bidders: 9" in out
        assert "branches: 3" in out
        assert "sizes: 4+3+2" in out

    def test_out_round_trips(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        code = main(["scenario", "--spec", "symmetry:sizes=3+3", "--out", str(path)])
        assert code == 0
        capsys.readouterr()
        profile = load_profile(path)
        assert profile_to_dict(profile) == profile_to_dict(chains_profile((3, 3)))

    def test_malformed_spec_is_usage_error(self, capsys):
        assert main(["scenario", "--spec", "md:n=9"]) == 2

    def test_infeasible_spec_is_runtime_error(self, capsys):
        assert main(["scenario", "--spec", "md:n=9,depth=8"]) == 1


class TestDsic:
    def test_counterexample(self, tmp_path, capsys):
        out = tmp_path / "ce.json"
        code = main(["dsic", "--counterexample", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "gain: 0.005480" in stdout
        blob = json.loads(out.read_text())
        assert blob["agent"] == "c"
        assert blob["gain"] > 1e-4

    def test_clean_policy_on_profile_json(self, chain_profile_json, capsys):
        code = main(
            [
                "dsic",
                "--net",
                chain_profile_json,
                "--dist",
                "uniform:vbar=100",
                "--reserve",
                "fixed:40",
                "--grid",
                "7",
            ]
        )
        assert code == 0
        assert "no profitable deviation found" in capsys.readouterr().out

    def test_scenario_template_draws_values(self, tmp_path, capsys):
        out = tmp_path / "dsic.json"
        code = main(
            [
                "dsic",
                "--net",
                "symmetry:sizes=2+2",
                "--dist",
                "uniform:vbar=100",
                "--reserve",
                "ugamma:k=2",
                "--grid",
                "5",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        blob = json.loads(out.read_text())
        assert len(blob["reports"]) == 4
        assert all(rep["best_gain"] <= 1e-9 for rep in blob["reports"])

    def test_missing_arguments_is_usage_error(self, capsys):
        assert main(["dsic", "--net", "symmetry:sizes=2+2"]) == 2


class TestRatioAndIngest:
    def test_ratio(self, capsys):
        assert main(["ratio", "--rho", "2", "--kmin", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0.500000"
        assert main(["ratio", "--rho", "4", "--kmin", "2"]) == 0
        assert capsys.readouterr().out.strip() == "0.857143"

    def test_ratio_domain_error(self, capsys):
        assert main(["ratio", "--rho", "0", "--kmin", "1"]) == 1

    def test_ingest_census(self, edge_list, tmp_path, capsys):
        out = tmp_path / "census.json"
        code = main(["ingest", "--net", edge_list, "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "nodes: 5" in stdout
        assert "edges: 5" in stdout
        blob = json.loads(out.read_text())
        assert blob["nodes"] == 5
        assert blob["edges"] == 5
        assert sum(blob["degrees"].values()) == 5

    def test_ingest_with_seller(self, edge_list, capsys):
        code = main(["ingest", "--net", edge_list, "--rho", "3"])
        assert code == 0
        assert "seller: b" in capsys.readouterr().out

    def test_ingest_missing_file(self, capsys):
        assert main(["ingest", "--net", "/nope/none.txt"]) == 2

    def test_ingest_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("loner\n")
        assert main(["ingest", "--net", str(bad)]) == 1
