"""Command-line interface tests, driven through main(argv)."""

import json
import os
import subprocess
import sys

from collections import Counter

import numpy as np
import pytest

import helpers
import netauction.cli
import netauction.simulation
from netauction.cli import build_parser, main
from netauction.distributions import parse_distribution
from netauction.graphs import (
    ActionProfile,
    AgentAction,
    SubtreeProfile,
    load_profile,
    profile_to_dict,
)
from netauction.incentives import DeviationGrid, report_to_dict
from netauction.reserve import parse_policy
from netauction.revenue import _total_revenues, expected_total_revenue
from netauction.simulation import (
    chains_profile,
    draw_replicate,
    load_edge_list,
    monte_carlo,
    pick_seller,
    stats_to_dict,
    template_from_network,
)


@pytest.fixture
def chain_profile_json(tmp_path):
    # s knows A; A relays to B; bids 30 and 70
    profile = chains_profile((2,))
    profile = helpers.replace_action(profile, "a1", 30.0, helpers.action(profile, "a1").neighbors)
    profile = helpers.replace_action(profile, "a2", 70.0, helpers.action(profile, "a2").neighbors)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(profile_to_dict(profile)), encoding="utf-8")
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

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--net", "mer:n=9,pct=40", "--dist", "uniform:vbar=100",
             "--reserve", "none", "--runs", "100"],
            ["simulate", "--net", "{net}", "--rho", "3", "--dist", "uniform:vbar=100",
             "--reserve", "none", "--runs", "100"],
            ["dsic", "--net", "mer:n=9,pct=40", "--dist", "uniform:vbar=100", "--reserve", "none"],
            ["dsic", "--net", "{net}", "--rho", "3", "--dist", "uniform:vbar=100", "--reserve", "none"],
            ["ingest", "--net", "{net}", "--rho", "3"],
        ],
        ids=["simulate", "simulate_edge_list", "dsic", "dsic_edge_list", "ingest"],
    )
    def test_negative_seed_is_one_line_error(self, argv, edge_list, capsys):
        # ingest has printed its census by the time it picks the seller
        code = main([a.format(net=edge_list) for a in argv] + ["--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"

    def test_commands_in_one_process_match_each_alone(self, tmp_path, capsys):
        # the shared parser must carry nothing from one call to the next
        net = tmp_path / "net.txt"
        helpers.write_seeded_list(net, 60, 90, 5)
        commands = [
            ["simulate", "--net", "mer:n=9,pct=40", "--dist", "uniform:vbar=100",
             "--reserve", "ugamma:k=2", "--runs", "2000", "--seed", "4", "--out", "{out}"],
            ["dsic", "--net", "mer:n=9,pct=40", "--dist", "uniform:vbar=100",
             "--reserve", "ropt", "--grid", "5", "--out", "{out}"],
            ["ingest", "--net", str(net), "--rho", "2", "--out", "{out}"],
            ["--version"],
        ]
        together = []
        for i, argv in enumerate(commands):
            out = tmp_path / f"together{i}.json"
            assert main([arg.format(out=out) for arg in argv]) == 0
            together.append((capsys.readouterr().out, out.read_bytes() if out.exists() else None))
        for i, argv in enumerate(commands):
            out = tmp_path / f"alone{i}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "netauction.cli", *(arg.format(out=out) for arg in argv)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            )
            assert proc.returncode == 0, proc.stderr
            alone = (proc.stdout, out.read_bytes() if out.exists() else None)
            assert together[i] == alone, argv

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

    def test_import_loads_no_sparse_graph_library(self):
        # scipy.sparse would add about 9 MB and 0.1 s to every start, and
        # scipy.special about 0.3 s; only the normal prior needs the latter
        probe = (
            "import sys, netauction.cli; "
            "print([m for m in sys.modules"
            " if m.startswith(('scipy.sparse', 'scipy.special', 'networkx'))])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("dist", helpers.NARROW_PRIORS[:2])
    def test_general_gamma_where_the_density_underflows(self, dist, k, capsys):
        # the pdf is 0 at the top of the bracket, where the root is not
        assert main(["reserve", "--dist", dist, "--policy", f"ggamma:k={k}", "--sizes", "3,6"]) == 0
        d = parse_distribution(dist)
        assert float(capsys.readouterr().out) == pytest.approx(helpers.direct_root(d, k), abs=1e-6)

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

    @pytest.mark.parametrize("dist", helpers.TAIL_PRIORS + helpers.NARROW_PRIORS)
    def test_ropt_takes_priors_regular_near_vbar(self, dist, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["reserve", "--dist", dist, "--policy", "ropt", "--sizes", "3,6", "--out", str(out)]
        assert main(argv) == 0
        r = json.loads(out.read_text())["reserve"]
        assert 0.0 < r < 100.0
        # no reserve on a fine grid earns more
        d, prof = parse_distribution(dist), SubtreeProfile.from_sizes((3, 6))
        best = max(_total_revenues(prof, d, np.linspace(0.0, d.vbar, 4001).tolist()))
        assert expected_total_revenue(prof, d, r) >= best - 1e-6 * best

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["revenue", "--sizes", "3,6", "--r", "10"],
            ["simulate", "--net", "mer:n=9,pct=40", "--reserve", "fixed:10", "--runs", "100"],
            ["reserve", "--sizes", "3,6", "--policy", "ggamma:k=2"],
        ],
        ids=["revenue", "simulate", "reserve"],
    )
    def test_normal_without_mass_is_one_line_error(self, argv, capsys):
        # the prior's mass on [0, 100] underflows to 0
        code = main(argv + ["--dist", "normal:mu=-150,sigma=1,vbar=100"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert "no mass on [0, 100.0]" in captured.err

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

    def test_sweep_uses_the_method(self, tmp_path, capsys):
        # the uniform prior's closed form and its quadrature differ in the
        # last digits, so the row shows which one wrote it
        out = tmp_path / "sweep.csv"
        argv = ["revenue", "--sizes", "3,6", "--dist", "uniform:vbar=100", "--r", "30"]
        code = main(argv + ["--method", "quadrature", "--sweep", "30:30:1", "--out", str(out)])
        assert code == 0
        prof, d = SubtreeProfile.from_sizes((3, 6)), parse_distribution("uniform:vbar=100")
        want = expected_total_revenue(prof, d, 30.0, "quadrature")
        assert want != expected_total_revenue(prof, d, 30.0)
        assert out.read_text().splitlines()[1] == f"3+6,30.0,{want!r}"

    def test_sweep_past_vbar_writes_no_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "revenue",
                "--sizes",
                "3,6",
                "--dist",
                "normal:mu=50,sigma=16.67,vbar=100",
                "--r",
                "10",
                "--sweep",
                "0:120:3",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert "reserve must lie in [0, 100.0], got 120.0" in capsys.readouterr().err
        assert not out.exists()

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

    def test_string_bid_is_rejected(self, chain_profile_json, capsys):
        data = json.loads(open(chain_profile_json).read())
        for row in data["agents"]:
            if row["id"] == "a2":
                row["bid"] = "70"
        with open(chain_profile_json, "w") as fh:
            json.dump(data, fh)
        assert main(["auction", "--profile", chain_profile_json, "--r", "50"]) == 1
        err = capsys.readouterr().err
        assert "bid for 'a2' must be finite and >= 0, got 70" in err

    @pytest.mark.parametrize(
        "content",
        [b'{"seller": "s", "agents": [{"id": "a", ', b'{"seller": "s", "agents": 5}',
         b'{"seller": "s", "agents": [{"id": "\xff", "bid": 1, "neighbors": []}]}'],
        ids=["truncated", "agents_not_an_array", "not_utf8"],
    )
    def test_malformed_profile_is_one_line_error(self, content, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["auction", "--profile", str(path), "--r", "50"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

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

    @pytest.mark.parametrize("dist", helpers.NARROW_PRIORS[:2])
    def test_general_gamma_sells_where_the_density_underflows(self, dist, tmp_path, capsys):
        # a reserve of vbar would fail every run
        out = tmp_path / "s.json"
        argv = ["simulate", "--net", "mer:n=9,pct=40", "--dist", dist, "--reserve", "ggamma:k=1",
                "--runs", "2000", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["failure_rate"] < 1.0

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

    def test_edge_list_builds_no_dict_graph(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(77)
        path = tmp_path / "net.txt"
        path.write_text(
            "".join(f"n{u} n{v}\n" for u, v in rng.integers(0, 300, size=(450, 2)))
        )
        out = tmp_path / "stats.json"
        argv = [
            "simulate", "--net", str(path), "--dist", "normal:mu=50,sigma=16.67,vbar=100",
            "--reserve", "ropt", "--runs", "3000", "--rho", "3", "--seed", "11",
            "--threads", "2", "--out", str(out),
        ]

        def forbidden(*args, **kwargs):
            raise AssertionError("the edge-list path built a per-node structure")

        monkeypatch.setattr(netauction.cli, "template_from_network", forbidden)
        for name in ("AgentAction", "build_graph", "build_pot"):
            monkeypatch.setattr(netauction.simulation, name, forbidden)
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.undo()

        net = load_edge_list(path)
        template = template_from_network(net, pick_seller(net, 3, seed=11))
        d = parse_distribution("normal:mu=50,sigma=16.67,vbar=100")
        want = monte_carlo(template, d, parse_policy("ropt"), 3000, 11, threads=2)
        assert json.loads(out.read_text()) == stats_to_dict(want)

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

    def test_seller_reaching_nobody(self, tmp_path, capsys):
        profile = ActionProfile(
            "s",
            (AgentAction("s", 0.0, frozenset()), AgentAction("a", 30.0, frozenset())),
        )
        net, out = tmp_path / "silent.json", tmp_path / "dsic.json"
        net.write_text(json.dumps(profile_to_dict(profile)), encoding="utf-8")
        code = main(
            [
                "dsic",
                "--net",
                str(net),
                "--dist",
                "uniform:vbar=100",
                "--reserve",
                "none",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "no bidder hears of the sale\n"
        assert json.loads(out.read_text()) == {"reports": []}

    @pytest.mark.parametrize(
        "policy, verdict",
        [("ugamma:k=2", "no profitable deviation found"), ("ropt", "profitable deviation:")],
        ids=["ugamma", "ropt"],
    )
    def test_edge_list_matches_the_slow_search(self, tmp_path, capsys, policy, verdict):
        # a seeded 36-node, 36-pair list: 26 bidders hear of the sale, and
        # under the global optimum one of them gains by deviating
        net, out = tmp_path / "net.txt", tmp_path / "dsic.json"
        helpers.write_seeded_list(net, 36, 36, 14)
        args = ["dsic", "--net", str(net), "--rho", "2", "--seed", "3", "--grid", "5"]
        args += ["--dist", "uniform:vbar=100", "--reserve", policy, "--out", str(out)]
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith(verdict)

        network = load_edge_list(str(net))
        d = parse_distribution("uniform:vbar=100")
        truth = draw_replicate(template_from_network(network, pick_seller(network, 2, 3)), d, 3, 0)
        slow = helpers.slow_check_dsic(truth, d, parse_policy(policy), DeviationGrid(5))
        assert len(slow) == 26
        assert json.loads(out.read_text()) == {"reports": [report_to_dict(r) for r in slow]}

    def test_missing_arguments_is_usage_error(self, capsys):
        assert main(["dsic", "--net", "symmetry:sizes=2+2"]) == 2

    @pytest.mark.parametrize(
        "policy, what",
        [("ugamma:k=2", "links into its own subtree"), ("ropt", "live links")],
        ids=["ugamma", "ropt"],
    )
    def test_subset_cap_names_the_agent(self, tmp_path, capsys, policy, what):
        # v17 alone informs 13 bidders; under a fixed reserve only links
        # into its own subtree count, so there the seller does not reach them
        leaves = [f"w{i:02d}" for i in range(13)]
        reports = {"s": ["v17"] if policy == "ugamma:k=2" else ["v17", *leaves], "v17": leaves}
        values = {"v17": 60.0, **dict.fromkeys(leaves, 20.0)}
        net = tmp_path / "fan.json"
        profile = profile_to_dict(helpers.truthful_from_values(values, reports))
        net.write_text(json.dumps(profile), encoding="utf-8")
        args = ["dsic", "--net", str(net), "--dist", "uniform:vbar=100", "--reserve", policy]
        assert main([*args, "--grid", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: agent 'v17': 13 {what} exceed the 2^12 subset cap\n"


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

    def test_ingest_census_counts_the_links(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        path = tmp_path / "net.txt"
        pairs = rng.integers(0, 80, size=(200, 2))
        path.write_text("# census\n" + "".join(f"n{u}\tn{v}\n" for u, v in pairs))
        out = tmp_path / "census.json"
        assert main(["ingest", "--net", str(path), "--out", str(out)]) == 0
        adjacency = helpers.slow_load_adjacency(path)
        degrees = Counter(len(nb) for nb in adjacency.values())
        edges = sum(degrees[k] * k for k in degrees) // 2
        assert capsys.readouterr().out.splitlines() == [
            f"nodes: {len(adjacency)}",
            f"edges: {edges}",
            f"max_degree: {max(degrees)}",
        ]
        assert json.loads(out.read_text()) == {
            "nodes": len(adjacency),
            "edges": edges,
            "degrees": {str(k): c for k, c in degrees.items()},
        }

    def test_ingest_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# no links\n")
        assert main(["ingest", "--net", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == ["nodes: 0", "edges: 0", "max_degree: 0"]

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

    def test_ingest_file_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a b\n\xff c\n")
        assert main(["ingest", "--net", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "line 2: not UTF-8" in err
