import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import seven_vertex_example, path_graph
import matchpow
from matchpow import WeightedOrientedGraph
from matchpow import cli, harness
from matchpow.cli import main
from matchpow.classify import classify_last_power
from matchpow.serialize import (
    certificate_from_doc,
    certificate_to_doc,
    load_ideal,
    save_graph,
    save_ideal,
)
from matchpow import Monomial, MonomialIdeal


@pytest.fixture()
def seven_vertex_file(tmp_path):
    path = tmp_path / "seven.json"
    save_graph(seven_vertex_example(), path)
    return str(path)


@pytest.fixture()
def negative_graph_file(tmp_path):
    D = WeightedOrientedGraph.build(6, [(1, 3), (3, 2), (3, 4), (4, 5), (4, 6)], {3: 2})
    path = tmp_path / "neg.json"
    save_graph(D, path)
    return str(path)


def test_classify_exit_codes(seven_vertex_file, negative_graph_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["classify", seven_vertex_file, "--certificate", str(cert_path), "--verify"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["polymatroidal_last_power"] is True
    assert out["certificate_verified"] is True
    assert json.loads(cert_path.read_text())["nodes"][0]["verdict"] is True

    assert main(["classify", negative_graph_file]) == 1
    assert main(["classify", str(tmp_path / "missing.json")]) == 2


def test_classify_reports_source_normalization(tmp_path, capsys):
    doc = {"vertices": ["u", "v"], "edges": [["u", "v"]], "weights": {"u": 4, "v": 2}}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", str(path)]) == 0
    err = capsys.readouterr().err
    assert "u" in err and "reset source weights" in err


def test_power_command(seven_vertex_file, tmp_path, capsys):
    out_path = tmp_path / "ideal.json"
    assert main(["power", seven_vertex_file, "--k", "3", "--ideal-out", str(out_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 7
    assert sorted(doc["generators"]) == [
        [2, 2, 1, 1, 1, 0, 1],
        [2, 2, 1, 1, 1, 1, 0],
    ]
    assert load_ideal(out_path).gens


def test_betti_command(tmp_path, capsys):
    from matchpow import edge_ideal

    path = tmp_path / "p4.json"
    save_ideal(edge_ideal(path_graph(4)), path)
    assert main(["betti", str(path), "--multigraded"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"i": 0, "degree": 2, "rank": 3} in doc["total"]
    assert {"i": 1, "degree": 3, "rank": 2} in doc["total"]
    assert doc["regularity"] == 2
    assert any(entry["i"] == 1 for entry in doc["multigraded"])
    assert main(["betti", str(path), "--field", "q"]) == 0


def test_check_commands(tmp_path, capsys):
    ideal_path = tmp_path / "i.json"
    save_ideal(
        MonomialIdeal.from_monomials(
            4, [Monomial((1, 1, 0, 0)), Monomial((0, 0, 1, 1))]
        ),
        ideal_path,
    )
    assert main(["check", "poly", str(ideal_path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["polymatroidal"] is False and "witness" in doc
    assert main(["check", "linear", str(ideal_path)]) == 1
    assert main(["check", "linrel", str(ideal_path)]) == 1

    from matchpow import edge_ideal, matching_power

    good = matching_power(edge_ideal(path_graph(5)), 2)
    good_path = tmp_path / "good.json"
    save_ideal(good, good_path)
    assert main(["check", "poly", str(good_path)]) == 0
    assert main(["check", "linear", str(good_path)]) == 0
    assert main(["check", "linrel", str(good_path)]) == 0


def test_check_linear_names_the_python_cap(tmp_path, capsys):
    # the 16-variable maximal ideal: above the Betti cap, but linear relations
    # read pairwise lcms only and need no cap
    path = tmp_path / "m16.json"
    gens = [Monomial(tuple(int(j == i) for j in range(16))) for i in range(16)]
    save_ideal(MonomialIdeal.from_monomials(16, gens), path)
    assert main(["check", "linear", str(path)]) == 2
    err = capsys.readouterr().err
    assert "above the Betti cap 14" in err
    assert "cap=" not in err
    assert main(["check", "linrel", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"linearly_related": True}


def test_verify_commands_small(tmp_path, capsys):
    out = tmp_path / "reports.jsonl"
    assert (
        main(
            [
                "--workers",
                "1",
                "verify",
                "thm11",
                "--trials",
                "10",
                "--max-n",
                "5",
                "--seed",
                "42",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 10
    capsys.readouterr()

    assert (
        main(
            ["verify", "thm34", "--exhaustive", "--max-n", "4", "--max-weight", "2"]
        )
        == 0
    )
    summary = json.loads(capsys.readouterr().out)
    assert summary["disagreement_count"] == 0

    assert main(["verify", "lemma22", "--pairs", "4", "--seed", "9"]) == 0
    capsys.readouterr()
    assert main(["verify", "lemma31", "--max-n", "4"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, workers",
    [
        (["--workers", "2", "verify", "thm34"], 2),
        (["verify", "thm34", "--workers", "2"], 2),
        (["--workers", "1", "verify", "thm34", "--workers", "2"], 2),
        (["verify", "thm34"], None),
    ],
)
def test_workers_goes_before_the_subcommand_or_after_verify(argv, workers, monkeypatch, capsys):
    seen = []

    def campaign(**kwargs):
        seen.append(kwargs["workers"])
        return harness.verify_thm34_exhaustive(**kwargs)

    monkeypatch.setattr(cli, "verify_thm34_exhaustive", campaign)
    assert main([*argv, "--exhaustive", "--max-n", "4", "--max-weight", "2"]) == 0
    assert seen == [workers]
    assert json.loads(capsys.readouterr().out)["disagreement_count"] == 0


def test_verify_honours_zero_options(capsys):
    assert main(["verify", "thm11", "--trials", "0", "--max-n", "3"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["trials"], summary["max_n"], summary["failures"]) == (0, 3, [])
    assert main(["verify", "thm34", "--trials", "0"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["trials"], summary["max_n"]) == (0, 8)  # an omitted option keeps its default
    assert main(["verify", "thm11", "--exhaustive", "--max-n", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["graphs_checked"] == 0
    assert main(["verify", "lemma31", "--max-n", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["configurations_checked"] == 0


@pytest.mark.parametrize(
    "theorem, lowest", [("thm11", 2), ("thm34", 2), ("lemma22", 5)]
)
def test_random_campaigns_reject_max_n_below_their_lowest_draw(theorem, lowest, capsys):
    args = ["verify", theorem, "--trials", "2", "--pairs", "2"]
    assert main([*args, "--max-n", str(lowest - 1)]) == 2
    err = capsys.readouterr().err
    assert f"max_n must be at least {lowest}" in err and f"got {lowest - 1}" in err


@pytest.mark.parametrize(
    "args, option, bound",
    [
        (["thm34", "--exhaustive", "--max-weight", "1"], "max_weight", 2),
        (["thm34", "--trials", "3", "--max-weight", "0"], "max_weight", 1),
        (["lemma22", "--max-weight", "0"], "max_weight", 1),
        (["thm34", "--trials", "-3"], "trials", 0),
        (["thm11", "--trials", "-3"], "trials", 0),
        (["lemma22", "--pairs", "-3"], "pairs", 0),
        (["thm34", "--exhaustive", "--max-n", "3"], "max_n", 4),
        # 2**n-bit mask tables: thm11's random draws stop at 20 vertices
        (["thm11", "--trials", "1", "--max-n", "21"], "max_n", 20),
    ],
)
def test_verify_rejects_options_that_leave_nothing_to_check(args, option, bound, capsys):
    given = int(args[args.index("--" + option.replace("_", "-")) + 1])
    relation = "most" if given > bound else "least"
    assert main(["verify", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} must be at {relation} {bound}") and err.count("\n") == 1


def test_verify_keeps_each_campaigns_default_seed(capsys):
    assert main(["verify", "thm34", "--trials", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 1
    assert main(["verify", "lemma22", "--pairs", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7
    assert main(["verify", "thm11", "--trials", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 42
    assert main(["verify", "thm34", "--trials", "0", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0


def test_verify_lemma22_leaves_an_omitted_pairs_to_the_campaign(monkeypatch, capsys):
    calls = []

    def recording(**kwargs):
        calls.append(kwargs)
        return {"failures": [], "reports": []}

    monkeypatch.setattr(cli, "verify_lemma22", recording)
    assert main(["verify", "lemma22", "--seed", "3"]) == 0
    assert main(["verify", "lemma22", "--pairs", "0"]) == 0
    assert calls == [{"seed": 3}, {"pairs": 0}]


def test_verify_lemma22_passes_max_n_and_max_weight(capsys):
    args = ["verify", "lemma22", "--pairs", "2", "--max-n", "5", "--max-weight", "2"]
    assert main(args) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["max_n"], summary["max_weight"]) == (5, 2)


def test_power_of_a_large_perfect_matching(tmp_path, capsys):
    path = tmp_path / "pm2000.json"
    D = WeightedOrientedGraph.build(2000, [(2 * i + 1, 2 * i + 2) for i in range(1000)])
    save_graph(D, path)
    out = tmp_path / "power.json"
    assert main(["power", str(path), "--k", "1000", "--ideal-out", str(out)]) == 0
    assert load_ideal(out).gens == (Monomial((1,) * 2000),)


def test_enumerate_command(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["enumerate", "--nu", "1", "--budget", "4", "--out", str(out_dir)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["generated"] == 4
    files = sorted(out_dir.glob("*.json"))
    assert len(files) == 4
    assert json.loads(files[0].read_text())["edges"]


def test_config_option_is_rejected(tmp_path, capsys):
    # --workers and MATCHPOW_WORKERS set the worker count; there is no config file
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_n": 3}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(config), "verify", "thm11", "--trials", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""  # no campaign ran


def test_crash_exits_2_not_1(seven_vertex_file, monkeypatch, capsys):
    def too_deep(D):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "classify_last_power", too_deep)
    assert main(["classify", seven_vertex_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_classify_thousand_vertex_path_exits_0(tmp_path, capsys):
    path = tmp_path / "path.json"
    save_graph(path_graph(1000, {1000: 2}), path)
    assert main(["classify", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["polymatroidal_last_power"] is True
    assert out["matching_number"] == 500


def test_certificate_file_is_json_dumps_text(tmp_path, capsys):
    D = path_graph(800, {800: 2})
    save_graph(D, tmp_path / "path.json")
    cert_path = tmp_path / "cert.json"
    assert main(["classify", str(tmp_path / "path.json"), "--certificate", str(cert_path)]) == 0
    doc = certificate_to_doc(classify_last_power(D))
    assert cert_path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()


def test_certificate_of_a_two_thousand_vertex_path_exits_0(tmp_path, capsys):
    D = path_graph(2000, {2000: 2})
    save_graph(D, tmp_path / "path.json")
    cert_path = tmp_path / "cert.json"
    assert main(["classify", str(tmp_path / "path.json"), "--certificate", str(cert_path)]) == 0
    assert cert_path.stat().st_size < 1_000_000  # linear in the matching number
    cert = classify_last_power(D)
    doc = json.loads(cert_path.read_text())  # at the default recursion limit
    assert doc == certificate_to_doc(cert)
    assert certificate_from_doc(doc) == cert


def test_cli_entrypoint_subprocess(seven_vertex_file):
    # the child imports the package under test, wherever pytest found it
    src = str(Path(matchpow.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "matchpow.cli", "classify", seven_vertex_file],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["polymatroidal_last_power"] is True
