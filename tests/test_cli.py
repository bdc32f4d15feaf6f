import json

import pytest

from e510.cli import ConfigError, _parse_mu, _parse_range, main


def test_range_parsing():
    assert _parse_range("3") == [3]
    assert _parse_range("1..4") == [1, 2, 3, 4]
    with pytest.raises(ConfigError):
        _parse_range("4..1")
    with pytest.raises(ValueError):
        _parse_range("x")


def test_mu_parsing():
    assert _parse_mu("0,1,2,3") == (0, 1, 2, 3)
    with pytest.raises(ConfigError):
        _parse_mu("1,2,3")
    with pytest.raises(ConfigError):
        _parse_mu("-1,0,0,0")


def test_config_errors_exit_two(tmp_path, capsys):
    assert main(["verify-catalog", "--family", "nope"]) == 2
    assert main(["search", "--mu", "1,2", "--degree", "1"]) == 2
    assert main(["dual"]) == 2
    assert main(["dual", "--from-certs", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_catalog_single_family(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["verify-catalog", "--family", "1A", "--m", "0..1",
                 "--n", "0", "--format", "json", "--output", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] and rep["checked"] == 2


def test_search_empty_is_success(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["search", "--mu", "0,1,1,0", "--degree", "1..2",
                 "--format", "json", "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["certificates"] == []


def test_search_json_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["search", "--mu", "0,0,1,0", "--degree", "1..2",
            "--format", "json"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_checkpoint_resume(tmp_path):
    ck = tmp_path / "state.json"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["sweep", "--budget", "1", "--degree", "1", "--format", "json",
            "--checkpoint", str(ck)]
    assert main(argv + ["--output", str(a)]) == 0
    assert ck.exists()
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dual_roundtrip_through_file(tmp_path):
    certs = tmp_path / "certs.json"
    assert main(["search", "--mu", "0,0,1,0", "--degree", "1",
                 "--format", "json", "--output", str(certs)]) == 0
    out = tmp_path / "dual.json"
    assert main(["dual", "--from-certs", str(certs), "--format", "json",
                 "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] and len(rep["checks"]) == 1


def test_dual_failure_exits_one(tmp_path, monkeypatch, capsys):
    import e510.singular_search as ss

    def fake(mu, d, nu, entry_cap=200000):
        return {"mu": "0,0,0,0", "degree": d, "weight": "0,0,0,0",
                "kernel_dim": 1, "dual_mu": "0,0,0,0",
                "dual_weight": "0,0,0,0", "dual_kernel_dim": 0,
                "consistent": False}

    monkeypatch.setattr(ss, "dual_pair_check", fake)
    code = main(["dual", "--mu", "0,0,1,0", "--degree", "1",
                 "--weight", "0,0,0,0"])
    assert code == 1
    capsys.readouterr()


def test_identities_small_sweep(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["identities", "--suite", "omega", "--max-d", "2",
                 "--samples", "3", "--format", "json", "--output", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] and rep["checks"]["routes_exhaustive"] == 55


def test_corrupt_checkpoint_exits_two(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    argv = ["search", "--mu", "0,0,1,0", "--degree", "1",
            "--checkpoint", str(ck)]
    for text in ("{x", "[1, 2]", '{"0,0,1,0|1": 3}'):
        ck.write_text(text)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "checkpoint" in err


def test_resume_recomputes_cells_of_other_full_g1(tmp_path):
    ck, out = tmp_path / "ck.json", tmp_path / "rep.json"
    argv = ["search", "--mu", "0,0,1,0", "--degree", "1",
            "--checkpoint", str(ck), "--format", "json",
            "--output", str(out)]
    assert main(argv) == 0
    assert [c["full_g1"] for c in json.loads(out.read_text())
            ["certificates"]] == [False]
    assert main(argv + ["--full-g1"]) == 0
    assert [c["full_g1"] for c in json.loads(out.read_text())
            ["certificates"]] == [True]
    assert [c["full_g1"] for c in json.loads(ck.read_text())
            ["0,0,1,0|1"]] == [True]
