import json

import pytest
from hypothesis import given, settings, strategies as st

from e510.cli import ConfigError, _parse_mu, _parse_range, main
from e510.sl5_reps import parse_weight


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
    # a negative budget selects no module and would report success
    assert main(["classify", "--budget", "-1"]) == 2
    assert main(["sweep", "--budget", "-1", "--degree", "1"]) == 2
    assert main(["sweep", "--budget", "0", "--degree", "1"]) == 0
    capsys.readouterr()


def test_deeply_nested_certificate_file_exits_two(tmp_path, capsys):
    certs = tmp_path / "certs.json"
    certs.write_text("[" * 100000 + "]" * 100000)
    assert main(["dual", "--from-certs", str(certs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "certificate" in err


def test_negative_catalog_parameters_exit_two(capsys):
    for argv in (["--family", "1A", "--m=-1..0"],
                 ["--family", "1C", "--n=-2"]):
        assert main(["verify-catalog"] + argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def test_parameter_the_family_does_not_take_exits_two(tmp_path, capsys):
    # 4E takes n only, 2CA takes none: an explicit --m (or --n for 2CA)
    # used to be ignored, checking m = 0 and exiting 0
    for argv in (["--family", "4E", "--m", "5"],
                 ["--family", "2CA", "--n", "0"],
                 ["--family", "2CA", "--m", "0..2"]):
        assert main(["verify-catalog"] + argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "takes no parameter" in captured.err
    out = tmp_path / "rep.json"
    assert main(["verify-catalog", "--family", "4E", "--n", "1",
                 "--format", "json", "--output", str(out)]) == 0
    assert [(r["m"], r["n"]) for r in json.loads(out.read_text())["records"]
            ] == [(0, 1)]


def test_omega_flags_with_another_suite_exit_two(capsys):
    # --max-d, --samples and --seed steer only the omega suite; with
    # another suite they used to be ignored and the run exited 0
    for suite in ("structure", "fundamental"):
        for argv in (["--max-d", "0"], ["--samples", "5"], ["--seed", "3"]):
            assert main(["identities", "--suite", suite] + argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and "--suite omega only" in captured.err


def test_sweep_budget_with_mu_exits_two(tmp_path, capsys):
    # the listed modules are swept whatever the budget; --budget 0 used to
    # search coordinate sum 1 and report "budget": 0
    assert main(["sweep", "--mu", "0,0,0,1", "--budget", "0",
                 "--degree", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--budget" in captured.err
    out = tmp_path / "rep.json"
    assert main(["sweep", "--mu", "0,0,0,1", "--degree", "1", "--format",
                 "json", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["budget"] == 3


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


def test_tampered_checkpoint_vectors_exit_two(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    argv = ["sweep", "--budget", "1", "--degree", "1", "--format", "json",
            "--checkpoint", str(ck)]
    assert main(argv + ["--output", str(tmp_path / "a.json")]) == 0
    saved = json.loads(ck.read_text())
    # the first term of the first vector of a cell, rewritten: p1 has
    # degree 2, d13 another weight, p1^-1 d12 d13 d14 a negative exponent,
    # F(0,0,0,0) has the one index 0, and the F(0,0,0,1) vector with one
    # coefficient changed stays in its block but is not singular
    for cell, field, value in (("0,0,0,0|1", "monomial", "p1"),
                               ("0,0,0,0|1", "monomial", "d13"),
                               ("0,0,0,0|1", "monomial", "p1^-1 d12 d13 d14"),
                               ("0,0,0,0|1", "index", 1),
                               ("0,0,0,0|1", "index", -1),
                               ("0,0,0,1|1", "coeff", "7")):
        state = json.loads(json.dumps(saved))
        state[cell][0]["vectors"][0][0][field] = value
        ck.write_text(json.dumps(state))
        assert main(argv) == 2, (cell, field, value)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: checkpoint ")
        assert "cell %s " % cell in captured.err


def test_entry_cap_too_small_exits_two(capsys):
    # every command's first block holds more than one entry
    for argv in (["search", "--mu", "0,0,0,1", "--degree", "1"],
                 ["sweep", "--mu", "0,0,0,1", "--degree", "1"],
                 ["classify", "--budget", "1", "--max-degree", "1"],
                 ["dual", "--mu", "0,0,0,1", "--degree", "1",
                  "--weight", "1,0,0,0"],
                 ["s5-baseline"]):
        assert main(argv + ["--entry-cap", "1"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "raise the cap" in captured.err


def test_entry_cap_below_one_exits_two_before_any_search(monkeypatch,
                                                        capsys):
    # the cap is checked when the arguments are read, so no block is built
    from e510.verma import InducedModule

    def no_blocks(module, d):
        raise AssertionError("a search block was built")

    monkeypatch.setattr(InducedModule, "weight_blocks", no_blocks)
    for argv in (["search", "--mu", "0,0,0,1", "--degree", "1"],
                 ["sweep", "--mu", "0,0,0,1", "--degree", "1"],
                 ["classify", "--budget", "1", "--max-degree", "1"],
                 ["dual", "--mu", "0,0,0,1", "--degree", "1",
                  "--weight", "1,0,0,0"],
                 ["s5-baseline"]):
        for cap in ("-5", "0"):
            assert main(argv + ["--entry-cap", cap]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == \
                "error: --entry-cap must be positive: %s\n" % cap, argv


def test_unwritable_output_exits_two(tmp_path, capsys):
    # the report cannot be written: a missing directory, and a directory
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        argv = ["search", "--mu", "0,0,0,1", "--degree", "1",
                "--output", str(out)]
        assert main(argv) == 2, out
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_skip_g1_gives_the_same_records(tmp_path):
    argv = ["verify-catalog", "--family", "1A", "--m", "0..1", "--n", "0",
            "--format", "json", "--output"]
    full, skip = tmp_path / "full.json", tmp_path / "skip.json"
    assert main(argv + [str(full)]) == 0
    assert main(argv + [str(skip), "--skip-g1"]) == 0
    records = json.loads(full.read_text())["records"]
    assert len(records) == 2 and all(r["ok"] for r in records)
    assert json.loads(skip.read_text())["records"] == records


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
    # well-formed JSON whose certificates are not certificates of their cell
    search = ["search", "--mu", "0,0,0,0", "--degree", "1",
              "--checkpoint", str(ck), "--format", "json"]
    classify = ["classify", "--budget", "0", "--max-degree", "1",
                "--checkpoint", str(ck)]
    for cert in ({"full_g1": False}, {"full_g1": False, "weight": "x"}):
        ck.write_text(json.dumps({"0,0,0,0|1": [cert]}))
        for argv in (search, classify):
            assert main(argv) == 2, (cert, argv)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert "checkpoint" in captured.err
    ck.unlink()
    assert main(search) == 0
    assert json.loads(ck.read_text()) == {"0,0,0,0|1": [_good_cert()]}
    capsys.readouterr()
    bad = [("algebra", "S5"), ("mu", "0,0,0,1"), ("degree", 2),
           ("degree", True), ("weight", "0,1"), ("weight", 7),
           ("block_dim", "1"), ("kernel_dim", 2), ("vectors", "x"),
           ("vectors", [{"monomial": "d12"}]),
           ("vectors", [[{"monomial": "q", "index": 0, "coeff": "1"}]]),
           ("vectors", [[{"monomial": "d12", "index": 0, "coeff": "1/0"}]]),
           ("full_g1", 0)]
    for field, value in bad:
        cert = _good_cert()
        cert[field] = value
        ck.write_text(json.dumps({"0,0,0,0|1": [cert]}))
        assert main(search) == 2, (field, value)
        assert "checkpoint" in capsys.readouterr().err
    ck.write_text(json.dumps({"0,0,0,0|2": [_good_cert()]}))
    assert main(search) == 2
    assert "checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("forge", [
    # a certificate with no vector, at a weight with no block
    lambda cert: [dict(cert, weight="3,3,3,3", block_dim=999, kernel_dim=0,
                       vectors=[])],
    # the real vector under a block_dim its weight space does not have
    lambda cert: [dict(cert, block_dim=999)],
    # the real certificate twice, which would report it twice
    lambda cert: [cert, cert],
], ids=["no_vectors", "wrong_block_dim", "duplicated"])
def test_forged_checkpoint_cell_exits_two(tmp_path, capsys, forge):
    ck, a, b = (tmp_path / n for n in ("ck.json", "a.json", "b.json"))
    argv = ["sweep", "--mu", "0,0,0,1", "--degree", "1", "--format", "json",
            "--checkpoint", str(ck)]
    assert main(argv + ["--output", str(a)]) == 0
    saved = ck.read_text()
    [cert] = json.loads(saved)["0,0,0,1|1"]
    ck.write_text(json.dumps({"0,0,0,1|1": forge(cert)}))
    assert main(argv + ["--output", str(b)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not b.exists()
    assert captured.err.startswith("error: checkpoint ")
    # the honest checkpoint resumes to the fresh report, byte for byte
    ck.write_text(saved)
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _good_cert():
    """The certificate search --mu 0,0,0,0 --degree 1 saves."""
    return {"algebra": "E(5,10)", "mu": "0,0,0,0", "degree": 1,
            "weight": "0,1,0,0", "block_dim": 1, "kernel_dim": 1,
            "vectors": [[{"monomial": "d12", "index": 0, "coeff": "1"}]],
            "tool_version": "0.1.0", "full_g1": False}


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=8), kids, max_size=3),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    _JSON.map(json.dumps),
    st.dictionaries(st.sampled_from(["0,0,0,0|1", "0,0,0,0|x", "1|1"]),
                    st.lists(st.dictionaries(
                        st.sampled_from(sorted(_good_cert())), _JSON,
                        max_size=9), max_size=2),
                    max_size=2).map(json.dumps),
    st.text(max_size=20)))
def test_load_checkpoint_fuzz(tmp_path_factory, text):
    ck = tmp_path_factory.mktemp("ck") / "ck.json"
    ck.write_text(text, encoding="utf-8", errors="surrogatepass")
    code = main(["search", "--mu", "0,0,0,0", "--degree", "1",
                 "--checkpoint", str(ck), "--format", "json",
                 "--output", str(ck.with_suffix(".out"))])
    assert code in (0, 2)


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


def test_unparsable_numbers_exit_two(tmp_path, capsys):
    for argv in (["search", "--mu", "0,0,0,1", "--degree", "x"],
                 ["search", "--mu", "0,0,0,1", "--degree", "1..x"],
                 ["verify-catalog", "--m", "a"],
                 ["dual", "--mu", "0,0,0,1", "--degree", "x",
                  "--weight", "0,0,1,0"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: ")
    certs = tmp_path / "certs.json"
    for text in ("{x", '[{"mu": "0,0,0,1"}]', "3", '[{"mu": 1}]',
                 '[{"mu": "0,0,0,1", "degree": 1, "weight": "0,1"}]',
                 # objects without a certificates list, such as a complexes
                 # report, would pass with no check
                 "{}", json.dumps({"command": "complexes", "identities": [],
                                   "pairs": [], "ok": True})):
        certs.write_text(text)
        assert main(["dual", "--from-certs", str(certs)]) == 2, text
        assert capsys.readouterr().err.startswith("error: ")
    # an empty search report is a valid input
    certs.write_text(json.dumps({"command": "search", "certificates": []}))
    assert main(["dual", "--from-certs", str(certs), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == []
    # no form word or a negative sample count would check nothing
    for argv in (["--max-d", "0"], ["--max-d", "-1"], ["--samples", "-1"]):
        assert main(["identities", "--suite", "omega"] + argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: ")


def test_dual_without_e510_certificates_exits_two(tmp_path, capsys):
    # certificates that all name another algebra leave nothing to check
    certs = tmp_path / "certs.json"
    s5_cert = {"algebra": "S5", "mu": "1,0,0,0", "degree": 2,
               "weight": "0,0,0,0"}
    for data in ([s5_cert], {"command": "search",
                             "certificates": [s5_cert, s5_cert]}):
        certs.write_text(json.dumps(data))
        assert main(["dual", "--from-certs", str(certs)]) == 2, data
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no E(5,10) certificate" in captured.err
    # one E(5,10) certificate among them is checked
    e510_cert = dict(s5_cert, algebra="E(5,10)", mu="0,0,0,1",
                     weight="1,1,0,0")
    certs.write_text(json.dumps([s5_cert, e510_cert]))
    assert main(["dual", "--from-certs", str(certs), "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["checks"]) == 1


def test_degree_zero_rejected(tmp_path, capsys):
    certs = tmp_path / "certs.json"
    certs.write_text(
        '[{"mu": "0,0,0,1", "degree": 0, "weight": "0,0,0,1"}]')
    for argv in (["search", "--mu", "0,0,0,1", "--degree", "0"],
                 ["search", "--mu", "0,0,0,1", "--degree", "0..1"],
                 ["sweep", "--budget", "0", "--degree", "0"],
                 ["classify", "--budget", "1", "--max-degree", "0"],
                 ["classify", "--budget", "1", "--max-degree", "-2"],
                 ["dual", "--mu", "0,0,0,1", "--degree", "0",
                  "--weight", "0,0,0,1"],
                 ["dual", "--from-certs", str(certs)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "positive" in captured.err


def test_weight_with_checkpoint_rejected(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    assert main(["search", "--mu", "0,0,0,1", "--degree", "1",
                 "--weight", "1,0,0,0", "--checkpoint", str(ck)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not ck.exists()


def test_recheck_failure_exits_one(monkeypatch, capsys):
    from e510.verma import VermaModule
    monkeypatch.setattr(VermaModule, "is_singular",
                        lambda self, elem, full_g1=False: False)
    assert main(["search", "--mu", "0,0,1,0", "--degree", "1",
                 "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: kernel vector fails")
    assert "full_g1=False" in captured.err
    assert "mu=0,0,1,0 d=1 nu=0,0,0,0" in captured.err


def test_recheck_failure_names_the_condition(monkeypatch, capsys):
    # a block column that is not a singular vector, handed over as the
    # kernel: its first nonzero image is under e2
    from e510 import singular_search
    from e510.scalars import Q
    monkeypatch.setattr(singular_search, "kernel_basis",
                        lambda rows, column_order, entry_cap=None: [{0: Q(1)}])
    assert main(["search", "--mu", "0,0,1,0", "--degree", "1",
                 "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: kernel vector fails")
    assert captured.err.endswith(
        "at mu=0,0,1,0 d=1 nu=0,0,0,0: condition e2 does not kill it\n")


def test_recheck_failure_names_x5d45(monkeypatch, capsys):
    # without the x5d45 builder the kernel is the block's highest weight
    # vectors, which x5d45 does not kill
    from e510.verma import VermaModule
    builders = VermaModule.condition_rows

    def e_builders(module, block):
        return [(label, build) for label, build in builders(module, block)
                if label != "x5d45"]

    monkeypatch.setattr(VermaModule, "condition_rows", e_builders)
    assert main(["search", "--mu", "1,0,0,0", "--degree", "1",
                 "--format", "json"]) == 1
    assert capsys.readouterr().err.endswith(
        "nu=0,0,1,0: condition x5d45 does not kill it\n")


def test_recheck_failure_names_the_g1_element(monkeypatch, capsys):
    # with no positive generator among the conditions only the --full-g1
    # sweep sees the failure, and names the g1_basis() element
    from e510.verma import VermaModule
    monkeypatch.setattr(VermaModule, "POSITIVE", ())
    argv = ["search", "--mu", "1,0,0,0", "--degree", "1", "--format", "json"]
    assert main(argv + ["--full-g1"]) == 1
    assert capsys.readouterr().err.endswith(
        "full_g1=True) at mu=1,0,0,0 d=1 nu=0,0,1,0: "
        "condition g1[0] does not kill it\n")


_NUMBERISH = st.one_of(st.text(max_size=8),
                       st.text(alphabet="0123456789.,-+ x_", max_size=8))


@settings(max_examples=300, deadline=None)
@given(_NUMBERISH)
def test_parse_range_fuzz(text):
    try:
        got = _parse_range(text)
    except ConfigError:
        return
    assert got and all(isinstance(d, int) for d in got)


@settings(max_examples=300, deadline=None)
@given(_NUMBERISH)
def test_parse_weight_fuzz(text):
    try:
        got = parse_weight(text)
    except ValueError:
        return
    assert len(got) == 4 and all(isinstance(x, int) for x in got)
