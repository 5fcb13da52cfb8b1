"""Tests for the batch driver: config handling, reports, reproducibility.

Pinned numbers here repeat frozen fixtures from the module test suites
(entanglement fidelity, pipeline Bell values, table optima); the CLI must
surface them unchanged.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from bellforge import cli
from bellforge import serialize as sz
from bellforge.protocols import (
    CommProtocol, TruthTable, builtin_qrac, random_protocol,
    success_probability,
)
from bellforge.states import Povm, random_unitary

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def member3_protocol_file(tmp_path) -> str:
    """Corpus member whose memoryless form has three rounds, with legs
    [2, 4, 4, 8, 8]."""
    rng = np.random.default_rng(7)
    corpus = [random_protocol(rng, rounds=int(rng.integers(1, 3)), n=1,
                              max_qubits=2) for _ in range(20)]
    path = tmp_path / "member3.json"
    path.write_text(sz.dumps_canonical(sz.protocol_to_dict(corpus[3])))
    return str(path)


def one_round_protocol_doc(a0, anc, msg, mem) -> dict:
    """A valid one-round qrac-table protocol with Alice's start memory
    `a0`, ancilla `anc`, message `msg` and kept memory `mem`, as a
    document."""
    truth = builtin_qrac().truth
    rng = np.random.default_rng(0)
    inputs = range(truth.num_inputs)
    proj = np.diag([1.0] + [0.0] * (msg - 1))
    return sz.protocol_to_dict(CommProtocol(
        truth=truth, rounds=1, a0_dim=a0, b0_dim=1, m_out_dims=(msg,),
        m_back_dims=(), a_dims=(mem,), b_dims=(), anc_a_dims=(anc,),
        anc_b_dims=(),
        alice_ops=({v: random_unitary(a0 * anc, rng) for v in inputs},),
        bob_ops=(),
        observables={y: Povm([proj, np.eye(msg) - proj]) for y in inputs}))


def spy_one_way(monkeypatch, *modules) -> list:
    """Record the budget of every one-way search made through `modules`."""
    from bellforge import classicalcc
    searched = []
    search = classicalcc.best_success_one_way

    def counting(t, bits):
        searched.append(bits)
        return search(t, bits)

    for module in modules:
        monkeypatch.setattr(module, "best_success_one_way", counting)
    return searched


def assert_same_results(got, want, where):
    """Floats within 1e-12, everything else equal, at every nesting."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_same_results(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_results(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12, where
    else:
        assert type(got) is type(want) and got == want, where


class TestConfigHandling:
    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "command is required" in err

    @pytest.mark.parametrize("cmd,value", [("bell-certify", "abc"),
                                           ("oneway", "0")])
    def test_bad_thread_count_is_usage_error(self, capsys, monkeypatch,
                                             cmd, value):
        monkeypatch.setenv("BELLFORGE_THREADS", value)
        code, out, err = run_cli(capsys, cmd)
        assert code == 1
        assert out == ""
        assert err.startswith("error: BELLFORGE_THREADS")

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"portz": [2]}')
        code, _, err = run_cli(capsys, "pbt-bench", "--config", str(cfg))
        assert code == 1
        assert "unknown config key" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "cc", "--config", "/nonexistent.json")
        assert code == 1
        assert "not found" in err

    def test_command_mismatch_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"command": "cc"}')
        code, _, err = run_cli(capsys, "oneway", "--config", str(cfg))
        assert code == 1

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"seed": 3}')
        code, out, _ = run_cli(capsys, "bell-certify", "--config", str(cfg),
                               "--seed", "5")
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 5

    def test_mode_rejected_outside_certify(self, capsys):
        code, _, err = run_cli(capsys, "cc", "--mode", "exact")
        assert code == 1
        assert "--mode" in err
        code, _, err = run_cli(capsys, "pbt-bench", "--seed", "5")
        assert code == 1
        assert "--seed" in err

    def test_missing_out_directory(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "cc", "--out", "/no/such/dir/r.json")
        assert code == 1
        assert "output directory" in err
        # An existing directory is refused before any work, not at the
        # final rename.
        for out in (str(tmp_path), f"{tmp_path}/new/", f"{tmp_path}/."):
            code, out_text, err = run_cli(capsys, "cc", "--out", out)
            assert (code, out_text) == (1, "")
            assert "not a directory" in err
        assert os.listdir(tmp_path) == []

    def test_bad_format_flag(self, capsys):
        code, _, err = run_cli(capsys, "cc", "--format", "xml")
        assert code == 1

    SWEEP = "bellforge-oneway-sweep"
    # An n whose 2**n no machine could hold.
    HUGE_N_TRUTH = {"n": 10 ** 12, "f": [[0, 1], [1, 0]],
                    "mu": [[0.25, 0.25], [0.25, 0.25]]}
    QRAC_DOC = sz.protocol_to_dict(builtin_qrac())
    EQ1_TRUTH = {"n": 1, "f": [[1, 0], [0, 1]],
                 "mu": [[0.25, 0.25], [0.25, 0.25]]}
    OBS = QRAC_DOC["observables"]

    @pytest.mark.parametrize("cmd,cfg,files", [
        ("pbt-bench", {"tolerances": {"povm_completeness": "abc"}}, {}),
        ("pbt-bench", {"tolerances": {"povm_positivity": float("nan")}}, {}),
        ("pbt-bench", {"tolerances": {"povm_complete": 1e-30}}, {}),
        ("pbt-bench", {"tolerances": {"povm_positivity": -1e-9}}, {}),
        ("cc", {"tolerances": {"anything": 5}}, {}),
        ("bell-certify", {"seed": True}, {}),
        ("pbt-bench", {"ports": [True]}, {}),
        ("bell-certify", {"trials": True}, {}),
        ("bell-certify", {"schedule": [True]}, {}),
        ("cc", {"bits": True}, {}),
        ("oneway", {"k": True}, {}),
        ("oneway", {"sweep_file": "s.json"}, {"s.json": [1, 2]}),
        ("oneway", {"sweep_file": "s.json"},
         {"s.json": {"format": SWEEP, "boxes": [1, 2]}}),
        ("oneway", {"sweep_file": "s.json"},
         {"s.json": {"format": SWEEP,
                     "boxes": [{"flag": 1, "answer": [0, 0, 0, 0]}]}}),
        ("oneway", {"sweep_file": "s.json"},
         {"s.json": {"format": SWEEP, "boxes": "deterministic",
                     "deltas": []}}),
        ("oneway", {"sweep_file": "s.json"},
         {"s.json": {"format": SWEEP, "boxes": "deterministic",
                     "deltas": [5e-324]}}),
        ("oneway", {"deltas": [5e-324]}, {}),
        ("oneway", {"k": 1e308}, {}),
        ("cc", {"function": "t.json"}, {"t.json": [1, 2]}),
        ("cc", {"function": "t.json"}, {"t.json": HUGE_N_TRUTH}),
        ("bell-certify", {"protocol": "p.json"}, {"p.json": [1, 2]}),
        ("bell-certify", {"protocol": "p.json"},
         {"p.json": {**QRAC_DOC, "truth": HUGE_N_TRUTH}}),
        ("cc", {"function": "t.json"}, {"t.json": {**EQ1_TRUTH, "n": 1.5}}),
        ("cc", {"function": "t.json"}, {"t.json": {**EQ1_TRUTH, "n": True}}),
        ("bell-certify", {"protocol": "p.json"},
         {"p.json": {**QRAC_DOC, "rounds": 1.0}}),
        ("bell-certify", {"protocol": "p.json"},
         {"p.json": {**QRAC_DOC, "registers": {
             **QRAC_DOC["registers"], "m_out_dims": [2.7]}}}),
        ("bell-certify", {"protocol": "p.json"},
         {"p.json": {**QRAC_DOC, "epsilon": "0.25"}}),
        ("bell-certify", {"protocol": "p.json"},
         {"p.json": {**QRAC_DOC, "observables": [
             [{**OBS[0][0], "data": [str(v) for v in OBS[0][0]["data"]]},
              OBS[0][1]], *OBS[1:]]}}),
        ("bell-certify", {"protocol": "p.json"},
         {"p.json": {**QRAC_DOC, "observables": [
             [{**OBS[0][0], "data": [10 ** 400] + OBS[0][0]["data"][1:]},
              OBS[0][1]], *OBS[1:]]}}),
        ("bell-certify", {"protocol": "p.json"},
         {"p.json": {**QRAC_DOC, "observables": [
             [{**OBS[0][0], "data": [float("nan")] + OBS[0][0]["data"][1:]},
              OBS[0][1]], *OBS[1:]]}}),
        ("cc", {"function": "t.json"},
         {"t.json": {**EQ1_TRUTH, "f": [[0.6, 0], [0, 1]]}}),
    ], ids=["tolerance-string", "tolerance-nan", "tolerance-misspelled",
            "tolerance-negative", "tolerance-outside-pbt-bench",
            "seed-bool", "ports-bool",
            "trials-bool", "schedule-bool", "bits-bool", "k-bool",
            "sweep-array", "sweep-box-not-object", "sweep-flag-not-list",
            "sweep-deltas-empty", "sweep-delta-reciprocal-overflows",
            "delta-reciprocal-overflows", "k-batch-size-overflows",
            "truth-table-array", "truth-table-huge-n", "protocol-array",
            "protocol-huge-n", "truth-table-float-n", "truth-table-bool-n",
            "protocol-float-rounds", "protocol-float-dim",
            "protocol-string-epsilon", "protocol-string-data",
            "protocol-huge-data", "protocol-nan-data",
            "truth-table-fractional-f"])
    def test_malformed_input_is_usage_error(self, capsys, tmp_path, cmd,
                                            cfg, files):
        for name, doc in files.items():
            (tmp_path / name).write_text(json.dumps(doc))
        cfg = {k: str(tmp_path / v) if isinstance(v, str) and v in files
               else v for k, v in cfg.items()}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, cmd, "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


class TestPbtBench:
    def test_default_report(self, capsys):
        code, out, _ = run_cli(capsys, "pbt-bench")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        rows = doc["results"]["rows"]
        assert [r["ports"] for r in rows] == list(range(1, 9))
        by_ports = {r["ports"]: r for r in rows}
        assert by_ports[1]["fidelity"] == pytest.approx(0.25, abs=1e-12)
        assert by_ports[1]["bound_vacuous"] is True
        assert by_ports[8]["fidelity"] == pytest.approx(
            0.901258535738439, abs=1e-12)
        for n in (5, 6, 7, 8):
            assert by_ports[n]["bound_vacuous"] is False
            assert by_ports[n]["bound_holds"] is True
            assert by_ports[n]["fidelity"] >= 1.0 - 4.0 / n
        for r in rows:
            assert r["povm_completeness_dev"] <= 1e-9
            assert r["povm_min_eigenvalue"] >= -1e-10
            assert r["method"] == "exact"
        assert doc["results"]["all_bounds_hold"] is True

    def test_csv_format(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"ports": [1, 2]}')
        code, out, _ = run_cli(capsys, "pbt-bench", "--config", str(cfg),
                               "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("ports,dimension,fidelity,bound")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "1"
        assert lines[1].split(",")[4] == "true"

    def test_cap_exceeded_is_exit_two_with_reason(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"ports": [12]}')
        code, out, err = run_cli(capsys, "pbt-bench", "--config", str(cfg))
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["code"] == "cap_exceeded"
        assert "exceeds" in doc["error"]["reason"]

    def test_huge_port_count_is_cap_exceeded(self, capsys, tmp_path):
        """The cap check never forms d^(2N+2) for a huge N."""
        cfg = tmp_path / "c.json"
        cfg.write_text('{"ports": [1000000000000]}')
        code, out, err = run_cli(capsys, "pbt-bench", "--config", str(cfg))
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["code"] == "cap_exceeded"
        assert "2^2000000000002 exceeds" in doc["error"]["reason"]

    def test_empty_ports_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"ports": []}')
        code, _, err = run_cli(capsys, "pbt-bench", "--config", str(cfg))
        assert code == 1


class TestBellCertify:
    def test_qrac_eight_ports(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"schedule": [8]}')
        code, out, _ = run_cli(capsys, "bell-certify", "--config", str(cfg))
        assert code == 0
        res = json.loads(out)["results"]
        assert res["bell"]["value"] == pytest.approx(
            0.8070062179508479, abs=1e-12)
        assert res["verdict"] == "NOT-VIOLATED"
        assert res["budget"]["budget_bits"] == pytest.approx(3.0)
        assert res["budget"]["classical_need_bits"] == 2
        assert "budget_bits=3 >= classical_need=2" in res["explanation"]
        assert res["classical"]["used"] == "exact"
        assert res["classical"]["exact"]["delta"] == pytest.approx(0.5)
        with open(os.path.join(REPO, "docs", "examples", "v1",
                               "report_bell_certify.json")) as fh:
            shipped = json.load(fh)["results"]
        assert_same_results(res, shipped, "results")

    def test_constant_protocol_degenerate(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"protocol": "builtin:const1"}')
        code, out, _ = run_cli(capsys, "bell-certify", "--config", str(cfg))
        assert code == 0
        res = json.loads(out)["results"]
        assert res["bell"]["value"] == pytest.approx(1.0, abs=1e-12)
        assert res["classical"]["exact"]["delta"] == pytest.approx(0.5)
        assert res["verdict"] == "NOT-VIOLATED"

    def test_missing_protocol_file(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"protocol": "/no/such/protocol.json"}')
        code, _, err = run_cli(capsys, "bell-certify", "--config", str(cfg))
        assert code == 1
        assert "not found" in err

    def test_schedule_length_mismatch(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"schedule": [2, 2]}')
        code, _, err = run_cli(capsys, "bell-certify", "--config", str(cfg))
        assert code == 1
        assert "schedule needs 1 entries" in err

    def test_three_rounds_run_exact(self, capsys, tmp_path):
        proto = member3_protocol_file(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"protocol": proto}))
        code, out, _ = run_cli(capsys, "bell-certify", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["pipeline"]["memoryless_rounds"] == 3
        assert doc["results"]["pipeline"]["legs"] == [2, 4, 4, 8, 8]
        assert not any("downgraded" in w for w in doc["warnings"])
        assert doc["config"]["mode"] == "exact"
        assert doc["results"]["bell"]["method"] == "exact"
        # Five levels: the local bound is the exact search's, not the
        # looser cc_derived one.
        classical = doc["results"]["classical"]
        assert classical["used"] == "exact"
        assert classical["exact"]["delta"] == pytest.approx(0.5, abs=1e-12)
        assert not any("enumeration skipped" in w for w in doc["warnings"])

    def test_sampled_run_needs_seed_and_tracks_exact(self, capsys, tmp_path):
        proto = member3_protocol_file(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"protocol": proto}))
        code, out, _ = run_cli(capsys, "bell-certify", "--config", str(cfg))
        assert code == 0
        exact = json.loads(out)["results"]["bell"]["value"]
        args = ["bell-certify", "--config", str(cfg), "--mode", "sampled"]
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert "requires --seed" in err
        code, out, _ = run_cli(capsys, *args, "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["trials"] == 10000
        assert doc["results"]["bell"]["method"] == "sampled"
        # Each pair's sampled mean has standard deviation at most
        # 1/(2 sqrt(trials)), so the mu-weighted value does too; allow six.
        tol = 6.0 / (2.0 * np.sqrt(doc["config"]["trials"]))
        assert abs(doc["results"]["bell"]["value"] - exact) <= tol

    def test_oversized_alphabet_is_not_downgraded(self, capsys, tmp_path):
        # Both modes refuse the alphabet, so exact mode is kept and the
        # cap is reported without asking for a seed.
        cfg = tmp_path / "c.json"
        cfg.write_text('{"schedule": [40000]}')
        code, out, _ = run_cli(capsys, "bell-certify", "--config", str(cfg))
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["code"] == "cap_exceeded"
        assert doc["config"]["mode"] == "exact"

    @pytest.mark.parametrize("dims,bad", [((3, 1, 3, 1), "message 0"),
                                          ((3, 2, 2, 3), "a0_dim")],
                             ids=["message-3", "memory-3"])
    def test_non_power_of_two_register_is_usage_error(self, capsys, tmp_path,
                                                      dims, bad):
        proto = tmp_path / "p.json"
        proto.write_text(sz.dumps_canonical(one_round_protocol_doc(*dims)))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"protocol": str(proto)}))
        code, out, err = run_cli(capsys, "bell-certify", "--config", str(cfg))
        assert code == 1
        assert out == "" and "Traceback" not in err
        assert err.startswith(f"error: {bad}: dimension 3 is not a power")

    def test_huge_trials_refused(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mode": "sampled", "trials": 10 ** 12,
                                   "seed": 1}))
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "bell-certify", "--config", str(cfg))
        assert time.monotonic() - start < 5.0
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["code"] == "cap_exceeded"
        assert "trials" in doc["error"]["reason"]


class TestOneway:
    def test_qrac_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "oneway")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["p_a"]["value"] == pytest.approx(0.5, abs=1e-12)
        assert res["p_b"]["value"] == pytest.approx(
            0.8535533905932737, abs=1e-12)
        assert len(res["checks"]) == 4
        for chk in res["checks"]:
            assert chk["holds"] is True
            assert chk["heuristic_violated"] is True
        assert res["merged_linear"]["bell_value"] == pytest.approx(
            0.7651650429449554, abs=1e-12)

    def test_deterministic_box_sweep(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sweep_file": os.path.join(
            REPO, "docs", "examples", "v1", "sweep_deterministic.json")}))
        code, out, _ = run_cli(capsys, "oneway", "--config", str(cfg))
        assert code == 0
        sweep = json.loads(out)["results"]["sweep"]
        assert sweep["boxes"] == 256
        assert sweep["all_hold"] is True
        assert sweep["failures"] == 0

    def test_sweep_searches_each_budget_once(self, capsys, monkeypatch):
        # One oracle serves every check, the observation bound, the merged
        # linear test's index budget and all 256 boxes x 4 deltas of the
        # sweep: budgets 0..2 once each.
        from bellforge import classicalcc
        searched = spy_one_way(monkeypatch, classicalcc)
        cfg = os.path.join(REPO, "docs", "examples", "v1",
                           "oneway_sweep.config.json")
        monkeypatch.chdir(REPO)
        code, out, _ = run_cli(capsys, "oneway", "--config", cfg)
        assert code == 0
        assert json.loads(out)["results"]["sweep"]["boxes"] == 256
        assert searched == [0, 1, 2]

    @pytest.mark.parametrize("boxes,deltas,cap,code", [
        ("deterministic", 4097, None, 2),  # 256 x 4097 = 1,048,832 checks
        ("deterministic", 4, 1024, 0),  # the shipped sweep, at the cap
        ("deterministic", 5, 1024, 2),
        ("list", 2, 5, 2),  # 3 boxes x 2 deltas
    ], ids=["real-cap", "at-cap", "over-cap", "box-list"])
    def test_sweep_check_cap(self, capsys, monkeypatch, tmp_path, boxes,
                             deltas, cap, code):
        # Boxes x deltas over SWEEP_CHECK_CAP is refused with exit 2 and
        # the count, before any check runs: neither a single check nor the
        # sweep's array kernel is called.
        from bellforge import bell
        if cap is not None:
            monkeypatch.setattr(cli, "SWEEP_CHECK_CAP", cap)
        calls = []
        for name in ("nonlinear_bell_check", "_nonlinear_box_sweep"):
            real = getattr(bell, name)
            monkeypatch.setattr(bell, name, lambda *a, real=real, name=name:
                                calls.append(name) or real(*a))
        if boxes == "list":
            boxes = [{"flag": [1, 0, 0, 0], "answer": [0, 0, 0, 0]}] * 3
        sweep = {"format": "bellforge-oneway-sweep", "boxes": boxes,
                 "deltas": [0.5 / (i + 1) for i in range(deltas)]}
        (tmp_path / "s.json").write_text(json.dumps(sweep))
        (tmp_path / "c.json").write_text(json.dumps(
            {"sweep_file": str(tmp_path / "s.json")}))
        got, out, _ = run_cli(capsys, "oneway", "--config",
                              str(tmp_path / "c.json"))
        assert got == code
        doc = json.loads(out)
        if code == 0:
            assert doc["results"]["sweep"]["boxes"] == 256
            assert calls.count("_nonlinear_box_sweep") == 1
            return
        count = 256 if boxes == "deterministic" else 3
        assert doc["error"]["code"] == "cap_exceeded"
        assert doc["error"]["reason"] == (
            f"sweep of {count} boxes x {deltas} deltas = {count * deltas} "
            f"checks exceeds {cli.SWEEP_CHECK_CAP}")
        assert calls == []

    @pytest.mark.parametrize("case,theta", [
        ("subnormal-flag-rate", None),
        ("success-past-one", 0.04100334448160536),
        ("flag-success-past-one", 0.5601503759398496)],
        ids=["subnormal-flag-rate", "success-past-one",
             "flag-success-past-one"])
    def test_degenerate_protocol_reports(self, tmp_path, case, theta):
        # A sweep box flagged only on a subnormal mu entry, where 1/p_a
        # overflows; and always-correct protocols (Bob's projector matches
        # Alice's rotated message) whose success, or flagged success, sums
        # to 1 + 1 ulp.  Each used to end in a traceback.
        cfg = {"command": "oneway", "protocol": str(tmp_path / "p.json")}
        if theta is None:
            with open(os.path.join(REPO, "docs", "examples", "v1",
                                   "protocol_qrac.json")) as fh:
                doc = json.load(fh)
            doc["truth"]["mu"] = [[1e-320, 0, 0, 0], [0, 0, 0, 0],
                                  [0.5, 0.5, 0, 0], [0, 0, 0, 0]]
            sweep = {"format": "bellforge-oneway-sweep", "boxes": [
                {"flag": [1, 0, 0, 0], "answer": [0, 0, 0, 0]}]}
            (tmp_path / "s.json").write_text(json.dumps(sweep))
            cfg["sweep_file"] = str(tmp_path / "s.json")
        else:
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            proj = np.outer(rot[:, 0], rot[:, 0])
            proto = CommProtocol(
                truth=TruthTable(n=1, f=np.array([[0, 0], [1, 1]]),
                                 mu=np.full((2, 2), 0.25)),
                rounds=1, a0_dim=2, b0_dim=1, m_out_dims=(2,),
                m_back_dims=(), a_dims=(1,), b_dims=(), anc_a_dims=(1,),
                anc_b_dims=(), alice_ops=({0: rot, 1: rot[:, ::-1]},),
                bob_ops=(), observables={
                    y: Povm([proj, np.eye(2) - proj]) for y in (0, 1)})
            doc = sz.protocol_to_dict(proto)
        (tmp_path / "p.json").write_text(json.dumps(doc))
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "bellforge", "oneway", "--config",
             str(tmp_path / "c.json")],
            cwd=REPO, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        res = json.loads(proc.stdout)["results"]
        if theta is None:
            assert res["sweep"]["all_hold"] is True
            assert res["sweep"]["worst_margin_bits"] == "Infinity"
        elif case == "success-past-one":
            assert success_probability(proto) == 1.0000000000000002
            assert res["observation_qubit_bound"]["value"] == -1.0
        else:
            assert res["p_b"]["value"] == 1.0000000000000002
            assert all(chk["holds"] for chk in res["checks"])

    def test_delta_outside_unit_interval(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"deltas": [1.5]}')
        code, _, err = run_cli(capsys, "oneway", "--config", str(cfg))
        assert code == 1

    def test_multi_round_protocol_rejected(self, capsys, tmp_path):
        proto = member3_protocol_file(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"protocol": proto}))
        code, _, err = run_cli(capsys, "oneway", "--config", str(cfg))
        assert code == 1
        assert "one-round" in err

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "oneway", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("delta,target,lhs_bits,rhs_bits,holds")
        assert len(lines) == 5


class TestCc:
    def test_huge_bits_refused_quickly(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"bits": 10 ** 12}))
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "cc", "--config", str(cfg))
        assert time.monotonic() - start < 5.0
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["code"] == "cap_exceeded"
        assert "rows" in doc["error"]["reason"]

    def test_qrac_table(self, capsys):
        code, out, _ = run_cli(capsys, "cc")
        assert code == 0
        res = json.loads(out)["results"]
        table = {row["bits"]: row["success"] for row in res["table"]}
        assert table == {0: 0.5, 1: 0.75, 2: 1.0}
        assert res["chernoff"]["repeats"] == 108
        assert all(row["holds"] for row in res["pumping"])

    def test_eq1_function(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"function": "eq1"}')
        code, out, _ = run_cli(capsys, "cc", "--config", str(cfg))
        assert code == 0
        table = {row["bits"]: row["success"]
                 for row in json.loads(out)["results"]["table"]}
        assert table == {0: 0.5, 1: 1.0}

    def test_truth_file(self, capsys, tmp_path):
        from bellforge.protocols import builtin_qrac
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(sz.truth_to_dict(builtin_qrac().truth)))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"function": str(path), "bits": 1}))
        code, out, _ = run_cli(capsys, "cc", "--config", str(cfg))
        assert code == 0
        table = {row["bits"]: row["success"]
                 for row in json.loads(out)["results"]["table"]}
        assert table == {0: 0.5, 1: 0.75}

    def test_too_many_input_bits(self, capsys, tmp_path):
        from bellforge.protocols import TruthTable
        t = TruthTable(n=4, f=np.zeros((16, 16), dtype=int),
                       mu=np.full((16, 16), 1.0 / 256.0))
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(sz.truth_to_dict(t)))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"function": str(path)}))
        code, _, err = run_cli(capsys, "cc", "--config", str(cfg))
        assert code == 1
        assert "n <= 3" in err

    def test_unknown_function_name(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"function": "majority9"}')
        code, _, err = run_cli(capsys, "cc", "--config", str(cfg))
        assert code == 1

    def test_targets_read_from_budget_table(self, capsys, tmp_path,
                                             monkeypatch):
        # Inner product on 3 bits with y = 0 left out: 1 bit reaches
        # 0.607 and 0.625 but not 2/3, which needs 2 bits.  Every target
        # must come from the 0..2-bit table, one search per budget.
        from bellforge import classicalcc
        from bellforge.protocols import TruthTable
        x = np.arange(8)
        f = np.array([[bin(a & b).count("1") % 2 for b in x] for a in x])
        mu = np.ones((8, 8))
        mu[:, 0] = 0.0
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(sz.truth_to_dict(
            TruthTable(n=3, f=f, mu=mu / mu.sum()))))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"function": str(path), "bits": 2}))
        searched = spy_one_way(monkeypatch, classicalcc)
        code, out, _ = run_cli(capsys, "cc", "--config", str(cfg))
        assert code == 0
        assert searched == [0, 1, 2]
        res = json.loads(out)["results"]
        assert [row["bits_at_target"] for row in res["pumping"]] == [1, 1, 2]
        assert all(row["bits_at_two_thirds"] == 2 for row in res["pumping"])

    def test_fallback_searches_each_budget_once(self, capsys, tmp_path,
                                                monkeypatch):
        # A 0-bit table reaches none of the targets; the fallback reads the
        # same memo, so 2/3 and the three pumping targets cost one search
        # of budget 1 between them.
        from bellforge import classicalcc
        searched = spy_one_way(monkeypatch, classicalcc)
        cfg = tmp_path / "c.json"
        cfg.write_text('{"bits": 0}')
        code, out, _ = run_cli(capsys, "cc", "--config", str(cfg))
        assert code == 0
        assert searched == [0, 1]
        res = json.loads(out)["results"]
        assert res["table"] == [
            {"bits": 0, "method": "cc_derived", "success": 0.5}]
        assert all(row["bits_at_target"] == 1 for row in res["pumping"])
        assert all(row["bits_at_two_thirds"] == 1 for row in res["pumping"])

    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "cc", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["bits,success", "0,0.5", "1,0.75",
                                    "2,1.0"]


def run_subprocess(args, out_path, threads, **env_extra):
    env = dict(os.environ, BELLFORGE_THREADS=str(threads), **env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "bellforge", *args, "--out", str(out_path)],
        env=env, cwd=REPO, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return out_path.read_bytes()


class TestReproducibility:
    def test_cc_bytes_across_thread_counts(self, tmp_path):
        a = run_subprocess(["cc"], tmp_path / "a.json", threads=1)
        b = run_subprocess(["cc"], tmp_path / "b.json", threads=4)
        assert a == b

    def test_sampled_certify_bytes_across_thread_counts(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schedule": [4], "mode": "sampled",
                                   "trials": 2000}))
        args = ["bell-certify", "--config", str(cfg), "--seed", "11"]
        a = run_subprocess(args, tmp_path / "a.json", threads=1)
        b = run_subprocess(args, tmp_path / "b.json", threads=3)
        # More threads than qrac's 16 input pairs: 15 start beside the
        # caller, one pair each.
        c = run_subprocess(args, tmp_path / "c.json", threads=17)
        assert a == b == c
        doc = json.loads(a)
        assert doc["results"]["bell"]["method"] == "sampled"

    def test_threaded_invariant_failure_is_exit_three(self, capsys,
                                                      monkeypatch, tmp_path):
        # An invariant failure in a started thread reaches the caller and
        # ends in the machine-readable report.  Pair (2, 3) is item 11 of
        # qrac's 16, so with two workers it runs off the calling thread.
        from bellforge import bell
        from bellforge.states import InvariantError
        simulate = bell._simulate

        def failing(proto, x, y, lams):
            if (x, y) == (2, 3):
                raise InvariantError("pair (2, 3) fails")
            return simulate(proto, x, y, lams)

        monkeypatch.setattr(bell, "_simulate", failing)
        monkeypatch.setenv("BELLFORGE_THREADS", "2")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schedule": [4], "mode": "sampled",
                                   "trials": 2000}))
        code, out, err = run_cli(capsys, "bell-certify", "--config",
                                 str(cfg), "--seed", "11")
        assert code == 3
        doc = json.loads(out)
        assert doc["error"] == {"code": "invariant_failure",
                                "reason": "pair (2, 3) fails"}
        assert err == "error: invariant failure: pair (2, 3) fails\n"
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("cmd,config,report", [
        ("bell-certify", "bell_certify.config.json",
         "report_bell_certify.json"),
        ("bell-certify", "bell_certify_sampled.config.json",
         "report_bell_certify_sampled.json"),
        ("cc", "cc.config.json", "report_cc.json"),
        ("oneway", "oneway_sweep.config.json", "report_oneway_sweep.json"),
        ("pbt-bench", "pbt_bench.config.json", "report_pbt_bench.json"),
    ], ids=["bell-certify", "bell-certify-sampled", "cc", "oneway-sweep",
            "pbt-bench"])
    def test_shipped_report_regenerates(self, tmp_path, cmd, config, report,
                                        threads):
        examples = os.path.join(REPO, "docs", "examples", "v1")
        with open(os.path.join(examples, report), "rb") as fh:
            shipped = fh.read()
        # pbt-bench, the BLAS-heaviest command, also runs with OpenBLAS's
        # default spin timeout preset: how idle workers wait moves no byte.
        envs = [{}, {"OPENBLAS_THREAD_TIMEOUT": "28"}] \
            if cmd == "pbt-bench" else [{}]
        for env in envs:
            fresh = run_subprocess(
                [cmd, "--config", os.path.join(examples, config)],
                tmp_path / "r.json", threads=threads, **env)
            assert fresh == shipped, env

    def test_idle_blas_workers_sleep(self):
        # `python -m bellforge` does one thread of work; OpenBLAS workers
        # left spinning after each small BLAS call would push its CPU time
        # well past its wall time on a multi-core host.
        env = dict(os.environ)
        env.pop("OPENBLAS_THREAD_TIMEOUT", None)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bellforge", "cc", "--config",
             os.path.join(REPO, "docs", "examples", "v1", "cc.config.json")],
            env=env, cwd=REPO, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        cpu = usage.ru_utime + usage.ru_stime
        assert cpu <= 1.15 * wall + 0.03, (cpu, wall)

    def test_timing_only_on_stderr(self, tmp_path):
        env = dict(os.environ, BELLFORGE_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "bellforge", "cc"],
            env=env, cwd=REPO, capture_output=True, text=True)
        assert proc.returncode == 0
        assert "[" in proc.stderr and "s]" in proc.stderr
        json.loads(proc.stdout)
        assert "wall" not in proc.stdout
