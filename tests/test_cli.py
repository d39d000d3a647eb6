"""Command-line behaviour: exit codes, output formats, config precedence,
and byte-stable reports."""

import gc
import json
import subprocess
import sys

import pytest

from centerbound import cli, errors
from centerbound.cli import REPORT_SCHEMA, main
from centerbound.statements import Verdict, STATEMENT_TAGS
from centerbound.cli import _exit_code, _record
from centerbound.table import _Table


def run_cli(*argv, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "centerbound.cli", *argv],
        capture_output=True, text=True, env=env)
    return proc


class TestInfo:
    def test_sym3(self, capsys):
        assert main(["info", "family:symmetric(3)"]) == 0
        out = capsys.readouterr().out
        assert "order" in out and ": 6" in out
        assert "|G'|" in out and ": 3" in out
        assert "|C_G(G')|" in out

    def test_cyclic6_all_central(self, capsys):
        assert main(["info", "family:cyclic(6)"]) == 0
        out = capsys.readouterr().out
        assert "|Z(G)|" in out
        lines = dict(line.split(":") for line in out.strip().splitlines())
        values = {k.strip(): v.strip() for k, v in lines.items()}
        assert values["|Z(G)|"] == "6"
        assert values["|G'|"] == "1"

    def test_dihedral4(self, capsys):
        assert main(["info", "family:dihedral(4)"]) == 0
        out = capsys.readouterr().out
        values = {k.strip(): v.strip() for k, v in
                  (line.split(":") for line in out.strip().splitlines())}
        assert values["|G'|"] == "2"
        assert values["|Z(G)|"] == "2"
        assert values["|Z2(G)|"] == "8"

    def test_unknown_rank_exits_3(self, capsys):
        # |G'| = 720 is past the default subgroup cap of 512
        assert main(["info", "family:direct_product(alternating(5),"
                             "symmetric(4))"]) == 3
        out = capsys.readouterr().out
        assert ("rk(G'): Unknown(subgroup enumeration cap 512, needed 720)"
                in out)

    def test_bad_spec_exits_4(self, capsys):
        assert main(["info", "family:wreath(2)"]) == 4
        assert main(["info", "file:/nonexistent/path.grp"]) == 4


class TestCheck:
    def test_sym4_selected_statements(self, capsys):
        assert main(["check", "family:symmetric(4)",
                     "--statements", "T2,T5,T6"]) == 0
        out = capsys.readouterr().out
        assert "T2" in out and "T5" in out and "T6" in out

    def test_trivial_group_all(self, capsys):
        assert main(["check", "family:cyclic(1)", "--statements", "all"]) == 0

    def test_inapplicable_statement_exits_0(self, capsys):
        assert main(["check", "family:symmetric(6)",
                     "--statements", "T7"]) == 0
        out = capsys.readouterr().out
        assert "n" in out  # applicability column shows not-applicable

    def test_uncomputable_exits_3(self, capsys):
        assert main(["check", "family:symmetric(6)",
                     "--statements", "T1"]) == 3

    def test_json_records_validate(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        assert main(["check", "family:dicyclic(4)", "--statements", "LA,LS",
                     "--format", "json"]) == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 2
        for record in records:
            jsonschema.validate(record, REPORT_SCHEMA)
        assert records[0]["witness"]["per_prime"]

    def test_csv_flattens_witness_rows(self, capsys):
        assert main(["check", "family:direct_product(symmetric(3),dihedral(4))",
                     "--statements", "LA", "--format", "csv"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("label,statement,")
        assert len(out) == 3  # header + one row per prime (2 and 3)

    def test_unknown_statement_exits_4(self, capsys):
        assert main(["check", "family:cyclic(2)",
                     "--statements", "T9"]) == 4

    @pytest.mark.parametrize("tags", [",", "", " , "])
    def test_no_statement_exits_4(self, capsys, tags):
        # checking nothing is not a success
        assert main(["check", "family:cyclic(2)", "--statements", tags]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("tags", ["T9", ",", "T1,XX"])
    def test_bad_statement_list_blames_the_list(self, capsys, tags):
        # the group was built fine, so the message is not a build error
        assert main(["check", "family:cyclic(2)", "--statements", tags]) == 4
        err = capsys.readouterr().err
        assert err.startswith("bad statement list: ")
        assert "cannot build group" not in err

    def test_bad_group_with_good_statements_is_a_build_error(self, capsys):
        assert main(["check", "family:wreath(2)", "--statements", "T1"]) == 4
        assert capsys.readouterr().err.startswith("cannot build group: ")

    def test_repeated_tags_evaluate_once(self, capsys):
        assert main(["check", "family:cyclic(2)", "--statements", "T1,t1,T2",
                     "--format", "json"]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().splitlines()]
        assert [r["statement"] for r in records] == ["T1", "T2"]


class TestExitCodeRule:
    def test_violation_maps_to_2(self):
        good = Verdict("T1", True, True, 1, 2, True)
        bad = Verdict("T2", True, True, 5, 2, False)
        vac = Verdict("T5", False, True, 0, 0, True)
        unc = Verdict("T7", True, False, 0, 0, True)

        def code(*verdicts):
            return _exit_code([_record("G", v) for v in verdicts])
        assert code(good, vac) == 0
        assert code(good, bad) == 2
        assert code(good, unc) == 3
        assert code(good, bad, unc) == 2


class TestCorpusCommand:
    def test_small_override_corpus(self, tmp_path, capsys):
        listing = tmp_path / "corpus.txt"
        listing.write_text(
            "# tiny corpus\n"
            "family:symmetric(3)\n"
            "family:dihedral(4)\n"
            "family:cyclic(6)\n")
        out_path = tmp_path / "report.jsonl"
        assert main(["corpus", "--corpus", str(listing),
                     "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3 * len(STATEMENT_TAGS) + 1
        summary = json.loads(lines[-1])["summary"]
        assert summary["violations"] == 0
        assert summary["groups"] == 3
        records = [json.loads(line) for line in lines[:-1]]
        assert records == sorted(
            records, key=lambda r: (r["label"], r["statement"]))

    def test_groups_do_not_outlive_their_records(self, tmp_path,
                                                  monkeypatch, capsys):
        # a verdict's witness holds its group, and with it the group's memo
        # and Cayley table; the report keeps only the records, so the live
        # tables stay the same from group to group
        listing = tmp_path / "corpus.txt"
        listing.write_text("".join(f"family:{text}\n" for text in (
            "symmetric(4)", "dihedral(6)", "dicyclic(4)", "alternating(4)",
            "direct_product(symmetric(3),cyclic(4))", "heisenberg(3)")))
        live = []
        evaluate_all = cli.evaluate_all

        def counting(G, config):
            gc.collect()
            live.append(sum(isinstance(x, _Table) for x in gc.get_objects()))
            return evaluate_all(G, config)
        monkeypatch.setattr(cli, "evaluate_all", counting)
        assert main(["corpus", "--corpus", str(listing),
                     "--out", str(tmp_path / "report.jsonl")]) == 0
        assert live == [live[0]] * 6

    def test_empty_corpus(self, tmp_path, capsys):
        listing = tmp_path / "empty.txt"
        listing.write_text("# nothing\n")
        out_path = tmp_path / "report.jsonl"
        assert main(["corpus", "--corpus", str(listing),
                     "--out", str(out_path)]) == 0
        summary = json.loads(out_path.read_text().splitlines()[-1])
        assert summary["summary"]["records"] == 0

    def test_byte_identical_reports(self, tmp_path, capsys):
        listing = tmp_path / "corpus.txt"
        listing.write_text(
            "family:dicyclic(4)\n"
            "family:symmetric(4)\n"
            "family:direct_product(symmetric(3),dihedral(4))\n")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["corpus", "--corpus", str(listing), "--out", str(a),
                     "--seed", "7"]) == 0
        assert main(["corpus", "--corpus", str(listing), "--out", str(b),
                     "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cap_forcing_exits_3(self, tmp_path, capsys):
        listing = tmp_path / "corpus.txt"
        listing.write_text("family:symmetric(4)\n")
        out_path = tmp_path / "report.jsonl"
        assert main(["corpus", "--corpus", str(listing),
                     "--out", str(out_path), "--subgroup-cap", "1"]) == 3
        summary = json.loads(out_path.read_text().splitlines()[-1])
        assert summary["summary"]["uncomputable"] > 0

    def test_unwritable_out_exits_5(self, tmp_path, capsys):
        listing = tmp_path / "corpus.txt"
        listing.write_text("family:cyclic(2)\n")
        assert main(["corpus", "--corpus", str(listing),
                     "--out", str(tmp_path / "no" / "dir" / "x.jsonl")]) == 5


class TestWitnessCommand:
    def test_factorize_dih4(self, capsys):
        assert main(["witness", "factorize", "family:dihedral(4)"]) == 0
        out = capsys.readouterr().out
        assert "check ok" in out

    def test_also_abelian_trivial(self, capsys):
        assert main(["witness", "also", "family:cyclic(12)"]) == 0
        out = capsys.readouterr().out
        assert "index=1" in out

    def test_szivas_product_table(self, capsys):
        assert main(["witness", "szivas",
                     "family:direct_product(symmetric(3),dihedral(4))"]) == 0
        out = capsys.readouterr().out
        assert "p=2" in out and "p=3" in out

    def test_unknown_rank_exits_3_with_the_catalog_note(self, capsys):
        assert main(["witness", "also", "family:symmetric(4)",
                     "--subgroup-cap", "1"]) == 3
        assert capsys.readouterr().err == (
            "not computable under caps: rank of G'/zed is "
            "Unknown(subgroup enumeration cap 1, needed 12)\n")

    def test_abel_needs_abelian_p_group(self, capsys):
        assert main(["witness", "abel", "family:symmetric(3)"]) == 2
        assert main(["witness", "abel", "family:cyclic(6)"]) == 2
        assert main(["witness", "abel", "family:elem_abelian(2,2)"]) == 0

    def test_factorize_needs_p_group(self, capsys):
        assert main(["witness", "factorize", "family:symmetric(3)"]) == 2


class TestErrorExits:
    """Every package error and internal assertion ends in its exit code and
    a one-line message, never a traceback."""

    @pytest.mark.parametrize("error, code", [
        (errors.NotNormal("N is not normal"), 2),
        (errors.BadFamily("intersection is not trivial"), 2),
        (errors.BadAnchors("anchors do not generate"), 2),
        (errors.NotInDerived("w is not in G'"), 2),
        (AssertionError("sylow ascent stalled"), 2),
        (errors.DegreeMismatch("degree 3 vs 4"), 4),
        (errors.CapExceeded("element enumeration", 5, 24), 3),
    ])
    def test_handler_error(self, monkeypatch, capsys, error, code):
        def handler(args, config):
            raise error
        monkeypatch.setattr(cli, "cmd_check", handler)
        assert main(["check", "family:cyclic(2)"]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(error) in err
        assert "Traceback" not in err


class TestConfigSources:
    def test_env_override(self, tmp_path):
        import os
        env = dict(os.environ)
        env["CENTERBOUND_SUBGROUP_CAP"] = "1"
        listing = tmp_path / "corpus.txt"
        listing.write_text("family:symmetric(4)\n")
        out_path = tmp_path / "report.jsonl"
        proc = run_cli("corpus", "--corpus", str(listing),
                       "--out", str(out_path), env=env)
        assert proc.returncode == 3

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("subgroup_cap = 1\nseed = 11  # comment\n")
        # flag overrides the file: with the default cap T2 computes again
        assert main(["check", "family:symmetric(4)", "--statements", "T2",
                     "--config", str(cfg), "--subgroup-cap", "512"]) == 0
        capsys.readouterr()
        assert main(["check", "family:symmetric(4)", "--statements", "T2",
                     "--config", str(cfg)]) == 3

    def test_bad_config_exits_4(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["check", "family:cyclic(2)", "--config", str(cfg)]) == 4
        # a value that is not an integer is named with its source
        cfg.write_text("# caps\nsubgroup_cap = abc\n")
        capsys.readouterr()
        assert main(["check", "family:cyclic(2)", "--config", str(cfg)]) == 4
        assert capsys.readouterr().err == (
            f"bad configuration: {cfg}:2: subgroup_cap must be an integer, "
            "got 'abc'\n")
        monkeypatch.setenv("CENTERBOUND_TUPLE_CAP", "x")
        assert main(["check", "family:cyclic(2)"]) == 4
        assert capsys.readouterr().err == (
            "bad configuration: CENTERBOUND_TUPLE_CAP must be an integer, "
            "got 'x'\n")

    def test_entry_point_runs(self):
        proc = run_cli("info", "family:cyclic(4)")
        assert proc.returncode == 0
        assert "order" in proc.stdout
