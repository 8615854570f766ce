import argparse
import collections
import csv
import io
import json

import pytest

from primefourier import (
    CycloNum,
    PrimeModulus,
    SupportSet,
    TheoremViolationError,
    applications,
    cli,
    uncertainty,
)

from conftest import closed_form_counts, inject_fault, pivot_det


def run_cli(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


class TestCertify:
    def test_counts_p5(self, capsys):
        code, report = run_json(capsys, ["certify", "--p", "5"])
        assert code == 0
        assert report["schema"] == 1
        assert report["status"] == "ok"
        assert report["result"]["minors_checked"] == 251
        assert report["counts"]["minors"] == 251
        assert "seed" not in report["config"]

    def test_not_prime_is_precondition_error(self, capsys):
        code, report = run_json(capsys, ["certify", "--p", "4"])
        assert code == 2
        assert report["status"] == "precondition-error"
        assert "not prime" in report["error"]

    def test_budget_exceeded(self, capsys):
        code, report = run_json(capsys, ["certify", "--p", "11", "--budget", "7"])
        assert code == 3
        assert report["status"] == "budget-exceeded"

    def test_csv_emits_one_row_per_orbit(self, capsys):
        code, out = run_cli(capsys, ["certify", "--p", "3", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0]) == ["kind", "first", "second", "orbit_size", "ok"]
        kinds = collections.Counter(row["kind"] for row in rows)
        assert kinds == {"minor": 3, "tightness": 6, "achievability": 6}
        sizes = collections.Counter()
        for row in rows:
            sizes[row["kind"]] += int(row["orbit_size"])
        assert sizes == {"minor": 19, "tightness": 34, "achievability": 22}
        assert all(row["ok"] == "True" for row in rows)

    def test_csv_respects_budget_before_sweeping(self, capsys):
        code, out = run_cli(capsys, ["certify", "--p", "11", "--budget", "7",
                                     "--format", "csv"])
        assert code == 3
        assert "budget-exceeded" in out

    def test_seed_is_range_checked_and_ignored(self, capsys):
        # Nothing in the sweep is random and it runs serially: --seed and
        # --jobs change no byte of the report but its wall time, and neither
        # is echoed, yet a bad value still exits 2.
        outputs = []
        for flags in (["--seed", "0"], ["--seed", "5"], ["--jobs", "2"]):
            code, csv_out = run_cli(capsys, ["certify", "--p", "5", "--format", "csv", *flags])
            assert code == 0
            code, report = run_json(capsys, ["certify", "--p", "5", *flags])
            assert code == 0
            assert "seed" not in report["config"]
            assert "jobs" not in report["config"]
            del report["wall_time_s"]
            outputs.append((csv_out, report))
        assert outputs[0] == outputs[1] == outputs[2]
        code, report = run_json(capsys, ["certify", "--p", "5",
                                         "--seed", "18446744073709551616"])
        assert code == 2
        assert report["status"] == "precondition-error"
        assert "seed" in report["error"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_precondition_error(self, capsys, jobs):
        code, report = run_json(capsys, ["certify", "--p", "3", "--jobs", jobs])
        assert code == 2
        assert report["status"] == "precondition-error"
        assert "jobs" in report["error"]

    @pytest.mark.parametrize("p", [5, 7])
    def test_csv_rows_are_the_orbit_records(self, capsys, p):
        code, out = run_cli(capsys, ["certify", "--p", str(p), "--format", "csv"])
        assert code == 0

        def residues(text):
            return tuple(int(x) for x in text.split(";")) if text else ()

        records = [(row["kind"], residues(row["first"]), residues(row["second"]),
                    int(row["orbit_size"]))
                   for row in csv.DictReader(io.StringIO(out))]
        assert records == list(uncertainty._certification_orbits(p))
        sizes = collections.Counter()
        for kind, _, _, orbit_size in records:
            sizes[kind] += orbit_size
        assert sizes == closed_form_counts(p)

    def test_csv_after_a_failed_sweep_has_no_orbit_record(self, capsys, monkeypatch):
        # The rows are walked only once the sweep has passed: with the
        # representative ((0, 1, 3), (0, 1, 3)) made singular to the image
        # and the exact test, the CSV is one status row.
        inject_fault(monkeypatch, ((0, 1, 3), (0, 1, 3)))
        code, out = run_cli(capsys, ["certify", "--p", "7", "--format", "csv"])
        assert code == 4
        assert list(csv.DictReader(io.StringIO(out))) == [{
            "status": "theorem-violation",
            "error": "zero minor rows=(0, 1, 3) cols=(0, 1, 3) p=7"}]

    def test_csv_reuses_the_sweep_orbits(self, capsys):
        # The rows walk the orbit records again after the sweep; the set
        # orbits are enumerated once.
        uncertainty._set_orbits.cache_clear()
        code, out = run_cli(capsys, ["certify", "--p", "11", "--format", "csv"])
        assert code == 0
        assert len(out.splitlines()) == 1 + 943
        assert uncertainty._set_orbits.cache_info().misses == 1


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["certify", "--p", "5"],
        ["construct", "--p", "7", "--a", "0,1,2,3,4", "--b", "0,2,4,5,6"],
        ["sumset", "--p", "7", "--a", "0,1,2", "--b", "1,5", "--witness"],
        ["sparse", "--p", "11", "--exponents", "0,3,7", "--coefficients", "1,-2,5"],
    ])
    def test_reports_byte_identical_modulo_wall_time(self, capsys, argv):
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        a = json.loads(first)
        b = json.loads(second)
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestConstruct:
    def test_dirac_witness(self, capsys):
        code, report = run_json(capsys, ["construct", "--p", "3", "--a", "0",
                                         "--b", "0,1,2"])
        assert code == 0
        result = report["result"]
        assert result["support"] == [0]
        assert result["spectrum"] == [0, 1, 2]
        # The exact case's one free point, max A = 0, takes the weight 1.
        assert result["signal"][0] == "1 + 0*w"
        assert result["combination_coeffs"] == [1]
        assert report["counts"]["combination_terms"] == 1

    def test_general_witness_records_coefficients(self, capsys):
        code, report = run_json(capsys, ["construct", "--p", "5", "--a", "0,1,2",
                                         "--b", "0,1,3,4"])
        assert code == 0
        assert len(report["result"]["combination_coeffs"]) > 0

    def test_combination_terms_are_the_free_points(self, capsys):
        # |A| + |B| - p = 6 + 8 - 11 = 3 free points, the last three of A.
        code, report = run_json(capsys, ["construct", "--p", "11", "--a", "0,1,2,4,6,9",
                                         "--b", "0,1,2,3,5,7,8,10"])
        assert code == 0
        assert report["counts"]["combination_terms"] == 3
        result = report["result"]
        p11 = PrimeModulus(11)
        # The free points carry det of the pivot minor times the weights,
        # and no value has a denominator.
        det = pivot_det(SupportSet(p11, [0, 1, 2, 4, 6, 9]),
                        SupportSet(p11, [0, 1, 2, 3, 5, 7, 8, 10]))
        assert [result["signal"][x] for x in (4, 6, 9)] == [
            str(det * c) for c in result["combination_coeffs"]]
        assert not any("/" in value for value in result["signal"])
        zero = str(CycloNum.zero(PrimeModulus(11)))
        assert [result["signal"][x] for x in (3, 5, 7, 8, 10)] == [zero] * 5

    def test_below_threshold(self, capsys):
        code, report = run_json(capsys, ["construct", "--p", "5", "--a", "0", "--b", "0"])
        assert code == 2
        assert report["status"] == "precondition-error"

    def test_retry_budget_flag(self, capsys):
        # The weight loop has a proven bound, so there is no --retries.
        with pytest.raises(SystemExit) as exc:
            cli.main(["construct", "--p", "2", "--a", "0,1", "--b", "0,1", "--retries", "2"])
        assert exc.value.code == 2
        assert "--retries" in capsys.readouterr().err

    def test_seed_out_of_range(self, capsys):
        # Nothing is drawn, so construct has no --seed to take, in range or not.
        for seed in ("3", str(1 << 64)):
            with pytest.raises(SystemExit) as exc:
                cli.main(["construct", "--p", "3", "--a", "0", "--b", "0,1,2", "--seed", seed])
            assert exc.value.code == 2
            assert "--seed" in capsys.readouterr().err


class TestSparse:
    def test_zero_count(self, capsys):
        code, report = run_json(capsys, ["sparse", "--p", "7", "--exponents", "0,1,2",
                                         "--coefficients", "1,1,1"])
        assert code == 0
        assert report["result"]["zeros"] == []
        assert report["result"]["max_zeros"] == 2
        assert report["result"]["bound_holds"] is True

    def test_length_mismatch(self, capsys):
        code, report = run_json(capsys, ["sparse", "--p", "7", "--exponents", "0,1",
                                         "--coefficients", "1"])
        assert code == 2


class TestSumset:
    def test_check_only(self, capsys):
        code, report = run_json(capsys, ["sumset", "--p", "5", "--a", "0,1", "--b", "0,1"])
        assert code == 0
        assert report["result"]["lhs"] == 3
        assert report["result"]["rhs"] == 3
        assert report["result"]["sumset"] == [0, 1, 2]
        assert "witness" not in report["result"]

    def test_with_witness(self, capsys):
        code, report = run_json(capsys, ["sumset", "--p", "5", "--a", "0,1",
                                         "--b", "0,1", "--witness"])
        assert code == 0
        witness = report["result"]["witness"]
        assert witness["inequality_chain"]["total"] >= 6
        assert len(witness["f"]) == 5
        assert all("*w" in v for v in witness["conv"])

    def test_empty_set(self, capsys):
        code, report = run_json(capsys, ["sumset", "--p", "5", "--a", "", "--b", "0"])
        assert code == 2

    def test_seed_is_refused(self, capsys):
        # The witness builds only exact-case pairs, which draw nothing, so
        # sumset has no --seed to take.
        with pytest.raises(SystemExit) as exc:
            cli.main(["sumset", "--p", "7", "--a", "0,1,2", "--b", "1,5",
                      "--witness", "--seed", "5"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestMeshulam:
    def test_dirac_file(self, capsys, tmp_path):
        path = tmp_path / "dirac.txt"
        path.write_text("# a lone point\n0,0: 1\n")
        code, report = run_json(capsys, ["meshulam", "--p", "3", "--n", "2",
                                         "--values-file", str(path)])
        assert code == 0
        assert report["result"]["support_size"] == 1
        assert report["result"]["fourier_support_size"] == 9
        assert report["result"]["per_j"] == [True, True]
        assert report["result"]["hull_ok"] is True

    def test_missing_entries_default_to_zero(self, capsys, tmp_path):
        path = tmp_path / "line.txt"
        path.write_text("0,0: 1\n1,0: 1\n2,0: 1\n")
        code, report = run_json(capsys, ["meshulam", "--p", "3", "--n", "2",
                                         "--values-file", str(path)])
        assert code == 0
        assert report["result"]["support_size"] == 3
        assert report["result"]["fourier_support_size"] == 3

    def test_duplicate_entry_rejected(self, capsys, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0,0: 1\n0,0: 2\n")
        code, report = run_json(capsys, ["meshulam", "--p", "3", "--n", "2",
                                         "--values-file", str(path)])
        assert code == 2
        assert "duplicate" in report["error"]

    def test_bad_coordinates_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("9,0: 1\n")
        code, report = run_json(capsys, ["meshulam", "--p", "3", "--n", "2",
                                         "--values-file", str(path)])
        assert code == 2

    @pytest.mark.parametrize("text", ["0,x: 1\n", "0,0: one\n"])
    def test_non_integer_entry_names_its_line(self, capsys, tmp_path, text):
        path = tmp_path / "typo.txt"
        path.write_text("# header\n" + text)
        code, report = run_json(capsys, ["meshulam", "--p", "3", "--n", "2",
                                         "--values-file", str(path)])
        assert code == 2
        assert report["error"].startswith(f"{path}:2: ")
        assert "invalid literal" not in report["error"]

    @pytest.mark.parametrize("p, n", [(101, 4), (2, 10**9)])
    def test_oversized_table_exits_3(self, capsys, tmp_path, p, n):
        # Refused before the file is read, so even a one-line file fails fast.
        path = tmp_path / "point.txt"
        path.write_text("0,0,0,0: 1\n")
        code, report = run_json(capsys, ["meshulam", "--p", str(p), "--n", str(n),
                                         "--values-file", str(path)])
        assert code == 3
        assert report["status"] == "budget-exceeded"
        assert "100000 points" in report["error"]

    def test_missing_file_is_precondition_error(self, capsys, tmp_path):
        code, report = run_json(capsys, ["meshulam", "--p", "3", "--n", "2",
                                         "--values-file", str(tmp_path / "missing.txt")])
        assert code == 2
        assert report["status"] == "precondition-error"

    def test_library_violation_exits_4(self, capsys, tmp_path, monkeypatch):
        # A transform that returns its input gives a Dirac mass s = sh = 1,
        # below every inequality of the bound.
        monkeypatch.setattr(applications, "multi_dft", lambda signal: signal)
        path = tmp_path / "dirac.txt"
        path.write_text("0,0: 1\n")
        code, report = run_json(capsys, ["meshulam", "--p", "3", "--n", "2",
                                         "--values-file", str(path)])
        assert code == 4
        assert report["status"] == "theorem-violation"
        assert "hull_ok=False" in report["error"]

    def test_zero_table_is_precondition_error(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("\n")
        code, report = run_json(capsys, ["meshulam", "--p", "3", "--n", "2",
                                         "--values-file", str(path)])
        assert code == 2


class TestStatusMapping:
    def test_unrealized_witness_exits_4(self, capsys, monkeypatch):
        # A support check that rejects every try exhausts the weights whose
        # bound the paper's argument proves, the impossible branch of
        # construct.
        monkeypatch.setattr(uncertainty, "_verify_witness_supports", lambda *args: False)
        code, report = run_json(capsys, ["construct", "--p", "7", "--a", "0,1,2",
                                         "--b", "0,1,2,3,4"])
        assert code == 4
        assert report["status"] == "theorem-violation"
        assert "1 <= t <= 1 realize A=(0, 1, 2)" in report["error"]

    def test_theorem_violation_exit_code(self, capsys, monkeypatch):
        # The library treats this status as unreachable; force it to pin the
        # reserved exit code.
        def boom(*args, **kwargs):
            raise TheoremViolationError("forced for the exit-code contract")

        monkeypatch.setattr(cli.uncertainty, "exhaustive_certification", boom)
        code, report = run_json(capsys, ["certify", "--p", "3"])
        assert code == 4
        assert report["status"] == "theorem-violation"

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, ["sumset", "--p", "5", "--a", "0,1", "--b", "0,1",
                                     "--format", "text"])
        assert code == 0
        assert "status: ok" in out
        assert "result.lhs: 3" in out

    def test_modulus_above_bound(self, capsys):
        code, report = run_json(capsys, ["certify", "--p", "10009"])
        assert code == 2
        assert "bound" in report["error"]


class TestConfigEcho:
    @pytest.mark.parametrize("argv", [
        ["certify", "--p", "3"],
        ["construct", "--p", "3", "--a", "0", "--b", "0,1,2"],
        ["sparse", "--p", "5", "--exponents", "0,1", "--coefficients", "1,-1"],
        ["sumset", "--p", "5", "--a", "0,1", "--b", "0"],
        ["meshulam", "--p", "3", "--n", "1", "--values-file", "VALUES"],
    ])
    def test_echoes_every_option_of_the_subcommand(self, capsys, tmp_path, argv):
        values = tmp_path / "values.txt"
        values.write_text("0: 1\n")
        argv = [str(values) if arg == "VALUES" else arg for arg in argv]
        code, report = run_json(capsys, argv)
        assert code == 0
        subparsers = next(action for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        options = {action.dest for action in subparsers.choices[argv[0]]._actions
                   if action.dest != "help"}
        # certify range-checks its --seed and --jobs but ignores them, so does
        # not echo them.
        ignored = {"seed", "jobs"} if argv[0] == "certify" else set()
        assert set(report["config"]) == options - ignored
        if argv[0] == "construct":
            assert set(report["config"]) == {"a", "b", "format", "p"}
