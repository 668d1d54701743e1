import json

import pytest

from newform_basis.cli import main
from newform_basis.primes import primes_up_to


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestCoeffs:
    def test_check_ok(self, capsys):
        rc, out, _ = run(capsys, ["coeffs", "--form", "delta", "--nmax", "100", "--check"])
        assert rc == 0
        assert "a(1..10)=1 -24 252 -1472 4830 -6048 -16744 84480 -113643 -115920" in out
        assert "OK" in out

    def test_out_file_round_trips(self, capsys, tmp_path):
        path = tmp_path / "delta.nft"
        rc, _, _ = run(capsys, ["coeffs", "--form", "delta", "--nmax", "200", "--out", str(path)])
        assert rc == 0
        rc, out, _ = run(capsys, ["coeffs", "--form", str(path), "--nmax", "200", "--check"])
        assert rc == 0 and "OK" in out

    def test_file_form_nmax_exceeds_pmax(self, capsys, tmp_path):
        path = tmp_path / "short.nft"
        path.write_text("weight: 12\nlevel: 1\npmax: 2\n2 -24\n", encoding="utf-8")
        rc, _, err = run(capsys, ["coeffs", "--form", str(path), "--nmax", "100"])
        assert rc == 1 and "error" in err

    def test_missing_form_file(self, capsys, tmp_path):
        path = tmp_path / "missing.nft"
        rc, _, err = run(capsys, ["coeffs", "--form", str(path), "--nmax", "10"])
        assert rc == 1 and err.startswith("error:") and "missing.nft" in err

    def test_cache_write_and_reload(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        argv = ["coeffs", "--form", "11a", "--nmax", "300", "--cache-dir", cache]
        rc, first, _ = run(capsys, argv)
        assert rc == 0
        assert (tmp_path / "cache" / "11a-300.nft").exists()
        rc, second, _ = run(capsys, argv)
        assert rc == 0 and first == second

    def test_corrupt_cache_detected(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        # a well-formed file with wrong coefficients trips the spot check
        bad = "weight: 2\nlevel: 11\npmax: 300\n" + "\n".join(
            f"{p} 0" for p in primes_up_to(300)
        ) + "\n"
        (cache / "11a-300.nft").write_text(bad, encoding="utf-8")
        rc, _, err = run(capsys, ["coeffs", "--form", "11a", "--nmax", "300",
                                  "--cache-dir", str(cache)])
        assert rc == 1 and "spot check" in err


class TestSigns:
    def test_key_value_lines(self, capsys):
        rc, out, _ = run(capsys, ["signs", "--form", "delta", "--nmax", "1000",
                                  "--density-at", "1000"])
        assert rc == 0
        assert "n_f=2" in out
        assert "count_all=168" in out

    def test_json_mode(self, capsys):
        rc, out, _ = run(capsys, ["signs", "--form", "delta", "--nmax", "100", "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["n_f"] == 2


class TestAdmissible:
    def test_greedy_listing(self, capsys):
        rc, out, _ = run(capsys, ["admissible", "--form", "11a", "--k", "1", "--M", "100"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# admissible set k=1")
        assert all(line.isdigit() for line in lines[1:])

    def test_repair_flag(self, capsys):
        rc, out, _ = run(capsys, ["admissible", "--form", "11a", "--k", "1", "--M", "300",
                                  "--repair", "17"])
        assert rc == 0 and "repair p=17" in out

    def test_dyadic(self, capsys):
        rc, out, _ = run(capsys, ["admissible", "--form", "11a", "--k", "1", "--M", "600",
                                  "--dyadic", "--l0", "4", "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["size"] == 2


class TestWg:
    def test_solve_found(self, capsys):
        rc, out, _ = run(capsys, ["wg", "solve", "--Z", "9", "--s", "2", "--e", "1"])
        assert rc == 0 and "primes=2 7" in out

    def test_solve_not_found_exit_1(self, capsys):
        rc, out, _ = run(capsys, ["wg", "solve", "--Z", "11", "--s", "2", "--e", "1"])
        assert rc == 1

    def test_congruence_warning_is_a_plain_line_every_time(self, capsys, recwarn):
        argv = ["wg", "solve", "--Z", "9", "--s", "2", "--e", "1"]
        for _ in range(2):
            rc, _, err = run(capsys, argv)
            assert rc == 0 and err == (
                "warning: Z = 9 is not congruent to s = 2 mod K = 2; solutions need not exist\n"
            )
        assert not recwarn.list  # printed, not raised as a Python warning

    def test_count(self, capsys):
        rc, out, _ = run(capsys, ["wg", "count", "--Z", "10", "--s", "2", "--e", "1"])
        assert rc == 0 and "count=3" in out

    def test_count_with_p0_predicate(self, capsys):
        # P0 excludes 2 = n_f but keeps 3, 5, 7: all three ordered pairs survive
        rc, out, _ = run(capsys, ["wg", "count", "--Z", "10", "--s", "2", "--e", "1",
                                  "--predicate", "p0", "--form", "delta"])
        assert rc == 0 and "count=3" in out
        # excluding the large-coefficient primes can only shrink the count
        rc, out, _ = run(capsys, ["wg", "count", "--Z", "10", "--s", "2", "--e", "1",
                                  "--predicate", "p0-minus-pprime", "--form", "delta"])
        assert rc == 0 and out.startswith("count=")

    def test_series(self, capsys):
        rc, out, _ = run(capsys, ["wg", "series", "--Z", "101", "--s", "3", "--e", "1",
                                  "--qmax", "100", "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["normalization"] == "hua-standard"
        assert payload["value"] > 0.5


class TestDecompose:
    def test_zero_json_schema(self, capsys):
        rc, out, _ = run(capsys, ["decompose", "--form", "delta", "--Z", "0", "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload == {"Z": 0, "route": "search", "ell": 0, "terms": [],
                           "verified": True, "max_index_ratio": 0.0}

    def test_search_route(self, capsys):
        rc, out, _ = run(capsys, ["decompose", "--form", "delta", "--Z", "252",
                                  "--nmax", "100", "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["verified"] and payload["terms"] == [[3, 1]]

    def test_constructive_route(self, capsys):
        rc, out, _ = run(capsys, ["decompose", "--form", "11a", "--Z", "20000",
                                  "--route", "constructive", "--nmax", "20000", "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["verified"] and payload["route"] == "constructive"

    def test_json_round_trip_and_determinism(self, capsys):
        argv = ["decompose", "--form", "delta", "--Z", "229", "--nmax", "60", "--json"]
        rc1, out1, _ = run(capsys, argv)
        rc2, out2, _ = run(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert json.loads(out1) == json.loads(out2)


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--form", "delta", "--nmax", "10", "--threads", "2"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--nmax", "10"])
        assert exc.value.code == 2

    def test_bad_value_exits_2(self, capsys):
        assert main(["wg", "count", "--Z", "-5", "--s", "2", "--e", "1"]) == 2
