import json
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import branchinv.branch
import branchinv.cli
import branchinv.ideals
from branchinv.cli import main, read_branch_file, read_ideal_file
from branchinv.errors import InternalInconsistency, TruncationExhausted
from branchinv.series import TruncatedSeries
from conftest import change_coefficient, perturb_verification, record_certificates

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# (expected output, branch file, ideal file or None), paths relative to the repo
GOLDEN_CASES = [
    (f"{p.stem}.json", f"branches/{p.name}", None)
    for p in sorted((REPO / "branches").glob("*.branch"))
] + [
    ("cusp_with_maximal_ideal.json", "branches/cusp.branch", "branches/cusp_maximal_ideal.ideal"),
    # k[[t]], whose trace is the conductor: vmin(tr) = c
    ("deep15_with_normalization.json", "branches/deep15.branch",
     "branches/deep15_normalization.ideal"),
    # t^-18 m: vmin < 0
    ("deep15_with_shifted_maximal_ideal.json", "branches/deep15.branch",
     "branches/deep15_shifted_maximal_ideal.ideal"),
    # c = 0: the trace's conductor seeds are t^0, ..., t^(e-1)
    ("regular_with_ideal.json", "branches/regular.branch", "branches/regular_ideal.ideal"),
]

EXPECTED_KEYS = ["name", "generators", "truncation", "stable", "n", "s", "delta",
                 "conductor", "gaps", "gorenstein", "vD", "lambda_D", "v_Dinv",
                 "alpha", "h", "maximal_torsion", "in_ms", "mu_Jmin", "mu_msJ",
                 "verdict", "version"]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def record_tries(monkeypatch):
    """The truncations `_analyze_at` is called at, in order."""
    tried = []
    analyze_at = branchinv.branch._analyze_at

    def recording(spec, gens, N):
        tried.append(N)
        return analyze_at(spec, gens, N)

    monkeypatch.setattr(branchinv.branch, "_analyze_at", recording)
    return tried


@pytest.fixture
def plane49_file(tmp_path):
    return write(tmp_path, "plane49.branch", "name: plane49\nt^4+t^5\nt^9\n")


class TestBranchFiles:
    def test_comments_and_name_header(self, tmp_path):
        path = write(tmp_path, "b.branch", "# a comment\nname: demo\n\nt^2\nt^3\n")
        spec = read_branch_file(path)
        assert spec.name == "demo"
        assert len(spec.generators) == 2

    def test_parse_error_names_line(self, tmp_path, capsys):
        path = write(tmp_path, "bad.branch", "t^2\n2t\n")
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert ":2:" in err

    @pytest.mark.parametrize("flag", [None, "--ideal"])
    def test_parse_error_prints_position_once(self, tmp_path, capsys, flag):
        bad = write(tmp_path, "bad.branch", "t^2\nt^-1\n")
        argv = ["analyze", bad] if flag is None else [
            "analyze", write(tmp_path, "c.branch", "t^2\nt^3\n"), "--ideal", bad]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:2: exponent must be a nonnegative integer (at position 2)\n")

    def test_zero_ideal_generator_is_input_error(self, tmp_path, capsys):
        branch = write(tmp_path, "c.branch", "t^2\nt^3\n")
        ideal = write(tmp_path, "z.ideal", "t^2\n0\n")
        assert main(["analyze", branch, "--json", "--ideal", ideal]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {ideal}:2: an ideal generator must be nonzero\n"

    def test_deep_nesting_is_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "deep.branch", "(" * 3000 + "t" + ")" * 3000 + "\nt^3\n")
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert "nested deeper" in err and ":1:" in err
        assert "Traceback" not in err

    def test_ideal_file_shift_header(self, tmp_path):
        path = write(tmp_path, "i.ideal", "shift: 3\nt^2\nt^5\n")
        shift, exprs, _ = read_ideal_file(path)
        assert shift == 3 and len(exprs) == 2


class TestAnalyzeCommand:
    def test_json_report_schema(self, plane49_file, capsys):
        assert main(["analyze", plane49_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report.keys()) == EXPECTED_KEYS
        assert report["h"] == 6
        assert report["delta"] == 12
        assert report["lambda_D"] == 9
        assert report["v_Dinv"] == 9
        assert isinstance(report["gaps"][0], int)
        assert list(report["verdict"].keys()) == ["status", "rule", "bounds"]

    def test_rationals_never_floats(self, plane49_file, capsys):
        main(["analyze", plane49_file, "--json"])
        out = capsys.readouterr().out
        report = json.loads(out)
        mb = report["verdict"]["bounds"]["main_bound"]
        assert set(mb.keys()) == {"num", "den"}
        assert "." not in json.dumps(report["verdict"])

    def test_regular_branch_verdict(self, tmp_path, capsys):
        path = write(tmp_path, "r.branch", "t\n")
        assert main(["analyze", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["status"] == "Regular"
        assert report["verdict"]["rule"] is None
        assert report["s"] is None

    def test_deep_branch_text_report(self, tmp_path, capsys):
        texts = "name: embdim7\nt^8+t^9\n64*t^10 - 81*t^12\n8*t^12 - 9*t^13\nt^14\nt^15\nt^16\nt^17\n"
        path = write(tmp_path, "e.branch", texts)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "TorsionProven via R3" in out
        assert "h = 3" in out

    def test_missing_file_is_input_error(self, capsys):
        assert main(["analyze", "no/such/file.branch"]) == 2

    def test_imprimitive_is_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "i.branch", "t^2\nt^4\n")
        assert main(["analyze", path]) == 2
        assert "imprimitive" in capsys.readouterr().err

    def test_truncation_exhausted_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "big.branch", "t^39\nt^40\n")
        assert main(["analyze", path, "--max-truncation", "128"]) == 3

    def test_cap_holds_for_initial_truncation(self, tmp_path, capsys):
        # the degree alone asks for truncation 4*2001+16 = 8020
        path = write(tmp_path, "wide.branch", "t^2\nt^2001\n")
        assert main(["analyze", path, "--json", "--max-truncation", "1024"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "8020" in captured.err

    @pytest.mark.parametrize("generator, degree, flags, need", [
        ("(1+t)^3000-1", 3000, [], 12016),
        ("(t+t^2)^20000", 40000, [], 160016),
        ("(t+t^2)^20000", 40000, ["--truncation", "100"], 160016),
        ("(1+t)^3000-1", 3000, ["--truncation", "100"], 12016),
        ("(t+t^2)^20000", 40000, ["--truncation", "100", "--no-verify"], 160016),
        ("(1+t)^3000-1", 3000, ["--truncation", "100", "--no-verify"], 12016),
    ])
    def test_degree_cap_holds_before_expansion(self, tmp_path, capsys, generator, degree,
                                               flags, need):
        # the default first truncation 4*degree + 16 passes the cap, so the
        # generator is refused before it is expanded, whatever --truncation
        # and --no-verify say
        path = write(tmp_path, "huge.branch", f"t^2\n{generator}\n")
        start = time.perf_counter()
        assert main(["analyze", path, "--json"] + flags) == 3
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f":2: generator degree {degree} needs truncation at least {need}, "
                f"above the cap 4096") in captured.err

    def test_ideal_degree_cap_holds_before_expansion(self, tmp_path, capsys):
        # no ideal closure reads at or past the cap, so a generator whose
        # shifted degree passes it is refused unexpanded
        ideal = write(tmp_path, "huge.ideal", "t^2\n(1+t)^100000\n")
        start = time.perf_counter()
        assert main(["analyze", str(REPO / "branches" / "cusp.branch"), "--json",
                     "--ideal", ideal]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {ideal}:2: generator degree 100000 is above 4096: "
                                "after the shift 0 it passes the cap 4096 (at position 6)\n")

    @pytest.mark.parametrize("shift, degree, refused", [
        (4, 4100, False), (3, 4100, True), (-3, 4096, False), (-3, 4097, True)])
    def test_ideal_degree_cap_reads_the_shift(self, tmp_path, shift, degree, refused):
        # the limit is the cap plus a nonnegative shift, read even after the
        # generators; a negative shift leaves it at the cap
        path = write(tmp_path, "i.ideal", f"t^{degree}\nshift: {shift}\n")
        try:
            read_ideal_file(path, 4096)
        except TruncationExhausted as exc:
            assert refused and str(exc).startswith(f"{path}:1: generator degree {degree} is above")
        else:
            assert not refused

    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_truncation_below_one_is_input_error(self, plane49_file, capsys, value):
        # doubling a negative N never reaches the cap, and 0 is not the default
        assert main(["analyze", plane49_file, "--json", "--truncation", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"initial truncation {value} is below 1" in captured.err

    def test_cap_holds_for_verification(self, plane49_file, capsys):
        # plane49 certifies at 64, is verified there and reports 89: the
        # certificate asks for no truncation of its own, and the reported
        # one meets the cap after verification
        assert main(["analyze", plane49_file, "--json", "--max-truncation", "89"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["truncation"] == 89 and report["stable"] is True
        assert main(["analyze", plane49_file, "--json", "--max-truncation", "88"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: truncation 89 is above the cap 88\n"

    def test_internal_inconsistency_exit_code(self, plane49_file, capsys, monkeypatch):
        def broken(ring):
            raise InternalInconsistency("routes disagree")

        monkeypatch.setattr(branchinv.cli, "compute", broken)
        assert main(["analyze", plane49_file, "--json"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "results withheld" in captured.err and "routes disagree" in captured.err

    def test_plane_branch_must_be_gorenstein(self, plane49_file, capsys, monkeypatch):
        monkeypatch.setattr(branchinv.branch, "_symmetric", lambda gapset, c: False)
        assert main(["analyze", plane49_file, "--json"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "results withheld" in captured.err and "Gorenstein" in captured.err

    def test_one_verification_per_run(self, plane49_file, capsys, monkeypatch):
        # 64 certifies the ring, with room, and only that ring is verified;
        # the report prints the 89 that the derivative module's report asks
        # for, which no closure reads
        tried = record_tries(monkeypatch)
        certified = record_certificates(monkeypatch)
        assert main(["analyze", plane49_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["truncation"] == 89 and report["stable"] is True
        assert tried == [64] and certified == [64]

    def test_verified_run_never_tries_the_cap(self, tmp_path, capsys, monkeypatch):
        # <38,41> certifies c = 1480 at 2880 but needs N > 1480 + 39*38 = 2962
        # for room; the cap 4096 has it, and the move there is arithmetic, so
        # no closure runs at the cap and the verified run reports 4096
        tried = record_tries(monkeypatch)
        certified = record_certificates(monkeypatch)
        path = tmp_path / "p3841.branch"
        path.write_text("t^38\nt^41\n", encoding="utf-8")
        assert main(["analyze", str(path), "--json"]) == 0
        assert tried == [180, 360, 720, 1440, 2880] and certified == [4096]
        report = json.loads(capsys.readouterr().out)
        assert (report["truncation"], report["stable"], report["conductor"]) == (4096, True, 1480)

    def test_tries_that_cannot_certify_are_skipped(self, tmp_path, capsys, monkeypatch):
        # below 3000 + 1 + e no run of e certified values fits, so no
        # truncation of 100 .. 1600 closes the ring, and 3200 certifies it;
        # the CLI refuses the degree before it parses the file
        tried = record_tries(monkeypatch)
        spec = branchinv.branch.BranchSpec.from_strings(["t^2", "t^3+t^3000"])
        ring = branchinv.branch.analyze(spec, initial_truncation=100)
        assert (ring.truncation, ring.conductor_c, ring.stable) == (3200, 2, True)
        assert tried == [3200]
        path = write(tmp_path, "wide.branch", "t^2\nt^3+t^3000\n")
        assert main(["analyze", path, "--json", "--truncation", "100"]) == 3
        assert tried == [3200]
        assert capsys.readouterr().err == (
            f"error: {path}:2: generator degree 3000 needs truncation at least 12016, "
            "above the cap 4096 (at position 6)\n")

    def test_verification_mismatch_exits_4(self, plane49_file, capsys, monkeypatch):
        perturb_verification(monkeypatch)
        assert main(["analyze", plane49_file, "--json"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "results withheld" in captured.err and "closure certificate failed" in captured.err

    @pytest.mark.parametrize("perturb, message", [
        # the top level c - vmin, where t^(c - vmin) always multiplies D into R
        (lambda levels: levels[:-1], "outside v(R)"),
        # a level below the top that plane49's D leaves out: on a Gorenstein
        # ring the scan must find a multiplier at every level of the bound
        (lambda levels: sorted(levels + [min(set(range(levels[0], levels[-1])) - set(levels))]),
         "Gorenstein ring, but the inverse misses"),
    ], ids=["level-outside-bound", "level-missed"])
    def test_inverse_level_mismatch_exits_4(self, plane49_file, capsys, monkeypatch,
                                            perturb, message):
        levels = branchinv.ideals._multiplier_levels
        monkeypatch.setattr(branchinv.ideals, "_multiplier_levels", lambda I: perturb(levels(I)))
        assert main(["analyze", plane49_file, "--json"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "results withheld" in captured.err and message in captured.err

    def test_ideal_inverted_once(self, capsys, monkeypatch):
        # inverse(I) is kept on I, so trace, h_invariant and realizes_itself
        # reuse it; a full run scans once more, for D
        scans = []
        columns = branchinv.ideals._reduction_columns

        def counting(*args):
            scans.append(args[1])
            return columns(*args)

        monkeypatch.setattr(branchinv.ideals, "_reduction_columns", counting)
        monkeypatch.chdir(REPO)
        ring = branchinv.branch.analyze(read_branch_file("branches/cusp.branch"))
        branchinv.cli._ideal_section(ring, "branches/cusp_maximal_ideal.ideal", 4096)
        assert len(scans) == 1
        scans.clear()
        assert main(["analyze", "branches/cusp.branch", "--json",
                     "--ideal", "branches/cusp_maximal_ideal.ideal"]) == 0
        assert len(scans) == 2

    @pytest.mark.parametrize("expected, branch, ideal", GOLDEN_CASES,
                             ids=[case[0] for case in GOLDEN_CASES])
    def test_bundled_branch_json_pinned(self, expected, branch, ideal, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        argv = ["analyze", branch, "--json"] + (["--ideal", ideal] if ideal else [])
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / expected).read_text(encoding="utf-8")

    def test_byte_identical_reports(self, plane49_file, capsys):
        main(["analyze", plane49_file, "--json"])
        first = capsys.readouterr().out
        main(["analyze", plane49_file, "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_no_verify_agrees_except_stable_flag(self, plane49_file, capsys):
        main(["analyze", plane49_file, "--json"])
        verified = json.loads(capsys.readouterr().out)
        main(["analyze", plane49_file, "--json", "--no-verify"])
        unverified = json.loads(capsys.readouterr().out)
        assert verified["stable"] is True and unverified["stable"] is False
        verified["stable"] = unverified["stable"]
        assert verified == unverified

    def test_explicit_truncation_flag(self, plane49_file, capsys):
        assert main(["analyze", plane49_file, "--json", "--truncation", "128"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["truncation"] >= 128
        assert report["h"] == 6

    def test_ideal_flag(self, tmp_path, capsys):
        branch = write(tmp_path, "c.branch", "t^2\nt^3\n")
        ideal = write(tmp_path, "m.ideal", "t^2\nt^3\n")
        assert main(["analyze", branch, "--json", "--ideal", ideal]) == 0
        report = json.loads(capsys.readouterr().out)
        sec = report["ideal"]
        assert sec["h"] == 1
        assert sec["v_inverse"] == 0
        assert sec["realizes_itself"] is True

    def test_ideal_flag_with_shift(self, tmp_path, capsys):
        branch = write(tmp_path, "c.branch", "t^2\nt^3\n")
        # t^-2 * (t^2, t^3) = (1, t): not integral, so realizes_itself is null
        ideal = write(tmp_path, "s.ideal", "shift: 2\nt^2\nt^3\n")
        assert main(["analyze", branch, "--json", "--ideal", ideal]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ideal"]["vmin"] == 0
        assert report["ideal"]["h"] == 1
        assert report["ideal"]["realizes_itself"] is None

    def test_ideal_closes_past_the_ring_truncation(self, tmp_path, capsys):
        # the closure of t^200 runs to 204, past the ring's truncation 64; the
        # reported truncation is the one without the ideal
        branch = write(tmp_path, "c.branch", "t^2\nt^3\n")
        assert main(["analyze", branch, "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        ideal = write(tmp_path, "far.ideal", "t^200\n")
        assert main(["analyze", branch, "--json", "--ideal", ideal]) == 0
        report = json.loads(capsys.readouterr().out)
        sec = report.pop("ideal")
        assert report == plain
        assert (sec["vmin"], sec["h"], sec["v_inverse"]) == (200, 0, -200)
        assert (sec["trace_vmin"], sec["trace_gaps"]) == (0, [1])
        assert sec["realizes_itself"] is False

    def test_shifted_copies_share_h_and_trace(self, tmp_path, capsys):
        branch = write(tmp_path, "c.branch", "t^2\nt^3\n")
        secs = []
        for name, text in (("m", "t^2\nt^3\n"), ("far", "t^202\nt^203\n"),
                           ("neg", "shift: 300\nt^2\nt^3\n")):
            assert main(["analyze", branch, "--json",
                         "--ideal", write(tmp_path, f"{name}.ideal", text)]) == 0
            secs.append(json.loads(capsys.readouterr().out)["ideal"])
        assert [sec["vmin"] for sec in secs] == [2, 202, -298]
        for sec in secs:
            assert sec["h"] == 1
            assert (sec["trace_vmin"], sec["trace_gaps"]) == (secs[0]["trace_vmin"],
                                                            secs[0]["trace_gaps"])

    def test_ideal_room_covers_the_trace(self, tmp_path):
        # <t^3, t^7> (c = 12) analyzed at 25 has room for k[[t]] itself, but
        # not for its trace, the conductor, whose closure needs 2c + e + 1 = 28
        spec = branchinv.branch.BranchSpec.from_strings(["t^3", "t^7"])
        ring = branchinv.branch.analyze(spec, initial_truncation=25, verify_stability=False)
        assert ring.truncation == 25
        ideal = write(tmp_path, "rbar.ideal", "".join(f"t^{j}\n" for j in range(12)))
        sec = branchinv.cli._ideal_section(ring, ideal, 4096)
        assert (sec["vmin"], sec["v_inverse"], sec["trace_vmin"], sec["trace_gaps"]) == (0, 12, 12, [])

    def test_far_negative_vmin_lists_no_tail(self, tmp_path, capsys):
        # vmin = -999998 puts a million valuations in the ideal's implicit
        # tail; listing them took 38 MB and 1 s, and a shift of 10^9 ran out
        # of memory
        branch = write(tmp_path, "c.branch", "t^2\nt^3\n")
        ideal = write(tmp_path, "neg.ideal", "shift: 1000000\nt^2\nt^3\n")
        tracemalloc.start()
        try:
            assert main(["analyze", branch, "--json", "--ideal", ideal]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sec = json.loads(capsys.readouterr().out)["ideal"]
        assert (sec["vmin"], sec["h"], sec["v_inverse"]) == (-999998, 1, 1000000)
        assert peak < 4 * 2**20

    def test_ideal_room_above_the_cap(self, tmp_path, capsys):
        branch = write(tmp_path, "c.branch", "t^2\nt^3\n")
        ideal = write(tmp_path, "cap.ideal", "shift: -5000\nt^2\n")
        assert main(["analyze", branch, "--json", "--ideal", ideal]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: ideal with vmin 5002 needs truncation 5007, above the cap 4096\n")


@pytest.fixture(scope="module")
def certified_branches(tmp_path_factory):
    """(branch file, its certified ring) for a few small branches."""
    out = []
    for texts in (["t^4+t^5", "t^9"], ["t^3", "t^4", "t^5"], ["t^4", "t^6+t^7"],
                  ["t^6", "t^9+t^10", "t^11"], ["t^4+t^7", "t^5", "t^11"], ["t^5", "t^6", "t^14"]):
        path = tmp_path_factory.mktemp("certified") / "b.branch"
        path.write_text("\n".join(texts) + "\n", encoding="utf-8")
        spec = read_branch_file(str(path))
        out.append((str(path), branchinv.branch.analyze(spec)))
    return out


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_certificate_rejects_one_changed_coefficient(certified_branches, capsys, data):
    # a change at a gap key of a stored row, or of a generator, leaves V with
    # the same pivots; V would then be R, and the gap a value of R, so the
    # certificate must fail and the run exit 4
    path, ring = data.draw(st.sampled_from(certified_branches), label="branch")
    delta = data.draw(st.sampled_from([1, -1, 2, -7]), label="delta")
    gaps = ring.gaps
    if data.draw(st.booleans(), label="change a row"):
        v = data.draw(st.sampled_from([v for v in ring.ring_basis._rows if v < gaps[-1]]),
                      label="row")
        k = data.draw(st.sampled_from([g for g in gaps if g > v]), label="gap")

        def change(basis, gens):
            return change_coefficient(basis, v, k, delta), gens
    else:
        i = data.draw(st.integers(0, len(ring.generators) - 1), label="generator")
        k = data.draw(st.sampled_from(gaps), label="gap")

        def change(basis, gens):
            gens = list(gens)
            gens[i] = gens[i] + TruncatedSeries.t_power(k, delta)
            return basis, tuple(gens)

    certify = branchinv.branch._certify_closure
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(branchinv.branch, "_certify_closure",
                   lambda basis, gens: certify(*change(basis, gens)))
        assert main(["analyze", path, "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "results withheld" in captured.err and "closure certificate failed" in captured.err


class TestSemigroupCommand:
    def test_two_three(self, capsys):
        assert main(["semigroup", "2", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "generators": [2, 3], "gaps": [1], "frobenius": 1,
            "conductor": 2, "delta": 1, "symmetric": True,
        }

    def test_example_branch_generators(self, capsys):
        assert main(["semigroup", "5", "6", "14", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["gaps"] == [1, 2, 3, 4, 7, 8, 9, 13]
        assert data["conductor"] == 14
        assert data["delta"] == 8

    def test_monomialized_four_generator_branch(self, capsys):
        assert main(["semigroup", "9", "14", "17", "29", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["conductor"] == 40

    def test_gcd_not_one_rejected(self, capsys):
        assert main(["semigroup", "4", "6"]) == 2

    def test_text_output(self, capsys):
        assert main(["semigroup", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "conductor: 2" in out
