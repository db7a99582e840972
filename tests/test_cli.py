"""End-to-end CLI behavior: golden strings, formats, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import layerscope
from layerscope import probabilities
from layerscope.cli import main
from layerscope.graphs import Family
from layerscope.polynomials import RationalFunction
from layerscope.probabilities import build_chain, expected_hops, input_table


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_layers_vertex_table(capsys):
    rc, out, _ = run_cli(capsys, "layers", "-f", "K", "-D", "4", "--vertex", "0102")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1].split() == ["4", "d^4", "-", "d^2", "-", "d", "-", "1"]
    assert "d^4 - d^2 - d - 1" in out


def test_layers_single_index_and_value(capsys):
    rc, out, _ = run_cli(capsys, "layers", "-f", "B", "-D", "7", "--vertex", "0110101", "-i", "6")
    assert rc == 0
    assert "d^6 - d^4 - d" in out
    rc, out, _ = run_cli(capsys, "layers", "-f", "B", "-D", "7", "--vertex", "0110101", "-i", "0")
    assert out.splitlines()[-1].startswith("0  1")
    rc, out, _ = run_cli(
        capsys, "layers", "-f", "K", "-D", "4", "--class", "0101", "-d", "2", "-i", "4"
    )
    assert "12" in out  # d^4 - d^2 at d = 2


def test_layers_class_needs_alphabet_of_d(capsys):
    # a class with more symbols than the alphabet at d has no vertex there
    for family, D, cls, d in [("K", "4", "0123", "2"), ("B", "3", "012", "2")]:
        rc, out, err = run_cli(capsys, "layers", "-f", family, "-D", D, "--class", cls, "-d", d)
        assert rc == 1 and out == ""
        assert "error:" in err and cls in err
    rc, out, _ = run_cli(capsys, "layers", "-f", "K", "-D", "4", "--class", "0123", "-d", "3", "-i", "4")
    assert rc == 0 and "68" in out  # d^4 - d^2 - d - 1 at d = 3
    # the symbol count is read off the restricted-growth form, so require it
    rc, out, err = run_cli(capsys, "layers", "-f", "B", "-D", "3", "--class", "555", "-d", "5")
    assert rc == 1 and out == "" and "restricted-growth" in err


def test_layers_usage_and_parse_errors(capsys):
    rc, _, err = run_cli(capsys, "layers", "-f", "K", "-D", "4")
    assert rc == 1 and "error" in err
    rc, _, err = run_cli(capsys, "layers", "-f", "K", "-D", "4", "--vertex", "0011")
    assert rc == 1  # Kautz repeat
    rc, _, err = run_cli(capsys, "layers", "-f", "K", "-D", "4", "--vertex", "01")
    assert rc == 1  # wrong length


def test_layers_empty_word_is_a_length_error(capsys):
    for flag in ("--vertex", "--class"):
        rc, out, err = run_cli(capsys, "layers", "-f", "B", "-D", "3", flag, "")
        assert rc == 1 and out == ""
        assert err == "error: expected 3 symbols, got 0\n"


def test_pin_golden_table(capsys):
    rc, out, _ = run_cli(capsys, "pin", "-f", "K", "-D", "4")
    assert rc == 0
    assert "d / (d^4 + d^3 - 1)" in out
    assert "(d^4 - 1) / (d^6 + d^5 - d^2)" in out
    assert "(d^5 - d^2 - d + 1) / (d^6 + d^5 - d^2)" in out
    assert "(d^5 - d^3 - d^2 + 1) / (d^5 + d^4 - d)" in out


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["pin", "-f", "K", "-D", "3"]
    rc, out, _ = run_cli(capsys, *argv)
    src = os.path.dirname(os.path.dirname(layerscope.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "layerscope", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert rc == 0
    assert (proc.returncode, proc.stdout) == (0, out)


def test_pin_concrete_value(capsys):
    rc, out, _ = run_cli(capsys, "pin", "-f", "K", "-D", "4", "-i", "1", "-d", "2")
    assert rc == 0
    assert "2/23" in out


def test_pt_symbolic_and_tag(capsys):
    rc, out, _ = run_cli(capsys, "pt", "-f", "K", "-D", "4", "-i", "1", "-j", "2")
    assert rc == 0
    assert "1 / d^2" in out
    assert "valid for d >= 3" in out
    rc, _, _ = run_cli(capsys, "pt", "-f", "K", "-D", "4", "-i", "1", "-j", "2", "-d", "3", "--symbolic")
    assert rc == 1  # --symbolic is not an option; symbolic is the default without -d


@pytest.mark.parametrize(
    "argv, message",
    [
        (("-i", "9"), "need 1 <= i <= D, got i=9, D=3"),
        (("-i", "0"), "need 1 <= i <= D, got i=0, D=3"),
        (("-j", "4"), "need 1 <= j <= D, got j=4, D=3"),
        (("-i", "1", "-j", "0"), "need 1 <= j <= D, got j=0, D=3"),
    ],
)
def test_pt_rejects_indices_outside_1_to_D_by_name(capsys, argv, message):
    # the error pin -i gives, naming only the indices passed
    rc, out, err = run_cli(capsys, "pt", "-f", "B", "-D", "3", *argv)
    rc_pin, _, err_pin = run_cli(capsys, "pin", "-f", "B", "-D", "3", "-i", "9")
    assert (rc, out, err) == (1, "", f"error: {message}\n")
    assert (rc_pin, err_pin) == (1, "error: need 1 <= i <= D, got i=9, D=3\n")


def test_meandist_degenerate(capsys):
    rc, out, _ = run_cli(capsys, "meandist", "-f", "B", "-D", "1")
    assert rc == 0
    assert out.splitlines()[-1].strip() == "1"


def test_json_round_trip(capsys):
    rc, out, _ = run_cli(capsys, "pin", "-f", "K", "-D", "4", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    for row in data["rows"]:
        rf = RationalFunction.from_json(row["rf"])
        assert rf.format() == row["formula"]


def test_csv_output(capsys):
    rc, out, _ = run_cli(capsys, "pt", "-f", "K", "-D", "4", "--format", "csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["i", "j", "formula"]
    assert ["1", "2", "1 / d^2"] in rows


def test_verify_single_graph_ok(capsys):
    rc, out, _ = run_cli(capsys, "verify", "-f", "B", "-d", "2", "-D", "4")
    assert rc == 0
    assert "match the oracle exactly" in out


def test_verify_runs_repeated_grid_values_once(capsys):
    rc, out, _ = run_cli(capsys, "verify", "-f", "B", "-f", "b", "-d", "2", "-d", "2", "-D", "2")
    assert rc == 0
    assert "verified 93 checks over B(2,2)\n" in out
    rc, out, _ = run_cli(capsys, "verify", "-f", "k", "-f", "B", "-f", "K", "-d", "3", "-d", "2", "-d", "3", "-D", "2")
    assert rc == 0
    assert "over K(3,2), K(2,2), B(3,2), B(2,2)\n" in out


def test_pt_refuses_class_count_over_the_cap(capsys):
    # Bell(14) = 190,899,322 classes
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "pt", "-f", "B", "-D", "14")
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == ""
    assert "190,899,322 vertex classes" in err and "1,000,000" in err


def test_pin_runs_past_the_bell_cap(capsys):
    # Bell(12) = 4,213,597 classes; the border-array search of B(d,12) visits 15,351 nodes
    rc, out, err = run_cli(capsys, "pin", "-f", "B", "-D", "12")
    assert rc == 0 and err == "" and len(out.splitlines()) == 14
    assert input_table(Family.DEBRUIJN, 12).check_normalized()


def test_pin_refuses_a_huge_diameter_at_once(capsys):
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "pin", "-f", "B", "-D", "100000")
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == ""
    assert "2^99999 border-array nodes" in err and "cap of 1,000,000" in err


def test_pin_refuses_over_a_lowered_cap(capsys, monkeypatch):
    # K(d,9) has 301 nodes; none of its P_in may come from a cache filled under the real cap
    for f in (probabilities._pair_counts, probabilities.p_in):
        f.cache_clear()
    monkeypatch.setattr("layerscope.vertex_classes.CLASS_CAP", 300)
    rc, out, err = run_cli(capsys, "pin", "-f", "K", "-D", "9")
    assert rc == 2 and out == ""
    assert err.strip() == "error: P_in of K(d,9) needs more border-array nodes than the cap of 300"


def test_markov_refuses_p_in_over_the_cap_before_the_chain(capsys, monkeypatch):
    # the start vector's border-array search is the cheap refusal; the P_t class sums must not run first
    for f in (probabilities._pair_counts, probabilities.p_in):
        f.cache_clear()
    monkeypatch.setattr("layerscope.vertex_classes.CLASS_CAP", 300)

    def no_chain(*_):
        raise AssertionError("the P_t chain was built before P_in was refused")

    monkeypatch.setattr("layerscope.cli.build_chain", no_chain)
    rc, out, err = run_cli(capsys, "markov", "-f", "K", "-d", "2", "-D", "9", "-p", "1/10")
    assert rc == 2 and out == ""
    assert err.strip() == "error: P_in of K(d,9) needs more border-array nodes than the cap of 300"


def test_markov_refuses_a_walk_over_the_n2_cap_before_the_chain(capsys, monkeypatch):
    # the walk's graph is refused on its n^2 distance bytes alone; the P_t class sums must not run first
    def no_chain(*_):
        raise AssertionError("the P_t chain was built before the walk's graph was refused")

    monkeypatch.setattr("layerscope.cli.build_chain", no_chain)
    rc, out, err = run_cli(capsys, "markov", "-f", "K", "-d", "4", "-D", "7", "-p", "1/10", "--monte-carlo", "10")
    assert rc == 2 and out == ""
    assert err.strip() == "error: K(4,7) needs n^2 = 419,430,400 bytes, above the APSP cap of 268,435,456"


@pytest.mark.parametrize("extra", [[], ["--format", "json"], ["--monte-carlo", "200", "--seed", "1"]])
def test_markov_solves_the_chain_once(capsys, monkeypatch, extra):
    calls = []
    solve = probabilities.hitting_times

    def counted(chain):
        calls.append(chain.D)
        return solve(chain)

    # `from .probabilities import hitting_times` copies the binding, so patch every module holding it
    for module in (probabilities, layerscope.cli):
        if getattr(module, "hitting_times", None) is solve:
            monkeypatch.setattr(module, "hitting_times", counted)
    rc, out, _ = run_cli(capsys, "markov", "-f", "K", "-d", "3", "-D", "4", "-p", "1/10", *extra)
    assert rc == 0 and out
    assert calls == [4]


@pytest.mark.parametrize("argv", ["pt -f B -D 6 -d 3", "pt -f K -D 6 -d 3 --format json"])
def test_pt_at_a_degree_above_2_runs_one_class_kernel(capsys, argv):
    # the value column is the printed formula at d, not a second kernel run bounded by the alphabet
    for f in vars(probabilities).values():
        getattr(f, "cache_clear", lambda: None)()
    rc, out, err = run_cli(capsys, *argv.split())
    assert rc == 0 and out and err == ""
    assert probabilities._transition_sums.cache_info().currsize == 1


def test_pt_at_a_degree_above_2_refuses_the_symbolic_class_count_at_once(capsys):
    # the printed formula needs all Bell(14) classes, so no alphabet-bounded class sum runs before the refusal
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "pt", "-f", "B", "-D", "14", "-d", "3", "-i", "1", "-j", "1")
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == ""
    assert "B(d,14) has 190,899,322 vertex classes, above the cap of 1,000,000" in err


def _no_bfs(*_):
    raise AssertionError("BFS ran before the caps were checked")


def test_verify_cap_exit_code(capsys, monkeypatch):
    # B(2,16) is over n^2
    monkeypatch.setattr("layerscope.oracle.DistanceTable", _no_bfs)
    rc, out, err = run_cli(capsys, "verify", "-f", "B", "-d", "2", "-D", "16")
    assert rc == 2 and out == ""
    assert "B(2,16) needs n^2 = 4,294,967,296 bytes, above the APSP cap of 268,435,456" in err


# K(5,6) has 18,750 vertices and n^2 = 351,562,500
@pytest.mark.parametrize(
    "argv",
    [["verify"], ["markov", "-p", "1/10", "--monte-carlo", "10"]],
    ids=["verify", "markov"],
)
def test_distance_table_over_the_apsp_cap_refused(capsys, argv):
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, *argv, "-f", "K", "-d", "5", "-D", "6")
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == ""
    assert "K(5,6) needs n^2 = 351,562,500 bytes, above the APSP cap of 268,435,456" in err


def _no_build(*_):
    raise AssertionError("a vertex was enumerated before the APSP cap was checked")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "-f", "B", "-d", "2", "-D", "16"], "B(2,16) needs n^2 = 4,294,967,296 bytes"),
        (
            ["markov", "-f", "K", "-d", "5", "-D", "6", "-p", "1/10", "--monte-carlo", "10"],
            "K(5,6) needs n^2 = 351,562,500 bytes",
        ),
    ],
    ids=["verify", "markov"],
)
def test_apsp_cap_refused_before_the_graph_is_built(capsys, monkeypatch, argv, message):
    monkeypatch.setattr("layerscope.graphs._enumerate_vertices", _no_build)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert f"error: {message}, above the APSP cap of 268,435,456\n" == err


def test_markov_p_zero_equals_mean_distance(capsys):
    rc, out, _ = run_cli(capsys, "markov", "-f", "K", "-d", "3", "-D", "4", "-p", "0")
    assert rc == 0
    # mean distance of K(3,4) is 3379/963
    assert "3379/963" in out


def test_markov_p_one_diverges(capsys):
    rc, out, _ = run_cli(capsys, "markov", "-f", "K", "-d", "3", "-D", "4", "-p", "1")
    assert rc == 0
    assert "diverges" in out


def test_markov_monte_carlo(capsys):
    rc, out, _ = run_cli(
        capsys,
        "markov", "-f", "K", "-d", "3", "-D", "4", "-p", "1/10",
        "--monte-carlo", "20000", "--seed", "11",
    )
    assert rc == 0
    assert "monte carlo" in out
    assert "<=" in out


def test_markov_monte_carlo_refuses_walks_over_the_hop_budget(capsys):
    # B(2,6) at p = 9/10 expects 201,873 hops per packet: 2.02e11 hops in all
    start = time.perf_counter()
    rc, out, err = run_cli(
        capsys, "markov", "-f", "B", "-d", "2", "-D", "6", "-p", "9/10", "--monte-carlo", "1000000"
    )
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == ""
    assert "201873 expected hops = 2.02e+11 hops" in err
    assert "above the walk budget of 100,000,000" in err


def test_markov_json_payload(capsys):
    rc, out, _ = run_cli(
        capsys, "markov", "-f", "K", "-d", "3", "-D", "4", "-p", "1/10", "--format", "json"
    )
    assert rc == 0
    data = json.loads(out)
    assert data["expected_hops_from_input"] == "38526305/8424324"
    rows = data["rows"]
    assert rows[0] == ["1", "0", "0", "0", "0"]


def test_markov_at_a_concrete_degree_enumerates_only_its_alphabet(capsys):
    # Bell(12) = 4,213,597 classes are over the class cap; 2,048 fit d = 2
    rc, out, err = run_cli(capsys, "markov", "-f", "B", "-d", "2", "-D", "12", "-p", "1/10")
    assert rc == 0 and err == ""
    rc, out, err = run_cli(capsys, "markov", "-f", "B", "-d", "3", "-D", "16", "-p", "1/10")
    assert rc == 2 and out == ""
    assert "7,174,454 vertex classes with at most 3 symbols" in err


@pytest.mark.parametrize("digits", [2200, 4400])
def test_markov_prints_exact_values_past_4300_digits(capsys, digits):
    # 1/733...3: the -p text itself, or the chain's exact values, pass 4,300 digits,
    # Python's default limit on integer-string conversion, which main lifts
    p = "1/7" + "3" * (digits - 1)
    rc, out, err = run_cli(capsys, "markov", "-f", "B", "-d", "2", "-D", "3", "-p", p, "--format", "json")
    assert rc == 0 and err == ""
    data = json.loads(out)
    chain = build_chain(Family.DEBRUIJN, 2, 3, Fraction(p))
    assert data["deflect_prob"] == p
    assert data["rows"] == [[str(x) for x in row] for row in chain.rows]
    assert data["expected_hops_from_input"] == str(expected_hops(chain))
    assert len(data["expected_hops_from_input"]) > 4300


def test_unknown_family_exit_code(capsys):
    rc, _, err = run_cli(capsys, "pin", "-f", "X", "-D", "4")
    assert rc == 1


def test_markov_rejects_unparsable_p(capsys):
    for p in ("1/0", "abc"):
        rc, _, err = run_cli(capsys, "markov", "-f", "K", "-d", "3", "-D", "4", "-p", p)
        assert rc == 1
        assert "error:" in err and "-p" in err


def test_markov_rejects_negative_p_in_either_spelling(capsys):
    for p in (("-p", "-1/2"), ("-p=-1/2",)):
        rc, out, err = run_cli(capsys, "markov", "-f", "K", "-d", "3", "-D", "4", *p)
        assert rc == 1, p
        assert out == ""
        assert "deflection probability must lie in [0, 1], got -1/2" in err, p


def test_markov_rejects_single_packet(capsys):
    rc, _, err = run_cli(
        capsys, "markov", "-f", "K", "-d", "3", "-D", "4", "-p", "1/10", "--monte-carlo", "1"
    )
    assert rc == 1
    assert "error:" in err and "--monte-carlo" in err


def test_markov_rejects_negative_packets(capsys):
    rc, _, err = run_cli(
        capsys, "markov", "-f", "K", "-d", "3", "-D", "4", "-p", "1/10", "--monte-carlo", "-5"
    )
    assert rc == 1
    assert "error:" in err and "--monte-carlo" in err


def test_markov_rejects_negative_seed(capsys):
    # random.Random(-3) seeds as Random(3), so a negative seed would repeat another's walk
    argv = ("markov", "-f", "B", "-d", "2", "-D", "4", "-p", "1/10", "--monte-carlo", "1000")
    rc, out, err = run_cli(capsys, *argv, "--seed", "-3")
    assert rc == 1 and out == ""
    assert "error: argument --seed: expected an integer >= 0, got '-3'" in err
    rc, out, _ = run_cli(capsys, *argv, "--seed", "0")
    assert rc == 0 and "seed 0" in out


def test_degree_below_two_rejected(capsys):
    rc, out, err = run_cli(capsys, "layers", "-f", "B", "-D", "4", "--vertex", "0101", "-d", "1")
    assert rc == 1 and out == ""
    assert "error:" in err and "-d" in err
    rc, _, err = run_cli(capsys, "verify", "-f", "B", "-d", "1", "-D", "2")
    assert rc == 1 and "error:" in err


def test_diameter_below_one_rejected(capsys):
    rc, out, err = run_cli(capsys, "pin", "-f", "B", "-D", "0")
    assert rc == 1 and out == ""
    assert "error:" in err and "-D" in err
    rc, _, err = run_cli(capsys, "pt", "-f", "K", "-D", "-1")
    assert rc == 1 and "error:" in err


# there is no --cap option: the guards are the n^2, class and hop caps
def test_verify_rejects_nonpositive_cap(capsys):
    for cap in ("0", "-1", "10"):
        rc, out, err = run_cli(capsys, "verify", "-f", "B", "-d", "2", "-D", "2", "--cap", cap)
        assert rc == 1 and out == ""
        assert "error:" in err and "--cap" in err


def test_markov_rejects_nonpositive_cap(capsys):
    for cap in ("0", "-1", "10"):
        rc, out, err = run_cli(
            capsys, "markov", "-f", "K", "-d", "3", "-D", "4", "-p", "1/10",
            "--monte-carlo", "100", "--cap", cap,
        )
        assert rc == 1 and out == ""
        assert "error:" in err and "--cap" in err
