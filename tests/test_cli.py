"""Command-line interface: exit codes, outputs, reproducibility."""

import csv
import io

import pytest

from helpers import format_domain, format_problem
from poclab.cli import main
from poclab.domains import bundled


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plan_bundled_blocks_lcfr(capsys):
    code, out, err = run(
        capsys, "plan", "--bundled", "blocks", "--builtin", "LCFR", "--node-limit", "10000"
    )
    assert code == 0
    assert "solution (3 steps):" in out
    assert "move-to-table(C A)" in out
    assert "nodes generated:" in out
    assert "children built:" in out
    assert "flaws costed: 0" in out


def test_plan_failure_exit_code(capsys):
    code, out, err = run(
        capsys, "plan", "--bundled", "blocks", "--builtin", "LCFR", "--node-limit", "5"
    )
    assert code == 1
    assert "no solution: node-limit" in err
    assert "nodes generated:" in out


def test_plan_reports_a_search_that_ends_in_an_ungroundable_plan_as_exhausted(tmp_path, capsys):
    # the one flaw-free plan keeps o's ?x apart from both objects
    dpath, ppath = tmp_path / "k.dom", tmp_path / "k.prob"
    dpath.write_text(
        "(define (domain k) (:predicates (u ?a) (p ?a))"
        " (:operator o :parameters (?x ?y) :precondition (and) :effect (and (u ?y) (not (p ?x)))))"
    )
    ppath.write_text(
        "(define (problem k) (:domain k) (:objects A B) (:init (p A) (p B)) (:goal (and (p A) (p B) (u A))))"
    )
    code, out, err = run(
        capsys, "plan", "--domain", str(dpath), "--problem", str(ppath), "--builtin", "LCFR", "--node-limit", "300"
    )
    assert code == 1
    assert "no solution: exhausted" in err


def test_plan_with_custom_strategy_and_problem_name(capsys):
    code, out, err = run(
        capsys,
        "plan",
        "--bundled", "blocks",
        "--problem", "tower4",
        "--strategy", "{n,s}LIFO / {o}LC",
        "--node-limit", "10000",
    )
    assert code == 0
    assert "solution (3 steps):" in out


def test_plan_unknown_bundled_problem(capsys):
    code, out, err = run(
        capsys, "plan", "--bundled", "blocks", "--problem", "nope", "--builtin", "LCFR",
        "--node-limit", "100",
    )
    assert code == 2
    assert "no bundled problem" in err


def test_plan_from_files(tmp_path, capsys):
    dom, probs = bundled("briefcase")
    dpath = tmp_path / "briefcase.dom"
    ppath = tmp_path / "get-paid.prob"
    dpath.write_text(format_domain(dom))
    ppath.write_text(format_problem(probs[0]))
    code, out, err = run(
        capsys,
        "plan", "--domain", str(dpath), "--problem", str(ppath),
        "--builtin", "ZLIFO", "--node-limit", "10000",
    )
    assert code == 0
    assert "solution (" in out


def test_plan_rejects_unknown_rank_term(capsys):
    code, out, err = run(
        capsys,
        "plan", "--bundled", "blocks", "--builtin", "LCFR",
        "--node-limit", "100", "--rank", "S+OC+.1UC+F",
    )
    assert code == 2
    assert "'F'" in err


def test_validate_good_and_bad(capsys):
    code, out, err = run(capsys, "validate", "--strategy", "{o,n,s}LC")
    assert code == 0 and "ok:" in out
    code, out, err = run(capsys, "validate", "--strategy", "{n}LIFO")
    assert code == 2
    assert "open conditions uncovered" in err


def test_list_strategies(capsys):
    code, out, err = run(capsys, "list-strategies")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 14
    assert any("LCFR-DSep" in l and "{n,o}LC / {s}LC" in l for l in lines)
    assert any(l.startswith("ZLIFO") for l in lines)


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["plan", "--bundled", "blocks"]) == 2  # no strategy
    code, out, err = run(capsys, "plan", "--domain", "x.dom", "--builtin", "LCFR")
    assert code == 2  # --domain without --problem


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("POCL_SEED", "99")
    code, out, err = run(
        capsys, "plan", "--bundled", "blocks", "--builtin", "LCFR", "--node-limit", "10000"
    )
    assert code == 0
    assert "seed: 99" in out
    monkeypatch.delenv("POCL_SEED")
    code, out, err = run(
        capsys, "plan", "--bundled", "blocks", "--builtin", "LCFR", "--node-limit", "10000",
        "--seed", "3",
    )
    assert "seed: 3" in out


def test_seed_env_that_is_not_an_integer_is_named(capsys, monkeypatch):
    monkeypatch.setenv("POCL_SEED", "abc")
    code, out, err = run(capsys, "plan", "--bundled", "blocks", "--builtin", "LCFR")
    assert code == 2
    assert err == "error: POCL_SEED must be an integer, got 'abc'\n"


def test_bench_to_file_and_summary(tmp_path, capsys):
    out_path = tmp_path / "m.csv"
    code, out, err = run(
        capsys,
        "bench", "--bundled", "blocks", "--strategies", "UCPOP,LCFR",
        "--node-limit", "10000", "--out", str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("strategy,problem,rank,limit_kind")
    assert "average %-overrun (node pass):" in out
    assert "problems unsolved by every strategy: none" in out



def test_bench_time_only_summary_names_no_unsolved_problems(tmp_path, capsys):
    # the unsolved list reads the node pass; a time-only run has none
    code, out, err = run(
        capsys,
        "bench", "--bundled", "blocks", "--strategies", "LCFR",
        "--time-limit", "30", "--out", str(tmp_path / "t.csv"),
    )
    assert code == 0
    assert "wrote 3 records" in out
    assert "unsolved by every strategy" not in out
    assert "average %-overrun" not in out

def test_bench_stdout_is_reproducible(capsys):
    args = (
        "bench", "--bundled", "blocks", "--strategies", "LCFR,ZLIFO",
        "--node-limit", "8000", "--seed", "4", "--out", "-",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_bench_suite_directory(tmp_path, capsys):
    dom, probs = bundled("blocks")
    (tmp_path / "blocks.dom").write_text(format_domain(dom))
    (tmp_path / "sussman.prob").write_text(format_problem(probs[0]))
    code, out, err = run(
        capsys,
        "bench", "--suite", str(tmp_path), "--strategies", "LCFR",
        "--node-limit", "5000", "--out", "-",
    )
    assert code == 0
    assert "sussman" in out


def test_bench_strategy_list_keeps_commas_inside_braces(capsys):
    code, out, err = run(
        capsys,
        "bench", "--bundled", "blocks", "--strategies", "LCFR,{n,s}LIFO / {o}LIFO",
        "--node-limit", "10000", "--out", "-",
    )
    assert code == 0, err
    labels = {row["strategy"] for row in csv.DictReader(io.StringIO(out))}
    assert labels == {"LCFR", "{n,s}LIFO / {o}LIFO"}


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(
        capsys,
        "bench", "--bundled", "blocks", "--strategies", "LCFR",
        "--node-limit", "100", "--jobs", jobs, "--out", "-",
    )
    assert code == 2
    assert "jobs" in err
    assert out == ""


def test_bench_rejects_duplicate_strategy_labels(capsys):
    # LCFR and lcfr name the same builtin: its rows would be written twice
    code, out, err = run(
        capsys,
        "bench", "--bundled", "blocks", "--strategies", "LCFR,lcfr,UCPOP",
        "--node-limit", "200", "--out", "-",
    )
    assert code == 2
    assert "strategy labels must be unique" in err
    assert out == ""


def test_bench_requires_some_limit(capsys):
    code, out, err = run(capsys, "bench", "--bundled", "blocks", "--out", "-")
    assert code == 2
    assert "limit" in err


def test_plan_toggle_flags(capsys):
    code, out, err = run(
        capsys,
        "plan", "--bundled", "blocks", "--builtin", "LCFR", "--node-limit", "10000",
        "--qlcfr", "--dmin", "--systematic", "--reverse-preconds", "--rank", "S+OC+UC",
    )
    assert code == 0
    assert "solution (3 steps):" in out
    costed = next(line for line in out.splitlines() if line.startswith("flaws costed: "))
    assert int(costed.split(": ")[1]) > 0
