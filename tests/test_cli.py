"""Command-line surface: output text, JSON stability, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import iterk
from iterk.cli import EXIT_OK, EXIT_PIPE, build_arg_parser, main
from iterk.tables import FiniteTable, cycle_report, dumps_table, hat_id, loads_table

ADD_MOD3 = FiniteTable.from_values(3, 2, [0, 1, 2, 1, 2, 0, 2, 0, 1])
II3_M4 = FiniteTable.from_values(
    4, 2, [0, 2, 3, 1, 2, 0, 1, 3, 3, 1, 0, 2, 1, 3, 2, 0]
)


@pytest.fixture
def table_path(tmp_path):
    p = tmp_path / "mod3.tbl"
    p.write_text(dumps_table(ADD_MOD3))
    return str(p)


@pytest.fixture
def table4_path(tmp_path):
    p = tmp_path / "m4.tbl"
    p.write_text(dumps_table(II3_M4))
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIterate:
    def test_definition(self, capsys):
        code, out, _ = run_cli(
            capsys, "iterate", "--def", "f(x1,x2)=x1+x2", "--seed", "1,1", "--n", "5"
        )
        assert code == 0 and out.strip() == "89 144"

    def test_rational_definition_joins_a_cyclotomic_seed(self, capsys):
        # the map is compiled over the join of its field and the seed's
        code, out, _ = run_cli(
            capsys, "iterate", "--def", "f(x1,x2)=x1+x2", "--seed", "zeta(3),1", "--n", "3"
        )
        assert code == 0 and out.strip() == "5*z + 8, 8*z + 13"

    def test_long_definition(self, capsys):
        # 5000*x1 + 5000*x2 written as 10,000 terms, no deeper than two
        body = " + ".join(["x1", "x2"] * 5000)
        code, out, err = run_cli(
            capsys, "iterate", "--def", f"f(x1,x2) = {body}", "--seed", "1,1", "--n", "1"
        )
        assert (code, out.strip(), err) == (0, "10000 50005000", "")
        code, out, err = run_cli(capsys, "order", "--def", f"f(x1,x2) = {body}")
        assert (code, out.strip(), err) == (0, "none", "")

    def test_table(self, capsys, table_path):
        code, out, _ = run_cli(
            capsys, "iterate", "--table", table_path, "--seed", "0,1", "--n", "1"
        )
        assert code == 0 and out.strip() == "1 2"

    def test_table_long_run_shortcuts_through_the_cycle(self, capsys, table_path):
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "iterate", "--table", table_path, "--seed", "0,1", "--n", "100000000"
        )
        assert code == 0 and out.strip() == "0 1"
        assert time.perf_counter() - start < 1.0

    def test_table_negative_count_is_a_usage_error(self, capsys, table_path):
        code, _, err = run_cli(
            capsys, "iterate", "--table", table_path, "--seed", "0,1", "--n", "-1"
        )
        assert code == 2 and ">= 0" in err

    def test_cyclotomic_seed(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "iterate",
            "--def",
            "f(x1,x2)=zeta(3)*x1+zeta(3)^2*x2",
            "--seed",
            "1,0",
            "--n",
            "3",
        )
        assert code == 0 and out.strip() == "5, -8*z - 8"

    def test_bad_seed_arity(self, capsys):
        code, _, err = run_cli(
            capsys, "iterate", "--def", "f(x1,x2)=x1+x2", "--seed", "1", "--n", "1"
        )
        assert code == 2 and "seed" in err

    def test_out_of_range_table_seed(self, capsys, table_path):
        code, _, err = run_cli(
            capsys, "iterate", "--table", table_path, "--seed", "0,7", "--n", "1"
        )
        assert code == 2 and "range" in err


class TestOrderAndCycles:
    def test_table_order(self, capsys, table_path):
        code, out, _ = run_cli(capsys, "order", "--table", table_path)
        assert code == 0 and out.strip() == "4"

    def test_affine_order(self, capsys):
        code, out, _ = run_cli(capsys, "order", "--def", "f(x1,x2)=1-x1-x2")
        assert code == 0 and out.strip() == "3"

    def test_non_affine_rejected(self, capsys):
        code, _, err = run_cli(capsys, "order", "--def", "f(x1,x2)=x1*x2")
        assert code == 2 and "affine" in err

    def test_cycles_json_is_stable(self, capsys, table_path):
        code1, out1, _ = run_cli(capsys, "cycles", "--table", table_path, "--json")
        code2, out2, _ = run_cli(capsys, "cycles", "--table", table_path, "--json")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["cycle_lengths"] == [4, 4, 1]
        assert payload["minimal_order"] == 4

    def test_point_order(self, capsys, table_path):
        code, out, _ = run_cli(
            capsys, "point-order", "--table", table_path, "--seed", "0,1"
        )
        assert code == 0 and out.strip() == "4"

    def test_table_point_order_is_exact_past_the_bound(self, capsys, tmp_path):
        # x1 xor x3 with k = 11 is a maximal shift register: every nonzero
        # state lies on one cycle of 2**11 - 1 states, past --bound 1000
        path = tmp_path / "lfsr.tbl"
        path.write_text(dumps_table(FiniteTable.from_function(2, 11, lambda *x: x[0] ^ x[2])))
        seed = ["--table", str(path), "--seed", ",".join("0" * 10 + "1")]
        code, out, _ = run_cli(capsys, "point-order", *seed)
        assert code == 0 and out.strip() == "2047"
        code, out, _ = run_cli(capsys, "point-order", *seed, "--json")
        assert code == 0 and json.loads(out) == {"point_order": 2047}
        zero = ["--table", str(path), "--seed", ",".join("0" * 11)]
        code, out, _ = run_cli(capsys, "point-order", *zero)
        assert code == 0 and out.strip() == "1"
        # f(x1, x2) = x2 sends (0, 1) to the fixed state (1, 1)
        path = tmp_path / "second.tbl"
        path.write_text(dumps_table(FiniteTable.from_function(2, 2, lambda a, b: b)))
        code, out, _ = run_cli(capsys, "point-order", "--table", str(path), "--seed", "0,1")
        assert code == 0 and out.strip() == "none"

    def test_orbit(self, capsys, table_path):
        code, out, _ = run_cli(
            capsys, "orbit", "--table", table_path, "--seed", "0,1", "--max-steps", "10"
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines == ["0 1", "1 2", "0 2", "2 1", "recurred: true"]


class TestPredicates:
    def test_check_ii_true(self, capsys, table4_path):
        code, out, _ = run_cli(capsys, "check-ii", "--table", table4_path, "--n", "3")
        assert code == 0 and out.strip() == "true"

    def test_check_ii_false_exits_one(self, capsys, table4_path):
        code, out, _ = run_cli(capsys, "check-ii", "--table", table4_path, "--n", "2")
        assert code == 1 and out.strip() == "false"

    def test_check_ii_large_order_answers_at_once(self, capsys, table_path):
        start = time.perf_counter()
        argv = ("check-ii", "--table", table_path, "--n")
        assert run_cli(capsys, *argv, "1000000000") == (1, "false\n", "")
        assert run_cli(capsys, *argv, "300000000") == (0, "true\n", "")
        assert time.perf_counter() - start < 1.0

    def test_check_ii_single_argument(self, capsys, table_path):
        code, out, _ = run_cli(
            capsys, "check-ii", "--table", table_path, "--n", "3", "--arg", "2"
        )
        assert code == 0 and out.strip() == "true"

    def test_symmetric(self, capsys, table_path):
        code, out, _ = run_cli(capsys, "symmetric", "--table", table_path)
        assert code == 0 and out.strip() == "true"


class TestEnumerationCommands:
    def test_enumerate_ii(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate-ii", "--m", "3", "--k", "2")
        lines = out.strip().splitlines()
        assert code == 0 and lines[0] == "count: 3"
        assert lines[1].split() == list("021210102")

    def test_enumerate_past_numpy_dimension_limit(self, capsys):
        # m = 1, k = 64 has one state but 64 arguments, past numpy's 64 axes
        code, out, _ = run_cli(capsys, "enumerate-ii", "--m", "1", "--k", "64")
        assert code == 0 and out.splitlines() == ["count: 1", "0"]

    def test_enumerate_budget_exit(self, capsys):
        code, _, err = run_cli(capsys, "enumerate-ii", "--m", "4", "--k", "3")
        assert code == 3 and "budget" in err

    @pytest.mark.parametrize(
        "argv, count",
        [
            (("claim1", "--m", "2", "--k", "25"), "2**(2**25) tables"),
            (("enumerate-ii", "--m", "2", "--k", "19"), "2**(2**18) candidate tables"),
        ],
    )
    def test_table_count_budgets_exit_three_at_once(self, capsys, argv, count):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, *argv)
        assert code == 3 and count in err and "budget" in err
        assert time.perf_counter() - start < 1.0

    def test_count_involutions(self, capsys):
        code, out, _ = run_cli(capsys, "count-involutions", "--m", "5", "--brute")
        assert code == 0 and out.strip() == "26"

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_count_past_the_digit_limit_exits_three(self, capsys, json_flag):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "count-involutions", "--m", "3000", *json_flag)
        assert code == 3 and out == "" and "T(3000)" in err and "budget" in err
        assert time.perf_counter() - start < 1.0

    def test_count_of_two_thousand_digits(self, capsys):
        code, out, _ = run_cli(capsys, "count-involutions", "--m", "2000")
        assert code == 0 and len(out.strip()) == 2886

    def test_claim1_table(self, capsys, table_path):
        code, out, _ = run_cli(capsys, "claim1", "--table", table_path)
        assert code == 0
        assert "dir1_violations: 0" in out
        assert "jnk_violations: 0" in out

    def test_claim1_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "claim1", "--m", "2", "--k", "2", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["tables"] == 16
        assert payload["direction1_violations"] == 0

    def test_claim1_needs_input(self, capsys):
        code, _, err = run_cli(capsys, "claim1")
        assert code == 2


# stdout of `cycles` and `claim1`, byte for byte, keyed by the command line;
# a table named there is a packaged one or one of WRITTEN_TABLES
PINNED_STDOUT = json.loads((Path(__file__).parent / "cli_stdout.json").read_text())
WRITTEN_TABLES = {
    # 4 symbols, first iterate not bijective: cycles of 3, 3 and 1 states,
    # nine states on none, and sequence periods that do not all divide n
    "seeded_m4.tbl": FiniteTable.from_values(
        4, 2, [2, 0, 1, 2, 0, 3, 3, 1, 0, 3, 0, 1, 0, 0, 1, 3]
    ),
    # k = 1, so each state prints as a one-tuple: cycles of 3, 2 and 1 and a tail
    "seeded_k1.tbl": FiniteTable.from_values(7, 1, [1, 2, 0, 4, 3, 3, 6]),
    # k = 3 on 3 symbols: cycles of 5, 2 and six fixed points, 14 states on none
    "seeded_k3.tbl": FiniteTable.from_values(
        3, 3, [0, 0, 0, 1, 2, 0, 1, 0, 2, 0, 0, 1, 2, 1, 0, 2, 2, 1, 1, 2, 0, 2, 0, 2, 0, 1, 2]
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_stdout_is_pinned(capsys, tmp_path, command):
    for name, table in WRITTEN_TABLES.items():
        (tmp_path / name).write_text(dumps_table(table))
    data = Path(iterk.__file__).parent / "data"
    argv = [
        str(tmp_path / arg if arg in WRITTEN_TABLES else data / arg) if arg.endswith(".tbl") else arg
        for arg in command.split()
    ]
    assert run_cli(capsys, *argv) == (0, PINNED_STDOUT[command], "")


class TestTransforms:
    def test_conjugate_output_reparses(self, capsys, table_path):
        code, out, _ = run_cli(
            capsys, "conjugate", "--table", table_path, "--perm", "1,2,0"
        )
        assert code == 0
        conj = loads_table(out)
        assert cycle_report(conj).cycle_lengths == (4, 4, 1)

    def test_conjugate_rejects_non_bijections(self, capsys, table_path):
        code, _, err = run_cli(
            capsys, "conjugate", "--table", table_path, "--perm", "0,0,1"
        )
        assert code == 2

    def test_augment_table(self, capsys, table_path):
        code, out, _ = run_cli(
            capsys, "augment", "--table", table_path, "--to", "3"
        )
        assert code == 0
        lifted = loads_table(out)
        assert (lifted.m, lifted.k) == (3, 3)
        # the lifted value ignores the padded argument
        assert lifted.apply((0, 1, 0)) == lifted.apply((0, 1, 2)) == 2

    def test_augment_table_budget(self, capsys, table_path):
        code, _, err = run_cli(
            capsys, "augment", "--table", table_path, "--to", "40"
        )
        assert code == 3 and "budget" in err

    def test_augment_huge_arity_is_refused_before_any_power(self, capsys, table_path):
        start = time.perf_counter()
        code, _, err = run_cli(
            capsys, "augment", "--table", table_path, "--to", "30000000"
        )
        assert code == 3 and "3**30000000 states" in err
        assert time.perf_counter() - start < 1.0

    def test_augment_definition(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "augment",
            "--def",
            "f(x1,x2)=5-x1-x2",
            "--seed",
            "4/3,2,7",
            "--to",
            "3",
        )
        assert code == 0 and out.strip() == "4/3"


VERIFY_EXAMPLES_CHECKS = [
    ("add_mod3-cycles", "lengths (4, 4, 1), minimal order 4"),
    ("add_mod3-symmetric", "invariant under argument swaps"),
    ("add_mod3-ii3", "induced 3-involutory"),
    ("ii3_persym_m4-cycles", "lengths (15, 1), minimal order 15"),
    ("ii3_persym_m4-symmetric", "invariant under argument swaps"),
    ("ii3_persym_m4-ii3", "induced 3-involutory"),
    ("ii3_persym_m4-persymmetric", "antidiagonal symmetry"),
    ("pair-sum-closed-form", "closed form == engine == matrix power, n <= 30, 100 seeds"),
    ("sum-map-closed-form", "all residues mod k+1 for k <= 5; minimal order k+1"),
    ("roots-of-unity",
     "induced cycles, product form vs engine, no global order, asymmetric"),
    ("augment-projection", "lifted map projects to the first argument on 1000 inputs"),
]


class TestVerifyExamples:
    def test_text_output_is_pinned(self, capsys):
        code, out, err = run_cli(capsys, "verify-examples")
        lines = [f"ok {name}: {detail}" for name, detail in VERIFY_EXAMPLES_CHECKS]
        assert (code, out, err) == (0, "\n".join(lines) + "\n11/11 checks passed\n", "")

    def test_json_output_is_pinned(self, capsys):
        code, out, err = run_cli(capsys, "verify-examples", "--json")
        checks = [{"detail": detail, "name": name, "ok": True}
                  for name, detail in VERIFY_EXAMPLES_CHECKS]
        assert (code, err) == (0, "")
        assert json.loads(out) == {"checks": checks, "failures": []}

    def test_passes_and_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify-examples")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("ok ") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "iterk", "verify-examples", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["failures"] == []


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv, read",
    [
        # far larger than a pipe's buffer, so the reader leaves with most of it unwritten
        (["claim1", "--table", "hat.tbl"], 10),
        (["claim1", "--table", "hat.tbl", "--json"], 10),
        # the reader leaves first, so a buffered report fails only when flushed
        (["count-involutions", "--m", "3"], 0),
    ],
)
def test_closed_output_pipe_is_not_a_usage_error(tmp_path, argv, read, unbuffered):
    # one unbuffered write that ends short is no error, so 0 is allowed as well
    (tmp_path / "hat.tbl").write_text(dumps_table(hat_id(4, 6)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [str(tmp_path / a) if a == "hat.tbl" else a for a in argv]
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "iterk", *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
        )
        proc.stdout.read(read)
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err.seek(0)
        assert (err.read(), code in (EXIT_OK, EXIT_PIPE)) == ("", True)


CLAIM1_USAGE = "claim1 needs either --table or both --m and --k"


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("iterate", "--table", "{t}", "--seed", "0,7", "--n", "1"),
             "seed component 7 out of range 0..2"),
            (("iterate", "--def", "f(x1)=x1", "--n", "1"), "--seed is required for this command"),
            (("orbit", "--table", "{t}"), "--seed is required for this command"),
            (("augment", "--def", "f(x1)=x1", "--to", "2"),
             "--seed is required when augmenting a definition"),
            (("point-order", "--table", "{t}", "--seed", "1/2,0"),
             "table seeds must be integers, got 1/2"),
            (("conjugate", "--table", "{t}", "--perm", "0,1"), "--perm must list all 3 images"),
            (("conjugate", "--table", "{t}", "--perm", "a,b,c"),
             "--perm must be comma-separated integers, got 'a,b,c'"),
            (("claim1",), CLAIM1_USAGE),
            (("claim1", "--m", "2"), CLAIM1_USAGE),
            (("claim1", "--table", "{t}", "--m", "2", "--k", "2"), CLAIM1_USAGE),
            (("claim1", "--table", "{t}", "--k", "2"), CLAIM1_USAGE),
            (("augment", "--table", "{t}", "--to", "3", "--seed", "9,9,9"),
             "augment --table takes no --seed"),
            (("augment", "--table", "{t}", "--to", "3", "--seed", "0,0,0"),
             "augment --table takes no --seed"),
            # --to 0 lifts nothing, so a definition is refused as a table is
            (("augment", "--def", "f(x1)=x1", "--to", "0", "--seed", "1"),
             "target arity must exceed the original arity 1, got 0"),
            (("augment", "--def", "f(x1,x2)=x1+x2", "--to", "0", "--seed", "1,2"),
             "target arity must exceed the original arity 2, got 0"),
            (("augment", "--def", "f(x1)=x1", "--to", "0"),
             "--seed is required when augmenting a definition"),
        ],
    )
    def test_usage_errors_name_no_source_position(self, capsys, table_path, argv, message):
        argv = [a.format(t=table_path) for a in argv]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("iterate", "--table", "{t}", "--seed", "0,zeta(3)", "--n", "1"),
             "1:3: root-of-unity literal in a rational context"),
            (("point-order", "--table", "{t}", "--seed", "1, 2*zeta(4)^3"),
             "1:6: root-of-unity literal in a rational context"),
            (("orbit", "--table", "{t}", "--seed", "0,\n zeta(5)"),
             "2:2: root-of-unity literal in a rational context"),
        ],
    )
    def test_literal_errors_name_the_literal_position(self, capsys, table_path, argv, message):
        argv = [a.format(t=table_path) for a in argv]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_parse_error_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "iterate", "--def", "f(x1)=x7", "--seed", "1", "--n", "1"
        )
        assert code == 2 and "undeclared" in err

    def test_missing_table_file(self, capsys):
        code, _, err = run_cli(
            capsys, "order", "--table", "/nonexistent/path.tbl"
        )
        assert code == 2

    def test_malformed_table_file(self, capsys, tmp_path):
        p = tmp_path / "bad.tbl"
        p.write_text("3 2\n0 1 2\n")
        code, _, err = run_cli(capsys, "order", "--table", str(p))
        assert code == 2 and "expected 9" in err

    def test_huge_table_header_is_a_budget_error(self, capsys, tmp_path):
        p = tmp_path / "huge.tbl"
        p.write_text("1000000 1000000\n0\n")
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "cycles", "--table", str(p))
        assert code == 3 and "1000000**1000000 states" in err
        assert time.perf_counter() - start < 1.0


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = (a for a in build_arg_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _option(action) -> str:
    token = action.option_strings[0]
    if action.dest != token.lstrip("-").replace("-", "_"):
        token += ">" + action.dest
    token += ":flag" if action.nargs == 0 else ":int" if action.type is int else ""
    if action.default is not None and not (action.nargs == 0 and action.default is False):
        token += f"={action.default}"
    return token + ("!" if action.required else "")


def _surface(parser) -> str:
    """A subcommand's options in declaration order: --flag, then >dest when
    it is not the flag's own name, :int or :flag, =default and ! when
    required; a mutually exclusive group is (a | b), ! when one is required."""
    groups = {id(a): g for g in parser._mutually_exclusive_groups for a in g._group_actions}
    tokens, done = [], set()
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction) or id(action) in done:
            continue
        group = groups.get(id(action))
        if group is None:
            tokens.append(_option(action))
            continue
        done.update(id(a) for a in group._group_actions)
        members = " | ".join(_option(a) for a in group._group_actions)
        tokens.append(f"({members})" + ("!" if group.required else ""))
    return " ".join(tokens)


# the CLI surface: every subcommand, in order, with each of its options
CLI_SURFACE = {
    "iterate": "(--def>map_def | --table)! --seed --json:flag --n:int!",
    "orbit": "(--def>map_def | --table)! --seed --json:flag --max-steps:int=100",
    "order": "(--def>map_def | --table)! --json:flag --bound:int=50",
    "point-order": "(--def>map_def | --table)! --seed --json:flag --bound:int=1000",
    "check-ii": "--table! --json:flag --n:int! --arg:int",
    "symmetric": "--table! --json:flag",
    "cycles": "--table! --json:flag",
    "enumerate-ii": "--m:int! --k:int! --json:flag",
    "count-involutions": "--m:int! --brute:flag --json:flag",
    "claim1": "--table --m:int --k:int --json:flag",
    "augment": "(--def>map_def | --table)! --seed --json:flag --to:int!",
    "conjugate": "--table! --json:flag --perm!",
    "verify-examples": "--json:flag",
}


def test_cli_surface_is_frozen():
    assert {name: _surface(p) for name, p in _subcommands().items()} == CLI_SURFACE
    assert list(_subcommands()) == list(CLI_SURFACE)


# one minimal valid command line per subcommand, {t} the addition-mod-3 table
# and {t4} the induced 3-involutory table on 4 symbols
MINIMAL_ARGV = {
    "iterate": "iterate --def f(x1,x2)=x1+x2 --seed 1,1 --n 5",
    "orbit": "orbit --table {t} --seed 0,1",
    "order": "order --def f(x1,x2)=1-x1-x2",
    "point-order": "point-order --table {t} --seed 0,1",
    "check-ii": "check-ii --table {t4} --n 2",
    "symmetric": "symmetric --table {t}",
    "cycles": "cycles --table {t}",
    "enumerate-ii": "enumerate-ii --m 2 --k 2",
    "count-involutions": "count-involutions --m 4",
    "claim1": "claim1 --table {t}",
    "augment": "augment --def f(x1,x2)=5-x1-x2 --seed 4/3,2,7 --to 3",
    "conjugate": "conjugate --table {t} --perm 1,2,0",
    "verify-examples": "verify-examples",
}


@pytest.mark.parametrize("name", list(_subcommands()))
def test_every_subcommand_answers_in_json(capsys, table_path, table4_path, name):
    argv = MINIMAL_ARGV[name].format(t=table_path, t4=table4_path).split()
    text_code, text, _ = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, *argv, "--json")
    # stdout is one JSON document whatever the answer, and the exit code is the text form's
    assert (code, err, out.count("\n")) == (text_code, "", 1)
    payload = json.loads(out)
    if name == "check-ii":
        assert (code, text, payload) == (1, "false\n", {"induced_involutory": False})
