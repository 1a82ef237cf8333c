import gc
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pidirr
from pidirr.cli import _fmt_float, build_parser, main, render_json
from pidirr.corpus import EXAMPLE_NAMES, load_example
from pidirr.distributions import JointDistribution

from conftest import (
    empty_support_face, fail_support_lp, make_random, unordered_unions, zero_starts)


@pytest.fixture()
def xor_file(tmp_path):
    path = tmp_path / "xor.tsv"
    path.write_text(load_example("xor").distribution.to_tsv(), encoding="utf-8")
    return str(path)


@pytest.fixture()
def one_predictor_file(tmp_path):
    path = tmp_path / "tiny.tsv"
    path.write_text("# vars: A Y\n0\t0\t0.5\n1\t1\t0.5\n", encoding="utf-8")
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_json(xor_file, capsys):
    code, out, err = run(["compute", "--input", xor_file, "--target", "Y"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ibe"] == 1.0
    assert payload["whole_mi"] == 1.0
    assert "1.000000000" in out  # 9-decimal rendering


def test_compute_human_and_tsv(xor_file, capsys):
    code, out, _ = run(["compute", "--input", xor_file, "--format", "human"], capsys)
    assert code == 0
    assert "IbDp" in out and "witness" in out
    code, out, _ = run(["compute", "--input", xor_file, "--format", "tsv"], capsys)
    assert code == 0
    assert "ibe\t1.000000000" in out


def test_compute_human_header_names_the_target(xor_file, capsys):
    code, out, _ = run(["compute", "--input", xor_file, "--format", "human"], capsys)
    assert code == 0
    assert out.splitlines()[0].split()[:2] == ["source", "I(whole;Y)"]
    code, out, _ = run(
        ["compute", "--input", xor_file, "--target", "X1", "--format", "human"], capsys
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header.split()[:2] == ["source", "I(whole;X1)"]
    assert "I(whole;Y)" not in out


XOR_JSON = """\
{
  "whole_mi": 1.000000000,
  "ibe": 1.000000000,
  "ibdp": 1.000000000,
  "ib2p": 1.000000000,
  "ibap": 1.000000000,
  "witnesses": {
    "ibdp_bipartition": [["X1"], ["X2"]],
    "ib2p_almost_pair": [["X1"], ["X2"]]
  },
  "settings": {
    "measure": "minsyn",
    "tolerance": 0.000001000,
    "target": "Y"
  }
}
"""


def test_compute_deterministic_bytes(xor_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["compute", "--input", xor_file, "--target", "Y"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text(encoding="utf-8") == XOR_JSON


def test_compute_loose_tolerance_keeps_the_order_check(tmp_path, capsys):
    # Certified values at tolerance 1e-2 break the chain by more than 1e-6
    # on this input; the order check allows the tolerance itself.
    path = tmp_path / "random.tsv"
    path.write_text(make_random(26, 3).to_tsv(), encoding="utf-8")
    code, out, err = run(["compute", "--input", str(path), "--tol", "1e-2"], capsys)
    assert code == 0, err
    assert json.loads(out)["settings"]["tolerance"] == 0.01


@pytest.mark.parametrize("command, key", [
    (["compute"], ("settings", "tolerance")),
    (["axioms", "--trials", "0"], ("tolerance",)),
    (["examples", "--name", "xor"], ("tolerance",)),
])
def test_a_tolerance_below_nine_decimals_reads_back(xor_file, capsys, command, key):
    # Nine decimals would print 1e-10 as 0.000000000, a tolerance that
    # UnionMeasure refuses; each command prints the one it ran with.
    if command[0] != "examples":
        command = [*command, "--input", xor_file]
    code, out, err = run([*command, "--tol", "1e-10"], capsys)
    assert code == 0, err
    payload = json.loads(out)
    for k in key:
        payload = payload[k]
    assert payload == 1e-10
    code, out, err = run([*command, "--tol", "1e-10", "--format", "tsv"], capsys)
    assert code == 0, err
    assert f"{'.'.join(key)}\t1e-10" in out.splitlines()


def test_compute_one_predictor_is_usage_error(one_predictor_file, capsys):
    code, _, err = run(["compute", "--input", one_predictor_file], capsys)
    assert code == 2
    assert "usage error" in err


def test_compute_missing_input_flag(capsys):
    assert main(["compute"]) == 2


def test_compute_bad_file_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("# vars: A B\n0\t0\tnope\n", encoding="utf-8")
    code, _, err = run(["compute", "--input", str(bad)], capsys)
    assert code == 1
    assert "error" in err
    missing = tmp_path / "missing.tsv"
    code, _, _ = run(["compute", "--input", str(missing)], capsys)
    assert code == 1


@pytest.mark.parametrize("fault, args, message", [
    (fail_support_lp, (2, 3, 2, 0.3), "maximal-support LP failed"),
    (zero_starts, (400,), "no strictly positive start"),
    (unordered_unions, (400,), "exceeds ib2p"),
])
def test_compute_solver_failure_is_domain_error(monkeypatch, tmp_path, capsys, fault, args, message):
    path = tmp_path / "input.tsv"
    path.write_text(make_random(*args).to_tsv(), encoding="utf-8")
    fault(monkeypatch)
    code, out, err = run(["compute", "--input", str(path)], capsys)
    assert code == 1 and not out
    assert err.startswith("error: ") and message in err


def test_compute_on_a_support_lp_face_that_misses_the_base_support(
        tmp_path, capsys, monkeypatch):
    # This input's Almosts need the support LP; a face that misses the base
    # support is a failed LP: an error line, not a traceback.
    empty_support_face(monkeypatch)
    path = tmp_path / "zeros.tsv"
    path.write_text(make_random(2, 3, 2, 0.3).to_tsv(), encoding="utf-8")
    code, out, err = run(["compute", "--input", str(path)], capsys)
    assert code == 1 and not out
    assert err.startswith("error: maximal-support LP") and "Traceback" not in err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def _parse_with_every_option(argv, capsys):
    """What the parser with every command's options prints for ``argv``."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    *([cmd, "--help"] for cmd in ("compute", "axioms", "examples", "enumerate", "lattice")),
    ["--help"],
    ["-h", "compute"],
    [],
    ["frobnicate"],
    ["compute"],
    ["compute", "--input", "x.tsv", "--bogus"],
    ["compute", "--input", "x.tsv", "stray"],
    ["--bogus", "compute", "--input", "x.tsv"],
    ["axioms", "--trials", "many"],
    ["enumerate", "--what", "nope", "--n", "3"],
    ["lattice", "--format"],
    ["-", "compute", "--help"],
])
def test_parser_for_the_named_command_prints_what_the_full_parser_prints(argv, capsys):
    # main returns the parser's exit status and prints its help text or
    # usage error as the parser prints it.
    full = _parse_with_every_option(argv, capsys)
    assert full[0] in (0, 2) and (full[1] or full[2])
    assert run(argv, capsys) == full


def test_examples_table(capsys):
    code, out, _ = run(["examples", "--format", "human"], capsys)
    assert code == 0
    for name in ("xor", "xor_unique", "double_xor", "triple_xor", "parity"):
        assert name in out
    assert "MISMATCH" not in out


def test_examples_maxmi_reports_mismatch(capsys):
    code, out, _ = run(
        ["examples", "--measure", "maxmi", "--format", "human"], capsys
    )
    assert code == 1
    assert "MISMATCH" in out


@pytest.mark.parametrize("name, ok", [("xor", True), ("xor_unique", False)])
def test_examples_name_verifies_only_that_circuit(name, ok, capsys):
    # maxmi gets xor right and xor_unique wrong, so the corpus-wide verdict
    # is false; the named circuit's verdict and the exit status must agree.
    argv = ["examples", "--measure", "maxmi", "--name", name, "--format", "json"]
    code, out, _ = run(argv, capsys)
    payload = json.loads(out)
    assert payload["all_ok"] is ok
    assert list(payload["rows"]) == [name]
    assert code == (0 if ok else 1)


def test_examples_emit_tsv_round_trip(tmp_path, capsys):
    out = tmp_path / "parity.tsv"
    assert main(["examples", "--name", "parity", "--emit-tsv", "--out", str(out)]) == 0
    code, json_out, _ = run(["compute", "--input", str(out)], capsys)
    assert code == 0
    assert json.loads(json_out)["ibap"] == 1.0


def test_examples_emit_tsv_requires_name(capsys):
    code, _, err = run(["examples", "--emit-tsv"], capsys)
    assert code == 2


def test_examples_non_finite_tolerance_is_an_error(capsys):
    code, out, err = run(["examples", "--name", "xor", "--tol", "nan"], capsys)
    assert code == 1
    assert out == ""
    assert "tolerance must be positive and finite" in err


def test_enumerate_outputs(capsys):
    code, out, _ = run(["enumerate", "--what", "bipartitions", "--n", "3", "--format", "human"], capsys)
    assert code == 0
    assert out.splitlines() == ["{X1 | X2 X3}", "{X1 X2 | X3}", "{X1 X3 | X2}"]
    code, out, _ = run(["enumerate", "--what", "almost-pairs", "--n", "3"], capsys)
    assert code == 0
    assert len(json.loads(out)["families"]) == 3
    code, out, _ = run(["enumerate", "--what", "parts", "--n", "4", "--format", "tsv"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 14


def test_enumerate_n_guard(capsys):
    code, _, err = run(["enumerate", "--what", "parts", "--n", "1"], capsys)
    assert code == 2
    # all_parts(n) lists 2**n - 2 parts; above the partition guard, refuse.
    code, out, err = run(["enumerate", "--what", "parts", "--n", "11"], capsys)
    assert code == 2 and not out and "--n" in err


AXIOMS_JSON = """\
{
  "tolerance": 0.000001000,
  "all_passed": true,
  "axioms": {
    "GP": {
      "passed": true,
      "worst_violation": 0.000000000,
      "cases": 86,
      "worst_case": "item 0: negative value"
    },
    "Eq": {
      "passed": true,
      "worst_violation": 0.000000000,
      "cases": 86,
      "worst_case": "item 0: relabel X1"
    },
    "M0": {
      "passed": true,
      "worst_violation": 0.000000000,
      "cases": 54,
      "worst_case": "item 1: append arbitrary part"
    },
    "S0": {
      "passed": true,
      "worst_violation": 0.000000000,
      "cases": 43,
      "worst_case": "item 0: reorder"
    },
    "SR": {
      "passed": true,
      "worst_violation": 0.000000000,
      "cases": 43,
      "worst_case": "item 0: single part"
    },
    "UB": {
      "passed": true,
      "worst_violation": 0.000000000,
      "cases": 43,
      "worst_case": "item 0: upper bound"
    }
  }
}
"""

AXIOMS_HUMAN = """\
axiom passed      worst violation  cases
GP    true            0.000000000  86
Eq    true            0.000000000  86
M0    true            0.000000000  54
S0    true            0.000000000  43
SR    true            0.000000000  43
UB    true            0.000000000  43
all passed: true
"""


def test_axioms_small_run(capsys, xor_file):
    code, out, _ = run(
        ["axioms", "--input", xor_file, "--trials", "2", "--seed", "1"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert set(payload["axioms"]) == {"GP", "Eq", "M0", "S0", "SR", "UB"}
    # The corpus and 20 random distributions of seed 0, byte for byte: every
    # violation rounds to zero, and each worst case is its property's first.
    for args, expected in [
        (["--format", "json"], AXIOMS_JSON),
        (["--measure", "maxmi", "--format", "human"], AXIOMS_HUMAN),
    ]:
        assert run(["axioms", *args], capsys)[:2] == (0, expected)


def test_axioms_trials_guard(capsys):
    # A negative count is refused, as an out-of-range enumerate --n is,
    # rather than run with no random trials.
    code, out, err = run(["axioms", "--trials", "-3"], capsys)
    assert code == 2 and not out and "--trials" in err


def test_lattice_output(xor_file, capsys):
    code, out, _ = run(
        ["lattice", "--input", xor_file, "--vars", "X1 X2 Y X1,X2", "--format", "human"],
        capsys,
    )
    assert code == 0
    assert "H(X1,X2) = 2.000000000" in out
    assert "Y poorer than X1,X2" in out
    code, out, _ = run(["lattice", "--input", xor_file], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["entropies"]["Y"] == 1.0


EXAMPLES_JSON = """\
{
  "tolerance": 0.000001000,
  "all_ok": false,
  "rows": {
    "xor_unique": {
      "got": {
        "whole_mi": 2.000000000,
        "ibe": 1.000000000,
        "ibdp": 1.000000000,
        "ib2p": 1.000000000,
        "ibap": 1.000000000
      },
      "expected": {
        "whole_mi": 2.000000000,
        "ibe": 1.000000000,
        "ibdp": 0.000000000,
        "ib2p": 0.000000000,
        "ibap": 0.000000000
      },
      "max_abs_error": 1.000000000,
      "ok": false
    }
  }
}
"""

EXAMPLES_TSV = """\
tolerance\t0.000001000
all_ok\tfalse
rows.xor_unique.got.whole_mi\t2.000000000
rows.xor_unique.got.ibe\t1.000000000
rows.xor_unique.got.ibdp\t1.000000000
rows.xor_unique.got.ib2p\t1.000000000
rows.xor_unique.got.ibap\t1.000000000
rows.xor_unique.expected.whole_mi\t2.000000000
rows.xor_unique.expected.ibe\t1.000000000
rows.xor_unique.expected.ibdp\t0.000000000
rows.xor_unique.expected.ib2p\t0.000000000
rows.xor_unique.expected.ibap\t0.000000000
rows.xor_unique.max_abs_error\t1.000000000
rows.xor_unique.ok\tfalse
"""

EXAMPLES_HUMAN = """\
example       I(whole;Y)     IbE    IbDp    Ib2p    IbAp  status
xor_unique         2.000   1.000   1.000   1.000   1.000  MISMATCH
expected           2.000   1.000   0.000   0.000   0.000
"""

ENUMERATE_JSON = """\
{
  "what": "bipartitions",
  "n": 3,
  "families": [["X1", "X2 X3"], ["X1 X2", "X3"], ["X1 X3", "X2"]]
}
"""

LATTICE_JSON = """\
{
  "input": "xor.tsv",
  "entropies": {
    "X1": 1.000000000,
    "X1,X2": 2.000000000
  },
  "relations": [{
      "a": "X1",
      "b": "X1,X2",
      "a_poorer_b": true,
      "b_poorer_a": false,
      "equivalent": false
    }],
  "pairs": [{
      "a": "X1",
      "b": "X1,X2",
      "join_entropy": 2.000000000,
      "meet_entropy": 1.000000000
    }]
}
"""

LATTICE_TSV = """\
input\txor.tsv
entropies.X1\t1.000000000
entropies.X1,X2\t2.000000000
relations.0.a\tX1
relations.0.b\tX1,X2
relations.0.a_poorer_b\ttrue
relations.0.b_poorer_a\tfalse
relations.0.equivalent\tfalse
pairs.0.a\tX1
pairs.0.b\tX1,X2
pairs.0.join_entropy\t2.000000000
pairs.0.meet_entropy\t1.000000000
"""

LATTICE_HUMAN = """\
entropies (bits):
  H(X1) = 1.000000000
  H(X1,X2) = 2.000000000
order:
  X1 poorer than X1,X2
join/meet (bits):
  X1 vs X1,X2: H(join) = 2.000000000, H(meet) = 1.000000000
"""


@pytest.mark.parametrize("args, status, outputs", [
    (["examples", "--name", "xor_unique", "--measure", "maxmi"], 1,
     {"json": EXAMPLES_JSON, "tsv": EXAMPLES_TSV, "human": EXAMPLES_HUMAN}),
    (["enumerate", "--what", "bipartitions", "--n", "3"], 0,
     {"json": ENUMERATE_JSON,
      "tsv": "X1\tX2 X3\nX1 X2\tX3\nX1 X3\tX2\n",
      "human": "{X1 | X2 X3}\n{X1 X2 | X3}\n{X1 X3 | X2}\n"}),
    (["lattice", "--input", "XOR_FILE", "--vars", "X1 X1,X2"], 0,
     {"json": LATTICE_JSON, "tsv": LATTICE_TSV, "human": LATTICE_HUMAN}),
], ids=["examples", "enumerate", "lattice"])
def test_command_bytes_in_every_format(args, status, outputs, xor_file, capsys):
    args = [xor_file if a == "XOR_FILE" else a for a in args]
    for fmt, expected in outputs.items():
        assert run([*args, "--format", fmt], capsys) == (status, expected, "")


def test_axioms_leave_out_a_property_without_cases(xor_file, capsys):
    # One two-predictor item has no M0 extension, so M0 has no row.
    args = ["axioms", "--input", xor_file, "--trials", "0", "--format", "human"]
    assert run(args, capsys) == (0, """\
axiom passed      worst violation  cases
GP    true            0.000000000  2
Eq    true            0.000000000  2
S0    true            0.000000000  1
SR    true            0.000000000  1
UB    true            0.000000000  1
all passed: true
""", "")


def test_render_json_stability():
    text = render_json({"a": 1.0, "b": [1, 2.5], "c": {"d": True, "e": None}})
    assert json.loads(text) == {"a": 1.0, "b": [1, 2.5], "c": {"d": True, "e": None}}
    assert render_json(-1e-13) == "0.000000000"  # negative zero normalized
    assert render_json({}) == "{}" and render_json([]) == "[]" and render_json(()) == "[]"
    assert json.loads(render_json({"a": {}, "b": []})) == {"a": {}, "b": []}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_render_refuses_a_non_finite_value(value):
    with pytest.raises(ValueError, match="refusing to emit non-finite value"):
        _fmt_float(value)
    with pytest.raises(ValueError, match="refusing to emit non-finite value"):
        render_json({"whole_mi": value})


def test_compute_json_escapes_quotes_backslashes_and_control_characters(tmp_path, capsys):
    names = ('X"1', "X\\2", "Y\x01")
    xor = load_example("xor").distribution
    path = tmp_path / "named.tsv"
    path.write_text(JointDistribution(names, xor.pmf).to_tsv(), encoding="utf-8")
    code, out, _ = run(["compute", "--input", str(path)], capsys)
    assert code == 0
    assert '"X\\"1"' in out and '"X\\\\2"' in out and '"Y\\u0001"' in out
    payload = json.loads(out)
    assert payload["settings"]["target"] == "Y\x01"
    assert payload["witnesses"]["ibdp_bipartition"] == [['X"1'], ["X\\2"]]


def test_compute_target_named_like_the_old_default_sentinel(tmp_path, capsys):
    # "--target __last__" names a variable, never "the last variable".
    path = tmp_path / "last.tsv"
    text = load_example("xor").distribution.to_tsv()
    path.write_text(text.replace("# vars: X1 X2 Y", "# vars: X1 __last__ Y"), encoding="utf-8")
    code, out, _ = run(["compute", "--input", str(path), "--target", "__last__"], capsys)
    assert code == 0
    assert json.loads(out)["settings"]["target"] == "__last__"
    code, out, _ = run(["compute", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["settings"]["target"] == "Y"
    code, _, err = run(["compute", "--input", str(path), "--target", "__first__"], capsys)
    assert code == 1 and "target '__first__' not among variables" in err


def run_python(*argv):
    """A fresh interpreter with this checkout's package on ``PYTHONPATH``."""
    src = str(Path(pidirr.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


def run_console(args, *flags):
    """``python -m pidirr.cli`` in a fresh interpreter.  The in-process tests
    above cannot catch a handler that lost an import: ``conftest`` has loaded
    the corpus already."""
    return run_python(*flags, "-m", "pidirr.cli", *args)


def test_console_entry_point(xor_file):
    proc = run_console(["compute", "--input", xor_file], "-X", "importtime")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ibe"] == 1.0
    # -X importtime writes one "import time: self | cumulative | name" line
    # per module; compute loads none of the other subcommands' modules.
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert not imported & {"pidirr.corpus", "pidirr.lattice", "pidirr.axioms"}
    assert "pidirr.irreducibility" in imported


@pytest.mark.parametrize(
    "args",
    [
        ["axioms", "--trials", "1"],
        ["examples", "--name", "xor"],
        ["examples", "--emit-tsv", "--name", "parity"],
        ["enumerate", "--what", "parts", "--n", "3"],
        ["lattice", "--input", "XOR_FILE"],
    ],
    ids=["axioms", "examples-name", "examples-emit-tsv", "enumerate", "lattice"],
)
def test_console_subcommands(args, xor_file):
    proc = run_console([xor_file if a == "XOR_FILE" else a for a in args])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_examples_unknown_name_lists_the_names():
    proc = run_console(["examples", "--name", "nope"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unknown example 'nope'" in proc.stderr
    for name in ("xor", "xor_unique", "double_xor", "triple_xor", "parity"):
        assert name in proc.stderr


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_process_entry_prints_what_main_prints(name, tmp_path, capsys):
    path = tmp_path / f"{name}.tsv"
    path.write_text(load_example(name).distribution.to_tsv(), encoding="utf-8")
    for fmt in ("json", "tsv", "human"):
        args = ["compute", "--input", str(path), "--format", fmt]
        expected = run(args, capsys)
        proc = run_console(args)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected
        assert expected[0] == 0 and expected[1] and not expected[2]


@pytest.mark.parametrize("args, status", [
    (["compute"], 2),
    (["compute", "--input", "BAD_FILE"], 1),
], ids=["usage", "malformed"])
def test_process_entry_keeps_error_exits(args, status, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("# vars: A B\n0\t0\tnope\n", encoding="utf-8")
    args = [str(bad) if a == "BAD_FILE" else a for a in args]
    expected = run(args, capsys)
    proc = run_console(args)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    assert expected[:2] == (status, "") and expected[2]


def test_process_entry_is_clean_in_dev_mode(xor_file, tmp_path):
    # Development mode warns of unclosed files and other resource misuse at
    # exit; -W error would make any warning fail the run.
    out = tmp_path / "out.json"
    proc = run_console(["compute", "--input", xor_file, "--out", str(out)], "-X", "dev", "-W", "error")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_text(encoding="utf-8") == XOR_JSON


def test_main_freezes_nothing(xor_file, capsys):
    # Only the process entry freezes; main() is called in-process by tests
    # and by other programs, whose later garbage it must not pin.
    before = gc.get_freeze_count()
    assert run(["compute", "--input", xor_file], capsys)[0] == 0
    assert gc.get_freeze_count() == before


# Registered first, so it runs last of the atexit handlers.
_FREEZE_AT_EXIT = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count()}'))\n"
)


def test_console_script_is_the_freezing_entry(xor_file):
    # tomllib is not in Python 3.10, so the table is read with a regex.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    module, entry = re.fullmatch(r'\s*pidirr = "([\w.]+):(\w+)"\s*', scripts.group(1)).groups()
    assert module == "pidirr.cli"
    args = ["compute", "--input", xor_file]
    # As the installed script calls the target, and as `python -m` runs the
    # module; each freezes before it exits.
    script = run_python("-c", _FREEZE_AT_EXIT + f"from {module} import {entry}\nsys.exit({entry}())", *args)
    as_module = run_python(
        "-c", _FREEZE_AT_EXIT + f"import runpy\nrunpy.run_module({module!r}, run_name='__main__')", *args
    )
    assert script.returncode == as_module.returncode == 0, script.stderr + as_module.stderr
    assert script.stdout == as_module.stdout == XOR_JSON
    for proc in (script, as_module):
        frozen = re.fullmatch(r"frozen (\d+)", proc.stderr)
        assert frozen and int(frozen.group(1)) > 0, proc.stderr
