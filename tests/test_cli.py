import hashlib
import json
import time

import pytest

from narayana_lab import cli, identities
from narayana_lab.cli import TABLE_NAMES, main

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None


def run_cli(*argv, env=None, monkeypatch=None):
    if env and monkeypatch:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    return main(list(argv))


def test_eval_examples(capsys):
    assert main(["eval", "P{3,4}"]) == 0
    assert capsys.readouterr().out == "4*q^2 - 20*q + 20\n"
    assert main(["eval", "h2[3]"]) == 0
    assert capsys.readouterr().out == "6\n"


def test_eval_parse_error(capsys):
    assert main(["eval", "h2[Q"]) == 2
    err = capsys.readouterr().err
    assert "offset 4" in err


def test_eval_formats(capsys):
    assert main(["eval", "h2[3]", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"expr": "h2[3]", "result": "6"}
    assert main(["eval", "P{3,4}", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "20, -20, 4\n"


def test_eval_csv_needs_a_plain_polynomial(capsys):
    assert main(["eval", "h2[q2]", "--format", "csv"]) == 2
    assert "csv output needs a plain polynomial in q" in capsys.readouterr().err


def test_every_table_in_every_format_pinned(capsys):
    # Rows 0..7 of every table in text, json and csv, then the polynomial
    # tables at q = -1/2, each pinned by the SHA-256 of their joint stdout.
    formats = ("text", "json", "csv")
    runs = {
        "e0c3a14ede6efc2f9f7008b3a6c6784c3e0a1c13401b0613853cc93a683befad": [
            ["table", name, "--max-n", "7", "--format", f] for name in TABLE_NAMES for f in formats
        ],
        "0d7f62719feefdabeff3347128858f5d22dd4dd1c66ddf7b15ba7c134fdf2a8e": [
            ["table", name, "--max-n", "7", "--format", f, "--at-q=-1/2"]
            for name in ("large-narayana", "narayana", "power-sum", "type-b") for f in formats
        ],
    }
    for digest, argvs in runs.items():
        out = ""
        for argv in argvs:
            assert main(argv) == 0, argv
            out += capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table_rows(capsys):
    assert main(["table", "narayana", "--max-n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[4] == "4: q^3 + 6*q^2 + 6*q + 1"
    assert main(["table", "schroeder-large", "--max-n", "4", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0, 1",
        "1, 2",
        "2, 6",
        "3, 22",
        "4, 90",
    ]
    assert main(["table", "power-sum", "--max-n", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1: 1", "2: 2*q + 1"]


def test_table_csv_coefficients(capsys):
    assert main(["table", "narayana", "--max-n", "4", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[4] == "4, 1, 6, 6, 1"


def test_table_at_cap_pinned(capsys):
    # Rows 0..200 of each table at the cap, pinned by the SHA-256 of stdout.
    digests = {
        "narayana": "1173290fbe94e8b31975d61ed61522b4c45dbef15745eacd04be618eafc7e2e3",
        "catalan": "5e985898bbb053f5db3674c4e5402813c21aebdc4d4cdd0a9c146c61e1da0ed9",
        "large-narayana": "0cea2fae91dbd029fe1c273317eae61b1ae5658b33b2f1a60c20ccf90a9a69ba",
    }
    for name, digest in digests.items():
        assert main(["table", name, "--max-n", "200", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_table_at_q(capsys):
    assert main(["table", "narayana", "--max-n", "3", "--at-q", "1/2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0: 1", "1: 1", "2: 3/2", "3: 11/4"]
    assert main(["table", "catalan", "--max-n", "3", "--at-q", "2"]) == 2


def test_table_at_a_negative_point_in_either_spelling(capsys):
    # argparse reads "-1/2" as an option unless it is joined to --at-q.
    for at, rows in (("-1/2", ["0: 1", "1: 1", "2: 1/2", "3: -1/4"]), ("-2", ["0: 1", "1: 1", "2: -1", "3: -1"])):
        for argv in (["--at-q", at], ["--at", at], [f"--at-q={at}"]):
            assert main(["table", "narayana", "--max-n", "3", *argv]) == 0, argv
            assert capsys.readouterr().out.splitlines() == rows, argv
    # Every check of the value holds in both spellings.
    for at in ("-1/0", "-0.5", "-1/2.0", "-", "--max-n", "-" + "9" * 21 + "/2"):
        for argv in (["--at-q", at], [f"--at-q={at}"]):
            assert exit_code(["table", "narayana", "--max-n", "3", *argv]) == 2, argv
    assert exit_code(["table", "narayana", "--max-n", "3", "--at-q"]) == 2


def test_table_cap(capsys):
    assert main(["table", "narayana", "--max-n", "201"]) == 2


def test_table_unknown_name():
    with pytest.raises(SystemExit) as info:
        main(["table", "no-such", "--max-n", "3"])
    assert info.value.code == 2


def test_cf(capsys):
    assert main(["cf", "--depth", "4"]) == 0
    assert capsys.readouterr().out == "1, q, 1, q\n"
    assert main(["cf", "--depth", "21"]) == 2


def test_cf_at_depth_cap_pinned(capsys):
    digests = {
        "text": "2941c2e3512ca8a895b7b7a1e5cf2fd96578713ad7ef16d013685184b8b705cd",
        "json": "d3b145ee2c1aa58afe8cc6795174801610fb303f1183a82923c217a794513b9d",
        "csv": "64009ff36578e1cf3a843459a69046c38f24eb42407d923b6f1daf273e2f264a",
    }
    for fmt, digest in digests.items():
        assert main(["cf", "--depth", "20", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_hl_formats(capsys):
    assert main(["hl", "--r", "3", "--n", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"n": 4, "r": 3, "result": "4*q^2 - 20*q + 20"}
    assert main(["hl", "--r", "3", "--n", "4", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "20, -20, 4\n"


def test_hl(capsys):
    assert main(["hl", "--r", "3", "--n", "4"]) == 0
    assert capsys.readouterr().out == "4*q^2 - 20*q + 20\n"
    assert main(["hl", "--r", "1", "--n", "1"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["hl", "--r", "31", "--n", "2"]) == 2


def test_verify_single_id(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["verify", "--id", "thm7", "--max-n", "6", "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["counts"] == {"pass": 12, "fail": 0}
    assert len(doc["results"]) == 12
    if jsonschema is not None:
        from importlib.resources import files

        schema = json.loads(
            files("narayana_lab").joinpath("report_schema.json").read_text()
        )
        jsonschema.validate(doc, schema)


def test_verify_never_runs_the_indented_encoder(tmp_path, capsys, monkeypatch):
    # json.dumps with an indent runs the pure-Python encoder; the report is
    # written without it, to stdout and to a file alike.
    import json.encoder

    def refuse(*args, **kwargs):
        raise AssertionError("indented JSON encoder on the verify route")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps({}, indent=2)
    argv = ["verify", "--id", "thm7", "--max-n", "5", "--seed", "3"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    report = tmp_path / "report.json"
    assert main(argv + ["--report", str(report)]) == 0
    assert capsys.readouterr().out == f"verify: 10 pass, 0 fail -> {report}\n"
    assert report.read_bytes() == printed.encode()
    assert json.loads(printed)["counts"] == {"pass": 10, "fail": 0}


def test_verify_unknown_id(capsys):
    assert main(["verify", "--id", "no-such"]) == 2


def test_verify_unwritable_report(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.json"
    code = main(
        ["verify", "--id", "catalan-ratio", "--max-n", "4", "--report", str(target)]
    )
    assert code == 3


def test_verify_report_path_is_a_directory(tmp_path, capsys):
    code = main(["verify", "--id", "catalan-ratio", "--max-n", "4", "--report", str(tmp_path)])
    assert code == 3
    assert "cannot write report" in capsys.readouterr().err


def test_cli_default_seed_is_the_suites():
    # The CLI keeps a copy for its --seed help text, so that building the
    # parser does not load the identity registry.
    assert cli.DEFAULT_SEED == identities.DEFAULT_SEED


def test_verify_stdout_deterministic(capsys):
    argv = ["verify", "--id", "lemma3-a", "--max-n", "5", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["seed"] == 11
    assert doc["counts"]["fail"] == 0


def test_verify_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("NARAYANA_LAB_SEED", "99")
    assert main(["verify", "--id", "catalan-ratio", "--max-n", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 99
    monkeypatch.setenv("NARAYANA_LAB_SEED", "not-a-number")
    assert main(["verify", "--id", "catalan-ratio", "--max-n", "4"]) == 2


def test_usage_error_exit_codes():
    with pytest.raises(SystemExit) as info:
        main(["table", "narayana"])  # missing --max-n
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_rational_argument_rejects_floats():
    with pytest.raises(SystemExit) as info:
        main(["table", "narayana", "--max-n", "3", "--at-q", "0.5"])
    assert info.value.code == 2


def test_table_json_shape(capsys):
    assert main(["table", "narayana", "--max-n", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][2] == {"n": 2, "coefficients": [1, 1]}
    assert main(["table", "catalan", "--max-n", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == [
        {"n": 0, "value": 1},
        {"n": 1, "value": 1},
        {"n": 2, "value": 2},
    ]


def test_hl_and_eval_share_the_query_cap(capsys):
    for r, n in ((31, 2), (2, 31), (400, 400)):
        assert main(["hl", "--r", str(r), "--n", str(n)]) == 2
        assert main(["eval", f"P{{{r},{n}}}"]) == 2
    capsys.readouterr()
    assert main(["hl", "--r", "30", "--n", "30"]) == 0
    hl_out = capsys.readouterr().out
    assert main(["eval", "P{30,30}"]) == 0
    assert capsys.readouterr().out == hl_out


def test_huge_alphabet_and_max_n_fail_fast(capsys):
    # Unbounded, the 999999 query takes seconds and the others run for minutes.
    huge = "9" * 3000
    for argv in (
        ["eval", f"h30[{huge}*q + {huge}*q2 + Q + Q2]"],
        ["eval", "e30[999999*q + 999999*q2 + 999999*Q + 999999*Q2 + 999999]"],
        ["verify", "--id", "thm6", "--max-n", "60"],
        ["verify", "--max-n", "31"],
    ):
        start = time.perf_counter()
        assert main(argv) == 2, argv[:2]
        assert time.perf_counter() - start < 1.0, argv[:2]
    assert "30" in capsys.readouterr().err


def test_eval_error_echo_is_bounded(capsys):
    for query in ("h2[" + "9" * 5000 + "]", "h2[" + " + ".join(["q"] * 5000) + "]"):
        assert main(["eval", query]) == 2
        err = capsys.readouterr().err
        assert len(err) < 300, len(err)
        assert f"... ({len(query)} characters)" in err
    assert main(["eval", "h2[w]"]) == 2
    assert "'h2[w]'" in capsys.readouterr().err


def exit_code(argv) -> int:
    """main's return value, or the code of the SystemExit that argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_numeric_inputs_are_ascii_decimals(capsys, monkeypatch):
    # int() would take Arabic-Indic digits and underscores; every numeric
    # input takes an optional '-' and 1 to 20 ASCII digits, nothing else.
    for argv in (
        ["table", "catalan", "--max-n", "٣"],
        ["table", "catalan", "--max-n", "1_0"],
        ["table", "catalan", "--max-n", " 3"],
        ["table", "catalan", "--max-n", "+3"],
        ["hl", "--r", "1_0", "--n", "٤"],
        ["hl", "--r", "3", "--n", "٤"],
        ["cf", "--depth", "²"],
        ["verify", "--id", "koshy", "--max-n", "٤"],
        ["verify", "--id", "koshy", "--max-n", "4", "--seed", "1_1"],
        ["table", "narayana", "--max-n", "3", "--at-q", "٣/1_0"],
        ["table", "narayana", "--max-n", "3", "--at-q", "1/٣"],
        ["table", "narayana", "--max-n", "3", "--at-q", "1/"],
        ["table", "narayana", "--max-n", "3", "--at-q", "-"],
    ):
        start = time.perf_counter()
        assert exit_code(argv) == 2, argv
        assert time.perf_counter() - start < 1.0, argv
    monkeypatch.setenv("NARAYANA_LAB_SEED", "٧")
    assert main(["verify", "--id", "koshy", "--max-n", "4"]) == 2
    assert "NARAYANA_LAB_SEED" in capsys.readouterr().err
    monkeypatch.setenv("NARAYANA_LAB_SEED", "-7")
    assert main(["verify", "--id", "koshy", "--max-n", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == -7
    assert main(["table", "narayana", "--max-n", "003", "--at-q=-1/02"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0: 1", "1: 1", "2: 1/2", "3: -1/4"]


def test_at_q_parts_have_at_most_20_digits(capsys):
    # Past 20 digits a row of table --max-n 200 can pass Python's 4300-digit
    # limit on int-to-str conversion (a traceback and exit 1), and at 1000
    # digits the table runs for minutes; such a point is refused before any
    # work.
    for at in ("9" * 1000, "9" * 100 + "/2", "1/" + "9" * 21, f"{10**21 - 1}/{10**21 - 2}"):
        start = time.perf_counter()
        assert exit_code(["table", "large-narayana", "--max-n", "200", "--at-q", at]) == 2
        assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "at most 20 digits" in err and len(err) < 2000
    # The 20-digit extreme: a/b near 1 makes every row's numerator largest.
    at = f"-{10**20 - 1}/{10**20 - 2}"
    assert main(["table", "large-narayana", "--max-n", "200", f"--at-q={at}"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 201
