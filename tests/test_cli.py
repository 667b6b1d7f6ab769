import json
from importlib import import_module, resources
from pathlib import Path

import jsonschema
import pytest

from traceforge import batch, cli
from traceforge.batch import SUMMARY_COLUMNS, survey
from traceforge.cli import main
from traceforge.semigroups import EXTERIOR


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _schema():
    with resources.files("traceforge").joinpath("schema.json").open() as fh:
        return json.load(fh)


def _validator(ref):
    schema = _schema()
    return jsonschema.Draft202012Validator(
        {"$ref": f"#/$defs/{ref}", "$defs": schema["$defs"]})


def test_info_command(capsys):
    code, out, _ = run(capsys, "sgp", "info", "4,5,11")
    assert code == 0
    assert "kunz coords : [1, 2, 2]" in out
    assert "condition I" in out
    assert "minimal multiplicity: False" in out


def test_info_dvr_banner(capsys):
    code, out, _ = run(capsys, "sgp", "info", "1")
    assert code == 0
    assert "discrete valuation ring" in out


def test_info_bad_input_exit_2(capsys):
    code, _, err = run(capsys, "sgp", "info", "4,6")
    assert code == 2 and "gcd" in err
    code, _, err = run(capsys, "sgp", "info", "4,x")
    assert code == 2
    code, _, err = run(capsys, "sgp", "info", "2.5,3")
    assert code == 2 and "bad generator list" in err


def test_info_conductor_limit_exit_3(capsys):
    code, _, err = run(capsys, "sgp", "info", "2,2000003")
    assert code == 3 and "exceeds" in err


def test_trace_enum_output_and_json(tmp_path, capsys):
    out_file = tmp_path / "enum.json"
    code, out, _ = run(capsys, "trace", "enum", "4,5,11", "--p", "2",
                       "--json", str(out_file))
    assert code == 0
    assert "trace ideals (zero ideal included): 5" in out
    assert "c+(t^5)" in out and "m = c+(t^4, t^5)" in out
    payload = json.loads(out_file.read_text())
    _validator("trace_report").validate(payload)
    assert [row["label"] for row in payload["trace_ideals"]] == \
        ["c", "c+(t^5)", "m = c+(t^4, t^5)", "R"]
    # odd p tests one module per torus orbit (239 here), but the census
    # line counts all of them
    code, out, _ = run(capsys, "trace", "enum", "5,7,8,9", "--p", "3")
    assert code == 0 and "R-submodules of R/c (census): 397\n" in out


def test_trace_enum_workload_exit_3(tmp_path, capsys):
    code, _, err = run(capsys, "trace", "enum", "2,27", "--p", "2")
    assert code == 3 and "exceeds" in err
    # the --json file is opened first and removed again when the run fails
    out_file = tmp_path / "x.json"
    code, _, err = run(capsys, "trace", "enum", "2,27", "--p", "2",
                       "--json", str(out_file))
    assert code == 3 and not out_file.exists()


def test_trace_enum_checks_json_path_before_enumerating(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated before checking the --json path")

    monkeypatch.setattr(cli, "enumerate_trace_ideals", refuse)
    code, _, err = run(capsys, "trace", "enum", "4,5,11", "--p", "2",
                       "--json", str(tmp_path / "missing" / "x.json"))
    assert code == 2 and err.startswith("error: ")


def test_trace_bijection_command(capsys):
    code, out, _ = run(capsys, "trace", "bijection", "3,7,8", "--p", "2")
    assert code == 0 and "bijection OK" in out
    code, _, err = run(capsys, "trace", "bijection", "4,5,11", "--p", "2")
    assert code == 2  # not minimal multiplicity


def test_trace_probe_command(capsys):
    code, out, _ = run(capsys, "trace", "probe", "4,5,6", "--n", "2",
                       "--samples", "0,1,2,3,5")
    assert code == 0
    assert "5/5 distinct" in out and "infinite family witness" in out
    code, _, err = run(capsys, "trace", "probe", "4,5,11", "--n", "2",
                       "--samples", "0,1")
    assert code == 2


def test_trace_probe_rejects_negative_exponent(capsys):
    # the error names the exponent, not a sample's polynomial
    errors = []
    for samples in ("3", "5,7/2"):
        code, _, err = run(capsys, "trace", "probe", "4,5,6", "--n", "-2",
                           "--samples", samples)
        assert code == 2 and err.startswith("error: ") and "negative" in err
        errors.append(err)
    assert errors[0] == errors[1]


def test_trace_probe_rejects_empty_samples(capsys):
    code, out, err = run(capsys, "trace", "probe", "4,5,6", "--n", "2", "--samples", ",")
    assert code == 2 and err.startswith("error: ") and not out


def test_trace_probe_rejects_zero_denominator(capsys):
    code, _, err = run(capsys, "trace", "probe", "4,5,6", "--n", "2",
                       "--samples", "1/0,2")
    assert code == 2 and err.startswith("error: ") and "1/0" in err


def test_artin_command(capsys):
    code, out, _ = run(capsys, "artin", "sq0", "--p", "2")
    assert code == 0 and "Tr = {0, m, R}" in out
    code, out, _ = run(capsys, "artin", "chain", "--l", "4", "--p", "2")
    assert code == 0 and "(5 trace ideals)" in out
    # wider than a byte per coordinate in the lattice engine
    code, out, _ = run(capsys, "artin", "chain", "--l", "3", "--p", "17")
    assert code == 0 and "(4 trace ideals)" in out
    code, out, _ = run(capsys, "artin", "chain", "--l", "2", "--p", "257")
    assert code == 0 and "(3 trace ideals)" in out
    code, out, _ = run(capsys, "artin", "gor4", "--rationals")
    assert code == 0 and "socle dim 1" in out
    # a prime and the rationals name two fields; the default prime conflicts too
    for p in ("3", "2"):
        with pytest.raises(SystemExit) as exit_:
            main(["artin", "sq0", "--rationals", "--p", p])
        err = capsys.readouterr().err
        assert exit_.value.code == 2 and "not allowed with argument" in err
    # --l is the length of chain alone
    for argv in (("sq0", "--l", "9"), ("gor4", "--rationals", "--l", "40")):
        code, _, err = run(capsys, "artin", *argv)
        assert code == 2 and err.startswith("error: ") and "'chain'" in err, argv
    code, out, err = run(capsys, "artin", "chain", "--l", "0")
    assert code == 2 and "length must be at least 1" in err and not out


def test_artin_chain_guard_exits_3_before_building_the_ring(capsys, monkeypatch):
    # 7^9 vectors exceed the enumeration guard: the chain ring, a table of
    # about L^3/2 entries with an L^3 associativity check, is never built
    def refuse(field, length):
        raise AssertionError("the chain ring was built")

    monkeypatch.setattr(cli, "truncated_dvr", refuse)
    code, _, err = run(capsys, "artin", "chain", "--l", "9", "--p", "7")
    assert code == 3 and "7^9 vectors exceed the guard" in err
    # the table costs the same over QQ, which gets the bound of p = 2
    code, _, err = run(capsys, "artin", "chain", "--l", "24", "--rationals")
    assert code == 3 and "2^24 vectors exceed the guard" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "artin", "chain", "--l", "8", "--p", "7")  # 7^8 passes
    assert code == 0 and "(9 trace ideals)" in out


def test_survey_genus_counts_and_files(tmp_path, capsys):
    out_dir = tmp_path / "sv"
    code, out, _ = run(capsys, "survey", "--max-genus", "3", "--p", "2",
                       "--out", str(out_dir))
    assert code == 0 and "no theorem violations" in out
    files = sorted(p.name for p in out_dir.glob("H_*.json"))
    assert len(files) == 8  # genus counts 1 + 1 + 2 + 4
    record_checker = _validator("record_file")
    for p in out_dir.glob("H_*.json"):
        record_checker.validate(json.loads(p.read_text()))
    _validator("run_file").validate(json.loads((out_dir / "run.json").read_text()))
    header = (out_dir / "summary.csv").read_text().splitlines()[0]
    assert header == ",".join(SUMMARY_COLUMNS)


def test_survey_determinism(tmp_path):
    # identical (config, seed): same out dir, run twice, snapshot in between
    out = tmp_path / "a"
    a = survey(3, 2, out, seed=5)
    first = {p.name: json.loads(p.read_text())["record"]
             for p in out.glob("H_*.json")}
    b = survey(3, 2, out, seed=5)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    for name, record in first.items():
        again = json.loads((out / name).read_text())["record"]
        assert json.dumps(record, sort_keys=True) == json.dumps(again, sort_keys=True)
    # a different seed moves the probe samples but nothing else
    c = survey(3, 2, tmp_path / "c", seed=6)
    assert c["count"] == a["count"]


def test_survey_genus_four_record_count(tmp_path):
    record = survey(4, 2, tmp_path / "g4", seed=0)
    assert record["count"] == 15  # genus counts 1 + 1 + 2 + 4 + 7
    assert record["violations"] == []
    assert "4,5,6" in record["flagged_for_study"]


def test_survey_parallel_matches_serial(tmp_path):
    serial = survey(3, 2, tmp_path / "s", seed=1, threads=1)
    parallel = survey(3, 2, tmp_path / "p", seed=1, threads=2)
    serial["config"], parallel["config"] = None, None
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


def test_survey_enumerates_each_semigroup_once(tmp_path, monkeypatch):
    # the blowup bijection reuses the record's own Tr(H) and enumerates
    # only the blowup: 27 records plus 17 of minimal multiplicity
    trace = import_module("traceforge.trace")  # the package exports a function "trace"
    calls = []
    inner = trace.enumerate_trace_ideals

    def counted(H, p):
        calls.append(H.text)
        return inner(H, p)

    monkeypatch.setattr(trace, "enumerate_trace_ideals", counted)
    monkeypatch.setattr(batch, "enumerate_trace_ideals", counted)
    record = survey(5, 2, tmp_path / "g5", threads=1)
    assert record["count"] == 27
    assert len(calls) == 44


def test_survey_reports_missing_conductor_as_violation(monkeypatch):
    # a trace test that rejects the conductor must surface as the survey's
    # own theorem check, not as an exception out of the enumeration
    trace = import_module("traceforge.trace")
    inner = trace._gap_fixed_point

    def reject_empty(q, rows, pivots, G):
        return inner(q, rows, pivots, G) if rows else False

    monkeypatch.setattr(trace, "_gap_fixed_point", reject_empty)
    record = batch.survey_one((3, 4), 2, 0)
    assert "conductor-least-trace" in record["violations"]
    assert record["checks"]["conductor_least_trace"] is False


def test_survey_lists_failed_checks_in_table_order(monkeypatch):
    # two forced failures, listed in the order of batch.THEOREM_CHECKS; a
    # check that does not apply (None) is no violation
    monkeypatch.setattr(batch, "kunz_cone_classify", lambda kv: EXTERIOR)
    monkeypatch.setattr(batch, "is_arf", lambda H: True)
    record = batch.survey_one((4, 5, 6), 2, 0)  # its value-set condition fails
    assert record["violations"] == ["kunz-classification", "arf-value-set-condition"]
    assert record["checks"]["blowup_bijection"] is None
    assert {key for key, ok in record["checks"].items() if ok is False} == \
        {"kunz_class_consistent", "arf_value_set_condition"}
    assert set(batch.THEOREM_CHECKS) == set(record["checks"])


def test_survey_exits_4_on_theorem_violations(tmp_path, capsys, monkeypatch):
    # a forced Kunz failure on every semigroup with a gap: each lands in
    # run.json's violations and on one stdout line, and the survey exits 4
    monkeypatch.setattr(batch, "kunz_cone_classify", lambda kv: EXTERIOR)
    out_dir = tmp_path / "sv"
    code, out, _ = run(capsys, "survey", "--max-genus", "2", "--p", "2",
                       "--out", str(out_dir))
    assert code == 4 and "THEOREM VIOLATIONS FOUND:" in out
    failing = [{"gens": gens, "violations": ["kunz-classification"]}
               for gens in ("2,3", "3,4,5", "2,5")]  # in the survey's order
    assert json.loads((out_dir / "run.json").read_text())["record"]["violations"] == failing
    lines = out.splitlines()
    assert all(f"  <{v['gens']}>: kunz-classification" in lines for v in failing)


def test_survey_bound(tmp_path, capsys):
    code, _, err = run(capsys, "survey", "--max-genus", "11", "--p", "2",
                       "--out", str(tmp_path / "x"))
    assert code == 2


def test_unwritable_paths_exit_2(tmp_path, capsys):
    # an empty --json path is refused by open too, not taken for no --json
    for path in (str(tmp_path / "missing" / "x.json"), ""):
        code, out, err = run(capsys, "trace", "enum", "4,5,11", "--p", "2", "--json", path)
        assert code == 2 and err.startswith("error: ") and not out, path
    taken = tmp_path / "taken"
    taken.write_text("")
    code, _, err = run(capsys, "survey", "--max-genus", "2", "--p", "2",
                       "--out", str(taken))
    assert code == 2 and err.startswith("error: ")


def test_survey_checks_inputs_before_creating_out_dir(tmp_path, capsys, monkeypatch):
    # an empty --out would name the current directory, so nothing may appear in it
    monkeypatch.chdir(tmp_path)
    cases = (("3", "11", "a"), ("11", "2", "b"), ("-1", "2", "c"), ("1", "2", ""))
    for genus, p, out_dir in cases:
        code, _, err = run(capsys, "survey", "--max-genus", genus, "--p", p, "--out", out_dir)
        assert code == 2 and err.startswith("error: "), out_dir
    assert not any(tmp_path.iterdir())


def test_thread_count(tmp_path):
    # threads alone sets the worker count: None means 1, and it is at least 1
    for threads, expected in ((None, 1), (0, 1), (1, 1), (2, 2)):
        record = survey(1, 2, tmp_path / f"t{threads}", threads=threads)
        assert record["config"]["threads"] == expected, threads


def test_readme_python_example(capsys):
    # run the README's Python block; each comment that spells a printed
    # line out in full (no "...") must match it, up to runs of spaces
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    printed = capsys.readouterr().out.splitlines()
    spelled = [" ".join(line.split("# ", 1)[1].split()) for line in block.splitlines()
               if "# " in line and not line.endswith("...")]
    assert spelled == ["(0, 1)", "c Ideal[ | t^8K[[t]] over <4,5,11>]",
                       "c+(t^5) Ideal[t^5 | t^8K[[t]] over <4,5,11>]"]
    assert [" ".join(line.split()) for line in printed[:len(spelled)]] == spelled


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # every traceforge line of README's "Command line" block exits 0
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("\n```\n", 1)[0]
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("traceforge ")]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv
