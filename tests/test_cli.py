import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ibonset
from ibonset import (
    ConditionalMatrix,
    DiscreteJoint,
    save_conditional_csv,
    save_joint_csv,
    solver,
)
from ibonset.cli import (
    _COMMANDS,
    _ESTIMATORS,
    _LEAST,
    _build_config,
    _task_seed,
    build_parser,
    main,
)

from golden_cases import OVERLAP_NOISY_SPEC

TWO_CLUSTER_BETA = 1.0 / 0.36


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_estimate_preset_all_methods(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["estimate", "--preset", "noise-0.2", "--method", "all", "--out", str(out)])
    assert code == 0
    report = _read_json(out)
    by_method = {e["method"]: e["value"] for e in report["estimates"]}
    for name in ("subset_search", "class_conditional", "functional",
                 "max_correlation_inverse"):
        assert by_method[name] == pytest.approx(TWO_CLUSTER_BETA, abs=1e-5)
    assert "info_density" in by_method
    printed = capsys.readouterr().out
    assert "subset_search" in printed and "2.777" in printed


def test_estimate_identity_cond(tmp_path):
    path = tmp_path / "identity.csv"
    save_conditional_csv(ConditionalMatrix(np.eye(2)), path)
    out = tmp_path / "report.json"
    assert main(["estimate", "--cond", str(path), "--method", "subset", "--out", str(out)]) == 0
    report = _read_json(out)
    assert report["estimates"][0]["value"] == pytest.approx(1.0, abs=1e-6)


def test_estimate_independent_cond_exits_2(tmp_path):
    path = tmp_path / "flat.csv"
    save_conditional_csv(ConditionalMatrix([[0.5, 0.5]] * 4), path)
    assert main(["estimate", "--cond", str(path)]) == 2


@pytest.mark.parametrize("method", list(_ESTIMATORS))
def test_estimate_one_row_cond_exits_2_on_every_route(tmp_path, capsys, method):
    # functional exited 1 with "need at least two x values"; a one-row table
    # is an independent input on every route that reads it
    path = tmp_path / "one_row.csv"
    save_conditional_csv(ConditionalMatrix([[0.3, 0.7]]), path)
    code = main(["estimate", "--cond", str(path), "--method", method])
    captured = capsys.readouterr()
    assert captured.out == ""
    if method == "class-conditional":
        assert code == 1 and "no applicable estimator" in captured.err
    else:
        assert code == 2 and "independent" in captured.err


def test_estimate_method_help_names_the_registry(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main(["estimate", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    names = re.search(r"--method METHOD comma list of (.*?), or 'all'", text).group(1)
    assert names.split(", ") == list(_ESTIMATORS)


def test_estimate_malformed_input_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.csv"
    path.write_text("y0,y1\n0.9,oops\n")
    assert main(["estimate", "--cond", str(path)]) == 1
    assert main(["estimate", "--cond", str(tmp_path / "missing.csv")]) == 1
    # a NaN component mean once ran every estimator to exit 0
    spec = json.loads(json.dumps(ibonset.noise_preset(0.2).to_dict()))
    spec["components"][0]["mean"][0] = float("nan")
    path.write_text(json.dumps(spec))
    assert main(["estimate", "--spec", str(path), "--method", "all"]) == 1
    assert main(["estimate", "--preset", "overlap-inf"]) == 1
    # strings where numbers belong once escaped as ValueError tracebacks
    for field, edit in [
        ("mean", lambda doc: doc["components"][0].update(mean=["abc", 0.0])),
        ("class_id", lambda doc: doc["components"][0].update(class_id="b")),
        ("noise", lambda doc: doc.update(noise="abc")),
        ("noise", lambda doc: doc.update(noise=[["x", 0.2], [0.2, 0.8]])),
        # strings, booleans and fractions once read as numbers, exit 0
        ("class_id", lambda doc: doc["components"][1].update(class_id=1.7)),
        ("class_id", lambda doc: doc["components"][1].update(class_id=True)),
        ("weight", lambda doc: doc["components"][0].update(weight="0.5")),
        ("variances", lambda doc: doc["components"][0].update(variances=[True, 0.25])),
        ("noise", lambda doc: doc.update(noise=[["0.8", 0.2], [0.2, 0.8]])),
    ]:
        doc = ibonset.noise_preset(0.2).to_dict()
        edit(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["estimate", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err


@pytest.mark.parametrize("flag, body, line", [
    ("--cond", "y0,y1\n0.9,0.2\n0.5,0.5\n", "error: row 0 sums to 1.1, expected 1"),
    ("--joint", "0.5,0.5\n0.25,0.25\n", "error: joint mass is 1.5, expected 1"),
], ids=["cond-row-sum", "joint-mass"])
def test_estimate_unit_mass_errors_print_plain_floats(tmp_path, capsys, flag, body, line):
    # both once printed the sum as np.float64(...)
    path = tmp_path / "table.csv"
    path.write_text(body)
    assert main(["estimate", flag, str(path)]) == 1
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("argv, spec, line", [
    (["--preset", "overlap-nan"], None,
     "error: component mean must be finite, got [[nan, 0.0], [nan, 0.0]]"),
    (["--spec"], ("mean", [float("nan"), 0.0]),
     "error: component mean must be finite, got [[nan, 0.0], [8.0, 0.0]]"),
    (["--spec"], ("variances", [float("inf"), 0.25]),
     "error: component variances must be finite, got [[inf, 0.25], [0.25, 0.25]]"),
], ids=["preset-nan", "spec-nan", "spec-infinity"])
def test_estimate_non_finite_mixture_numbers_print_one_plain_line(
        tmp_path, capsys, argv, spec, line):
    # each once printed a numpy array repr split over two lines; json.load
    # reads NaN and Infinity, so a spec file can hold them
    if spec is not None:
        doc = ibonset.noise_preset(0.2).to_dict()
        doc["components"][0][spec[0]] = spec[1]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, str(path)]
    assert main(["estimate", *argv]) == 1
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("body", [
    "y0,y1,y2\n0.5,0.5,0\n0.2,0.8,0\n",
    "y0,y1,y2\n0.5,0,0.5\n0.2,0,0.8\n",
], ids=["empty-last", "empty-middle"])
def test_estimate_subset_reads_a_table_with_an_empty_label(tmp_path, body):
    # subset search once found every candidate NaN here, with a
    # RuntimeWarning, and exited 2 as if X and Y were independent
    path, out = tmp_path / "cond.csv", tmp_path / "report.json"
    path.write_text(body)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["estimate", "--cond", str(path), "--method", "subset",
                     "--out", str(out)]) == 0
    # the joint table drops the empty label, and says so; nothing else warns
    assert [str(w.message) for w in caught] == [
        "pruned 1 zero-mass rows/columns from joint table"]
    assert _read_json(out)["estimates"][0]["value"] == pytest.approx(91.0 / 9.0, rel=1e-12)


def test_command_prints_a_library_warning_as_a_warning_line(tmp_path):
    # the pruning warning once printed as "<string>:4: UserWarning: ...",
    # a line in the dataclass-generated __init__
    path = tmp_path / "cond.csv"
    path.write_text("y0,y1,y2\n0.5,0.5,0\n0.2,0.8,0\n")
    proc = _python("-m", "ibonset.cli", "estimate", "--cond", str(path), cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == "warning: pruned 1 zero-mass rows/columns from joint table\n"


def test_class_conditional_route_reads_a_spec_with_an_observed_label_that_never_occurs(
        tmp_path):
    # the closed form once rejected this spec ("induced label marginal has a
    # zero entry"), and sweep exited 1 from its theory lines, unwritten
    path = tmp_path / "spec.json"
    ibonset.save_spec_json(ibonset.noise_preset(0.2), path)
    doc = _read_json(path)
    doc["noise"] = [[0.8, 0.2, 0.0], [0.2, 0.8, 0.0]]
    path.write_text(json.dumps(doc))
    # the joint tables drop the empty label, and say so
    for samples in ([], ["--samples", "500"]):
        out = tmp_path / "report.json"
        with pytest.warns(UserWarning, match="pruned 1 zero-mass"):
            assert main(["estimate", "--spec", str(path), *samples, "--out", str(out)]) == 0
        by_method = {e["method"]: e["value"] for e in _read_json(out)["estimates"]}
        assert by_method["class_conditional"] == pytest.approx(25.0 / 9.0, rel=1e-12)
    out_json, out_csv = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    with pytest.warns(UserWarning, match="pruned 1 zero-mass"):
        assert main(["sweep", "--spec", str(path), "--beta-points", "7",
                     "--out-json", str(out_json), "--out-csv", str(out_csv)]) == 0
    theory = _read_json(out_json)["theory"]
    assert theory["class_conditional"] == pytest.approx(25.0 / 9.0, rel=1e-12)
    assert len(out_csv.read_text().splitlines()) == 8


def test_estimate_reads_an_overlapping_noisy_spec_through_its_binned_table(tmp_path, capsys):
    # every local route once read the true-class table of the noise and
    # printed 2.851852, 34% below the onset a sweep finds (4.4346); the
    # classes overlap here, so that table is coarser than the mixture's X
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(OVERLAP_NOISY_SPEC))
    out = tmp_path / "report.json"
    assert main(["estimate", "--spec", str(path), "--method", "all", "--out", str(out)]) == 0
    by_method = {e["method"]: e["value"] for e in _read_json(out)["estimates"]}
    joint = ibonset.discretize(ibonset.load_spec_json(path))
    cond = ibonset.conditional_from_joint(joint)
    assert by_method["subset_search"] == ibonset.subset_search(cond).value
    assert by_method["functional"] == ibonset.minimize_beta(joint).value
    assert by_method["max_correlation_inverse"] == ibonset.max_correlation_beta(joint).value
    assert by_method["info_density"] == ibonset.info_density_beta(cond).value
    # data processing along X - true class - Y: with two classes the
    # true-class table's threshold is at most the mixture's 1/rho^2
    assert by_method["class_conditional"] <= by_method["max_correlation_inverse"]
    assert capsys.readouterr().out.splitlines()[1:] == [
        "subset_search            4.893503",
        "class_conditional        2.851852",
        "functional               4.321449",
        "max_correlation_inverse  4.321449",
        "info_density             5.569233",
    ]


def test_estimate_and_sweep_read_one_table(tmp_path, monkeypatch):
    # estimate once read the 2-row true-class table of a noise preset and
    # sweep its binned table, so their values and witnesses differed
    witness_sizes = []
    to_dict = ibonset.BetaEstimate.to_dict

    def recording_to_dict(self):
        witness_sizes.append(len(self.witness))
        return to_dict(self)

    monkeypatch.setattr(ibonset.BetaEstimate, "to_dict", recording_to_dict)
    out, out_json = tmp_path / "est.json", tmp_path / "sweep.json"
    assert main(["estimate", "--preset", "noise-0.2", "--method",
                 "subset,class-conditional,maxcorr", "--out", str(out)]) == 0
    assert main(["sweep", "--preset", "noise-0.2", "--beta-points", "3",
                 "--out-csv", str(tmp_path / "sweep.csv"), "--out-json", str(out_json)]) == 0
    estimated = {e["method"]: e["value"] for e in _read_json(out)["estimates"]}
    assert estimated == _read_json(out_json)["theory"]
    rows = ibonset.discretize(ibonset.noise_preset(0.2)).shape[0]
    # the class-conditional witness lives on the true-class table
    assert witness_sizes == [rows, 2, rows]


@pytest.mark.parametrize("case", ["cond-dir", "config-dir", "out-samples-dir", "cond-bytes"])
def test_file_system_and_encoding_errors_exit_1(tmp_path, capsys, case):
    # each of these once escaped main as an IsADirectoryError or a
    # UnicodeDecodeError traceback
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"\xff\xfe")
    argv = {
        "cond-dir": ["estimate", "--cond", str(tmp_path)],
        "config-dir": ["estimate", "--config", str(tmp_path)],
        "out-samples-dir": ["gen", "--preset", "noise-0.2", "--n", "5",
                            "--out-samples", str(tmp_path),
                            "--out-spec", str(tmp_path / "spec.json")],
        "cond-bytes": ["estimate", "--cond", str(binary)],
    }[case]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_estimate_requires_exactly_one_input(tmp_path):
    path = tmp_path / "c.csv"
    save_conditional_csv(ConditionalMatrix(np.eye(2)), path)
    assert main(["estimate"]) == 1
    assert main(["estimate", "--cond", str(path), "--preset", "noise-0.2"]) == 1


def test_estimate_unknown_preset_exits_1():
    assert main(["estimate", "--preset", "nope-1.0"]) == 1


def test_estimate_config_file_with_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    for command, key, value in [("estimate", "surprise", 1), ("estimate", "tolerance", 1),
                                ("estimate", "variant", "range"), ("sweep", "workers", 2),
                                ("sweep", "warm_start", True), ("sweep", "restarts", 2),
                                ("sweep", "max_iters", 100), ("sweep", "z_card", 2)]:
        cfg.write_text(json.dumps({"preset": "noise-0.2", key: value}))
        assert main([command, "--config", str(cfg)]) == 1
        assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("config_text, message", [
    (None, "error: config file not found: {path}\n"),
    ("{nope", "error: {path}: invalid JSON (Expecting property name enclosed in double quotes"),
    ('[{"bins": 8}]', "error: {path}: config must be a JSON object\n"),
], ids=["missing", "invalid-json", "array"])
def test_unreadable_config_document_exits_1_before_any_work(
    tmp_path, capsys, monkeypatch, config_text, message
):
    cfg = tmp_path / "config.json"
    if config_text is not None:
        cfg.write_text(config_text)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["estimate", "--preset", "noise-0.2", "--out", "e.json",
                 "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(message.format(path=cfg))
    assert list(work.iterdir()) == []


def test_config_document_null_is_the_default(tmp_path, capsys):
    out = tmp_path / "e.json"
    argv = ["estimate", "--preset", "noise-0.2", "--method", "maxcorr", "--out", str(out)]
    runs = []
    for extra in ([], _config_argv(tmp_path, {"bins": None})):
        assert main([*argv, *extra]) == 0
        report = _read_json(out)
        del report["timestamp"]
        runs.append((capsys.readouterr(), report))
    assert runs[0] == runs[1] and runs[0][1]["config"]["bins"] == 32


def test_estimate_unknown_method_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["estimate", "--preset", "noise-0.2", "--method", "nope",
                 "--out", "e.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: unknown method 'nope'; choose from subset, "
                            "class-conditional, functional, maxcorr, info-density or all\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, doc", [
    ("table", {"learned": "false"}),
    ("sweep", {"beta_points": 2.7}),
    ("table", {"beta_points": True}),
])
def test_config_document_values_are_not_coerced(tmp_path, capsys, command, doc):
    # each of these ran to exit 0 when values were coerced: "false" turned
    # the learned column on, 2.7 beta points became 2, and true beta points
    # became 1
    inputs = {
        "sweep": {"preset": "noise-0.2", "beta_points": 7,
                  "out_csv": str(tmp_path / "s.csv"), "out_json": str(tmp_path / "s.json")},
        "table": {"rates": [0.2], "out": str(tmp_path / "t.json")},
    }[command]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**inputs, **doc}))
    assert main([command, "--config", str(cfg)]) == 1
    assert f"bad value for {next(iter(doc))!r}" in capsys.readouterr().err


def _non_default(kind):
    """A value of ``kind`` that is no option's default: (flag argv, document value)."""
    if kind is bool:
        return [], True
    # integral numbers: a float option takes any JSON number
    value = {str: "other", int: 7, float: 2, list: [0, 0.3]}[kind]
    text = ",".join(map(str, value)) if kind is list else str(value)
    return [text], value


@pytest.mark.parametrize("command, key", [
    (command, key) for command, (_, _, options) in _COMMANDS.items() for key in options
])
def test_flag_and_config_document_give_the_same_config(tmp_path, command, key):
    kind, default, _ = _COMMANDS[command][2][key]
    argv, value = _non_default(kind)
    parser = build_parser()

    def values(extra):
        args = vars(parser.parse_args([command, *extra]))
        del args["command"], args["config"]
        return args

    flag = "--" + key.replace("_", "-")
    from_flag = _build_config(command, values([flag, *argv]), None)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({key: value}))
    from_doc = _build_config(command, values([]), str(cfg))
    # compared as JSON too, as the reports write them: 2 is not 2.0 there
    assert json.dumps(from_flag) == json.dumps(from_doc)
    assert from_flag[key] == value != default


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_parser_dests_are_the_option_table(command):
    dests = set(vars(build_parser().parse_args([command])))
    assert dests == set(_COMMANDS[command][2]) | {"command", "config"}


def test_readme_flags_are_options_of_some_command():
    # the README's command-line section and solver bullet once advertised
    # flags that no command had any more
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    command_line = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    solver_bullet = readme.split("\n* `ibonset.solver`", 1)[1].split("\n* ", 1)[0]
    flags = set(re.findall(r"--[a-z][a-z-]*", command_line + solver_bullet))
    options = {"--" + key.replace("_", "-")
               for _, _, command_options in _COMMANDS.values() for key in command_options}
    assert "--seed" in flags and "--sweep-column" in flags
    assert sorted(flags - options - {"--config"}) == []


def test_readme_command_line_names_every_option():
    # the reverse of the test above: --joint and --rates were once options
    # that the command-line section never showed
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    command_line = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    flags = set(re.findall(r"--[a-z][a-z-]*", command_line))
    options = {"--" + key.replace("_", "-")
               for _, _, command_options in _COMMANDS.values() for key in command_options}
    assert sorted(options - flags) == []


def test_readme_solver_bullet_names_what_the_code_has():
    # the bullet once kept naming the onset band's constants and protocol
    # keys after the band was gone
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    solver_bullet = readme.split("\n* `ibonset.solver`", 1)[1].split("\n* ", 1)[0]
    keys = set(re.findall(r"protocol\.([a-z_]+)", solver_bullet))
    constants = set(re.findall(r"\b[A-Z][A-Z0-9]*_[A-Z0-9_]+\b", solver_bullet))
    assert "onset_below_grid" in keys and "ONSET_LEARNED_TOL" in constants
    protocol = solver.sweep(DiscreteJoint([[0.4, 0.1], [0.1, 0.4]]), [1.0, 2.0],
                            restarts=1).to_dict()["protocol"]
    assert sorted(keys - set(protocol)) == []
    assert sorted(c for c in constants if not hasattr(solver, c)) == []


def test_readme_library_quickstart_runs_and_prints_its_comments():
    # the quickstart once read a field that the estimators no longer had
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Library quickstart\n", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    # a line `expression  # 2.7778` states the expression's value to its
    # last printed digit, `# ~2.78` to within one unit of it
    checked = 0
    for line in block.splitlines():
        match = re.fullmatch(r"([^=#]+?)\s+# (~?)(\d+\.(\d+))\b.*", line)
        if match:
            expr, approx, number, digits = match.groups()
            tol = 10.0 ** -len(digits) * (1.0 if approx else 0.5)
            assert eval(expr, namespace) == pytest.approx(float(number), abs=tol), line
            checked += 1
    assert checked >= 5


@pytest.mark.parametrize("via", ["flag", "config"])
def test_estimate_method_list_empty_or_repeated(tmp_path, capsys, via):
    def run(method):
        argv = (["--method", method] if via == "flag"
                else _config_argv(tmp_path, {"method": method}))
        return main(["estimate", "--preset", "noise-0.2", *argv,
                     "--out", str(tmp_path / "r.json")])

    # an empty list was reported as no estimator applying to the input
    assert run("") == 1
    err = capsys.readouterr().err
    assert "method must list at least one estimator" in err
    assert "class-conditional" not in err
    assert run("maxcorr,maxcorr") == 0
    assert capsys.readouterr().out.count("max_correlation_inverse") == 1
    estimates = _read_json(tmp_path / "r.json")["estimates"]
    assert [e["method"] for e in estimates] == ["max_correlation_inverse"]


def test_estimate_rejects_tolerance_flag():
    # the subset search is exact, so it has no tolerance to set; maxcorr
    # draws no random numbers, so it has no seed; estimate runs only the
    # prefix search and sweep only the serial grid, at the library's solver
    # settings, as table --sweep-column does
    for argv in (["estimate", "--preset", "noise-0.2", "--tolerance", "1e-6"],
                 ["maxcorr", "--preset", "noise-0.2", "--seed", "1"],
                 ["estimate", "--preset", "noise-0.2", "--variant", "range"],
                 ["sweep", "--preset", "noise-0.2", "--workers", "2"],
                 ["sweep", "--preset", "noise-0.2", "--restarts", "2"],
                 ["sweep", "--preset", "noise-0.2", "--max-iters", "100"],
                 ["sweep", "--preset", "noise-0.2", "--z-card", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


#: modules a fresh ``import ibonset.cli`` must not load: scipy, the process
#: pool (nothing in the package uses it), numpy.ma (which np.unique of
#: labels imports) and the layers only some commands run
_NOT_AT_IMPORT = ("scipy", "concurrent.futures.process", "numpy.ma",
                  "ibonset.solver", "ibonset.classifier")


#: the variables that set OpenBLAS's thread count
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _python(*args: str, cwd=None, env=None) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args`` and this package on its path;
    ``env`` replaces the environment, apart from ``PYTHONPATH``."""
    src = str(Path(ibonset.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args],
        env={**(os.environ if env is None else env), "PYTHONPATH": src}, cwd=cwd,
        capture_output=True, text=True,
    )


def _fresh_python(code: str, cwd=None, env=None):
    """The JSON value that ``code``, run by :func:`_python` with ``json`` and
    ``sys`` imported, prints on its last line."""
    proc = _python("-c", f"import json, sys\n{code}", cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(code: str, cwd=None) -> list[str]:
    """Which of the modules in ``_NOT_AT_IMPORT`` a fresh interpreter has
    loaded after running ``code``."""
    return _fresh_python(
        f"{code}\nprint(json.dumps(sorted(set({_NOT_AT_IMPORT!r}) & set(sys.modules))))",
        cwd=cwd,
    )


def test_cli_import_does_not_load_scipy():
    assert _loaded_after("import ibonset.cli") == []


@pytest.mark.parametrize("argv, loaded", [
    (["estimate", "--preset", "noise-0.2"], []),
    (["maxcorr", "--preset", "noise-0.2"], []),
    (["gen", "--preset", "noise-0.2", "--n", "10"], []),
    (["table", "--rates", "0.2"], []),
    (["sweep", "--preset", "noise-0.2", "--beta-points", "7"], ["ibonset.solver"]),
    (["table", "--learned", "--rates", "0.2", "--samples", "200"], ["ibonset.classifier"]),
], ids=["estimate", "maxcorr", "gen", "table", "sweep", "table-learned"])
def test_commands_load_only_the_layers_they_run(tmp_path, argv, loaded):
    code = f"from ibonset.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(code, cwd=tmp_path) == loaded


#: what ``from ibonset import *`` binds: the public names of every
#: submodule but solver, and those submodules
_STAR_NAMES = [
    "BetaEstimate", "ConditionalMatrix", "DiscreteJoint", "IndependenceError",
    "InvalidDirectionError", "Method", "MixtureSpec", "OnsetError", "SampleSet",
    "ValidationError",
    "analytic_posterior", "beta_for_scores", "certify",
    "class_conditional_beta", "conditional_from_joint", "discretize", "dist",
    "entropy", "errors", "estimators", "get_preset", "info_density_beta",
    "joint_from_conditional", "load_conditional_csv", "load_joint_csv",
    "load_spec_json", "max_correlation", "max_correlation_beta", "minimize_beta",
    "mutual_information", "noise_preset", "onset_correction", "overlap_preset",
    "sample", "save_conditional_csv", "save_joint_csv", "save_samples_csv",
    "save_spec_json", "subset_search", "symmetric_flip", "synth",
]

#: every public name of the package when solver was imported eagerly
_PUBLIC_NAMES = sorted([
    *_STAR_NAMES, "Encoder", "SweepPoint", "SweepResult", "detect_onset",
    "info_plane", "save_sweep_csv", "solve", "solver", "sweep", "__version__",
])


def test_package_names_resolve_and_solver_loads_on_first_use():
    code = (
        "import ibonset\n"
        "assert 'ibonset.solver' not in sys.modules\n"
        f"missing = [n for n in {_PUBLIC_NAMES!r} if not hasattr(ibonset, n)]\n"
        "assert missing == [], missing\n"
        f"assert set(dir(ibonset)) >= set({_PUBLIC_NAMES!r})\n"
        "from ibonset import sweep, solver\n"
        "assert sweep is solver.sweep and ibonset.solver is solver"
    )
    assert _loaded_after(code) == ["ibonset.solver"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ibonset.no_such_name


def test_package_import_loads_nothing_until_a_name_is_used():
    code = (
        "import ibonset\n"
        "loaded = [m for m in sys.modules if m == 'numpy' or m.startswith('ibonset.')]\n"
        "assert loaded == [], loaded\n"
        "star = {}\n"
        "exec('from ibonset import *', star)\n"
        "print(json.dumps(sorted(set(star) - {'__builtins__'})))"
    )
    assert _fresh_python(code) == _STAR_NAMES


def _blas_env(**given) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    return {**env, **given}


_PRINT_BLAS_VARS = f"print(json.dumps({{k: os.environ.get(k) for k in {_BLAS_VARS!r}}}))"


@pytest.mark.parametrize("given", [
    {}, {"OPENBLAS_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"},
], ids=["unset", "openblas", "goto", "omp"])
def test_cli_import_defaults_blas_to_one_thread_unless_a_count_is_set(given):
    code = f"import os\nimport ibonset.cli\n{_PRINT_BLAS_VARS}"
    want = {var: given.get(var) for var in _BLAS_VARS}
    if not given:
        want["OPENBLAS_NUM_THREADS"] = "1"
    assert _fresh_python(code, env=_blas_env(**given)) == want


def test_cli_import_after_numpy_leaves_the_environment_alone():
    code = f"import os\nimport numpy\nimport ibonset.cli\n{_PRINT_BLAS_VARS}"
    assert _fresh_python(code, env=_blas_env()) == dict.fromkeys(_BLAS_VARS)


def test_cli_runs_with_one_live_blas_thread():
    # the run-time count of the OpenBLAS that numpy loaded, as the
    # benchmark's environment block reads it
    bench = Path(__file__).resolve().parents[1] / "bench"
    code = (
        "import ibonset.cli\n"
        f"sys.path.insert(0, {str(bench)!r})\n"
        "from run import blas_threads\n"
        "print(json.dumps(blas_threads()))"
    )
    count = _fresh_python(code, env=_blas_env())
    if count is None:
        pytest.skip("numpy loaded no OpenBLAS library")
    assert count == 1


def _buffered_env() -> dict:
    """This environment without ``PYTHONUNBUFFERED``: a child's stdout to a
    pipe is then block-buffered, so only its exit path writes it out."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _in_process(argv, capsys) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)`` in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code", [
    (["maxcorr", "--preset", "noise-0.2"], 0),
    (["estimate", "--preset", "noise-9"], 1),
    (["estimate", "--preset", "noise-0.5"], 2),
    (["estimate", "--bogus"], 2),
    (["--help"], 0),
], ids=["ok", "input-error", "independent", "argparse-error", "help"])
def test_module_entry_point_exits_and_prints_as_main(
    tmp_path, capsys, monkeypatch, argv, code
):
    # python -m ibonset.cli ends through run(), which freezes the heap on exit
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal
    monkeypatch.chdir(tmp_path)
    proc = _python("-m", "ibonset.cli", *argv, cwd=tmp_path, env=_buffered_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(argv, capsys)
    assert proc.returncode == code


_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


@pytest.mark.parametrize("argv, outputs", [
    (["sweep", "--preset", "noise-0.2", "--beta-points", "7",
      "--out-csv", "s.csv", "--out-json", "s.json"], ["s.csv", "s.json"]),
    (["estimate", "--preset", "noise-0.2", "--samples", "500", "--out", "e.json"], ["e.json"]),
    (["gen", "--preset", "noise-0.2", "--n", "500"], ["samples.csv", "spec.json"]),
], ids=["sweep", "estimate", "gen"])
def test_module_entry_point_writes_the_reports_main_writes(
    tmp_path, capsys, monkeypatch, argv, outputs
):
    by_run, by_main = tmp_path / "run", tmp_path / "main"
    by_run.mkdir()
    by_main.mkdir()
    proc = _python("-m", "ibonset.cli", *argv, cwd=by_run, env=_buffered_env())
    monkeypatch.chdir(by_main)
    assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(argv, capsys)
    for name in outputs:
        got, want = ((d / name).read_bytes() for d in (by_run, by_main))
        assert _TIMESTAMP.sub(b"", got) == _TIMESTAMP.sub(b"", want), name


_VIA_RUN = "try:\n    cli.run()\nexcept SystemExit as exc:\n    code = exc.code"


@pytest.mark.parametrize("entry, argv, want_code, frozen", [
    (_VIA_RUN, ["maxcorr", "--preset", "noise-0.2"], 0, True),
    (_VIA_RUN, ["estimate", "--bogus"], 2, True),  # main raised SystemExit
    ("code = cli.main(sys.argv[1:])", ["maxcorr", "--preset", "noise-0.2"], 0, False),
], ids=["run", "run-argparse-error", "main"])
def test_only_run_freezes_the_heap(tmp_path, entry, argv, want_code, frozen):
    code = (
        f"import gc\nfrom ibonset import cli\nsys.argv = ['ibonset', *{argv!r}]\n{entry}\n"
        "print(json.dumps([code, gc.get_freeze_count()]))"
    )
    got_code, count = _fresh_python(code, cwd=tmp_path)
    assert got_code == want_code
    assert (count > 0) == frozen, count


def test_estimate_config_file_flags_override(tmp_path):
    cfg = tmp_path / "config.json"
    out = tmp_path / "r.json"
    cfg.write_text(json.dumps({"preset": "noise-0.3", "method": "class-conditional"}))
    code = main(["estimate", "--config", str(cfg), "--preset", "noise-0.2",
                 "--out", str(out)])
    assert code == 0
    report = _read_json(out)
    assert report["config"]["preset"] == "noise-0.2"
    assert report["estimates"][0]["value"] == pytest.approx(TWO_CLUSTER_BETA, rel=1e-9)


def test_estimate_idempotent_modulo_timestamp(tmp_path):
    out = tmp_path / "report.json"
    args = ["estimate", "--preset", "noise-0.2", "--seed", "5", "--out", str(out)]
    assert main(args) == 0
    first = _read_json(out)
    assert main(args) == 0
    second = _read_json(out)
    first.pop("timestamp"), second.pop("timestamp")
    assert first == second


def test_gen_writes_samples_and_spec(tmp_path):
    samples = tmp_path / "s.csv"
    spec = tmp_path / "spec.json"
    code = main(["gen", "--preset", "noise-0.1", "--n", "200", "--seed", "3",
                 "--out-samples", str(samples), "--out-spec", str(spec)])
    assert code == 0
    assert len(samples.read_text().strip().splitlines()) == 201
    doc = _read_json(spec)
    assert len(doc["components"]) == 2
    # deterministic given the seed
    again = tmp_path / "s2.csv"
    main(["gen", "--preset", "noise-0.1", "--n", "200", "--seed", "3",
          "--out-samples", str(again), "--out-spec", str(spec)])
    assert again.read_text() == samples.read_text()


def test_gen_spec_reproduces_the_samples(tmp_path):
    # the spec once recorded "seed": 3, which drew other samples than gen's
    samples, spec = tmp_path / "s.csv", tmp_path / "spec.json"
    assert main(["gen", "--preset", "noise-0.1", "--n", "50", "--seed", "3",
                 "--out-samples", str(samples), "--out-spec", str(spec)]) == 0
    assert "seed" not in _read_json(spec)
    drawn = ibonset.sample(ibonset.load_spec_json(spec), 50, seed=_task_seed(3, 0))
    written = np.loadtxt(samples, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(written[:, :2], drawn.points)
    np.testing.assert_array_equal(written[:, 2], drawn.observed_labels)
    np.testing.assert_array_equal(written[:, 3], drawn.true_labels)


def test_gen_without_spec_exits_1():
    assert main(["gen", "--n", "10"]) == 1


def test_gen_with_two_inputs_exits_1(tmp_path, capsys, monkeypatch):
    # --spec was once ignored in favour of --preset, exit 0
    monkeypatch.chdir(tmp_path)
    spec = tmp_path / "a.json"
    ibonset.save_spec_json(ibonset.noise_preset(0.2), spec)
    assert main(["gen", "--preset", "overlap-3.2", "--spec", str(spec), "--n", "5"]) == 1
    assert "exactly one input" in capsys.readouterr().err
    assert not (tmp_path / "samples.csv").exists()


@pytest.mark.parametrize("command, argv", [
    ("sweep", ["--preset", "noise-0.2", "--beta-points", "7"]),
    ("maxcorr", ["--preset", "overlap-2.0"]),
    ("estimate", ["--preset", "overlap-1.2", "--method", "maxcorr"]),
    ("maxcorr", ["--preset", "noise-0.2"]),
    ("estimate", ["--preset", "noise-0.2", "--method", "maxcorr"]),
    # sampled posteriors are the one input never discretized, so bins goes unread
    ("estimate", ["--preset", "noise-0.2", "--samples", "50", "--method", "maxcorr"]),
])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_zero_bins_exits_1(tmp_path, capsys, monkeypatch, command, argv, via):
    # 0 once read as unset: the commands ran on a 32-bin table, exit 0;
    # sampled posteriors, the only input never discretized now, never read
    # bins and printed 2.777778, exit 0
    monkeypatch.chdir(tmp_path)
    bins = ["--bins", "0"] if via == "flag" else _config_argv(tmp_path, {"bins": 0})
    assert main([command, *argv, *bins]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bins must be at least 1, got 0" in captured.err


def test_sweep_on_joint_csv(tmp_path):
    joint_path = tmp_path / "joint.csv"
    save_joint_csv(DiscreteJoint([[0.4, 0.1], [0.1, 0.4]]), joint_path)
    out_csv = tmp_path / "sweep.csv"
    out_json = tmp_path / "sweep.json"
    code = main([
        "sweep", "--joint", str(joint_path),
        "--beta-min", "1.5", "--beta-max", "4.5", "--beta-points", "9",
        "--seed", "1",
        "--out-csv", str(out_csv), "--out-json", str(out_json),
    ])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "beta,i_xz_nats,i_yz_nats,objective"
    assert len(lines) == 10
    doc = _read_json(out_json)
    assert 2.5 <= doc["sweep"]["detected_beta0"] <= 3.1
    assert doc["theory"]["subset_search"] == pytest.approx(TWO_CLUSTER_BETA, rel=1e-9)
    assert doc["theory"]["max_correlation_inverse"] == pytest.approx(
        TWO_CLUSTER_BETA, rel=1e-9
    )


def test_sweep_product_joint_warns_but_succeeds(tmp_path, capsys):
    joint_path = tmp_path / "product.csv"
    save_joint_csv(DiscreteJoint(np.outer([0.5, 0.5], [0.5, 0.5])), joint_path)
    code = main([
        "sweep", "--joint", str(joint_path),
        "--beta-min", "1.5", "--beta-max", "4.5", "--beta-points", "8",
        "--seed", "1",
        "--out-csv", str(tmp_path / "s.csv"), "--out-json", str(tmp_path / "s.json"),
    ])
    assert code == 0
    assert "detected onset: none" in capsys.readouterr().out
    assert _read_json(tmp_path / "s.json")["sweep"]["protocol"]["onset_below_grid"] is False


def test_sweep_grid_above_beta0_reports_the_onset_below_the_grid(tmp_path, capsys):
    # the baseline band was built from points that had already learned, so
    # this printed "detected onset: none (no grid point escaped ...)"
    out_json = tmp_path / "s.json"
    code = main([
        "sweep", "--preset", "noise-0.2",
        "--beta-min", "3", "--beta-max", "4.5", "--beta-points", "9",
        "--out-csv", str(tmp_path / "s.csv"), "--out-json", str(out_json),
    ])
    assert code == 0
    assert "\ndetected onset: below the grid (beta=3.0000 already learns)\n" in (
        capsys.readouterr().out
    )
    doc = _read_json(out_json)["sweep"]
    assert doc["points"][0]["objective"] < -1e-9
    assert doc["protocol"]["onset_below_grid"] is True and doc["detected_beta0"] is None


@pytest.mark.parametrize("preset, argv, window", [
    ("noise-0.2", [], (2.5, 3.1)),
    ("noise-0.0", ["--beta-min", "0.82", "--beta-max", "1.45"], (1.0, 1.1)),
], ids=["noise-0.2", "noise-0.0"])
def test_benchmark_sweeps_detect_the_onset_inside_the_grid(
    tmp_path, capsys, preset, argv, window
):
    out_json = tmp_path / "s.json"
    code = main([
        "sweep", "--preset", preset, *argv, "--seed", "1",
        "--out-csv", str(tmp_path / "s.csv"), "--out-json", str(out_json),
    ])
    doc = _read_json(out_json)["sweep"]
    detected = doc["detected_beta0"]
    assert code == 0 and window[0] <= detected <= window[1]
    assert f"\ndetected onset: {detected:.4f}\n" in capsys.readouterr().out
    assert doc["protocol"]["onset_below_grid"] is False


@pytest.mark.parametrize("preset", ["noise-0.1", "overlap-1.2"])
def test_sweep_default_grid_brackets_an_onset_near_its_low_end(tmp_path, capsys, preset):
    # beta0 lies between the grid's first two points; the noise band of the
    # five lowest points, which had already learned, printed 2.3177
    out_json = tmp_path / "s.json"
    code = main([
        "sweep", "--preset", preset,
        "--out-csv", str(tmp_path / "s.csv"), "--out-json", str(out_json),
    ])
    assert code == 0
    assert "\ndetected onset: 1.5351\n" in capsys.readouterr().out
    points = _read_json(out_json)["sweep"]["points"]
    assert points[0]["objective"] >= -1e-9 > points[1]["objective"]


def test_sweep_one_row_table_runs_at_the_default_z_card(tmp_path, capsys):
    # one bin gives a one-row table, whose min(|X|, 2|Y|) is 1; the default
    # used to fail with "z_card must be at least 2, got 1", about a flag
    # that was never set
    out_json = tmp_path / "s.json"
    code = main([
        "sweep", "--preset", "noise-0.2", "--bins", "1", "--beta-points", "7",
        "--out-csv", str(tmp_path / "s.csv"), "--out-json", str(out_json),
    ])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert "detected onset: none" in captured.out
    doc = _read_json(out_json)["sweep"]
    assert doc["protocol"]["z_card"] == 2 and doc["detected_beta0"] is None
    assert doc["protocol"]["onset_below_grid"] is False
    assert all(p["objective"] == 0.0 for p in doc["points"])


def test_sweep_non_convergence_exits_3(tmp_path, capsys, monkeypatch):
    # the command has no solver options: every point stops after one update
    original = solver.solve

    def one_update_solve(joint, beta, *args, **kwargs):
        return original(joint, beta, *args, **{**kwargs, "max_iters": 1})

    monkeypatch.setattr(solver, "solve", one_update_solve)
    joint_path = tmp_path / "joint.csv"
    save_joint_csv(DiscreteJoint([[0.4, 0.1], [0.1, 0.4]]), joint_path)
    code = main([
        "sweep", "--joint", str(joint_path),
        "--beta-min", "1.5", "--beta-max", "4.5", "--beta-points", "8", "--seed", "1",
        "--out-csv", str(tmp_path / "s.csv"), "--out-json", str(tmp_path / "s.json"),
    ])
    assert code == 3
    assert capsys.readouterr().err == "warning: no grid point converged\n"
    assert not any(p["converged"] for p in _read_json(tmp_path / "s.json")["sweep"]["points"])


@pytest.mark.parametrize("argv, message", [
    # two RuntimeWarnings from geomspace, beta = 1.5 solved, then exit 1
    # with "beta must be positive, got inf"
    (["--beta-max", "inf"], "both finite"),
    (["--beta-min", "nan"], "both finite"),
    # a ValueError traceback from np.geomspace
    (["--beta-points", "-1"], "beta_points must be at least 2, got -1"),
], ids=["beta-max-inf", "beta-min-nan", "beta-points-neg"])
def test_sweep_bad_solver_settings_exit_1_before_solving(
    tmp_path, capsys, monkeypatch, argv, message
):
    def no_solve(*args, **kwargs):
        raise AssertionError("a grid point was solved")

    monkeypatch.setattr(solver, "solve", no_solve)
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--preset", "noise-0.2", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert list(tmp_path.iterdir()) == []


ZERO_WEIGHT_CLASS_SPEC = {
    "components": [
        {"mean": [-2, 0], "variances": [0.25, 0.25], "weight": 0.5, "class_id": 0},
        {"mean": [2, 0], "variances": [0.25, 0.25], "weight": 0.5, "class_id": 1},
        {"mean": [0, 3], "variances": [0.25, 0.25], "weight": 0.0, "class_id": 2},
    ],
    "noise": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
}


def test_spec_with_a_true_class_of_zero_weight_estimates_and_sweeps(tmp_path, capsys):
    # both exited 1 with "weights must be strictly positive" from the
    # class-conditional route, the sweep after solving every grid point
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(ZERO_WEIGHT_CLASS_SPEC))
    out = tmp_path / "report.json"
    assert main(["estimate", "--spec", str(spec), "--method", "all", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "class_conditional        1.836735" in printed
    assert "max_correlation_inverse  1.836942" in printed
    estimates = {e["method"]: e for e in _read_json(out)["estimates"]}
    closed = estimates["class_conditional"]
    assert closed["value"] <= estimates["max_correlation_inverse"]["value"]
    assert closed["diagnostics"]["pivot_true_class"] in (0, 1)
    assert closed["diagnostics"]["per_class"][2] is None
    csv_path, json_path = tmp_path / "sweep.csv", tmp_path / "sweep.json"
    assert main(["sweep", "--spec", str(spec), "--beta-points", "5",
                 "--out-csv", str(csv_path), "--out-json", str(json_path)]) == 0
    assert "theory[class_conditional] = 1.8367" in capsys.readouterr().out
    assert csv_path.exists() and json_path.exists()


def test_sweep_input_a_route_rejects_exits_1_before_solving(tmp_path, capsys, monkeypatch):
    # the theory values were computed after every grid point was solved
    def rejecting_route(*args, **kwargs):
        raise ibonset.ValidationError("rejected by the route")

    def no_solve(*args, **kwargs):
        raise AssertionError("a grid point was solved")

    monkeypatch.setattr(ibonset.estimators, "class_conditional_beta", rejecting_route)
    monkeypatch.setattr(solver, "solve", no_solve)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--preset", "noise-0.2", "--beta-points", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: rejected by the route\n"
    assert list(tmp_path.iterdir()) == []


def test_table_sweep_column_negative_beta_points_exits_1(tmp_path, capsys, monkeypatch):
    # a ValueError traceback from np.geomspace
    def no_solve(*args, **kwargs):
        raise AssertionError("a grid point was solved")

    monkeypatch.setattr(solver, "solve", no_solve)
    monkeypatch.chdir(tmp_path)
    assert main(["table", "--rates", "0.2", "--sweep-column", "--beta-points", "-2",
                 "--out", "t.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "beta_points must be at least 2, got -2" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    # printed the table and exited 0 with the option unread
    (["--rates", "0.1", "--beta-points", "-2"], "beta_points must be at least 2, got -2"),
    # trained a classifier for the first rate, then exited 1
    (["--learned", "--sweep-column", "--rates", "0.1,0.2,0.3", "--samples", "4000",
      "--beta-points", "-2"], "beta_points must be at least 2, got -2"),
    # positive but too few for the sweep: also trained a classifier first
    (["--learned", "--sweep-column", "--rates", "0.1,0.2", "--samples", "4000",
      "--beta-points", "1"], "beta_points must be at least 2, got 1"),
    # a rate outside [0, 1]: trained the 0.1 row's classifier first
    (["--learned", "--rates", "0.1,1.5", "--samples", "4000"], "flip rate must lie in [0, 1]"),
], ids=["plain", "learned-sweep-column", "learned-sweep-1-point", "learned-bad-rate"])
def test_table_negative_beta_points_exits_1_before_any_row(
    tmp_path, capsys, monkeypatch, argv, message
):
    from ibonset import classifier, cli

    def no_row(*args, **kwargs):
        raise AssertionError("a table row was computed")

    for module, name in ((cli, "_table_row"), (classifier, "fit"), (solver, "solve")):
        monkeypatch.setattr(module, name, no_row)
    monkeypatch.chdir(tmp_path)
    assert main(["table", *argv, "--out", "t.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def rising_solve(monkeypatch):
    """Make every solve above beta = 3 report a free-energy rise of 1e-6."""
    original = solver.solve

    def rising_solve(joint, beta, *args, **kwargs):
        enc = original(joint, beta, *args, **kwargs)
        if beta > 3.0:
            diagnostics = {**enc.diagnostics, "max_objective_increase": 1e-6}
            enc = dataclasses.replace(enc, diagnostics=diagnostics)
        return enc

    monkeypatch.setattr(solver, "solve", rising_solve)


def test_sweep_non_monotone_exits_4(tmp_path, capsys, rising_solve):
    joint_path = tmp_path / "joint.csv"
    save_joint_csv(DiscreteJoint([[0.4, 0.1], [0.1, 0.4]]), joint_path)
    out_json = tmp_path / "s.json"
    code = main([
        "sweep", "--joint", str(joint_path),
        "--beta-min", "1.5", "--beta-max", "4.5", "--beta-points", "8",
        "--seed", "1",
        "--out-csv", str(tmp_path / "s.csv"), "--out-json", str(out_json),
    ])
    assert code == 4
    assert "free energy rose" in capsys.readouterr().err
    doc = _read_json(out_json)["sweep"]
    flagged = [p["beta"] for p in doc["points"] if p["max_objective_increase"] > 1e-9]
    assert doc["protocol"]["non_monotone_betas"] == flagged
    assert flagged and all(b > 3.0 for b in flagged)


def test_table_sweep_column_non_monotone_exits_4(tmp_path, capsys, rising_solve):
    # the sweep column dropped the solver's monotone check and exited 0
    out = tmp_path / "t.json"
    code = main(["table", "--sweep-column", "--rates", "0.1,0.2", "--beta-points", "9",
                 "--out", str(out)])
    assert code == 4
    rows = _read_json(out)["rows"]
    assert [list(row) for row in rows] == [[
        "noise_rate", "class_conditional", "subset_true_posterior", "functional",
        "observed_onset",
    ]] * 2
    flagged = []
    for rho in (0.1, 0.2):
        target = 1.0 / (1.0 - 2.0 * rho) ** 2
        grid = np.geomspace(max(0.5, target / 2.0), target * 2.0, 9)
        flagged.append(", ".join(f"{b:.4f}" for b in grid if b > 3.0))
    assert capsys.readouterr().err == (
        "warning: solver free energy rose by more than 1e-09 at "
        f"rate 0.1: beta = {flagged[0]}; rate 0.2: beta = {flagged[1]}\n"
    )


def test_table_sweep_column_onset_does_not_depend_on_the_seed(tmp_path):
    # the grid is centred on the class-conditional value, so one point sits
    # on beta0; the noise band fired there at some seeds and not at others
    onsets = []
    for seed in range(5):
        out = tmp_path / f"t{seed}.json"
        assert main(["table", "--sweep-column", "--rates", "0.02,0.04,0.06",
                     "--seed", str(seed), "--out", str(out)]) == 0
        onsets.append([row["observed_onset"] for row in _read_json(out)["rows"]])
    assert all(row == onsets[0] for row in onsets)
    for onset, rho in zip(onsets[0], (0.02, 0.04, 0.06)):
        # the midpoint of the interval just above the centre point
        assert onset == pytest.approx((1.0 + 4.0 ** (1 / 24)) / 2.0 / (1.0 - 2.0 * rho) ** 2,
                                      rel=1e-9)


def test_table_reproduces_closed_form(tmp_path, capsys):
    out = tmp_path / "table.json"
    code = main(["table", "--rates", "0.2,0.3,0.4", "--out", str(out)])
    assert code == 0
    rows = _read_json(out)["rows"]
    for row, rho in zip(rows, (0.2, 0.3, 0.4)):
        expected = 1.0 / (1.0 - 2.0 * rho) ** 2
        assert row["class_conditional"] == pytest.approx(expected, rel=1e-9)
        assert row["subset_true_posterior"] == pytest.approx(expected, rel=1e-9)
        assert row["functional"] == pytest.approx(expected, rel=1e-5)
    printed = capsys.readouterr().out
    assert "6.25" in printed and "25.0" in printed


def _config_argv(tmp_path, doc):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    return ["--config", str(cfg)]


@pytest.mark.parametrize("via", ["flag", "config"])
def test_table_empty_rates_exits_1(tmp_path, capsys, via):
    # an empty rate list used to reach rows[0] and die with an IndexError
    argv = ["--rates", ""] if via == "flag" else _config_argv(tmp_path, {"rates": []})
    assert main(["table", *argv]) == 1
    assert "rates" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["flag", "config"])
def test_estimate_zero_samples_exits_1(tmp_path, capsys, via):
    # 0 used to read as unset: the exact estimates were printed, exit 0
    argv = ["--samples", "0"] if via == "flag" else _config_argv(tmp_path, {"samples": 0})
    assert main(["estimate", "--preset", "noise-0.2", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "samples must be at least 1, got 0" in captured.err


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, argv", [
    ("estimate", ["--preset", "noise-0.2", "--method", "functional"]),
    ("gen", ["--preset", "noise-0.2", "--n", "5"]),
    ("sweep", ["--preset", "noise-0.2", "--beta-points", "7"]),
    ("table", ["--rates", "0.2"]),
])
def test_negative_seed_exits_1(tmp_path, capsys, monkeypatch, via, command, argv):
    # numpy once ended each of these in an "expected non-negative integer"
    # traceback
    monkeypatch.chdir(tmp_path)
    seed = ["--seed", "-1"] if via == "flag" else _config_argv(tmp_path, {"seed": -1})
    assert main([command, *argv, *seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "seed" in captured.err


#: per command, an input and outputs: work would read a missing file or
#: write under the current directory
WORK_ARGV = {
    "gen": ["--preset", "noise-0.2"],
    "estimate": ["--cond", "missing.csv", "--out", "e.json"],
    "sweep": ["--cond", "missing.csv"],
    "table": ["--rates", "0.2", "--learned", "--sweep-column", "--out", "t.json"],
    "maxcorr": ["--cond", "missing.csv", "--out", "m.json"],
}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, key", [
    (command, key) for command, (_, _, options) in _COMMANDS.items()
    for key, (kind, _, _) in options.items() if kind is int
])
def test_integer_option_below_its_least_value_exits_1_before_any_work(
    tmp_path, capsys, monkeypatch, command, key, via
):
    # table --beta-points 1 and --samples 0 once ran to exit 0 unread, and
    # sweep's beta_points was checked after the input was loaded
    from ibonset import cli

    integer_options = {k for _, _, options in _COMMANDS.values()
                       for k, (kind, _, _) in options.items() if kind is int}
    assert set(_LEAST) == integer_options

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in ((cli, "_load_problem"), (cli.synth, "sample"), (cli, "_table_row")):
        monkeypatch.setattr(module, name, no_work)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    least = _LEAST[key]
    value = least - 1
    flag = "--" + key.replace("_", "-")
    argv = [flag, str(value)] if via == "flag" else _config_argv(tmp_path, {key: value})
    assert main([command, *WORK_ARGV[command], *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {command}: {key} must be at least {least}, got {value}\n"
    assert list(work.iterdir()) == []


def test_table_optional_columns(tmp_path):
    out = tmp_path / "table.json"
    code = main([
        "table", "--rates", "0.2", "--learned", "--sweep-column",
        "--samples", "600", "--beta-points", "9", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 0
    row = _read_json(out)["rows"][0]
    assert row["subset_learned_posterior"] is not None
    assert row["subset_learned_posterior"] == pytest.approx(TWO_CLUSTER_BETA, rel=0.5)
    assert 2.4 <= row["observed_onset"] <= 3.2


def test_table_learned_column_is_pinned_end_to_end(tmp_path):
    # the value the fixed-buffer classifier gives; the step-level reference
    # tests cannot see a change in how the command seeds or configures it
    out = tmp_path / "table.json"
    code = main(["table", "--learned", "--rates", "0.2", "--samples", "4000",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    assert _read_json(out)["rows"][0]["subset_learned_posterior"] == 2.9517970441986336


def test_table_learned_column_of_one_class_is_a_null_cell(tmp_path, capsys):
    # a single sample has one class, so the learned route has no threshold
    out = tmp_path / "table.json"
    assert main(["table", "--learned", "--rates", "0.2", "--samples", "1",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[-1] == "-"
    assert _read_json(out)["rows"][0]["subset_learned_posterior"] is None


def test_maxcorr_preset(tmp_path, capsys):
    out = tmp_path / "mc.json"
    assert main(["maxcorr", "--preset", "noise-0.2", "--out", str(out)]) == 0
    doc = _read_json(out)
    assert doc["rho_m"] == pytest.approx(0.6, abs=1e-9)
    assert "0.6" in capsys.readouterr().out


def test_maxcorr_independent_input(tmp_path, capsys):
    # rho_m is roundoff here; 1/rho_m^2 was once printed and reported as a
    # threshold of about 1.5e31, while estimate found the input independent;
    # a one-row table has rho_m exactly 0
    out = tmp_path / "mc.json"
    one_row = tmp_path / "one_row.csv"
    save_conditional_csv(ConditionalMatrix([[0.3, 0.7]]), one_row)
    for source in (["--preset", "overlap-0"], ["--cond", str(one_row)]):
        assert main(["estimate", *source, "--method", "maxcorr"]) == 2
        assert main(["maxcorr", *source, "--out", str(out)]) == 0
        assert "1/rho_m^2       = inf (independent)" in capsys.readouterr().out
        assert _read_json(out)["beta_lower_inverse"] is None


def test_out_dir_env_redirect(tmp_path, monkeypatch):
    monkeypatch.setenv("IBONSET_OUT_DIR", str(tmp_path / "redirected"))
    assert main(["estimate", "--preset", "noise-0.2", "--method", "class-conditional",
                 "--out", "report.json"]) == 0
    assert (tmp_path / "redirected" / "report.json").exists()


def test_gen_prints_the_paths_it_wrote_under_the_out_dir(tmp_path, monkeypatch, capsys):
    # it printed the relative paths it was given, not the redirected ones
    redirected = tmp_path / "redirected"
    monkeypatch.setenv("IBONSET_OUT_DIR", str(redirected))
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--preset", "noise-0.2", "--n", "5"]) == 0
    samples, spec = redirected / "samples.csv", redirected / "spec.json"
    assert capsys.readouterr().out == f"wrote 5 samples to {samples} (spec: {spec})\n"
    assert samples.exists() and spec.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["redirected"]


def test_round_trip_preserves_estimates(tmp_path):
    # conditional -> CSV -> estimate matches the in-memory value exactly
    rows = np.array([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8], [0.4, 0.6]])
    weights = np.array([0.3, 0.2, 0.4, 0.1])
    cond = ConditionalMatrix(rows, weights)
    from ibonset import subset_search

    direct = subset_search(cond).value
    path = tmp_path / "cond.csv"
    save_conditional_csv(cond, path)
    out = tmp_path / "report.json"
    assert main(["estimate", "--cond", str(path), "--method", "subset",
                 "--out", str(out)]) == 0
    assert _read_json(out)["estimates"][0]["value"] == pytest.approx(
        direct, rel=1e-12
    )


def test_estimate_functional_converges_on_weighted_table(tmp_path):
    # the functional reaches 1/rho^2 on a real-sized table, and its report
    # keeps the diagnostics the benchmark reads
    rng = np.random.default_rng(0)
    rows = rng.dirichlet(np.ones(4), size=1000)
    weights = rng.gamma(2.0, size=1000)
    path = tmp_path / "cond.csv"
    save_conditional_csv(ConditionalMatrix(rows, weights / weights.sum()), path)
    out = tmp_path / "report.json"
    assert main(["estimate", "--cond", str(path), "--method", "functional,maxcorr",
                 "--out", str(out)]) == 0
    by_method = {e["method"]: e for e in _read_json(out)["estimates"]}
    functional = by_method["functional"]
    assert functional["diagnostics"]["converged"] is True
    assert functional["value"] == pytest.approx(
        by_method["max_correlation_inverse"]["value"], rel=1e-9
    )
