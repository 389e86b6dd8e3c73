import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from transportkernels import Histogram, ParseError, fileio, monge_check, nw_table, polytope
from transportkernels.cli import (
    EXIT_BUDGET,
    EXIT_CERT_FAIL,
    EXIT_ERROR,
    EXIT_OK,
    main,
    run_from_manifest,
)


def write(path, text):
    path.write_text(text)
    return str(path)


def read_json(path):
    """Parse a JSON artifact strictly: NaN and Infinity are not JSON."""

    def refuse(constant):
        raise ValueError(f"{path}: {constant} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


@pytest.fixture
def hists3(tmp_path):
    return write(tmp_path / "hists.txt", "1,2,1\n0,3,1\n2,0,2\n")


@pytest.fixture
def pair(tmp_path):
    return write(tmp_path / "pair.txt", "2,5,3\n5,1,4\n")


@pytest.fixture
def weights3(tmp_path):
    return write(
        tmp_path / "w.txt",
        "mode: weight\n1.0,0.5,0.25\n0.5,1.0,0.5\n0.25,0.5,1.0\n",
    )


def test_gram_volume_end_to_end(tmp_path, hists3, weights3, capsys):
    out = tmp_path / "out"
    code = main(
        ["gram", "--input", hists3, "--weights", weights3, "--kernel", "volume",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    assert "certificate pass" in capsys.readouterr().out
    gram = [
        [float(v) for v in line.split(",")]
        for line in (out / "gram.csv").read_text().splitlines()
    ]
    assert len(gram) == 3 and len(gram[0]) == 3
    assert gram[0][1] == gram[1][0]
    cert = read_json(out / "certificate.json")
    assert cert["verdict"] == "pass"
    manifest = read_json(out / "manifest.json")
    assert manifest["kernel_id"] == "volume"
    assert set(manifest) == {
        "argv", "input_sha256", "weights_sha256", "kernel_id", "certificate", "artifacts"
    }
    assert manifest["argv"][0] == "gram"
    assert "--kernel=volume" in manifest["argv"]
    assert manifest["artifacts"] == ["gram.csv", "certificate.json"]


def test_gram_reruns_are_byte_identical(tmp_path, hists3, weights3):
    args = lambda out: [
        "gram", "--input", hists3, "--weights", weights3, "--kernel", "nw",
        "--seed", "5", "--r-size", "4", "--out", str(out),
    ]
    assert main(args(tmp_path / "a")) == EXIT_OK
    assert main(args(tmp_path / "b")) == EXIT_OK
    assert (tmp_path / "a/gram.csv").read_bytes() == (tmp_path / "b/gram.csv").read_bytes()
    assert (
        (tmp_path / "a/certificate.json").read_bytes()
        == (tmp_path / "b/certificate.json").read_bytes()
    )


def test_gram_seed_changes_nw_output(tmp_path, hists3, weights3):
    base = ["gram", "--input", hists3, "--weights", weights3, "--kernel", "nw",
            "--r-size", "4"]
    main(base + ["--seed", "5", "--out", str(tmp_path / "a")])
    main(base + ["--seed", "6", "--out", str(tmp_path / "b")])
    assert (tmp_path / "a/gram.csv").read_text() != (tmp_path / "b/gram.csv").read_text()


# gram.csv bytes recorded before the Gram stream replaced the per-row kernels:
# corner-rule (|R| = 5), Monge and non-Monge pseudo, and volume, on one family.
# Monge entry (2, 4) was re-recorded when a table's cost became its cells'
# row-major ordered sum instead of their exactly rounded sum.
GOLDEN_HISTOGRAMS = "3,0,2,1\n1,2,2,1\n0,4,1,1\n2,2,0,2\n1,1,1,3\n"
GOLDEN_GRAMS = {
    "nw": (
        "nw",
        "mode: cost\n0,0.7,1.3,2\n0.7,0,0.4,1.1\n1.3,0.4,0,0.9\n2,1.1,0.9,0\n",
        (
            b"7.404649078076992,1.2065101840925492,0.4952063932038522,0.8890522961019245,0.19424801769445826\n"
            b"1.2065101840925492,5.989860728125992,1.6952354010085795,0.7106759687672148,0.8360587490740676\n"
            b"0.4952063932038522,1.6952354010085795,7.7465221077780555,0.8829127735583846,0.46231480262024305\n"
            b"0.8890522961019245,0.7106759687672148,0.8829127735583846,7.152521169902588,0.766679247740941\n"
            b"0.19424801769445826,0.8360587490740676,0.46231480262024305,0.766679247740941,6.86654603867812\n"
        ),
    ),
    "monge": (
        "pseudo",
        "mode: cost\n0,0.48,1.18,2.1\n0.48,0,0.48,1.18\n1.18,0.48,0,0.48\n2.1,1.18,0.48,0\n",
        (
            b"1.0,0.38289288597511206,0.14660696213035015,0.23692775868212176,0.07280286282743559\n"
            b"0.38289288597511206,1.0,0.38289288597511206,0.23692775868212176,0.23692775868212176\n"
            b"0.14660696213035015,0.38289288597511206,1.0,0.23692775868212176,0.07280286282743562\n"
            b"0.23692775868212176,0.23692775868212176,0.23692775868212176,1.0,0.11765484302177924\n"
            b"0.07280286282743559,0.23692775868212176,0.07280286282743562,0.11765484302177924,1.0\n"
        ),
    ),
    "scan": (
        "pseudo",
        "mode: cost\n0,0.7,0.35,inf\n0.7,0,1.05,0.35\n0.35,1.05,0,0.7\ninf,0.35,0.7,0\n",
        (
            b"1.0,0.2465969639416065,0.0428521268670402,0.08629358649937054,0.08629358649937054\n"
            b"0.2465969639416065,1.0,0.17377394345044514,0.34993774911115544,0.34993774911115544\n"
            b"0.0428521268670402,0.17377394345044514,1.0,0.2465969639416065,0.2465969639416065\n"
            b"0.08629358649937054,0.34993774911115544,0.2465969639416065,1.0,0.4965853037914095\n"
            b"0.08629358649937054,0.34993774911115544,0.2465969639416065,0.4965853037914095,1.0\n"
        ),
    ),
    # the volume-forbidden shape: cost 0.5|i - j|, +inf (zero weight) beyond 2
    "forbidden": (
        "volume",
        "mode: cost\n0,0.5,1,inf\n0.5,0,0.5,1\n1,0.5,0,0.5\ninf,1,0.5,0\n",
        (
            b"1.5713174316646534,0.8993831447814116,0.3030121272289387,0.3873001573962274,0.0820849986238988\n"
            b"0.8993831447814116,4.375375878396106,1.1450001253668174,1.033976995042895,1.2177631404719913\n"
            b"0.3030121272289387,1.1450001253668174,2.1915518004205867,0.4397155338950306,0.3032849051061864\n"
            b"0.3873001573962274,1.033976995042895,0.4397155338950306,1.706652714901266,0.38856034209768747\n"
            b"0.0820849986238988,1.2177631404719913,0.3032849051061864,0.38856034209768747,3.2186621501629418\n"
        ),
    ),
    "volume": (
        "volume",
        "mode: weight\n1.0,0.5,0.25,0.125\n0.5,1.0,0.5,0.25\n0.25,0.5,1.0,0.5\n0.125,0.25,0.5,1.0\n",
        (
            b"1.38189697265625,0.50537109375,0.1220703125,0.249755859375,0.0982666015625\n"
            b"0.50537109375,2.79296875,0.60546875,0.5361328125,0.59912109375\n"
            b"0.1220703125,0.60546875,1.703125,0.2109375,0.0986328125\n"
            b"0.249755859375,0.5361328125,0.2109375,1.45751953125,0.2889404296875\n"
            b"0.0982666015625,0.59912109375,0.0986328125,0.2889404296875,2.376220703125\n"
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GRAMS))
def test_gram_csv_matches_recorded_bytes(tmp_path, name):
    kernel, weights, expected = GOLDEN_GRAMS[name]
    hists = write(tmp_path / "h.txt", GOLDEN_HISTOGRAMS)
    w = write(tmp_path / "w.txt", weights)
    if kernel == "pseudo":
        assert monge_check(fileio.parse_weights(w)) == (name == "monge")
    out = tmp_path / "out"
    argv = ["gram", "--input", hists, "--weights", w, "--kernel", kernel, "--seed", "3",
            "--r-size", "5", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert (out / "gram.csv").read_bytes() == expected


def test_monge_pseudo_gram_is_exp_of_the_corner_vertex_cost(tmp_path):
    # 0.1 (i - j)^2 is Monge. The corner vertex of (3,0,0,0) and (0,1,1,1) costs
    # 0.1 + 0.4 + 0.9 = 1.4 added in row-major order, where fsum gives 1.4000000000000001
    counts = ((3, 0, 0, 0), (0, 1, 1, 1), (0, 1, 0, 2), (2, 1, 0, 0))
    i = np.arange(4)
    m = 0.1 * np.subtract.outer(i, i) ** 2
    hists = write(tmp_path / "h.txt", "".join(",".join(map(str, h)) + "\n" for h in counts))
    w = write(tmp_path / "w.txt", "mode: cost\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in m.tolist()))
    assert monge_check(fileio.parse_weights(w))
    out = tmp_path / "out"
    assert main(["gram", "--input", hists, "--weights", w, "--kernel", "pseudo",
                 "--out", str(out)]) in (EXIT_OK, EXIT_CERT_FAIL)
    gram = [[float(v) for v in line.split(",")]
            for line in (out / "gram.csv").read_text().splitlines()]
    hs = [Histogram(h) for h in counts]
    exact = 0
    for p in range(4):
        for q in range(p, 4):
            table = nw_table(hs[p], hs[q])
            assert gram[p][q] == math.exp(-table.cost(m))
            terms = [v * m[a, b] for a, row in enumerate(table.entries)
                     for b, v in enumerate(row)]
            exact += gram[p][q] == math.exp(-math.fsum(terms))
    assert exact < 10


def test_negative_seed_is_input_error(tmp_path, hists3, weights3, capsys):
    out = tmp_path / "out"
    argv = ["gram", "--input", hists3, "--weights", weights3, "--kernel", "nw",
            "--seed", "-1", "--r-size", "2", "--out", str(out)]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not out.exists()


def test_manifest_with_negative_seed_is_input_error(tmp_path, hists3, weights3, capsys):
    out = tmp_path / "out"
    main(["gram", "--input", hists3, "--weights", weights3, "--kernel", "nw",
          "--seed", "5", "--r-size", "2", "--out", str(out)])
    manifest = read_json(out / "manifest.json")
    argv = manifest["argv"]
    argv[argv.index("--seed=5")] = "--seed=-1"
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_from_manifest(out / "manifest.json") == EXIT_ERROR
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"


def test_manifest_reruns_reproduce_artifacts(tmp_path, hists3, weights3):
    out = tmp_path / "out"
    main(["gram", "--input", hists3, "--weights", weights3, "--kernel", "volume",
          "--out", str(out)])
    original = (out / "gram.csv").read_bytes()
    (out / "gram.csv").write_bytes(b"clobbered\n")
    assert run_from_manifest(out / "manifest.json") == EXIT_OK
    assert (out / "gram.csv").read_bytes() == original


def test_manifest_with_unknown_key_is_input_error(tmp_path, hists3, weights3, capsys):
    out = tmp_path / "out"
    main(["gram", "--input", hists3, "--weights", weights3, "--kernel", "volume",
          "--out", str(out)])
    manifest = read_json(out / "manifest.json")
    manifest["argv"].append("--bogus=1")
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert run_from_manifest(out / "manifest.json") == EXIT_ERROR
    assert "error: unrecognized arguments: --bogus=1\n" in capsys.readouterr().err


def test_missing_manifest_is_input_error(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert run_from_manifest(path) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: {path}: cannot read manifest: No such file or directory\n"
    )


def test_manifest_that_is_not_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text('{"argv": ')
    assert run_from_manifest(path) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: {path}: manifest is not JSON: ")


NOT_STRINGS = "manifest has no 'argv' list of strings"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gram", "--seed=x"], "argument --seed: invalid integer value: 'x'"),
        (["gram", "--kernel=volume", "--tolerance=x"],
         "argument --tolerance: invalid real value: 'x'"),
        (["ot", "--budget=True"], "argument --budget: invalid integer value: 'True'"),
        (["gram", "--r-size=1.5"], "argument --r-size: invalid integer value: '1.5'"),
        (["nw", "--input", 3], NOT_STRINGS),
        ([None, "--input=pair.txt"], NOT_STRINGS),
        (["ot", "--budget", True], NOT_STRINGS),
        (["--input=pair.txt"], "the following arguments are required: subcommand"),
        (["bogus"], "argument subcommand: invalid choice: 'bogus'"),
    ],
    ids=["seed", "tolerance", "bool-budget", "float-r_size", "int-input", "null-subcommand",
         "bool-token", "no-subcommand", "unknown-subcommand"],
)
def test_manifest_with_mistyped_config_is_input_error(tmp_path, capsys, argv, message):
    # a token that is not a string fails before parsing; the parser refuses the rest
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"argv": argv}))
    assert run_from_manifest(path) == EXIT_ERROR
    err = capsys.readouterr().err
    if message == NOT_STRINGS:
        assert err == f"error: {path}: {message}\n"
    else:
        assert err.startswith("usage: transportkernels")
        assert f": error: {message}" in err


@pytest.mark.parametrize(
    "option, text",
    [(option, text) for option in ("--budget", "--seed", "--r-size", "--tolerance")
     for text in ("1_0", "\u0663")]
    + [("--tolerance", "1e-400"), ("--tolerance", "1e400")],
)
def test_numeric_option_takes_the_file_numerals(tmp_path, hists3, weights3, capsys, option,
                                                text):
    # int and float alone would read "1_0" as 10 and the Arabic-Indic digit
    # as 3, and float reads 1e-400 as 0.0 and 1e400 as inf
    kind = "real" if option == "--tolerance" else "integer"
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["gram", "--input", hists3, "--weights", weights3, "--kernel", "nw",
              f"{option}={text}", "--out", str(out)])
    assert exc.value.code == EXIT_ERROR
    assert capsys.readouterr().err.endswith(
        f": error: argument {option}: invalid {kind} value: '{text}'\n"
    )
    assert not out.exists()


def test_manifest_without_config_is_input_error(tmp_path, hists3, weights3, capsys):
    out = tmp_path / "out"
    main(["gram", "--input", hists3, "--weights", weights3, "--kernel", "volume",
          "--out", str(out)])
    manifest = read_json(out / "manifest.json")
    # argv missing, then a string and an object in its place
    for argv in (None, "gram --kernel=volume", {"0": "gram"}):
        manifest.pop("argv", None)
        if argv is not None:
            manifest["argv"] = argv
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_from_manifest(out / "manifest.json") == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {out / 'manifest.json'}: {NOT_STRINGS}\n"


def test_manifest_replay_refuses_changed_inputs(tmp_path, hists3, weights3, capsys):
    # the manifest holds the SHA-256 of both files' bytes; a replay after
    # either changed exits 1 and leaves every artifact as it was, and an
    # unchanged replay rewrites all three byte for byte
    out = tmp_path / "out"
    assert main(["gram", "--input", hists3, "--weights", weights3, "--kernel", "volume",
                 "--out", str(out)]) == EXIT_OK
    manifest = read_json(out / "manifest.json")
    for path, key in ((hists3, "input_sha256"), (weights3, "weights_sha256")):
        assert manifest[key] == hashlib.sha256(Path(path).read_bytes()).hexdigest()
    artifacts = ("gram.csv", "certificate.json", "manifest.json")
    saved = tmp_path / "manifest.json"
    saved.write_bytes((out / "manifest.json").read_bytes())

    def state():
        return {name: ((out / name).read_bytes(), os.stat(out / name).st_mtime_ns)
                for name in artifacts}

    before = state()
    edits = ((hists3, "1,2,1\n0,3,1\n2,1,1\n"),
             (weights3, "mode: weight\n1.0,0.5,0.2\n0.5,1.0,0.5\n0.2,0.5,1.0\n"))
    for path, edited in edits:
        text = Path(path).read_text()
        Path(path).write_text(edited)
        capsys.readouterr()
        assert run_from_manifest(saved) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {saved}: {path} changed since the run\n"
        assert state() == before
        Path(path).write_text(text)
    # a file that cannot be read any more has changed too
    text = Path(hists3).read_text()
    Path(hists3).unlink()
    assert run_from_manifest(saved) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {saved}: {hists3} changed since the run\n"
    assert state() == before
    Path(hists3).write_text(text)
    original = {name: data for name, (data, _) in before.items()}
    for name in artifacts:
        (out / name).unlink()
    assert run_from_manifest(saved) == EXIT_OK
    assert {name: (out / name).read_bytes() for name in artifacts} == original


def test_manifest_replay_parses_the_bytes_it_checked(tmp_path, hists3, weights3, monkeypatch):
    # the replay reads each input once, to check its digest, and parses
    # those bytes: a second read could see a file replaced after the check
    out = tmp_path / "out"
    assert main(["gram", "--input", hists3, "--weights", weights3, "--kernel", "nw",
                 "--r-size", "4", "--out", str(out)]) == EXIT_OK
    artifacts = ("gram.csv", "certificate.json", "manifest.json")
    original = {name: (out / name).read_bytes() for name in artifacts}
    saved = tmp_path / "manifest.json"
    saved.write_bytes(original["manifest.json"])
    for name in artifacts:
        (out / name).unlink()

    def refuse(path):
        raise AssertionError(f"{path} was read again after its check")

    monkeypatch.setattr(fileio, "read_bytes", refuse)
    assert run_from_manifest(saved) == EXIT_OK
    assert {name: (out / name).read_bytes() for name in artifacts} == original


def test_gram_reads_each_input_file_once(tmp_path, hists3, weights3, monkeypatch):
    opened = []
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(os.path.abspath(self))
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    assert main(["gram", "--input", hists3, "--weights", weights3, "--kernel", "volume",
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert opened.count(os.path.abspath(hists3)) == 1
    assert opened.count(os.path.abspath(weights3)) == 1


def test_manifest_digest_is_of_the_bytes_parsed(tmp_path, hists3, weights3, monkeypatch):
    # the input file is replaced right after it is parsed; the manifest must
    # pin the three histograms the run read, not the four now on disk
    parsed = Path(hists3).read_bytes()
    real_parse = fileio.parse_histograms

    def parse_then_replace(*args, **kwargs):
        histograms = real_parse(*args, **kwargs)
        Path(hists3).write_text("1,2,1\n0,3,1\n2,0,2\n4,0,0\n")
        return histograms

    monkeypatch.setattr(fileio, "parse_histograms", parse_then_replace)
    out = tmp_path / "out"
    assert main(["gram", "--input", hists3, "--weights", weights3, "--kernel", "volume",
                 "--out", str(out)]) == EXIT_OK
    assert len((out / "gram.csv").read_text().splitlines()) == 3
    manifest = read_json(out / "manifest.json")
    assert manifest["input_sha256"] == hashlib.sha256(parsed).hexdigest()
    assert manifest["input_sha256"] != hashlib.sha256(Path(hists3).read_bytes()).hexdigest()


@pytest.mark.parametrize("key", ["input_sha256", "weights_sha256"])
def test_manifest_without_digest_is_input_error(tmp_path, hists3, weights3, capsys, key):
    out = tmp_path / "out"
    main(["gram", "--input", hists3, "--weights", weights3, "--kernel", "volume",
          "--out", str(out)])
    manifest = read_json(out / "manifest.json")
    gram = (out / "gram.csv").read_bytes()
    for digest in (None, 7):
        manifest.pop(key, None)
        if digest is not None:
            manifest[key] = digest
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_from_manifest(out / "manifest.json") == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {out / 'manifest.json'}: manifest has no '{key}' string\n"
        )
        assert (out / "gram.csv").read_bytes() == gram


def test_manifest_of_another_subcommand_is_input_error(tmp_path, pair, weights3, capsys):
    # only gram runs record manifests; an ot command line with digests of
    # unchanged files is still refused, before it runs
    argv = ["ot", f"--input={pair}", f"--weights={weights3}", f"--out={tmp_path / 'out'}"]
    digests = {key: hashlib.sha256(Path(path).read_bytes()).hexdigest()
               for path, key in ((pair, "input_sha256"), (weights3, "weights_sha256"))}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"argv": argv, **digests}))
    assert run_from_manifest(path) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {path}: manifest 'argv' is not a gram run\n"
    assert not (tmp_path / "out").exists()


def test_gram_pseudo_indefinite_exits_2_with_artifacts(tmp_path, capsys):
    hists = write(tmp_path / "h.txt", "1,0,0\n0,1,0\n0,0,1\n")
    w = write(
        tmp_path / "w.txt",
        "mode: cost\n0.0,0.105,0.105\n0.105,0.0,2.303\n0.105,2.303,0.0\n",
    )
    out = tmp_path / "out"
    code = main(["gram", "--input", hists, "--weights", w, "--kernel", "pseudo",
                 "--out", str(out)])
    assert code == EXIT_CERT_FAIL
    assert "certificate fail" in capsys.readouterr().out
    cert = read_json(out / "certificate.json")
    assert cert["verdict"] == "fail"
    assert cert["min_eigenvalue"] < -0.2


def test_enumerate_header_and_rows(tmp_path, capsys):
    pair = write(tmp_path / "pair.txt", "7,23\n12,18\n")
    out = tmp_path / "out"
    code = main(["enumerate", "--input", pair, "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "tables.csv").read_text().splitlines()
    # one row per table, no header
    assert len(lines) == 8
    # row-major flattening of the first (lexicographically smallest) table
    assert lines[0] == "0,7,12,11"
    rows = [tuple(int(v) for v in line.split(",")) for line in lines]
    assert all(r[0] + r[1] == 7 and r[0] + r[2] == 12 for r in rows)


def test_enumerate_budget_exit(tmp_path, capsys):
    pair = write(tmp_path / "pair.txt", "7,23\n12,18\n")
    out = tmp_path / "out"
    code = main(["enumerate", "--input", pair, "--budget", "7", "--out", str(out)])
    assert code == EXIT_BUDGET
    assert capsys.readouterr().err == (
        "error: more than 7 tables exist for margins [7,23] / [12,18]\n"
    )
    lines = (out / "tables.csv").read_text().splitlines()
    assert len(lines) == 7  # the seven tables that fit


def test_enumerate_streams_without_counting(tmp_path, monkeypatch, capsys):
    # 79,315,936,751 tables exist for this pair; a budgeted run must stop
    # after the budget without first counting the whole table set, which
    # would run the generating-polynomial recurrence
    def no_recurrence(*args, **kwargs):
        raise AssertionError("enumerate must not run the recurrence")

    monkeypatch.setattr(polytope, "_sweep", no_recurrence)
    pair = write(tmp_path / "pair.txt", "10,10,10,10,10\n10,10,10,10,10\n")
    out = tmp_path / "out"
    code = main(["enumerate", "--input", pair, "--budget", "10", "--out", str(out)])
    assert code == EXIT_BUDGET
    assert capsys.readouterr().err == (
        "error: more than 10 tables exist for margins "
        "[10,10,10,10,10] / [10,10,10,10,10]\n"
    )
    assert len((out / "tables.csv").read_text().splitlines()) == 10


def test_module_entry_point_runs_subcommand(tmp_path):
    # `python -m transportkernels.cli` must run the subcommand and return
    # its exit code, as the installed `transportkernels` script does
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    pair = write(tmp_path / "pair.txt", "10,10,10,10,10\n10,10,10,10,10\n")
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "transportkernels.cli", "enumerate", "--input", pair,
         "--budget", "10", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == EXIT_BUDGET, done.stderr
    assert done.stderr == (
        "error: more than 10 tables exist for margins "
        "[10,10,10,10,10] / [10,10,10,10,10]\n"
    )
    assert len((out / "tables.csv").read_text().splitlines()) == 10


def test_console_main_exits_with_the_subcommands_code(tmp_path, monkeypatch, capsys):
    import transportkernels.cli as cli

    pair = write(tmp_path / "pair.txt", "7,23\n12,18\n")
    for argv, code in ((["nw", "--input", pair], EXIT_OK),
                       (["enumerate", "--input", pair, "--budget", "7",
                         "--out", str(tmp_path / "out")], EXIT_BUDGET)):
        monkeypatch.setattr(sys, "argv", ["transportkernels", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.console_main()
        assert exc.value.code == code
    assert capsys.readouterr().err == (
        "error: more than 7 tables exist for margins [7,23] / [12,18]\n"
    )


def test_gram_non_finite_volume_is_input_error(tmp_path, capsys):
    # weights e^40 at mass 40 overflow the volume to inf; the Gram matrix
    # must refuse it before any arithmetic on inf can warn
    hists = write(tmp_path / "h.txt", "20,20\n20,20\n25,15\n")
    w = write(tmp_path / "w.txt", "mode: cost\n-40,0\n0,-40\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["gram", "--input", hists, "--weights", w, "--kernel", "volume",
                     "--out", str(out)])
    assert code == EXIT_ERROR
    assert "Gram matrix has non-finite entries" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_finite_matrices_near_float_max_are_accepted(tmp_path, capsys):
    # volumes 1e308, 1e154 and 1e154; averaging a matrix with its transpose
    # must not overflow the first
    hists = write(tmp_path / "h.txt", "2,0\n1,1\n")
    w = write(tmp_path / "w.txt", "mode: weight\n1e154,1\n1,1\n")
    out = tmp_path / "out"
    assert main(["gram", "--input", hists, "--weights", w, "--kernel", "volume",
                 "--out", str(out)]) == EXIT_OK
    assert (out / "gram.csv").read_text() == "1e+308,1e+154\n1e+154,1e+154\n"
    big = write(tmp_path / "big.txt", "mode: weight\n1e308,1\n1,1e308\n")
    assert main(["psd-check", "--weights", big]) == EXIT_OK
    assert "verdict pass" in capsys.readouterr().out


def test_gram_with_overflowing_spectrum_is_input_error(tmp_path, capsys):
    # a finite Gram of two entries 1e308 has the eigenvalue 2e308; the
    # certificate refuses it before --out is touched
    hists = write(tmp_path / "h.txt", "1\n1\n")
    w = write(tmp_path / "w.txt", "mode: weight\n1e308\n")
    out = tmp_path / "out"
    code = main(["gram", "--input", hists, "--weights", w, "--kernel", "volume",
                 "--out", str(out)])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: matrix spectrum overflows")
    assert not out.exists()


def test_psd_check_with_overflowing_spectrum_is_input_error(tmp_path, capsys):
    w = write(tmp_path / "w.txt", "mode: weight\n1e308,1e308\n1e308,1e308\n")
    assert main(["psd-check", "--weights", w]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: matrix spectrum overflows")
    assert "verdict" not in captured.out


def test_gram_out_that_is_a_file_is_input_error(tmp_path, hists3, weights3, capsys):
    out = write(tmp_path / "out", "not a directory\n")
    code = main(["gram", "--input", hists3, "--weights", weights3, "--kernel", "volume",
                 "--out", out])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and out in err and "Traceback" not in err
    assert Path(out).read_text() == "not a directory\n"


@pytest.mark.parametrize("kernel", ["volume", "nw", "pseudo"])
@pytest.mark.parametrize(
    "extra, message",
    [
        (["--budget=0"], "budget must be a positive integer, got 0"),
        (["--tolerance=-1e-8"], "tolerance must be nonnegative"),
        (["--tolerance=nan"], "tolerance must be nonnegative and finite, got nan"),
        (["--tolerance=inf"], "tolerance must be nonnegative and finite, got inf"),
    ],
)
def test_gram_rejects_arguments_before_computing(
    tmp_path, hists3, weights3, monkeypatch, capsys, extra, message, kernel
):
    import transportkernels.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel must not run")

    for name in ("weighted_volume_pairs", "nw_kernel_pairs", "pseudo_kernel_pairs"):
        monkeypatch.setattr(cli, name, refuse)
    out = tmp_path / "out"
    argv = ["gram", "--input", hists3, "--weights", weights3, "--kernel", kernel,
            "--out", str(out)] + extra
    assert main(argv) == EXIT_ERROR
    assert message in capsys.readouterr().err
    assert not out.exists()


USAGE_ERRORS = [
    ["gram", "--input", "h.txt", "--weights", "w.txt", "--kernel", "volume",
     "--tolerance", "-1e-8", "--out", "o"],
    ["bogus"],
    ["gram", "--input", "h.txt", "--weights", "w.txt", "--out", "o"],
    ["gram", "--input", "h.txt", "--weights", "w.txt", "--kernel", "bogus", "--out", "o"],
    ["gram", "--input", "h.txt", "--weights", "w.txt", "--kernel", "volume"],
    ["enumerate", "--input", "pair.txt"],
    ["nw", "--input", "pair.txt", "--out="],
    ["psd-check", "--weights", "w.txt", "--weights-mode", "cost"],
]


@pytest.mark.parametrize(
    "argv",
    USAGE_ERRORS,
    ids=["tolerance", "subcommand", "kernel", "unknown-kernel", "gram-out", "enumerate-out",
         "empty-out", "weights-mode"],
)
def test_usage_errors_exit_1(argv, monkeypatch, capsys):
    # exit 2 is reserved for a failed certificate; the parser refuses the
    # arguments before any subcommand runs
    import transportkernels.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("the subcommand must not run")

    for name in ("gram", "enumerate", "nw"):
        monkeypatch.setitem(cli._SUBCOMMANDS, name, (*cli._SUBCOMMANDS[name][:2], refuse))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    assert "usage:" in capsys.readouterr().err
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "transportkernels.cli", *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == EXIT_ERROR, done.stderr
    assert "error:" in done.stderr


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gram", "--help"])
    assert exc.value.code == EXIT_OK
    assert "--kernel" in capsys.readouterr().out


def test_gram_budget_exit(tmp_path, capsys):
    hists = write(tmp_path / "h.txt", "7,23\n12,18\n")
    w = write(tmp_path / "w.txt", "mode: weight\n1.0,0.5\n0.5,1.0\n")
    code = main(["gram", "--input", hists, "--weights", w, "--kernel", "volume",
                 "--budget", "7", "--out", str(tmp_path / "out")])
    assert code == EXIT_BUDGET
    # the shared box e <= (12, 23) needs 4 * 312 updates; the first
    # column's own box e <= (7, 23) then needs 4 * 192 = 768
    assert "need 768 cell updates, more than 7" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kernel, weights, keys",
    [
        # 6 pairs of |R|^2 = 4 vertices of 2d = 6 keys
        ("nw", "mode: weight\n1.0,0.5,0.25\n0.5,1.0,0.5\n0.25,0.5,1.0\n", 144),
        # Monge costs: 6 pairs of one vertex of 6 keys
        ("pseudo", "mode: cost\n0,1,2\n1,0,1\n2,1,0\n", 36),
    ],
    ids=["nw", "monge-pseudo"],
)
def test_gram_budget_caps_corner_rule_streams(tmp_path, hists3, capsys, kernel, weights, keys):
    w = write(tmp_path / "w.txt", weights)
    argv = ["gram", "--input", hists3, "--weights", w, "--kernel", kernel, "--r-size", "2"]
    assert main(argv + ["--budget", str(keys), "--out", str(tmp_path / "a")]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "b"
    assert main(argv + ["--budget", str(keys - 1), "--out", str(out)]) == EXIT_BUDGET
    assert capsys.readouterr().err == (
        f"error: 6 pairs, {2 if kernel == 'nw' else 1}^2 vertices each of 6 keys, need {keys} "
        f"merge keys, more than {keys - 1}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "hists, weights, extra, code, message",
    [
        # three d=32 histograms of mass 64: the draws took seconds and
        # hundreds of MB before this refusal
        ("\n".join([",".join(["2"] * 32)] * 3), "\n".join([",".join(["0"] * 32)] * 32),
         ["--r-size", "200000"], EXIT_BUDGET,
         "6 pairs, 200000^2 vertices each of 64 keys, need 15360000000000 merge keys, "
         "more than 10000000"),
        ("1,2,1\n0,3,2", None, [], EXIT_ERROR, "histogram 1 has mass 5 but histogram 0 has 4"),
        ("1,2,0,1\n0,1,2,1", "0,1,2\n1,0,1\n2,1,0", [], EXIT_ERROR,
         "weight matrix is 3x3 but histograms have 4 bins"),
        # a negative size is refused as before, not as a budget of |R|^2 keys
        ("1,2,1\n0,3,1", None, ["--r-size=-5000"], EXIT_ERROR, "size_target must be at least 1"),
    ],
    ids=["over-budget", "mixed-masses", "weights-of-another-size", "negative-size"],
)
def test_gram_nw_refuses_before_drawing_permutations(
    tmp_path, weights3, monkeypatch, capsys, hists, weights, extra, code, message
):
    from transportkernels import northwest

    def refuse(*args, **kwargs):
        raise AssertionError("no permutation may be drawn")

    monkeypatch.setattr(northwest, "_permutation_stream", refuse)
    h = write(tmp_path / "h.txt", hists + "\n")
    w = write(tmp_path / "w.txt", f"mode: cost\n{weights}\n") if weights else weights3
    out = tmp_path / "out"
    argv = ["gram", "--input", h, "--weights", w, "--kernel", "nw", "--out", str(out)]
    assert main(argv + extra) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gram_builds_only_its_own_subcommand_parser(tmp_path, hists3, weights3, monkeypatch,
                                                    capsys):
    import transportkernels.cli as cli

    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    argv = ["gram", "--input", hists3, "--weights", weights3, "--kernel", "nw",
            "--r-size", "4", "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK
    assert built == ["transportkernels", "transportkernels gram"]
    # an argument no subcommand takes is reported with the usage of the full parser
    built.clear()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--bogus"])
    assert exc.value.code == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        "usage: transportkernels [-h] {gram,enumerate,nw,psd-check,ot} ...",
        "transportkernels: error: unrecognized arguments: --bogus",
    ]
    assert len(built) == 2 + 6  # the gram-only parser, then the full one


def test_gram_nw_does_not_import_numpy_random(tmp_path, hists3, weights3):
    # the permutation set comes from the package's own copy of numpy's stream
    script = (
        "import json, sys\n"
        "import numpy\n"
        "from transportkernels import cli\n"
        "with_numpy = 'numpy.random' in sys.modules\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([with_numpy, code, 'numpy.random' in sys.modules]))\n"
    )
    argv = ["gram", "--input", hists3, "--weights", weights3, "--kernel", "nw", "--r-size",
            "4", "--out", str(tmp_path / "out")]
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with_numpy, code, with_gram = json.loads(done.stdout.splitlines()[-1])
    if with_numpy:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert code == EXIT_OK
    assert not with_gram


def test_nw_prints_fixture(pair, capsys):
    assert main(["nw", "--input", pair]) == EXIT_OK
    assert capsys.readouterr().out == "2,0,0\n3,1,1\n0,0,3\n"


def test_nw_permuted_fixture(pair, capsys, tmp_path):
    out = tmp_path / "out"
    code = main(["nw", "--input", pair, "--sigma", "3,1,2", "--sigma-p", "3,2,1",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "0,1,1\n5,0,0\n0,0,3\n"
    assert (out / "nw.csv").read_text() == "0,1,1\n5,0,0\n0,0,3\n"


def test_nw_requires_both_permutations(pair, capsys):
    assert main(["nw", "--input", pair, "--sigma", "1,2,3"]) == EXIT_ERROR
    assert "--sigma-p" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sigma, sigma_p, message",
    [
        ("a,b", "1,2", "error: --sigma: 'a' is not an integer"),
        ("1,2,3", "1,,2", "error: --sigma-p: '' is not an integer"),
        ("1,2,3", "1,3,3", "error: --sigma-p: not a permutation of 1..3"),
        # int alone would read these as 3,2,1 and 10
        ("\u0663,\u0662,\u0661", "3,2,1", "error: --sigma: '\u0663' is not an integer"),
        ("1,2,3", "1_0,2,3", "error: --sigma-p: '1_0' is not an integer"),
    ],
)
def test_nw_bad_permutation_is_input_error(pair, capsys, sigma, sigma_p, message):
    assert main(["nw", "--input", pair, "--sigma", sigma, "--sigma-p", sigma_p]) == EXIT_ERROR
    assert message in capsys.readouterr().err


def test_nw_bad_permutation_exits_1_from_module_entry_point(pair):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "transportkernels.cli", "nw", "--input", pair,
         "--sigma", "a,b", "--sigma-p", "1,2"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == EXIT_ERROR
    assert done.stderr == "error: --sigma: 'a' is not an integer\n"


def test_psd_check_verdicts(tmp_path, weights3, capsys):
    assert main(["psd-check", "--weights", weights3]) == EXIT_OK
    assert "verdict pass" in capsys.readouterr().out
    indef = write(tmp_path / "indef.txt", "mode: weight\n0.0,1.0\n1.0,0.0\n")
    assert main(["psd-check", "--weights", indef]) == EXIT_CERT_FAIL
    assert "verdict fail" in capsys.readouterr().out


def test_psd_check_rejects_cost_whose_weight_overflows(tmp_path, capsys):
    w = write(tmp_path / "w.txt", "mode: cost\n-800,0\n0,0\n")
    assert main(["psd-check", "--weights", w]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "cost entry (0, 0) = -800.0" in err and "weights must be finite" in err


def test_ot_output(tmp_path, pair, capsys):
    w = write(tmp_path / "tv.txt", "mode: cost\n0,1,1\n1,0,1\n1,1,0\n")
    out = tmp_path / "out"
    code = main(["ot", "--input", pair, "--weights", w, "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.startswith("ot: cost ")
    payload = read_json(out / "ot.json")
    # total variation between [2,5,3] and [5,1,4]: (3+4+1)/2 = 4
    assert payload["cost"] == 4.0
    plan = payload["plan"]
    assert [sum(row) for row in plan] == [2, 5, 3]
    assert [sum(col) for col in zip(*plan)] == [5, 1, 4]


def test_ot_infinite_cost_is_null_in_json(tmp_path, capsys):
    # the only table moves both units along a +inf cost entry
    pair = write(tmp_path / "pair.txt", "2,0,0\n0,0,2\n")
    w = write(tmp_path / "m.txt", "mode: cost\n0,1,inf\n1,5,1\ninf,1,0\n")
    out = tmp_path / "out"
    assert main(["ot", "--input", pair, "--weights", w, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("ot: cost inf\n")
    plan = [[0, 0, 2], [0, 0, 0], [0, 0, 0]]
    assert read_json(out / "ot.json") == {"cost": None, "plan": plan}


def test_ot_budget_counts_only_finite_cells(tmp_path, capsys):
    # not Monge, with +inf entries between finite ones; the box e <= (2, 2, 2)
    # has 27 cells, and only the six finite costs are scanned: 27 * 6 = 162
    # cell updates, where scanning all nine cells would need 243
    pair = write(tmp_path / "pair.txt", "2,2,2\n2,2,2\n")
    w = write(tmp_path / "m.txt", "mode: cost\n0,inf,1\n1,0,inf\ninf,1,0\n")
    code = main(["ot", "--input", pair, "--weights", w, "--budget", "161"])
    assert code == EXIT_BUDGET
    assert "need 162 cell updates, more than 161" in capsys.readouterr().err
    assert main(["ot", "--input", pair, "--weights", w, "--budget", "162"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("ot: cost 0.0\n")


def test_missing_file_is_input_error(tmp_path, capsys):
    code = main(["nw", "--input", str(tmp_path / "nope.txt")])
    assert code == EXIT_ERROR
    assert "cannot read file" in capsys.readouterr().err


def test_parse_error_carries_line_number(tmp_path, capsys):
    bad = write(tmp_path / "bad.txt", "1,2,1\n0,x,1\n")
    code = main(["nw", "--input", str(bad)])
    assert code == EXIT_ERROR
    assert f"{bad}:2:" in capsys.readouterr().err


def test_pair_count_enforced(tmp_path, hists3, capsys):
    assert main(["nw", "--input", hists3]) == EXIT_ERROR
    assert "exactly two histograms" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("2,1\n1,3\n", "histogram 1 has mass 4 but histogram 0 has 3"),
        ("2,1\n1,1,1\n", "histogram 1 has 3 bins but histogram 0 has 2"),
    ],
    ids=["mass", "bins"],
)
def test_mismatched_pair_reads_alike_in_every_command(tmp_path, capsys, text, message):
    # enumerate, nw and ot check the pair with one rule and one wording
    pair = write(tmp_path / "pair.txt", text)
    w = write(tmp_path / "w.txt", "mode: cost\n0,1\n1,0\n")
    out = tmp_path / "out"
    for argv in (["enumerate", "--input", pair, "--out", str(out)],
                 ["nw", "--input", pair],
                 ["ot", "--input", pair, "--weights", w]):
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("kernel", ["volume", "nw", "pseudo"])
def test_gram_with_weights_of_another_size_names_the_mismatch(tmp_path, capsys, kernel):
    # the kernel's own error reaches the command line unwrapped
    hists = write(tmp_path / "h.txt", "1,2,0,1\n0,1,2,1\n2,2,0,0\n")
    w = write(tmp_path / "w.txt", "mode: cost\n0,1,2\n1,0,1\n2,1,0\n")
    out = tmp_path / "out"
    assert main(["gram", "--input", hists, "--weights", w, "--kernel", kernel,
                 "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: weight matrix is 3x3 but histograms have 4 bins\n"
    assert not out.exists()


def test_gram_nw_with_empty_permutation_set_is_input_error(tmp_path, hists3, weights3, capsys):
    out = tmp_path / "out"
    assert main(["gram", "--input", hists3, "--weights", weights3, "--kernel", "nw",
                 "--r-size", "0", "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: size_target must be at least 1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "option, text, line, message",
    [
        ("--input", "1,2\n-1,4\n", 2, "negative count in '-1,4'"),
        ("--input", "# only a comment\n\n", 1, "no histograms found"),
        ("--weights", "mode: foo\n0,1\n1,0\n", 1, "mode must be 'cost' or 'weight', got 'foo'"),
        ("--weights", "mode: cost\n", 1, "no matrix rows found"),
        ("--weights", "mode: cost\n0,1\n1,x\n", 3,
         "expected comma-separated reals, got '1,x'"),
        # int and float alone would read these as 10, 1 and 10.5
        ("--input", "1_0,2\n0,12\n", 1, "expected comma-separated integers, got '1_0,2'"),
        ("--input", "# \u0661 in a comment is text\n1,2\n\u0661,2\n", 3,
         "expected comma-separated integers, got '\u0661,2'"),
        ("--weights", "mode: cost\n0,1_0.5\n1,0\n", 2,
         "expected comma-separated reals, got '0,1_0.5'"),
        ("--weights", "0,1\n1,0\n", 1, "no 'mode:' header; cannot tell costs from weights"),
        # a line ends at "\n" only; str.splitlines would also break at the form feed
        ("--input", "1,2\f3,4\n5,6\nx,y\n", 1,
         "expected comma-separated integers, got '1,2\\x0c3,4'"),
        # CRLF lines read as LF lines: the "\r" is stripped with the other blanks
        ("--input", "# a comment\r\n1,2\r\n-1,4\r\n", 3, "negative count in '-1,4'"),
        ("--weights", "mode: cost\r\n0,1\r\n1,x\r\n", 3,
         "expected comma-separated reals, got '1,x'"),
        # float reads a finite literal beyond its range as an infinity
        ("--weights", "mode: cost\n0,1e400\n1e400,0\n", 2,
         "'1e400' is beyond the float range"),
        ("--weights", "mode: cost\n0,1\n1, -1e400\n", 3,
         "'-1e400' is beyond the float range"),
        ("--weights", "mode: weight\n1,0\n1E400,1\n", 3,
         "'1E400' is beyond the float range"),
        # and a nonzero literal below its range as 0.0, a forbidden pair
        ("--weights", "mode: weight\n1e150,1e-400\n1e-400,1\n", 2,
         "'1e-400' is beyond the float range"),
        ("--weights", "mode: cost\n0,1\n-2.5E-400,0\n", 3,
         "'-2.5E-400' is beyond the float range"),
        # entries WeightSpec refuses, located at their line and field
        ("--weights", "mode: cost\n0,nan\nnan,0\n", 2,
         "'nan': cost entries must be reals or +inf"),
        ("--weights", "mode: cost\n0,-inf\n-inf,0\n", 2,
         "'-inf': cost entries must be reals or +inf"),
        ("--weights", "mode: cost\n0,1\n1, -800\n", 3,
         "'-800': cost entry (1, 1) = -800.0 gives weight exp(-m) beyond the float range; "
         "weights must be finite"),
        # the first NaN is named even after a cost whose weight overflows
        ("--weights", "mode: cost\n-800,0\n0,nan\n", 3,
         "'nan': cost entries must be reals or +inf"),
        ("--weights", "mode: weight\n1,inf\ninf,1\n", 2,
         "'inf': weight entries must be finite and nonnegative"),
        ("--weights", "mode: weight\n1,1\n-1,1\n", 3,
         "'-1': weight entries must be finite and nonnegative"),
    ],
    ids=["negative-count", "no-histograms", "unknown-mode", "no-rows", "not-a-real",
         "digit-separator", "non-ascii-digit", "real-digit-separator", "no-mode-header",
         "form-feed", "crlf-histograms", "crlf-weights", "cost-beyond-range",
         "negative-beyond-range", "weight-beyond-range", "weight-below-range",
         "cost-below-range", "cost-nan", "cost-minus-inf",
         "cost-weight-overflow", "cost-nan-after-overflow", "weight-inf",
         "weight-negative"],
)
def test_malformed_input_file_names_its_line(tmp_path, pair, capsys, option, text, line,
                                             message):
    bad = write(tmp_path / "bad.txt", text)
    argv = (["nw", "--input", bad] if option == "--input"
            else ["psd-check", "--weights", bad])
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {bad}:{line}: {message}\n"


@pytest.mark.parametrize("command", ["gram", "enumerate", "nw", "ot", "psd-check"])
def test_undecodable_file_is_parse_error(tmp_path, hists3, pair, weights3, capsys, command):
    # a UTF-16 file starts with the byte-order mark ff fe, which is not UTF-8
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(b"\xff\xfe" + "2,5,3\n".encode("utf-16-le"))
    out = str(tmp_path / "out")
    argv = {
        "gram": ["gram", "--input", hists3, "--weights", str(bad), "--kernel", "volume",
                 "--out", out],
        "enumerate": ["enumerate", "--input", str(bad), "--out", out],
        "nw": ["nw", "--input", str(bad)],
        "ot": ["ot", "--input", pair, "--weights", str(bad)],
        "psd-check": ["psd-check", "--weights", str(bad)],
    }[command]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {bad}:1: not UTF-8 text: byte 0xff at offset 0\n"


def test_undecodable_byte_names_its_line_and_offset(tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("1,2\n3,\xe9\n".encode("latin-1"))
    with pytest.raises(ParseError, match="^.*:2: not UTF-8 text: byte 0xe9 at offset 6$"):
        fileio.parse_histograms(bad)
    with pytest.raises(ParseError, match=":2: not UTF-8 text: byte 0xe9 at offset 6$"):
        fileio.parse_histograms(bad, bad.read_bytes())


def test_zero_literals_read_as_zero(tmp_path):
    # only a nonzero digit before the exponent makes a 0.0 reading out of range
    path = write(tmp_path / "w.txt", "mode: weight\n1,0e-400\n-0.0,0.000E999\n")
    assert fileio.parse_weights(path).weight.tolist() == [[1.0, 0.0], [0.0, 0.0]]


def test_weights_must_be_square(tmp_path):
    bad = write(tmp_path / "ws.txt", "mode: cost\n0,1\n")
    with pytest.raises(ParseError, match="square"):
        fileio.parse_weights(bad)


def test_histogram_file_comments_and_blanks(tmp_path):
    path = write(tmp_path / "h.txt", "# a comment\n\n1,2\n\n#indented-less comment\n3,0\n")
    hs = fileio.parse_histograms(path)
    assert [h.counts for h in hs] == [(1, 2), (3, 0)]


def test_gram_csv_uses_repr_floats(tmp_path):
    fileio.write_gram_csv(tmp_path / "g.csv", np.array([[1 / 3, 1.0], [1.0, 2.0]]))
    text = (tmp_path / "g.csv").read_text()
    assert text.splitlines()[0].split(",")[0] == repr(1 / 3)


def test_gram_csv_bytes_match_per_scalar_repr(tmp_path):
    # the per-numpy-scalar formatting the writer used before, on signed zero,
    # the smallest subnormal, a large integer-valued float and inexact values
    special = np.array([[-0.0, 5e-324, 1e16], [0.1, 1 / 3, -2.5]])
    dense = np.random.default_rng(75).random((75, 75)) * 10.0 ** np.arange(-37, 38)
    # repeated values, with -0.0 and 0.0 where the mirror entry holds another value
    repeated = np.random.default_rng(77).choice([0.5, 1 / 3, 2.0], (6, 6))
    repeated[0, 1] = repeated[2, 4] = -0.0
    repeated[5, 3] = repeated[3, 0] = 0.0
    inputs = (special, dense, np.array([[1 / 3]]), np.array([[2, 0], [0, 1]]),
              dense[:7, :5].T, dense[1:40:3, ::-4], np.asfortranarray(dense[:9, :11]),
              repeated)
    for values in inputs:
        path = tmp_path / "g.csv"
        fileio.write_gram_csv(path, values)
        lines = [",".join(repr(float(v)) for v in row) for row in np.asarray(values)]
        assert path.read_text() == "\n".join(lines) + "\n"


def test_gram_csv_symmetric_bytes_match_per_scalar_repr(tmp_path):
    # a mirror entry bitwise equal to its upper entry shares that entry's
    # text; -0.0 opposite 0.0 compares equal but is not bitwise equal, so
    # each keeps its own text
    dense = np.random.default_rng(76).random((75, 75)) * 10.0 ** np.arange(-37, 38)
    mirrored = np.triu(dense) + np.triu(dense, 1).T
    special = np.array([[-0.0, 5e-324, 1e16], [5e-324, 1 / 3, 0.0], [1e16, -0.0, 2.5]])
    assert (mirrored == mirrored.T).all() and (special == special.T).all()
    for values in (mirrored, special, np.array([[1 / 3]]), np.zeros((0, 0))):
        path = tmp_path / "g.csv"
        fileio.write_gram_csv(path, values)
        lines = [",".join(repr(float(v)) for v in row) for row in values]
        assert path.read_text() == "\n".join(lines) + "\n"


def test_gram_csv_formats_each_distinct_bit_pattern_once(tmp_path, monkeypatch):
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(fileio, "repr", counting_repr, raising=False)
    values = np.array([[0.5, 1 / 3, 0.5, -0.0], [2.0, 0.0, 1 / 3, 2.0], [0.5, 0.5, -0.0, 7.0]])
    fileio.write_gram_csv(tmp_path / "g.csv", values)
    assert len(calls) == len(set(values.view(np.int64).ravel().tolist())) == 6
    monkeypatch.undo()
    lines = [",".join(repr(float(v)) for v in row) for row in values]
    assert (tmp_path / "g.csv").read_text() == "\n".join(lines) + "\n"


def test_gram_csv_refuses_an_array_that_is_not_2d(tmp_path):
    for values in (np.array([0.5, 1.0]), np.float64(0.5), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="2-D matrix"):
            fileio.write_gram_csv(tmp_path / "g.csv", values)


def test_manifest_round_trip_at_non_default_options(tmp_path, hists3):
    # every gram option away from its default; the replay rewrites all three
    # artifacts byte for byte
    w = write(tmp_path / "w.txt", "mode: cost\n0,0.7,1.3\n0.7,0,0.4\n1.3,0.4,0\n")
    for kernel in ("volume", "nw", "pseudo"):
        out = tmp_path / kernel
        options = ["--budget", "123456", "--tolerance", "1e-06", "--seed", "7",
                   "--r-size", "3"]
        argv = ["gram", "--input", hists3, "--weights", w, "--kernel", kernel,
                "--out", str(out)] + options
        assert main(argv) == EXIT_OK
        manifest = read_json(out / "manifest.json")
        for flag, value in zip(options[::2], options[1::2]):
            assert f"{flag}={value}" in manifest["argv"]
        artifacts = ("gram.csv", "certificate.json", "manifest.json")
        original = {name: (out / name).read_bytes() for name in artifacts}
        saved = tmp_path / f"{kernel}.json"
        saved.write_bytes(original["manifest.json"])
        for name in artifacts:
            (out / name).unlink()
        assert run_from_manifest(saved) == EXIT_OK
        assert {name: (out / name).read_bytes() for name in artifacts} == original


def test_manifest_replays_relative_paths_from_another_directory(
    tmp_path, monkeypatch
):
    run = tmp_path / "run"
    run.mkdir()
    write(run / "h.txt", "1,2,1\n0,3,1\n2,0,2\n")
    write(run / "w.txt", "mode: weight\n1.0,0.5,0.25\n0.5,1.0,0.5\n0.25,0.5,1.0\n")
    monkeypatch.chdir(run)
    argv = ["gram", "--input", "h.txt", "--weights", "w.txt", "--kernel", "volume",
            "--out", "out"]
    assert main(argv) == EXIT_OK
    out = run / "out"
    for flag, name in (("--input", "h.txt"), ("--weights", "w.txt"), ("--out", "out")):
        assert f"{flag}={os.path.abspath(name)}" in read_json(out / "manifest.json")["argv"]
    artifacts = ("gram.csv", "certificate.json", "manifest.json")
    original = {name: (out / name).read_bytes() for name in artifacts}
    saved = tmp_path / "manifest.json"
    saved.write_bytes(original["manifest.json"])
    for name in artifacts:
        (out / name).unlink()
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert run_from_manifest(saved) == EXIT_OK
    assert {name: (out / name).read_bytes() for name in artifacts} == original
    assert not any(elsewhere.iterdir())


def test_gram_volume_matches_library_value(tmp_path, hists3, weights3):
    from transportkernels import weighted_volume

    out = tmp_path / "out"
    main(["gram", "--input", hists3, "--weights", weights3, "--kernel", "volume",
          "--out", str(out)])
    hs = fileio.parse_histograms(hists3)
    w = fileio.parse_weights(weights3)
    first_row = (out / "gram.csv").read_text().splitlines()[0].split(",")
    assert float(first_row[1]) == weighted_volume(hs[0], hs[1], w)
