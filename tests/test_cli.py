import json
import math
import warnings

import numpy as np
import pytest

from transportkernels import ParseError, fileio, polytope
from transportkernels.cli import (
    EXIT_BUDGET,
    EXIT_CERT_FAIL,
    EXIT_ERROR,
    EXIT_OK,
    RunConfig,
    main,
    run,
    run_from_manifest,
)


def write(path, text):
    path.write_text(text)
    return str(path)


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
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "pass"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kernel_id"] == "volume"
    assert len(manifest["dataset_hash"]) == 64
    assert manifest["config"]["subcommand"] == "gram"
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
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"]["bogus"] = 1
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert run_from_manifest(out / "manifest.json") == EXIT_ERROR
    assert "unknown run config keys: bogus" in capsys.readouterr().err


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
    cert = json.loads((out / "certificate.json").read_text())
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
    assert "budget exceeded: wrote 7 tables" in capsys.readouterr().err
    lines = (out / "tables.csv").read_text().splitlines()
    assert len(lines) == 7  # the seven tables that fit


def test_enumerate_streams_without_counting(tmp_path, monkeypatch, capsys):
    # 79,315,936,751 tables exist for this pair; a budgeted run must stop
    # after the budget without first folding over the whole table set
    def no_fold(*args, **kwargs):
        raise AssertionError("enumerate must not run the row fold")

    monkeypatch.setattr(polytope, "_fold", no_fold)
    pair = write(tmp_path / "pair.txt", "10,10,10,10,10\n10,10,10,10,10\n")
    out = tmp_path / "out"
    code = main(["enumerate", "--input", pair, "--budget", "10", "--out", str(out)])
    assert code == EXIT_BUDGET
    assert "budget exceeded: wrote 10 tables" in capsys.readouterr().err
    assert len((out / "tables.csv").read_text().splitlines()) == 10


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


def test_gram_budget_exit(tmp_path, capsys):
    hists = write(tmp_path / "h.txt", "7,23\n12,18\n")
    w = write(tmp_path / "w.txt", "mode: weight\n1.0,0.5\n0.5,1.0\n")
    code = main(["gram", "--input", hists, "--weights", w, "--kernel", "volume",
                 "--budget", "7", "--out", str(tmp_path / "out")])
    assert code == EXIT_BUDGET
    assert "more than 7 row compositions" in capsys.readouterr().err


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


def test_psd_check_verdicts(tmp_path, weights3, capsys):
    assert main(["psd-check", "--weights", weights3]) == EXIT_OK
    assert "verdict pass" in capsys.readouterr().out
    indef = write(tmp_path / "indef.txt", "mode: weight\n0.0,1.0\n1.0,0.0\n")
    assert main(["psd-check", "--weights", indef]) == EXIT_CERT_FAIL
    assert "verdict fail" in capsys.readouterr().out


def test_ot_output(tmp_path, pair, capsys):
    w = write(tmp_path / "tv.txt", "mode: cost\n0,1,1\n1,0,1\n1,1,0\n")
    out = tmp_path / "out"
    code = main(["ot", "--input", pair, "--weights", w, "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.startswith("ot: cost ")
    payload = json.loads((out / "ot.json").read_text())
    # total variation between [2,5,3] and [5,1,4]: (3+4+1)/2 = 4
    assert payload["cost"] == 4.0
    plan = payload["plan"]
    assert [sum(row) for row in plan] == [2, 5, 3]
    assert [sum(col) for col in zip(*plan)] == [5, 1, 4]


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


def test_weights_mode_resolution(tmp_path):
    headerless = write(tmp_path / "wh.txt", "0,1\n1,0\n")
    with pytest.raises(ParseError, match="no 'mode:' header"):
        fileio.parse_weights(headerless)
    w = fileio.parse_weights(headerless, mode="cost")
    assert w.cost[0, 1] == 1.0
    headed = write(tmp_path / "wc.txt", "mode: cost\n0,1\n1,0\n")
    with pytest.raises(ParseError, match="--weights-mode"):
        fileio.parse_weights(headed, mode="weight")
    assert fileio.parse_weights(headed, mode="cost").cost[1, 0] == 1.0


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


def test_run_config_round_trip():
    config = RunConfig(subcommand="gram", input="h.txt", weights="w.txt",
                       kernel="volume", out="o")
    assert RunConfig.from_dict(config.to_dict()) == config


def test_run_rejects_unknown_kernel(tmp_path, hists3, weights3):
    config = RunConfig(subcommand="gram", input=hists3, weights=weights3,
                       kernel="bogus", out=str(tmp_path / "o"))
    assert run(config) == EXIT_ERROR


def test_gram_volume_matches_library_value(tmp_path, hists3, weights3):
    from transportkernels import weighted_volume

    out = tmp_path / "out"
    main(["gram", "--input", hists3, "--weights", weights3, "--kernel", "volume",
          "--out", str(out)])
    hs = fileio.parse_histograms(hists3)
    w = fileio.parse_weights(weights3)
    first_row = (out / "gram.csv").read_text().splitlines()[0].split(",")
    assert float(first_row[1]) == weighted_volume(hs[0], hs[1], w)
