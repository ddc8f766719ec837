"""The trace CSV is written and read a block of rows at a time.

``cli._run_and_report`` writes the CSV ``cli._CSV_BLOCK`` rows at a time and
``rates.parse_trace_csv`` parses it a block of lines at a time.  The bytes
written are those of ``trace_csv`` on the whole trace, the columns read are
those of the row-at-a-time parser kept here as the reference, and the
memory of either side grows by a few dozen bytes a row, not by the text."""

import numpy as np
import pytest

from apcone import cli, rates
from apcone.apengine import run_ap
from apcone.catalog import get_example
from apcone.cli import _CSV_BLOCK as B
from apcone.cli import trace_csv
from apcone.rates import parse_trace_csv
from probes import peak_bytes, run_cli


# --- writing -----------------------------------------------------------------

def _assert_streamed_csv(capsys, tmp_path, dest, ident, iters):
    inst = get_example(ident)
    trace = run_ap(inst.plane, inst.start, max_iter=iters, tol=0.0)
    want = trace_csv(trace.dists, trace.psd_ranks)
    argv = ["example", ident, "--iters", str(iters)]
    if dest == "stdout":
        code, out, _ = run_cli(capsys, *argv)
        csv, summary = out[:len(want)], out[len(want):]
    else:
        code, summary, _ = run_cli(capsys, *argv, "--out",
                                   str(tmp_path / "t.csv"))
        csv = (tmp_path / "t.csv").read_text()
    assert code == 0
    assert csv == want
    assert summary.startswith(f"# {ident} (default): iterations=")
    assert all(line.startswith("# ") for line in summary.splitlines())
    return csv


@pytest.mark.parametrize("dest", ["file", "stdout"])
@pytest.mark.parametrize("rows", [B - 1, B, B + 1, 2 * B + 1])
def test_streamed_csv_is_the_whole_trace_csv(capsys, tmp_path, dest, rows):
    _assert_streamed_csv(capsys, tmp_path, dest, "ex6.1", rows - 1)


@pytest.mark.parametrize("dest", ["file", "stdout"])
@pytest.mark.parametrize("block", [B, 100])
def test_streamed_csv_with_inf_cells_and_zero_distances(
        capsys, tmp_path, monkeypatch, dest, block):
    # ex3.4 stops by stagnation after 661 rows: inv6 is inf from k = 220 and
    # dist is 0 from k = 560, so blocks of 100 rows cut inside both ranges
    monkeypatch.setattr(cli, "_CSV_BLOCK", block)
    csv = _assert_streamed_csv(capsys, tmp_path, dest, "ex3.4", 1000)
    assert "\n220,3.1061188017241297e-52,1,1.036487037506062e+103,inf\n" \
        in csv and csv.endswith("\n660,0,1,inf,inf\n")


def test_trace_csv_numbers_rows_from_the_block_start():
    dists, ranks = np.array([0.5, 0.0]), np.array([1, 0])
    assert trace_csv(dists, ranks, 2048) == ("2048,0.5,1,4,64\n"
                                             "2049,0,0,inf,inf\n")


def test_cli_run_memory_grows_by_trace_and_fit_only(capsys, tmp_path):
    out = str(tmp_path / "t.csv")

    def run(n):
        assert run_cli(capsys, "example", "ex6.1", "--start",
                       "slowest-curve:0.1", "--iters", str(n), "--out",
                       out)[0] == 0

    run(100)   # caches and lazy set-up outside the measurement
    small, large = (peak_bytes(lambda: run(n)) for n in (10 ** 4, 10 ** 5))
    # run_ap's trace holds 16 B a step and the summary's fit temporaries
    # about 35; the CSV text is one block's whatever the run's length
    assert large - small <= 80 * (10 ** 5 - 10 ** 4)


# --- reading -----------------------------------------------------------------

def _parse_rows(text):
    """The row-at-a-time parser that the block parser replaced: the
    reference for its columns."""
    rows = []
    header = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(tok) for tok in line.split(",")])
    if header is None:
        raise ValueError("no header found")
    data = np.array(rows) if rows else np.empty((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}


@pytest.mark.parametrize("block", [rates._PARSE_BLOCK, 50])
def test_block_parser_columns_match_row_parser(capsys, monkeypatch, block):
    code61, ex61, _ = run_cli(capsys, "example", "ex6.1", "--start",
                              "slowest-curve:0.1", "--iters", "10000")
    code34, ex34, _ = run_cli(capsys, "example", "ex3.4", "--iters", "1000")
    assert code61 == code34 == 0
    texts = {
        "ex6.1 CSV": ex61[:ex61.index("\n#") + 1],
        "ex6.1 stdout, blank lines": ex61.replace("\n", "\n\n", 500)
        .replace("\n#", "\n  \n\t# ") + "\n",
        "ex3.4 inf and zero rows": ex34,
        "CRLF, trailing spaces": ex34.replace("\n", " \r\n"),
        "CR line ends": ex34.replace("\n", "\r"),
    }
    monkeypatch.setattr(rates, "_PARSE_BLOCK", block)
    for name, text in texts.items():
        got, want = parse_trace_csv(text), _parse_rows(text)
        assert list(got) == list(want) == ["k", "dist", "psd_rank", "inv2",
                                           "inv6"], name
        assert len(want["k"]) in (10001, 661), name
        for col in want:   # bit for bit
            assert got[col].tobytes() == want[col].tobytes(), (name, col)


def test_block_parser_header_only_missing_header_and_ragged_rows(
        monkeypatch):
    cols = parse_trace_csv("# a run\nk,dist,psd_rank,inv2,inv6\n# done\n")
    assert list(cols) == ["k", "dist", "psd_rank", "inv2", "inv6"]
    assert all(col.shape == (0,) for col in cols.values())
    for text in ("", "\n  \n", "# only comments\n"):
        with pytest.raises(ValueError, match="no header found"):
            parse_trace_csv(text)
    with pytest.raises(ValueError):
        parse_trace_csv("k,dist\n0,1\n1,2,3\n")
    # blocks of 4 characters put the one-field rows in a block of their own
    monkeypatch.setattr(rates, "_PARSE_BLOCK", 4)
    with pytest.raises(ValueError):
        parse_trace_csv("k,dist\n0,1\n2\n3\n")


def test_line_blocks_cut_cr_and_crlf_text_as_lf_text():
    text = "".join(f"{k},{k / 7}\n" for k in range(10 ** 4))
    lf = list(rates._line_blocks(text))
    assert len(lf) > 1
    # CR-only text has LF text's characters, so its blocks are LF text's
    assert list(rates._line_blocks(text.replace("\n", "\r"))) == lf
    crlf = list(rates._line_blocks(text.replace("\n", "\r\n")))
    assert len(crlf) > 1 and sum(crlf, []) == sum(lf, [])


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                         ids=["LF", "CRLF", "CR"])
def test_parse_memory_per_row(newline):
    n = 10 ** 5
    k = np.arange(n)
    text = trace_csv(0.1 * (1.0 + k) ** (-1.0 / 6.0),
                     np.ones(n, dtype=np.int64))
    parse_trace_csv(text[:text.index("\n", 10 ** 4) + 1])  # first-call costs
    text = text.replace("\n", newline)
    peak = peak_bytes(lambda: parse_trace_csv(text))
    # the columns (40 B a row), the blocks they are joined from, and one
    # block's lines
    assert peak <= 100 * n
