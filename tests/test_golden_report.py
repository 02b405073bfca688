"""``stosub experiment --bundled`` writes the same report bytes as the
reference files in ``tests/data``.

The reference files were written by the code before the exact kappa and
gamma kernels started skipping twin observations; the ``alpha`` and
``rounded_se`` columns were later cut out of those bytes by a script, not
rewritten by the code under test.  So a change that moves any cell of the
bundled report fails here, and the failure lists the moved cells.  A change
that means to move cells rewrites the references and names each moved cell
in CHANGES.md.
"""

from pathlib import Path

from stosub.cli import main

DATA = Path(__file__).parent / "data"


def _changed_cells(got: str, want: str) -> list[str]:
    got_rows, want_rows = got.splitlines(), want.splitlines()
    header = want_rows[0].split("\t")
    changed = [f"{len(got_rows)} lines, want {len(want_rows)}"] * (
        len(got_rows) != len(want_rows)
    )
    for got_row, want_row in zip(got_rows[1:], want_rows[1:]):
        got_cells, want_cells = got_row.split("\t"), want_row.split("\t")
        changed += [
            f"{want_cells[0]}.{column}: {w!r} -> {g!r}"
            for column, g, w in zip(header, got_cells, want_cells)
            if g != w
        ]
    return changed


def test_bundled_report_is_byte_identical_to_the_reference(tmp_path):
    assert main(["experiment", "--bundled", "--out-dir", str(tmp_path)]) == 0
    tsv = (tmp_path / "report.tsv").read_text()
    want = (DATA / "bundled_report.tsv").read_text()
    assert _changed_cells(tsv, want) == []
    for name in ("report.tsv", "report.json"):
        assert (tmp_path / name).read_bytes() == (DATA / f"bundled_{name}").read_bytes()
