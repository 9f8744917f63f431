#!/usr/bin/env python3
"""Download and convert the larger benchmark datasets.

The bundled datasets (iris, cancer) ship with the package; this script
fetches the rest from the UCI archive into ./datasets (or the directory
named by SAPT_DATA_DIR), converting each to the label-last numeric CSV
schema the loader expects. Each dataset's attribute and class counts
and its file name come from the package registry (sapt.data.REGISTRY),
whose unbundled entries are the keys of SOURCES below; the converted
table is checked against them and written with sapt.data.save_csv to a
temporary file, which replaces the data file only once its checksum
passes. The script imports sapt, so it needs numpy.

Checksums are trust-on-first-use: the first successful download records
its SHA-256 in <data dir>/checksums.txt and later runs verify against
that record. Distribute the checksums file alongside the data if you
need stronger provenance.

Usage:
    python scripts/fetch_datasets.py [ionosphere pendigit chess bank]
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import sys
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sapt.data import make_dataset, registry_entry, save_csv  # noqa: E402
from sapt.exceptions import ContractError, DataFormatError  # noqa: E402

UCI = "https://archive.ics.uci.edu/ml/machine-learning-databases"

# krkopt depth-of-win labels, fixed order: draw first, then by depth
CHESS_CLASSES = ["draw", "zero", "one", "two", "three", "four", "five",
                 "six", "seven", "eight", "nine", "ten", "eleven", "twelve",
                 "thirteen", "fourteen", "fifteen", "sixteen"]


def data_dir() -> Path:
    root = os.environ.get("SAPT_DATA_DIR", "datasets")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def fetch(url: str) -> bytes:
    print(f"  downloading {url}")
    with urllib.request.urlopen(url, timeout=120) as response:
        return response.read()


def convert_ionosphere(raw: list) -> list:
    """34 numeric attributes, label g/b -> 1/0."""
    rows = []
    for row in raw:
        label = {"b": 0, "g": 1}[row[-1].strip()]
        rows.append([float(x) for x in row[:-1]] + [label])
    return rows


def convert_pendigit(raw: list) -> list:
    """16 pen-stroke coordinates, digit label already 0..9."""
    rows = []
    for row in raw:
        values = [float(x) for x in row]
        rows.append(values[:-1] + [int(values[-1])])
    return rows


def convert_chess(raw: list) -> list:
    """Files a..h -> 0..7, ranks stay 1..8, depth label -> fixed index."""
    files = {c: i for i, c in enumerate("abcdefgh")}
    classes = {name: i for i, name in enumerate(CHESS_CLASSES)}
    rows = []
    for row in raw:
        encoded = []
        for cell in row[:-1]:
            cell = cell.strip()
            encoded.append(files[cell] if cell in files else float(cell))
        rows.append(encoded + [classes[row[-1].strip()]])
    return rows


def convert_bank(raw: list) -> list:
    """Ordinal-encode each categorical column by sorted category order."""
    header, body = raw[0], raw[1:]
    columns = list(zip(*body))
    encoded_columns = []
    for values in columns:
        try:
            encoded_columns.append([float(v) for v in values])
        except ValueError:
            order = {v: i for i, v in enumerate(sorted(set(values)))}
            encoded_columns.append([order[v] for v in values])
    del header
    rows = list(map(list, zip(*encoded_columns)))
    return [row[:-1] + [int(row[-1])] for row in rows]


def parse_csv(blob: bytes, delimiter: str = ",") -> list:
    text = blob.decode("utf-8", errors="replace")
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    return [row for row in reader if row and any(c.strip() for c in row)]


# registry name -> (urls, delimiter, converter)
SOURCES = {
    "ionosphere": ([f"{UCI}/ionosphere/ionosphere.data"], ",",
                   convert_ionosphere),
    "pendigit": ([f"{UCI}/pendigits/pendigits.tra",
                  f"{UCI}/pendigits/pendigits.tes"], ",", convert_pendigit),
    "chess": ([f"{UCI}/chess/king-rook-vs-king/krkopt.data"], ",",
              convert_chess),
    "bank": ([f"{UCI}/00222/bank-additional.zip"], ";", convert_bank),
}


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_recorded(checksums: Path, name: str, digest: str) -> None:
    records = {}
    if checksums.exists():
        for line in checksums.read_text().splitlines():
            if line.strip():
                key, value = line.split()
                records[key] = value
    if name in records:
        if records[name] != digest:
            raise SystemExit(
                f"{name}: checksum mismatch (recorded {records[name]}, "
                f"got {digest}); delete the record to re-trust"
            )
        print(f"  checksum verified: {digest}")
        return
    records[name] = digest
    with open(checksums, "w") as fh:
        for key in sorted(records):
            fh.write(f"{key} {records[key]}\n")
    print(f"  checksum recorded (trust-on-first-use): {digest}")


def fetch_bank_zip(url: str) -> bytes:
    import zipfile
    blob = fetch(url)
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        return archive.read("bank-additional/bank-additional-full.csv")


def build(name: str, out_root: Path) -> None:
    urls, delimiter, converter = SOURCES[name]
    entry = registry_entry(name)
    print(f"{name}:")
    raw = []
    for url in urls:
        blob = fetch_bank_zip(url) if url.endswith(".zip") else fetch(url)
        raw.extend(parse_csv(blob, delimiter))
    width = entry.attribute_count + 1
    for row_no, row in enumerate(raw, start=1):
        if len(row) != width:
            raise SystemExit(f"{name} row {row_no}: {len(row)} columns, "
                             f"expected {width}")
    rows = converter(raw)
    try:
        dataset = make_dataset([row[:-1] for row in rows],
                               [row[-1] for row in rows], entry.class_count,
                               name=name)
    except (DataFormatError, ContractError) as exc:
        raise SystemExit(f"{name}: {exc}") from None
    out = out_root / entry.data_file
    # the trusted file is replaced only once the new bytes pass the check
    staged = out.with_name(out.name + ".part")
    try:
        save_csv(dataset, staged)
        check_recorded(out_root / "checksums.txt", name, sha256_of(staged))
        os.replace(staged, out)
    finally:
        staged.unlink(missing_ok=True)
    print(f"  wrote {out} ({dataset.sample_count} rows)")


def main(argv) -> int:
    names = argv or ["ionosphere", "pendigit", "chess", "bank"]
    unknown = [n for n in names if n not in SOURCES]
    if unknown:
        print(f"unknown dataset(s): {', '.join(unknown)}; "
              f"choose from {', '.join(sorted(SOURCES))}", file=sys.stderr)
        return 1
    out_root = data_dir()
    for name in names:
        build(name, out_root)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
