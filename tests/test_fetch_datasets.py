"""scripts/fetch_datasets.py on canned UCI-shaped downloads."""

import hashlib
import importlib.util
import io
import zipfile
from pathlib import Path

import pytest

from sapt.data import load_csv, registry_entry

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fetch_datasets.py"
UCI = "https://archive.ics.uci.edu/ml/machine-learning-databases"
BANK_HEADER = ("age;job;marital;education;default;housing;loan;contact;"
               "month;day_of_week;duration;campaign;pdays;previous;poutcome;"
               "emp.var.rate;cons.price.idx;cons.conf.idx;euribor3m;"
               "nr.employed;y")
BANK_ROWS = [
    '56;"housemaid";"married";"basic.4y";"no";"no";"no";"telephone";"may";'
    '"mon";261;1;999;0;"nonexistent";1.1;93.994;-36.4;4.857;5191;"no"',
    '37;"services";"married";"high.school";"no";"yes";"no";"telephone";'
    '"may";"mon";226;1;999;0;"nonexistent";1.1;93.994;-36.4;4.857;5191;"no"',
    '41;"blue-collar";"single";"unknown";"unknown";"no";"no";"cellular";'
    '"nov";"wed";1575;2;999;1;"failure";-0.1;93.2;-42;4.12;5195.8;"yes"',
]
# sha256 of each converted file. Users' checksums.txt records hold these
# digests (trust on first use), so a refactor must keep the bytes.
PINNED = {
    "ionosphere":
        "453d41ae9285a95acdd1e60701f583b1f5c79fb42b8b2652687c1c1ee6359606",
    "pendigit":
        "b635fda465eaa7981005083eaa8d4725e8e58763b816dfbeadbff8a15a6044a1",
    "chess":
        "eb2f5e45ce18f1f53a7f66a2f55ac9531a57a746d7b067a24f0efadbc730a427",
    "bank":
        "b69d59b5fb61382acc41250be4ed642473f2dbab5df606d2f8aa9954ddc8ba08",
}


def ionosphere(label_of=lambda r: "gb"[r % 2]):
    rows = []
    for r in range(6):
        values = [str(r % 2), "0"] + [
            f"{((r * 31 + c * 17) % 200 - 100) / 97:.5f}" for c in range(32)]
        rows.append(",".join(values + [label_of(r)]))
    return "\n".join(rows) + "\n"


def pendigits(first_label):
    return "".join(
        ",".join(f"{(r * 13 + c * 29) % 101:3d}" for c in range(16))
        + f",{(first_label + r) % 10}\n" for r in range(5))


def bank_zip():
    header = '"' + BANK_HEADER.replace(";", '";"') + '"'
    csv = "".join(line + "\n" for line in [header] + BANK_ROWS)
    blob = io.BytesIO()
    with zipfile.ZipFile(blob, "w") as archive:
        archive.writestr("bank-additional/bank-additional-full.csv", csv)
    return blob.getvalue()


DOWNLOADS = {
    f"{UCI}/ionosphere/ionosphere.data": ionosphere().encode(),
    f"{UCI}/pendigits/pendigits.tra": pendigits(0).encode(),
    f"{UCI}/pendigits/pendigits.tes": pendigits(7).encode(),
    f"{UCI}/chess/king-rook-vs-king/krkopt.data":
        b"a,1,b,3,c,2,draw\na,1,c,1,c,2,zero\nd,4,h,8,e,2,sixteen\n"
        b"b,2,a,5,f,7,eleven\n",
    f"{UCI}/00222/bank-additional.zip": bank_zip(),
}


@pytest.fixture
def script(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("fetch_datasets", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    served = dict(DOWNLOADS)
    monkeypatch.setattr(module, "fetch", lambda url: served[url])
    monkeypatch.setenv("SAPT_DATA_DIR", str(tmp_path))
    module.served = served
    return module


def test_writes_loadable_files_with_pinned_checksums(script, tmp_path):
    assert script.main([]) == 0
    for name, digest in PINNED.items():
        entry = registry_entry(name)
        path = tmp_path / entry.data_file
        dataset = load_csv(path, entry.attribute_count, entry.class_count)
        assert dataset.sample_count > 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    recorded = (tmp_path / "checksums.txt").read_text()
    assert recorded == "".join(f"{name} {PINNED[name]}\n"
                               for name in sorted(PINNED))


def test_second_run_verifies_checksums(script, capsys):
    assert script.main(["ionosphere", "chess"]) == 0
    capsys.readouterr()
    assert script.main(["ionosphere", "chess"]) == 0
    assert capsys.readouterr().out.count("checksum verified") == 2


def test_changed_download_is_a_checksum_mismatch(script):
    assert script.main(["ionosphere"]) == 0
    script.served[f"{UCI}/ionosphere/ionosphere.data"] = ionosphere(
        lambda r: "g").encode()
    with pytest.raises(SystemExit, match="ionosphere: checksum mismatch"):
        script.main(["ionosphere"])
