"""The artifact formats: every CSV and JSON file a run writes goes through
`records.write_csv` or `records.write_json`, so their bytes are pinned here."""

from fednaslab.records import json_text, write_csv, write_json


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "trace.csv"
    write_csv(path, ["iter", "note", "acc"],
              ([i, note, f"{acc:.3f}"] for i, note, acc in
               [(0, "a,b", 0.5), (1, "", 1.0)]))
    assert path.read_bytes() == b'iter,note,acc\n0,"a,b",0.500\n1,,1.000\n'


def test_write_json_bytes(tmp_path):
    path = tmp_path / "summary.json"
    doc = {"std_acc": 0.25, "eps_order": ["inf", "1"],
           "inputs": {"loss0": 2.0, "d": None}}
    write_json(path, doc)
    assert path.read_bytes() == (
        b'{\n'
        b'  "eps_order": [\n'
        b'    "inf",\n'
        b'    "1"\n'
        b'  ],\n'
        b'  "inputs": {\n'
        b'    "d": null,\n'
        b'    "loss0": 2.0\n'
        b'  },\n'
        b'  "std_acc": 0.25\n'
        b'}\n')
    assert path.read_text() == json_text(doc)
