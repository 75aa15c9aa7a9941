"""Golden bytes of the three writers over the acceptance corpus.

`codec_golden.json` holds, for every graph of the `test_acceptance.py`
corpus, a truncated SHA-256 of what `encode_graph6`, `write_matrix_market`
and `write_edge_list` wrote for it when the digests were recorded. Any change
to a single output byte fails here. Regenerate the file with
`PYTHONPATH=src python tests/test_codec_golden.py` only when an output format
is meant to change.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from graphenergy import (
    encode_graph6,
    generalized_splitting,
    random_graph,
    read_graph_text,
    shadow_splitting,
    write_edge_list,
    write_graph_text,
    write_matrix_market,
)
from graphenergy.cli import main

from conftest import instantiate_family
from neighborhood_reference import construct_by_neighborhood
from test_acceptance import PARAM_RANGE, _bases, _family_points, _random_instances

GOLDEN = Path(__file__).with_name("codec_golden.json")


def acceptance_corpus():
    """(label, graph) for every graph that acceptance criterion 8 checks."""
    bases = _bases()
    corpus = list(bases.items())
    for name, g in bases.items():
        for p, q in itertools.product(PARAM_RANGE, repeat=2):
            corpus.append((f"split:{p},{q}({name})", generalized_splitting(g, p, q)))
    for name, g in bases.items():
        for c, k in itertools.product(PARAM_RANGE, repeat=2):
            corpus.append((f"shadow-split:{c},{k}({name})", shadow_splitting(g, c, k)))
    for index, spec in enumerate(_family_points()):
        for member, g in enumerate(instantiate_family(spec)):
            corpus.append((f"family{index}:{spec.corollary_id}[{member}]", g))
    for index, (g, params) in enumerate(_random_instances()):
        corpus.append((f"random{index}", construct_by_neighborhood(g, params)))
    return corpus


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def digests(g) -> list[str]:
    return [
        _digest(encode_graph6(g)),
        _digest(write_matrix_market(g).encode("ascii")),
        _digest(write_edge_list(g).encode("ascii")),
    ]


def test_writer_bytes_match_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    corpus = acceptance_corpus()
    assert len(corpus) == len(golden) > 250
    for label, g in corpus:
        assert digests(g) == golden[label], label


@pytest.mark.parametrize("n", [1, 2, 62, 63, 70])
def test_convert_cycle_reproduces_the_input_bytes(tmp_path, capsys, n):
    g = random_graph(n, 0.5, seed=n)
    g6 = tmp_path / "g.g6"
    g6.write_text(write_graph_text(g, "graph6"), encoding="ascii")
    chain = [g6, tmp_path / "g.mtx", tmp_path / "g.edges", tmp_path / "g2.g6"]
    for source, target in zip(chain, chain[1:]):
        assert main(["convert", str(source), "-o", str(target)]) == 0
    assert chain[-1].read_bytes() == g6.read_bytes()
    assert read_graph_text(chain[2].read_text(), "edges") == g
    capsys.readouterr()


if __name__ == "__main__":
    record = {label: digests(g) for label, g in acceptance_corpus()}
    lines = (f"{json.dumps(label)}: {json.dumps(d)}" for label, d in record.items())
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(record)} digests to {GOLDEN}")
