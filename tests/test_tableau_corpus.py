"""Tableau corpus: seeded random Clifford states pinned byte for byte.

Each case starts from |+>^n (n = 1..16), applies a seeded random circuit
over H/S/SDG/X/Y/Z/CZ/CNOT/SWAP and records the canonical ``dump()``,
the ``to_graph`` graph and frame, and three ``measure_pauli`` calls with
an ``RngStream``: a random Pauli, the same Pauli again on the
post-measurement state, and a second random Pauli.  Canonical forms are
unique, so any byte that moves here is a change in the engine's answers,
signs included.

Regenerate the corpus only for an intended output change:

    PYTHONPATH=src python tests/test_tableau_corpus.py
"""

from __future__ import annotations

from pathlib import Path

from clusterforge.fusion import RngStream
from clusterforge.graphstate import GraphState
from clusterforge.tableau import PauliString, from_graph, measure_pauli, to_graph

CORPUS = Path(__file__).resolve().parent / "golden" / "tableau-corpus.txt"

CASES = 240
SEED = 2004
GATES = ("H", "S", "SDG", "X", "Y", "Z", "CZ", "CNOT", "SWAP")


def _random_pauli(rng: RngStream, n: int) -> PauliString:
    while True:
        bits = [rng.next_u64() % 4 for _ in range(n)]
        if any(bits):
            sign = -1 if rng.next_bool() else 1
            return PauliString(
                tuple(b & 1 for b in bits), tuple(b >> 1 for b in bits), sign
            )


def _measure_lines(label: str, t, p: PauliString, rng: RngStream) -> tuple[list[str], object]:
    post, outcome, deterministic = measure_pauli(t, p, rng=rng)
    lines = [f"{label} {p.text}: outcome={outcome:+d} deterministic={deterministic}"]
    lines += ["post: unchanged"] if post is t else ["post:", post.dump().rstrip("\n")]
    return lines, post


def case_text(index: int) -> str:
    rng = RngStream(SEED).substream(index)
    n = 1 + index % 16
    gates = GATES if n > 1 else GATES[:6]
    t = from_graph(GraphState(range(n)))
    circuit = []
    for _ in range(2 * n + 4):
        gate = gates[rng.next_u64() % len(gates)]
        a = rng.next_u64() % n
        if gate in ("CZ", "CNOT", "SWAP"):
            b = (a + 1 + rng.next_u64() % (n - 1)) % n
            t = t.apply(gate, a, b)
            circuit.append(f"{gate}({a},{b})")
        else:
            t = t.apply(gate, a)
            circuit.append(f"{gate}({a})")
    g, frame = to_graph(t)
    lines = [f"case {index} n={n}", "circuit: " + " ".join(circuit)]
    lines += ["dump:", t.dump().rstrip("\n")]
    lines.append("edges:" + "".join(f" {u}-{v}" for u, v in sorted(g.edges)))
    lines.append("frame:" + "".join(f" {q}:{frame[q]}" for q in sorted(frame)))
    p = _random_pauli(rng, n)
    first, post = _measure_lines("measure", t, p, rng)
    again, _ = _measure_lines("again", post, p, rng)
    other, _ = _measure_lines("other", post, _random_pauli(rng, n), rng)
    return "\n".join(lines + first + again + other) + "\n"


def corpus_text() -> str:
    return "\n".join(case_text(i) for i in range(CASES))


def test_tableau_corpus_is_unchanged():
    assert corpus_text().encode() == CORPUS.read_bytes()


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_bytes(corpus_text().encode())
    print(f"wrote {CASES} tableau cases to {CORPUS}")
