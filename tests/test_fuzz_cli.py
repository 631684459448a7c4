"""Property test of the command line: whatever the arguments and however
small, lopsided or malformed the state documents, ``cli.main`` returns or
exits with 0, 1 or 2 and lets no exception escape."""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from qcatalyst.cli import main  # noqa: E402

COUNTS = st.one_of(
    st.integers(-1, 3), st.integers(4, 64), st.integers(65, 10**8)
).map(str)
ODD_NUMBERS = st.sampled_from(
    [math.nan, math.inf, -math.inf, True, False, "0.5", None, 10**400]
)


@st.composite
def state_documents(draw):
    """Two state JSON documents on one layout of total dimension at most 50.
    Each holds a basis ket, a uniform ket or raw numbers, as an ensemble or a
    dense matrix, sometimes with one entry replaced by a non-finite, boolean
    or string value."""
    dims = draw(
        st.lists(
            st.one_of(st.just(1), st.integers(1, 12)), min_size=1, max_size=3
        ).filter(lambda ds: math.prod(ds) <= 50)
    )
    parties = draw(
        st.one_of(
            st.just(["Alice", "Bob", "Referee"][: len(dims)]),
            st.lists(
                st.sampled_from(["Alice", "Bob", "Referee"]),
                min_size=len(dims),
                max_size=len(dims),
            ),
        )
    )
    labels = ["A", "B", "R"][: len(dims)]
    layout = [
        {"label": lab, "dim": d, "party": p} for lab, d, p in zip(labels, dims, parties)
    ]
    total = math.prod(dims)
    docs = []
    for _ in range(2):
        kind = draw(st.sampled_from(["basis", "uniform", "raw"]))
        if kind == "basis":
            hot = draw(st.integers(0, total - 1))
            amps = [[1.0 if i == hot else 0.0, 0.0] for i in range(total)]
        elif kind == "uniform":
            amps = [[total**-0.5, 0.0]] * total
        else:
            amps = draw(
                st.lists(
                    st.lists(st.floats(-1, 1), min_size=2, max_size=2),
                    min_size=total,
                    max_size=total,
                )
            )
        doc = {"layout": layout}
        if draw(st.booleans()):
            vector = [list(a) for a in amps]
            factor = {"labels": labels, "vector": vector}
            doc["ensemble"] = [{"p": 1.0, "factors": [factor]}]
            entries = vector
        else:
            z = [complex(*a) for a in amps]
            products = [x * y.conjugate() for x in z for y in z]
            entries = [[w.real, w.imag] for w in products]
            doc["dense"] = entries
        if draw(st.booleans()):
            entry = draw(st.integers(0, len(entries) - 1))
            entries[entry] = [draw(ODD_NUMBERS), entries[entry][1]]
        docs.append(doc)
    return docs


ARGV = st.one_of(
    st.tuples(st.just("theorem"), st.just("--n"), COUNTS),
    st.tuples(
        st.just("lemma1"),
        st.just("--n"),
        COUNTS,
        st.just("--mode"),
        st.sampled_from(["auto", "explicit-flags", "support-measurement"]),
    ),
    st.tuples(st.just("lemma1"), st.just("--n"), COUNTS).map(
        lambda argv: argv + ("--rho", "{doc0}", "--sigma", "{doc1}")
    ),
    st.tuples(st.just("obs1"), st.just("--n"), COUNTS),
    st.tuples(st.just("obs1"), st.just("--product-rho"), st.just("--n"), COUNTS),
    st.tuples(st.just("obs3"), st.just("--seeds"), st.integers(-1, 3).map(str)),
    st.tuples(st.just("schmidt"), st.just("--input"), st.just("{doc0}")),
    st.tuples(
        st.just("schmidt"),
        st.just("--input"),
        st.just("{doc0}"),
        st.just("--cut"),
        st.sampled_from(['{"A": "left"}', '{"R": "right"}', "[1]", '"x"', "{"]),
    ),
)


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    argv=ARGV,
    corrupt=st.booleans(),
    docs=state_documents(),
)
def test_cli_ends_in_a_documented_exit_code(argv, corrupt, docs):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            path = os.path.join(tmp, f"doc{i}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            paths.append(path)
        args = [{"{doc0}": paths[0], "{doc1}": paths[1]}.get(a, a) for a in argv]
        if corrupt:
            args += ["--corrupt-epsilon", "0.3"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
