"""Property-based tests: encode/parse round trips for all three forms."""

from hypothesis import given, settings, strategies as st

from repro.sexp import (
    Atom,
    SList,
    canonical_extent,
    parse,
    parse_canonical,
    to_advanced,
    to_canonical,
    to_transport,
    from_transport,
)

atoms = st.binary(max_size=32).map(Atom)


def sexp_trees():
    return st.recursive(
        atoms,
        lambda children: st.lists(children, max_size=5).map(SList),
        max_leaves=20,
    )


@given(sexp_trees())
@settings(max_examples=200)
def test_canonical_roundtrip(node):
    assert parse_canonical(to_canonical(node)) == node


@given(sexp_trees())
@settings(max_examples=200)
def test_transport_roundtrip(node):
    assert from_transport(to_transport(node)) == node


@given(sexp_trees())
@settings(max_examples=200)
def test_advanced_roundtrip(node):
    assert parse(to_advanced(node)) == node


@given(sexp_trees())
def test_advanced_accepted_where_canonical_is(node):
    # The advanced parser also accepts canonical text (mixed forms).
    assert parse(to_canonical(node)) == node


@given(sexp_trees(), sexp_trees())
def test_canonical_is_injective(a, b):
    # Distinct trees must have distinct canonical encodings (hash safety).
    if a != b:
        assert to_canonical(a) != to_canonical(b)


@given(st.binary(max_size=64))
def test_binary_atoms_roundtrip_all_forms(data):
    atom = Atom(data)
    assert parse_canonical(to_canonical(atom)) == atom
    assert parse(to_advanced(atom)) == atom
    assert from_transport(to_transport(atom)) == atom


@given(sexp_trees(), st.binary(max_size=8))
@settings(max_examples=200)
def test_canonical_extent_finds_the_end_of_hintless_expressions(node, rest):
    data = to_canonical(node)
    assert canonical_extent(data + rest, 0) == len(data)


@given(st.data())
@settings(max_examples=300)
def test_canonical_extent_never_outruns_the_parser(data):
    # Soundness on arbitrary bytes: hinted atoms, mutated encodings and
    # every start offset.  An answer is a promise that the full parser
    # takes exactly that slice; "don't know" (None) is always allowed.
    hinted = st.tuples(st.binary(max_size=6), st.binary(max_size=3)).map(
        lambda pair: Atom(pair[0], hint=pair[1])
    )
    tree = st.recursive(
        atoms | hinted,
        lambda children: st.lists(children, max_size=4).map(SList),
        max_leaves=10,
    )
    blob = bytearray(to_canonical(data.draw(tree)))
    for _ in range(data.draw(st.integers(0, 2))):
        at = data.draw(st.integers(0, len(blob)))
        blob[at:at + data.draw(st.integers(0, 1))] = data.draw(
            st.sampled_from([b"", b"(", b")", b":", b"0", b"7", b"+", b"["])
        )
    blob = bytes(blob)
    for pos in range(len(blob) + 1):
        end = canonical_extent(blob, pos)
        if end is not None:
            assert pos < end <= len(blob)
            parse_canonical(blob[pos:end])  # raises unless it takes it all
