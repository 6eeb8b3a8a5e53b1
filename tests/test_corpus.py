import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_oracle import oracle_decode_escapes, oracle_parse_record, oracle_tokenize, oracle_vocab
from knnmem import corpus
from knnmem.corpus import (
    CorpusError,
    Document,
    LabelSpace,
    LowResource,
    SplitSpec,
    Unbalanced,
    build_vocab,
    load_dataset,
    split_dev,
    subsample,
    tokenize,
)
from knnmem.datagen import write_zhang_csv

LABELS4 = LabelSpace.of_size(4)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def make_doc(i, label, tokens):
    return Document(id=i, label=label, title=" ".join(tokens), body="", tokens=tuple(tokens))


class TestLoadDataset:
    def test_one_based_labels_and_text_join(self, tmp_path):
        docs = load_dataset(write(tmp_path, '"3","T","D"\n'), LABELS4)
        assert docs[0].label == 2
        assert docs[0].text == "T D"

    def test_escape_decoding(self, tmp_path):
        docs = load_dataset(write(tmp_path, '"1","A \\"q\\"",""\n'), LABELS4)
        assert '"' in docs[0].title
        assert docs[0].title == 'A "q"'

    def test_newline_escape(self, tmp_path):
        docs = load_dataset(write(tmp_path, '"1","a\\nb","c"\n'), LABELS4)
        assert "\n" in docs[0].title

    def test_label_out_of_range_names_line(self, tmp_path):
        p = write(tmp_path, '"1","ok","x"\n"5","bad","y"\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_dataset(p, LABELS4)

    def test_two_field_records(self, tmp_path):
        docs = load_dataset(write(tmp_path, '"2","just a title"\n'), LABELS4)
        assert docs[0].label == 1
        assert docs[0].body == ""

    def test_wrong_field_count(self, tmp_path):
        p = write(tmp_path, '"1","a","b","c"\n')
        with pytest.raises(CorpusError, match="line 1"):
            load_dataset(p, LABELS4)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match=": empty dataset"):
            load_dataset(write(tmp_path, ""), LABELS4)

    def test_empty_token_document_rejected(self, tmp_path):
        p = write(tmp_path, '"1","...","---"\n')
        with pytest.raises(CorpusError, match="line 1"):
            load_dataset(p, LABELS4)

    def test_ids_sequential(self, tmp_path):
        docs = load_dataset(write(tmp_path, '"1","a","b"\n"2","c","d"\n'), LABELS4)
        assert [d.id for d in docs] == [0, 1]


class TestTokenize:
    def test_basic(self):
        assert tokenize("IBM and Kodak.") == ["ibm", "and", "kodak"]

    def test_whitespace_only(self):
        assert tokenize("  ") == []

    def test_edge_punctuation_stripped_internal_kept(self):
        assert tokenize("camera-phones,") == ["camera-phones"]

    def test_fully_punctuation_token_dropped(self):
        assert tokenize("a ... b") == ["a", "b"]

    def test_digits_kept(self):
        assert tokenize("q3 2004!") == ["q3", "2004"]


class TestVocabulary:
    def corpus(self):
        return [make_doc(0, 0, ["a", "b"]), make_doc(1, 1, ["a"])]

    def test_min_count_one(self):
        vocab = build_vocab(self.corpus(), min_count=1)
        assert set(vocab.word_to_id) == {"a", "b"}
        assert 0 not in vocab.word_to_id.values()

    def test_min_count_two(self):
        vocab = build_vocab(self.corpus(), min_count=2)
        assert set(vocab.word_to_id) == {"a"}
        assert vocab.word_id("b") == 0

    def test_oov_lookup(self):
        vocab = build_vocab(self.corpus())
        assert vocab.word_id("zzz") == 0
        assert vocab.char_id("!") == 0

    def test_chars_cover_training_tokens(self):
        vocab = build_vocab([make_doc(0, 0, ["xy", "z"])])
        assert set(vocab.char_to_id) == {"x", "y", "z"}

    def test_vocab_only_from_train(self):
        vocab = build_vocab(self.corpus())
        assert "unseen" not in vocab.word_to_id

    def test_hash_changes_with_content(self):
        v1 = build_vocab(self.corpus())
        v2 = build_vocab([make_doc(0, 0, ["c"])])
        assert v1.word_hash() != v2.word_hash()


class TestSplitDev:
    def corpus(self, per_class=1000, c=4):
        docs = []
        for label in range(c):
            for _ in range(per_class):
                docs.append(make_doc(len(docs), label, [f"w{len(docs)}"]))
        return docs

    def test_counts(self):
        train, dev = split_dev(self.corpus(), SplitSpec(dev_per_class=500, seed=7))
        assert len(dev) == 2000 and len(train) == 2000
        for label in range(4):
            assert sum(1 for d in dev if d.label == label) == 500

    def test_deterministic(self):
        spec = SplitSpec(dev_per_class=10, seed=3)
        corpus = self.corpus(per_class=50)
        a = split_dev(corpus, spec)
        b = split_dev(corpus, spec)
        assert [d.id for d in a[0]] == [d.id for d in b[0]]
        assert [d.id for d in a[1]] == [d.id for d in b[1]]

    def test_disjoint_union(self):
        corpus = self.corpus(per_class=20)
        train, dev = split_dev(corpus, SplitSpec(dev_per_class=5, seed=0))
        train_ids = {d.id for d in train}
        dev_ids = {d.id for d in dev}
        assert not train_ids & dev_ids
        assert train_ids | dev_ids == {d.id for d in corpus}

    def test_too_few_instances(self):
        with pytest.raises(CorpusError, match="class 0"):
            split_dev(self.corpus(per_class=1000), SplitSpec(dev_per_class=1001, seed=0))

    def test_negative_count_is_refused(self):
        # A negative slice would move all but that many documents per class into dev.
        with pytest.raises(CorpusError, match="dev_per_class must be >= 0, got -3"):
            split_dev(self.corpus(per_class=9), SplitSpec(dev_per_class=-3, seed=0))

    def test_negative_seed_is_refused(self):
        # numpy's own refusal is an untyped ValueError that names no setting.
        with pytest.raises(CorpusError, match="split seed must be >= 0, got -1"):
            split_dev(self.corpus(per_class=9), SplitSpec(dev_per_class=1, seed=-1))


class TestSubsample:
    def corpus(self, sizes=(30, 40, 50, 60)):
        docs = []
        for label, n in enumerate(sizes):
            for _ in range(n):
                docs.append(make_doc(len(docs), label, ["tok"]))
        return docs

    def test_low_resource_floor(self):
        out = subsample(self.corpus(), LowResource(0.10), seed=0)
        counts = {label: sum(1 for d in out if d.label == label) for label in range(4)}
        assert counts == {0: 3, 1: 4, 2: 5, 3: 6}

    def test_low_resource_identity(self):
        corpus = self.corpus()
        out = subsample(corpus, LowResource(1.0), seed=0)
        assert [d.id for d in out] == [d.id for d in corpus]

    def test_unbalanced_exact(self):
        out = subsample(self.corpus(), Unbalanced((2, 4, 8, 16)), seed=1)
        counts = {label: sum(1 for d in out if d.label == label) for label in range(4)}
        assert counts == {0: 2, 1: 4, 2: 8, 3: 16}

    def test_infeasible(self):
        with pytest.raises(CorpusError):
            subsample(self.corpus(), Unbalanced((100, 1, 1, 1)), seed=0)

    def test_negative_count_is_refused(self):
        # A negative slice would keep all but that many documents of the class.
        with pytest.raises(CorpusError, match="class 1 count -2 is negative"):
            subsample(self.corpus(), Unbalanced((2, -2, 8, 16)), seed=0)

    @pytest.mark.parametrize("mode", [LowResource(0.5), Unbalanced((2, 4, 8, 16))],
                             ids=["low_resource", "unbalanced"])
    def test_negative_seed_is_refused(self, mode):
        with pytest.raises(CorpusError, match="subsample seed must be >= 0, got -1"):
            subsample(self.corpus(), mode, -1)

    def test_deterministic(self):
        corpus = self.corpus()
        a = subsample(corpus, LowResource(0.5), seed=9)
        b = subsample(corpus, LowResource(0.5), seed=9)
        assert [d.id for d in a] == [d.id for d in b]

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=5),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_low_resource_counts_property(self, sizes, fraction, seed):
        corpus = self.corpus(sizes=tuple(sizes))
        out = subsample(corpus, LowResource(fraction), seed=seed)
        for label, n in enumerate(sizes):
            got = sum(1 for d in out if d.label == label)
            assert got == int(fraction * n)


# Quotes, backslashes, commas and ``n`` make every record shape and escape.
# The rest are characters where ``isalpha() or isdigit()`` differs from
# ``isalnum()`` and ``\w`` (``½``, ``Ⅻ``, ``_``), one whose lowercase is
# longer (``İ``), whitespace that ``str.split`` breaks on (tab, CR, LF,
# U+001C, U+0085), and non-ASCII letters and punctuation.
ALPHABET = '"\\,n aZ1._-½Ⅻİ四é—«\t\r\n\x1c\x85'
TEXTS = st.text(alphabet=ALPHABET, max_size=30)
# Lines built from fields, so that most reach the later checks of a record.
RECORDS = st.one_of(
    TEXTS,
    st.lists(TEXTS, min_size=1, max_size=4).map(lambda fields: '"' + '","'.join(fields) + '"'),
    st.lists(TEXTS, min_size=1, max_size=4).map(lambda fields: '"' + '","'.join(fields)),
)


def outcome(fn, *args):
    """What ``fn`` returns, or the message of the ``CorpusError`` it raises."""
    try:
        return fn(*args)
    except CorpusError as exc:
        return ("CorpusError", str(exc))


class TestAgainstCharacterLoopOracle:
    """The ingestion functions give exactly what the character loops of
    ``tests/csv_oracle.py`` give, errors included."""

    @given(RECORDS, st.integers(min_value=1, max_value=9))
    @settings(max_examples=400, deadline=None)
    def test_parse_record(self, line, lineno):
        assert outcome(corpus._parse_record, line, lineno) == outcome(oracle_parse_record, line, lineno)

    @given(TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_decode_escapes(self, text):
        assert corpus._decode_escapes(text) == oracle_decode_escapes(text)

    @given(st.one_of(TEXTS, st.text(alphabet=st.characters(max_codepoint=127), max_size=30)))
    @settings(max_examples=400, deadline=None)
    def test_tokenize(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    @given(st.lists(TEXTS, min_size=1, max_size=6), st.integers(min_value=1, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_build_vocab(self, texts, min_count):
        docs = [make_doc(i, 0, tokenize(t) + ["a"]) for i, t in enumerate(texts)]
        vocab = build_vocab(docs, min_count=min_count)
        word_to_id, char_to_id = oracle_vocab(docs, min_count=min_count)
        assert list(vocab.word_to_id.items()) == list(word_to_id.items())
        assert list(vocab.char_to_id.items()) == list(char_to_id.items())

    def test_benchmark_shaped_corpus(self, tmp_path):
        docs = [Document(i, i % 4, f'Title {i}: "quoted", (x) U.S.', f"Body\nline {i} -- e-mail, ½ Ⅻ_x", ())
                for i in range(12)]
        p = tmp_path / "data.csv"
        write_zhang_csv(p, docs)
        loaded = load_dataset(p, LABELS4)
        assert [(d.title, d.body, d.tokens) for d in loaded] == \
            [(d.title, d.body, tuple(oracle_tokenize(f"{d.title} {d.body}"))) for d in docs]


class TestWriteZhangCsv:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=3), TEXTS, TEXTS), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_or_refusal(self, tmp_path_factory, rows):
        docs = [Document(i, label, f"w{i} {title}", body, ()) for i, (label, title, body) in enumerate(rows)]
        p = tmp_path_factory.getbasetemp() / "round_trip.csv"
        p.unlink(missing_ok=True)
        try:
            write_zhang_csv(p, docs)
        except CorpusError:
            fields = [t for d in docs for t in (d.title, d.body)]
            assert any("\r" in t or "\\n" in t or '\\"' in t or t.endswith("\\") for t in fields)
            assert not p.exists()
            return
        loaded = load_dataset(p, LABELS4)
        assert [(d.label, d.title, d.body) for d in loaded] == [(d.label, d.title, d.body) for d in docs]

    @pytest.mark.parametrize("body", ['q\\"x', "ends in \\", "a\\nb", "c:\\new", "line\rbreak"])
    def test_unwritable_text_is_refused(self, tmp_path, body):
        docs = [make_doc(0, 0, ["fine"]), Document(7, 1, "title", body, ("title",))]
        p = tmp_path / "data.csv"
        with pytest.raises(CorpusError, match="^doc 7: body holds .* which the quoted-CSV format cannot carry$"):
            write_zhang_csv(p, docs)
        assert not p.exists()

    def test_other_backslashes_round_trip(self, tmp_path):
        docs = [Document(0, 0, "a\\b c:\\\\x", "back\\ slash\\\n", ())]
        p = tmp_path / "data.csv"
        write_zhang_csv(p, docs)
        loaded = load_dataset(p, LABELS4)
        assert (loaded[0].title, loaded[0].body) == (docs[0].title, docs[0].body)


def test_load_dataset_tokenizes_through_the_module(tmp_path, monkeypatch):
    # The benchmark tracer times `corpus.tokenize` per document by wrapping it.
    calls = []

    def counted(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(corpus, "tokenize", counted)
    load_dataset(write(tmp_path, '"1","a","b"\n"2","c",""\n"3","d"\n'), LABELS4)
    assert calls == ["a b", "c ", "d "]


def test_label_space_validation():
    with pytest.raises(CorpusError):
        LabelSpace(("only",))
    with pytest.raises(CorpusError):
        LabelSpace(("a", "a"))
    assert LabelSpace.of_size(4).c == 4
