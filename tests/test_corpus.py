"""Cleaning, normalization, tokenization, truecasing, postprocessing."""

import errno
import os
import unicodedata
from pathlib import Path

import pytest

from transference import corpus as C
from transference.corpus import SentencePair
from transference.bpe import BpeModel
from transference.cli import main
from transference.errors import AlignmentError, DataError
from transference.model import Vocab


def pair(src, trg, idx=0):
    return SentencePair(tuple(src.split()), tuple(trg.split()), idx)


class TestCleanCorpus:
    def test_101_token_source_dropped(self):
        long_pair = SentencePair(tuple(f"w{i}" for i in range(101)),
                                 ("ok",) * 40, 0)
        kept, dropped = C.clean_corpus([long_pair], max_ratio=10.0)
        assert kept == []
        assert dropped == {"too_long": 1}

    def test_100_token_side_kept(self):
        ok_pair = SentencePair(tuple(f"w{i}" for i in range(100)),
                               tuple(f"v{i}" for i in range(50)), 0)
        kept, dropped = C.clean_corpus([ok_pair], max_ratio=3.0)
        assert kept == [ok_pair]
        assert dropped == {}

    def test_clean_corpus_passthrough(self):
        pairs = [pair("a b c", "x y", 0), pair("d e", "z w q", 1)]
        kept, dropped = C.clean_corpus(pairs, max_ratio=3.0)
        assert kept == pairs
        assert dropped == {}

    def test_enumerated_violations(self):
        # 10 pairs, exactly 3 violations: one empty side, one over-long
        # side, one ratio violation.
        good = [pair(f"s{i} t{i}", f"u{i} v{i}", i) for i in range(7)]
        bad_empty = SentencePair((), ("x",), 7)
        bad_long = SentencePair(tuple(f"w{i}" for i in range(101)), ("y",) * 90, 8)
        bad_ratio = pair("a", "b c d e", 9)
        pairs = good[:3] + [bad_empty] + good[3:5] + [bad_long] + good[5:] + [bad_ratio]
        kept, dropped = C.clean_corpus(pairs, max_ratio=3.0)
        assert kept == good
        assert dropped == {"empty": 1, "too_long": 1, "ratio": 1}

    def test_duplicates_and_identical(self):
        pairs = [pair("a b", "x y", 0), pair("a b", "x y", 1),
                 pair("c d", "c d", 2)]
        kept, dropped = C.clean_corpus(pairs)
        assert [p.original_index for p in kept] == [0]
        assert dropped == {"duplicate": 1, "identical": 1}

    def test_order_preserved(self):
        pairs = [pair(f"a{i} b{i}", f"x{i} y{i}", i) for i in range(20)]
        kept, _ = C.clean_corpus(pairs)
        assert [p.original_index for p in kept] == list(range(20))

    def test_misaligned_files(self, tmp_path):
        src = tmp_path / "a.src"
        trg = tmp_path / "a.trg"
        src.write_text("one\ntwo\n", encoding="utf-8")
        trg.write_text("jeden\n", encoding="utf-8")
        with pytest.raises(AlignmentError):
            C.load_parallel(str(src), str(trg))


class TestNormalizePunctuation:
    # golden copy of the substitution table; any edit to the table is a
    # deliberate, visible change here too
    GOLDEN_TABLE = (
        ("„", '"'), ("“", '"'), ("”", '"'), ("‟", '"'),
        ("«", '"'), ("»", '"'),
        ("‚", "'"), ("‘", "'"), ("’", "'"), ("‛", "'"),
        ("‹", "'"), ("›", "'"),
        ("‐", "-"), ("‑", "-"), ("‒", "-"), ("–", "-"),
        ("—", "-"), ("−", "-"),
        ("…", "..."),
        (" ", " "), (" ", " "), (" ", " "), ("　", " "),
    )

    def test_table_is_bit_exact(self):
        assert C.PUNCT_TABLE == self.GOLDEN_TABLE

    def test_every_replacement_is_a_fixed_point(self):
        for _, replacement in C.PUNCT_TABLE:
            assert C.normalize_punctuation(replacement) in (replacement,
                                                            replacement.strip())

    def test_ascii_unchanged(self):
        text = 'He said "go" - now... (really)'
        assert C.normalize_punctuation(text) == text

    def test_low9_quote(self):
        assert C.normalize_punctuation("„ahoj") == '"ahoj'

    def test_table_cases(self):
        assert C.normalize_punctuation("a—b") == "a-b"
        assert C.normalize_punctuation("a…") == "a..."
        assert C.normalize_punctuation("a b") == "a b"
        assert C.normalize_punctuation("a  \t b") == "a b"

    def test_idempotent_on_noisy_text(self):
        import random
        rng = random.Random(0)
        alphabet = list("abc „“’–… \"'-.()!?")
        for _ in range(50):
            text = "".join(rng.choice(alphabet) for _ in range(60))
            once = C.normalize_punctuation(text)
            assert C.normalize_punctuation(once) == once


class TestTokenize:
    def test_punctuation_split(self):
        assert C.tokenize("Ahoj, světe.") == ["Ahoj", ",", "světe", "."]

    def test_plain_word(self):
        assert C.tokenize("abc") == ["abc"]

    def test_no_escape_keeps_ampersand(self):
        assert C.tokenize("a & b") == ["a", "&", "b"]
        assert "&" in C.tokenize("black&white")

    def test_escape_mode(self):
        assert C.tokenize("a & b", no_escape=False) == ["a", "&amp;", "b"]

    def test_numbers_keep_separators(self):
        assert C.tokenize("měří 1,5 km") == ["měří", "1,5", "km"]
        assert C.tokenize("verze 3.10") == ["verze", "3.10"]

    def test_abbreviation_keeps_period(self):
        assert C.tokenize("atd. a dál") == ["atd.", "a", "dál"]

    def test_hyphen_inside_word_kept(self):
        assert C.tokenize("Praha-Brno spoj") == ["Praha-Brno", "spoj"]

    def test_symbol_runs(self):
        assert C.tokenize("co?!") == ["co", "?", "!"]
        assert C.tokenize("ano...") == ["ano", "..."]


class TestDetokenizeRoundtrip:
    SENTENCES = [
        "Ahoj, světe.",
        "To je dům.",
        'Řekl: "ano, hned."',
        "Čekáme (stále) na vlak.",
        "Opravdu?!",
        "Jedna, dvě, tři...",
        "Praha-Brno za 2,5 hodiny.",
    ]

    def test_roundtrip_identity(self):
        for sentence in self.SENTENCES:
            normalized = C.normalize_punctuation(sentence)
            assert C.detokenize(C.tokenize(normalized)) == normalized

    def test_single_token(self):
        assert C.detokenize(["abc"]) == "abc"


class TestTruecase:
    def test_majority_casing_applied(self):
        corpus = [("Je", "to") + ("Praha",) for _ in range(9)]
        corpus += [("V", "praha")]  # one lowercase occurrence mid-sentence
        model = C.truecase_train(corpus)
        assert C.truecase_apply(model, ["Praha", "je"]) == ["Praha", "je"]
        assert C.truecase_apply(model, ["praha", "je"]) == ["Praha", "je"]

    def test_unseen_token_unchanged(self):
        model = C.truecase_train([("a", "b")])
        assert C.truecase_apply(model, ["Neznámé", "x"]) == ["Neznámé", "x"]

    def test_lowercase_majority_lowercases_initial(self):
        corpus = [("Dnes", "je", "hezky"), ("Zítra", "je", "hezky")]
        model = C.truecase_train(corpus)
        assert C.truecase_apply(model, ["Je", "hezky"]) == ["je", "hezky"]

    def test_only_first_token_changes(self):
        corpus = [("x", "Praha", "Praha"), ("y", "Praha", "den")]
        model = C.truecase_train(corpus)
        tokens = ["praha", "praha", "den"]
        out = C.truecase_apply(model, tokens)
        assert out[0] == "Praha"
        assert out[1:] == tokens[1:]

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            C.truecase_train([])

    def test_model_roundtrip(self, tmp_path):
        model = C.truecase_train([("a", "Praha", "praha", "Praha")])
        path = str(tmp_path / "tc.tsv")
        model.save(path)
        loaded = C.TruecaseModel.load(path)
        assert loaded.best_casing("praha") == "Praha"


class TestPostprocess:
    def test_inverse_of_tokenize_example(self):
        assert C.postprocess(["Ahoj", ",", "světe", "."]) == "Ahoj, světe."

    def test_single_token(self):
        assert C.postprocess(["abc"]) == "abc"

    def test_nfc_normalization(self):
        decomposed = "é"  # e + combining acute
        out = C.postprocess([decomposed])
        assert out == "é"
        assert unicodedata.is_normalized("NFC", out)

    def test_idempotent_at_text_level(self):
        out = C.postprocess(["Ahoj", ",", "„světe“", "."])
        assert C.postprocess_text(out) == out


class TestFileIO:
    def test_lf_utf8_roundtrip(self, tmp_path):
        path = str(tmp_path / "c.txt")
        lines = ["první věta", "druhá věta"]
        C.write_lines(path, lines)
        raw = Path(path).read_bytes()
        assert b"\r" not in raw
        assert C.read_lines(path) == lines

    @pytest.mark.parametrize("raw, lines", [
        (b"a b\rc d\ne f\n", ["a b\rc d", "e f"]),
        (b"a b\r\nc d\r\n", ["a b", "c d"]),
        (b"a b\nc d", ["a b", "c d"]),
        (b"", []),
    ], ids=["lone-cr-stays-inside", "crlf-reads-as-lf", "last-line-unended",
            "empty-file"])
    def test_line_endings(self, tmp_path, raw, lines):
        path = tmp_path / "c.txt"
        path.write_bytes(raw)
        assert C.read_lines(str(path)) == lines

    def test_clean_keeps_a_stray_cr_inside_its_pair(self, tmp_path):
        src, trg = tmp_path / "c.src", tmp_path / "c.trg"
        src.write_bytes(b"a b\rc d\ne f\n")
        trg.write_bytes(b"p q\nr s\n")
        out_src, out_trg = tmp_path / "o.src", tmp_path / "o.trg"
        assert main(["clean", "--source", str(src), "--target", str(trg),
                     "--out-source", str(out_src), "--out-target", str(out_trg)]) == 0
        assert len(C.read_lines(str(out_src))) == len(C.read_lines(str(out_trg))) == 2
        assert C.read_lines(str(out_src))[1] == "e f"

    def test_missing_output_directory_is_named(self, tmp_path):
        path = str(tmp_path / "nodir" / "c.txt")
        with pytest.raises(DataError, match="nodir/c.txt: cannot write"):
            C.write_lines(path, ["a"])

    @pytest.mark.parametrize("exc, raised", [
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), DataError),
        (RuntimeError("stopped"), RuntimeError),
    ], ids=["disk-full", "interrupted"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, exc, raised):
        path = tmp_path / "c.txt"
        C.write_lines(str(path), ["old"])

        def lines():
            yield "new"
            raise exc

        with pytest.raises(raised) as info:
            C.write_lines(str(path), lines())
        if raised is DataError:
            assert str(info.value) == f"{path}: cannot write: No space left on device"
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]

    @pytest.mark.parametrize("save", [
        lambda path: Vocab(["a", "b"]).save(path),
        lambda path: BpeModel([("a", "b</w>")]).save(path),
        lambda path: C.truecase_train([["Praha", "je"]]).save(path),
    ], ids=["vocab", "bpe-merges", "truecase-model"])
    def test_model_files_name_a_missing_directory(self, tmp_path, save):
        path = str(tmp_path / "nodir" / "model.txt")
        with pytest.raises(DataError, match="nodir/model.txt: cannot write"):
            save(path)
