"""Corpus IO, splits, the Markov gaze law, and the synthetic suite."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazenlu.corpus import (CLASSES, DatasetSpec, GazeRecord, MarkovGazeModel,
                            PAIR, REAL, SINGLE, TextInstance, kfold,
                            load_dataset, load_gaze_corpus, low_resource_split,
                            make_synthetic_suite, write_dataset,
                            write_gaze_corpus)
from gazenlu.diffcore import RngState

# entropy of the fully-interior move distribution (0.6, 0.25, 0.15),
# derived independently as -sum(p*ln p)
INTERIOR_ENTROPY = 0.9376369622724492


def h(*ps):
    return -sum(p * math.log(p) for p in ps if p > 0)


# -- the saccade walk ----------------------------------------------------


def test_move_probabilities_validated():
    with pytest.raises(ValueError):
        MarkovGazeModel(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        MarkovGazeModel(1.2, -0.1, -0.1)


def test_entry_distribution_renormalizes_without_stop():
    m = MarkovGazeModel()
    p, at_entry = m.step_distribution(-1, 5)
    assert at_entry
    # regression lands before the sentence; forward and skip renormalize
    assert np.allclose(p, [0.8, 0.0, 0.2, 0.0])
    p1, _ = m.step_distribution(-1, 1)
    assert np.allclose(p1, [1.0, 0.0, 0.0, 0.0])


def test_interior_distribution_has_no_stop_mass():
    m = MarkovGazeModel()
    p, at_entry = m.step_distribution(2, 10)
    assert not at_entry
    assert np.allclose(p, [0.6, 0.25, 0.15, 0.0])


def test_lost_mass_becomes_stop_probability():
    m = MarkovGazeModel()
    # right edge: only the regression stays inside
    p_edge, _ = m.step_distribution(4, 5)
    assert np.allclose(p_edge, [0.0, 0.25, 0.0, 0.75])
    # one before the edge: the skip falls off
    p_near, _ = m.step_distribution(3, 5)
    assert np.allclose(p_near, [0.6, 0.25, 0.0, 0.15])
    # first word: the regression falls off
    p_first, _ = m.step_distribution(0, 5)
    assert np.allclose(p_first, [0.6, 0.0, 0.15, 0.25])
    # single word: everything falls off, the walk must stop
    p_one, _ = m.step_distribution(0, 1)
    assert np.allclose(p_one, [0.0, 0.0, 0.0, 1.0])


def test_no_entry_move_raises():
    with pytest.raises(ValueError):
        MarkovGazeModel().step_distribution(-1, 0)


def test_step_entropy_fixtures():
    m = MarkovGazeModel()
    assert abs(m.step_entropy(2, 10) - INTERIOR_ENTROPY) < 1e-12
    assert abs(m.step_entropy(2, 10) - h(0.6, 0.25, 0.15)) < 1e-12
    assert abs(m.step_entropy(-1, 5) - h(0.8, 0.2)) < 1e-12
    assert abs(m.step_entropy(4, 5) - h(0.25, 0.75)) < 1e-12
    assert m.step_entropy(0, 1) == 0.0


def test_path_entropy_sums_per_decision_entropies():
    m = MarkovGazeModel()
    # decisions: entry, from word 0, from word 1, then STOP at word 2
    expected = h(0.8, 0.2) + 2 * h(0.6, 0.25, 0.15) + h(0.25, 0.75)
    assert abs(m.path_entropy([0, 1, 2], 3) - expected) < 1e-12


def test_path_nll_exact_product_of_conditionals():
    m = MarkovGazeModel()
    expected = -(math.log(0.8) + 2 * math.log(0.6) + math.log(0.75))
    assert abs(m.path_nll([0, 1, 2], 3) - expected) < 1e-12


def test_path_nll_rejects_impossible_transitions():
    m = MarkovGazeModel()
    with pytest.raises(ValueError):
        m.path_nll([2], 5)  # entry jump of +3
    with pytest.raises(ValueError):
        m.path_nll([0, 3], 5)  # offset +3
    with pytest.raises(ValueError):
        m.path_nll([], 5)  # cannot stop before entering


def test_pure_forward_walk_is_strict_left_to_right():
    m = MarkovGazeModel(1.0, 0.0, 0.0)
    for n in (1, 2, 5):
        path = m.sample_path(n, RngState(70, 0).substream("p", n))
        assert path == list(range(n))
        assert m.path_entropy(path, n) == 0.0
        assert m.path_nll(path, n) == 0.0


def test_sampled_paths_respect_the_law():
    m = MarkovGazeModel()
    rng = RngState(71, 0)
    for k in range(50):
        n = 4 + k % 5
        path = m.sample_path(n, rng.substream("p", k))
        assert path, "entry is forced, paths are never empty"
        assert path[0] in (0, 1)
        prev = path[0]
        for f in path[1:]:
            assert f - prev in (1, -1, 2)
            assert 0 <= f < n
            prev = f


def test_sample_path_deterministic_and_capped():
    m = MarkovGazeModel()
    a = m.sample_path(6, RngState(72, 0).substream("p"))
    b = m.sample_path(6, RngState(72, 0).substream("p"))
    assert a == b
    capped = m.sample_path(6, RngState(73, 0).substream("p"), cap=2)
    assert len(capped) <= 2


def test_observed_nll_converges_to_pooled_entropy():
    """Law of large numbers: mean -log p per decision over many sampled
    paths approaches the pooled conditional entropy of those paths."""
    m = MarkovGazeModel()
    rng = RngState(74, 0)
    records = [
        GazeRecord(f"s{k}", "r0", "w " * 7, m.sample_path(7, rng.substream("p", k)))
        for k in range(3000)
    ]
    gap = abs(m.corpus_nll(records) - m.corpus_entropy(records))
    assert gap < 0.05, gap


# -- dataset specs -------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec("x", fields="triple")
    with pytest.raises(ValueError):
        DatasetSpec("x", label_kind="ordinal")
    with pytest.raises(ValueError):
        DatasetSpec("x", metric_id="bleu")


# -- TSV IO --------------------------------------------------------------


def test_gaze_corpus_round_trip(tmp_path):
    recs = [
        GazeRecord("s0", "r0", "aa bb cc", [0, 1, 2]),
        GazeRecord("s1", "r1", "dd ee", [1, 0]),
    ]
    path = tmp_path / "gaze.tsv"
    write_gaze_corpus(path, recs)
    assert load_gaze_corpus(path) == recs


def test_gaze_corpus_header_error_names_line_one(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("id\treader\ttext\tfix\n")
    with pytest.raises(ValueError, match=r":1:"):
        load_gaze_corpus(path)


def test_gaze_corpus_bad_fixation_errors_carry_line_numbers(tmp_path):
    head = "sentence_id\treader_id\ttext\tfixations\n"
    path = tmp_path / "bad.tsv"
    path.write_text(head + "s0\tr0\taa bb\t0 1\n" + "s1\tr0\taa bb\t0 x\n")
    with pytest.raises(ValueError, match=r":3:.*non-integer"):
        load_gaze_corpus(path)
    path.write_text(head + "s0\tr0\taa bb\t0 5\n")
    with pytest.raises(ValueError, match=r":2:.*out of range"):
        load_gaze_corpus(path)
    path.write_text(head + "s0\tr0\taa bb\t\n")
    with pytest.raises(ValueError, match=r":2:.*no fixations"):
        load_gaze_corpus(path)


def test_gaze_corpus_field_count_error(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("sentence_id\treader_id\ttext\tfixations\ns0\tr0\taa\n")
    with pytest.raises(ValueError, match=r":2:.*3 fields"):
        load_gaze_corpus(path)


def test_single_dataset_round_trip(tmp_path):
    spec = DatasetSpec("toy")
    insts = [TextInstance("toy-1", "aa bb", None, 1),
             TextInstance("toy-2", "cc", None, 0)]
    path = tmp_path / "d.tsv"
    write_dataset(path, spec, insts)
    back = load_dataset(path, spec)
    assert [(i.text1, i.text2, i.label) for i in back] == [
        ("aa bb", None, 1), ("cc", None, 0)
    ]
    assert [i.instance_id for i in back] == ["toy-1", "toy-2"]


def test_pair_dataset_round_trip(tmp_path):
    spec = DatasetSpec("pairs", fields=PAIR)
    insts = [TextInstance("pairs-1", "aa", "bb cc", 0)]
    path = tmp_path / "d.tsv"
    write_dataset(path, spec, insts)
    back = load_dataset(path, spec)
    assert (back[0].text1, back[0].text2, back[0].label) == ("aa", "bb cc", 0)


def test_real_dataset_round_trip_preserves_floats(tmp_path):
    spec = DatasetSpec("sim", label_kind=REAL, metric_id="spearman",
                       label_range=(0.0, 5.0))
    insts = [TextInstance("sim-1", "aa", None, 3.7500001)]
    path = tmp_path / "d.tsv"
    write_dataset(path, spec, insts)
    assert load_dataset(path, spec)[0].label == 3.7500001


def test_class_label_validation(tmp_path):
    spec = DatasetSpec("toy")
    path = tmp_path / "d.tsv"
    path.write_text("sentence1\tlabel\naa\t2\n")
    with pytest.raises(ValueError, match=r":2:.*outside 0\.\.1"):
        load_dataset(path, spec)
    path.write_text("sentence1\tlabel\naa\tpositive\n")
    with pytest.raises(ValueError, match=r":2:.*not an integer"):
        load_dataset(path, spec)


def test_real_label_validation(tmp_path):
    spec = DatasetSpec("sim", label_kind=REAL, metric_id="spearman",
                       label_range=(0.0, 5.0))
    path = tmp_path / "d.tsv"
    path.write_text("sentence1\tlabel\naa\t6.5\n")
    with pytest.raises(ValueError, match=r":2:.*outside"):
        load_dataset(path, spec)


def test_empty_sentence_fails_at_load_naming_its_line(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("sentence1\tlabel\naa\t1\n   \t0\n")
    with pytest.raises(ValueError, match=r"d\.tsv:3: sentence1 is empty$"):
        load_dataset(path, DatasetSpec("toy"))
    path.write_text("sentence1\tsentence2\tlabel\naa\t\t1\n")
    with pytest.raises(ValueError, match=r"d\.tsv:2: sentence2 is empty$"):
        load_dataset(path, DatasetSpec("pairs", fields=PAIR))


# -- malformed rows: every one fails with its file and line --------------

SPECS = [DatasetSpec("single"), DatasetSpec("pairs", fields=PAIR, n_classes=3),
         DatasetSpec("sim", fields=PAIR, label_kind=REAL, metric_id="spearman",
                     label_range=(0.0, 5.0))]
SENTENCE = st.lists(st.text("abcdef", min_size=1, max_size=4),
                    min_size=1, max_size=5).map(" ".join)
# whitespace only, without the tab and newline that delimit cells and rows
BLANK = st.sampled_from(["", " ", "   ", "\x0b", "\xa0", "\u3000 "])
CELL = st.text("ab 01.", max_size=4)
NOT_A_NUMBER = st.text("xyz.", min_size=1, max_size=3) | st.just("")


def _valid_label(draw, spec):
    if spec.label_kind == CLASSES:
        return str(draw(st.integers(0, spec.n_classes - 1)))
    lo, hi = spec.label_range
    return repr(draw(st.floats(lo, hi)))


@st.composite
def dataset_with_bad_row(draw):
    """(spec, rows, index of the one malformed row)."""
    spec = draw(st.sampled_from(SPECS))
    n_texts = 2 if spec.fields == PAIR else 1

    def row():
        return [draw(SENTENCE) for _ in range(n_texts)] + [_valid_label(draw, spec)]

    rows = [row() for _ in range(draw(st.integers(0, 3)))]
    bad = row()
    fault = draw(st.sampled_from(["fields", "label", "empty"]))
    if fault == "fields":
        n = draw(st.integers(1, 5).filter(lambda n: n != n_texts + 1))
        bad = [draw(CELL) for _ in range(n)]
    elif fault == "empty":
        bad[draw(st.integers(0, n_texts - 1))] = draw(BLANK)
    elif spec.label_kind == CLASSES:
        out = st.integers(-10**6, 10**6).filter(
            lambda v: not 0 <= v < spec.n_classes).map(str)
        bad[-1] = draw(out | NOT_A_NUMBER)
    else:
        lo, hi = spec.label_range
        out = st.floats(allow_nan=False).filter(lambda v: not lo <= v <= hi)
        bad[-1] = draw(out.map(repr) | NOT_A_NUMBER | st.sampled_from(["nan", "-inf"]))
    at = draw(st.integers(0, len(rows)))
    return spec, rows[:at] + [bad] + rows[at:], at


@st.composite
def gaze_corpus_with_bad_row(draw):
    """(rows, index of the one malformed row)."""
    def row():
        words = draw(SENTENCE)
        n = len(words.split())
        fix = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
        return ["s", "r", words, " ".join(map(str, fix))]

    rows = [row() for _ in range(draw(st.integers(0, 3)))]
    bad = row()
    n = len(bad[2].split())
    fault = draw(st.sampled_from(["fields", "non_integer", "out_of_range",
                                  "no_fixations", "empty"]))
    if fault == "fields":
        k = draw(st.integers(1, 6).filter(lambda k: k != 4))
        bad = [draw(CELL) for _ in range(k)]
    elif fault == "non_integer":
        bad[3] += " " + draw(st.text("xyz.", min_size=1, max_size=3))
    elif fault == "out_of_range":
        f = draw(st.integers(-10**6, 10**6).filter(lambda f: not 0 <= f < n))
        bad[3] += f" {f}"
    elif fault == "no_fixations":
        bad[3] = draw(BLANK)
    else:
        bad[2] = draw(BLANK)
    at = draw(st.integers(0, len(rows)))
    return rows[:at] + [bad] + rows[at:], at


def _write_rows(path, header, rows):
    path.write_text("\n".join(["\t".join(header)] + ["\t".join(r) for r in rows])
                    + "\n", encoding="utf-8")


@given(dataset_with_bad_row())
@settings(max_examples=150, deadline=None)
def test_malformed_dataset_row_fails_naming_file_and_line(tmp_path_factory, case):
    spec, rows, at = case
    path = tmp_path_factory.getbasetemp() / "malformed_dataset.tsv"
    header = ["sentence1", "sentence2", "label"] if spec.fields == PAIR else [
        "sentence1", "label"]
    _write_rows(path, header, rows)
    with pytest.raises(ValueError) as exc:
        load_dataset(path, spec)
    assert str(exc.value).startswith(f"{path}:{at + 2}: "), str(exc.value)


@given(gaze_corpus_with_bad_row())
@settings(max_examples=150, deadline=None)
def test_malformed_gaze_row_fails_naming_file_and_line(tmp_path_factory, case):
    rows, at = case
    path = tmp_path_factory.getbasetemp() / "malformed_gaze.tsv"
    _write_rows(path, ["sentence_id", "reader_id", "text", "fixations"], rows)
    with pytest.raises(ValueError) as exc:
        load_gaze_corpus(path)
    assert str(exc.value).startswith(f"{path}:{at + 2}: "), str(exc.value)


# -- splits --------------------------------------------------------------


def test_kfold_is_a_partition():
    folds = kfold(23, 4, seed=1)
    sizes = [len(f) for f in folds]
    assert sorted(sizes) == [5, 6, 6, 6]
    union = np.concatenate(folds)
    assert sorted(union.tolist()) == list(range(23))


def test_kfold_deterministic_and_seed_sensitive():
    a = kfold(50, 5, seed=3)
    b = kfold(50, 5, seed=3)
    c = kfold(50, 5, seed=4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_kfold_validation():
    with pytest.raises(ValueError):
        kfold(10, 1)
    with pytest.raises(ValueError):
        kfold(3, 4)


@given(n=st.integers(5, 200), folds=st.integers(2, 10))
@settings(max_examples=60, deadline=None)
def test_kfold_partition_property(n, folds):
    if n < folds:
        return
    parts = kfold(n, folds, seed=9)
    assert len(parts) == folds
    sizes = {len(p) for p in parts}
    assert max(sizes) - min(sizes) <= 1
    assert sorted(np.concatenate(parts).tolist()) == list(range(n))


def test_low_resource_prefix_property():
    small = low_resource_split(3000, 200, data_seed=111)
    large = low_resource_split(3000, 500, data_seed=111)
    assert small.train_ids == large.train_ids[:200]
    assert len(small.train_ids) == 200
    assert len(small.dev_ids) == 1000  # capped
    assert set(small.train_ids).isdisjoint(small.dev_ids)


def test_low_resource_dev_takes_remainder_when_small():
    split = low_resource_split(250, 200, data_seed=5)
    assert len(split.dev_ids) == 50
    assert sorted(split.train_ids + split.dev_ids) == list(range(250))


def test_low_resource_seed_changes_selection():
    a = low_resource_split(2000, 300, data_seed=111)
    b = low_resource_split(2000, 300, data_seed=222)
    assert a.train_ids != b.train_ids


def test_low_resource_test_pool_and_validation():
    with pytest.raises(ValueError):
        low_resource_split(300, 0, data_seed=1)
    with pytest.raises(ValueError):
        low_resource_split(100, 100, data_seed=1)


@given(n=st.integers(10, 500), k=st.integers(1, 9), seed=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_low_resource_split_property(n, k, seed):
    if n < k + 1:
        return
    split = low_resource_split(n, k, data_seed=seed)
    assert len(split.train_ids) == k
    assert len(split.dev_ids) == min(1000, n - k)
    ids = split.train_ids + split.dev_ids
    assert len(set(ids)) == len(ids)
    assert all(0 <= i < n for i in ids)


# -- synthetic suite -----------------------------------------------------


def test_suite_is_deterministic(tiny_suite):
    again = make_synthetic_suite(
        42, n_gaze_train=40, n_gaze_dev=10,
        n_keyword=(200, 60, 60), n_pairs=(80, 30, 30),
    )
    assert again.gaze_train == tiny_suite.gaze_train
    assert again.keyword_train == tiny_suite.keyword_train
    assert again.pairs_test == tiny_suite.pairs_test


def test_gaze_records_obey_the_walk(tiny_suite):
    m = tiny_suite.markov
    assert len(tiny_suite.gaze_train) == 40 * 2  # two readers per sentence
    for rec in tiny_suite.gaze_train:
        assert rec.fixations
        n = rec.n_words
        assert 4 <= n <= 10
        for f in rec.fixations:
            assert 0 <= f < n
        # every record is possible under the law (finite likelihood)
        assert np.isfinite(m.path_nll(rec.fixations, n))


def test_keyword_task_is_balanced_and_separable(tiny_suite):
    labels = [i.label for i in tiny_suite.keyword_train]
    assert labels.count(1) == 100 and labels.count(0) == 100
    marker = None
    for inst in tiny_suite.keyword_train:
        kw_words = {w for w in inst.text1.split() if w.startswith("zq")}
        if inst.label == 1:
            assert kw_words, inst.text1
            marker = kw_words
        else:
            assert not kw_words, inst.text1
    assert marker is not None


def test_pair_task_labels_shared_marker(tiny_suite):
    for inst in tiny_suite.pairs_train:
        m1 = {w for w in inst.text1.split() if w.startswith("m")}
        m2 = {w for w in inst.text2.split() if w.startswith("m")}
        if inst.label == 1:
            assert m1 & m2, (inst.text1, inst.text2)
        else:
            assert not (m1 & m2), (inst.text1, inst.text2)


def test_vocab_lines_cover_every_text(tiny_suite):
    lines = tiny_suite.vocab_lines()
    n_gaze = len(tiny_suite.gaze_train) + len(tiny_suite.gaze_dev)
    n_single = 200 + 60 + 60
    n_pair = 80 + 30 + 30
    assert len(lines) == n_gaze + n_single + 2 * n_pair
    assert tiny_suite.gaze_dev[0].text in lines
    assert tiny_suite.pairs_train[0].text2 in lines
