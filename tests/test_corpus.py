"""Corpus IO, splits, the Markov gaze law, and the synthetic suite."""

import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazenlu.cli import main
from gazenlu.corpus import (CLASSES, DatasetSpec, GazeRecord, MarkovGazeModel,
                            PAIR, REAL, SINGLE, TextInstance, _word_pool, kfold,
                            load_dataset, load_gaze_corpus, low_resource_split,
                            make_synthetic_suite, write_dataset, write_gaze_corpus)
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
    ns = (1, 2, 5)
    paths = m.sample_paths(ns, [RngState(70, 0).substream("p", n) for n in ns])
    for n, path in zip(ns, paths):
        assert path == list(range(n))
        assert m.path_entropy(path, n) == 0.0
        assert m.path_nll(path, n) == 0.0


def test_sampled_paths_respect_the_law():
    m = MarkovGazeModel()
    rng = RngState(71, 0)
    ns = [4 + k % 5 for k in range(50)]
    paths = m.sample_paths(ns, [rng.substream("p", k) for k in range(50)])
    for n, path in zip(ns, paths):
        assert path, "entry is forced, paths are never empty"
        assert path[0] in (0, 1)
        prev = path[0]
        for f in path[1:]:
            assert f - prev in (1, -1, 2)
            assert 0 <= f < n
            prev = f


def test_sample_path_deterministic_and_capped():
    m = MarkovGazeModel()
    a = m.sample_paths([6], [RngState(72, 0).substream("p")])
    b = m.sample_paths([6], [RngState(72, 0).substream("p")])
    assert a == b
    (capped,) = m.sample_paths([6], [RngState(73, 0).substream("p")], cap=2)
    assert len(capped) <= 2
    assert m.sample_paths([], []) == []


def test_sample_path_needs_a_word():
    with pytest.raises(ValueError, match="n_words"):
        MarkovGazeModel().sample_paths([3, 0], [RngState(0, 0), RngState(0, 1)])
    with pytest.raises(ValueError, match="2 streams for 1 paths"):
        MarkovGazeModel().sample_paths([3], [RngState(0, 0), RngState(0, 1)])


def test_sample_path_step_frequencies_match_step_distribution():
    """The entry move, then the move from word 0 (STOP included)."""
    m = MarkovGazeModel()
    rng = RngState(75, 0)
    paths = m.sample_paths([5] * 20_000, [rng.substream("p", k) for k in range(20_000)])
    p_entry, _ = m.step_distribution(-1, 5)
    first = np.bincount([p[0] for p in paths], minlength=2)
    assert np.abs(first / len(paths) - p_entry[[0, 2]]).max() < 0.01
    p0, _ = m.step_distribution(0, 5)
    nxt = [p[1] if len(p) > 1 else "stop" for p in paths if p[0] == 0]
    freq = [nxt.count(f) / len(nxt) for f in (1, 2, "stop")]
    assert np.abs(np.array(freq) - p0[[0, 2, 3]]).max() < 0.015


def test_observed_nll_converges_to_pooled_entropy():
    """Law of large numbers: mean -log p per decision over many sampled
    paths approaches the pooled conditional entropy of those paths."""
    m = MarkovGazeModel()
    rng = RngState(74, 0)
    paths = m.sample_paths([7] * 3000, [rng.substream("p", k) for k in range(3000)])
    records = [GazeRecord(f"s{k}", "r0", "w " * 7, path) for k, path in enumerate(paths)]
    gap = abs(m.corpus_nll(records) - m.corpus_entropy(records))
    assert gap < 0.05, gap


def _ints_per_stream(rng, low, high, k):
    """``k`` ints in [low, high): floor of scaled uniforms, clipped."""
    return [min(low + math.floor(u * (high - low)), high - 1)
            for u in rng.uniform((k,)).tolist()]


def _walk_per_step(m, n_words, rng, cap=None):
    """The walk as one inverse-CDF draw per step, until STOP or ``cap``
    fixations (default 8 per word)."""
    cap = 8 * n_words if cap is None else cap
    pos, path = -1, []
    while len(path) < cap:
        p, _ = m.step_distribution(pos, n_words)
        cdf = np.cumsum(p)
        u = float(rng.uniform())
        k = int(np.searchsorted(cdf, u * cdf[-1], side="right").clip(0, 3))
        if k == 3:
            break
        pos += m.MOVES[k]
        path.append(pos)
    return path


LAWS = [MarkovGazeModel(), MarkovGazeModel(0.45, 0.45, 0.10), MarkovGazeModel(1.0, 0.0, 0.0)]


@given(n_words=st.lists(st.integers(1, 24), max_size=30), law=st.sampled_from(LAWS),
       cap=st.sampled_from([None, 1, 2, 3, 9, 17]), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=60, deadline=None)
@example(n_words=[20] * 30, law=LAWS[1], cap=None, seed=5)  # walks past 64 steps
def test_sample_paths_match_per_stream_walk(n_words, law, cap, seed):
    rngs = [RngState(seed, 0).substream("p", i) for i in range(len(n_words))]
    want = [_walk_per_step(law, n, RngState(r.seed, r.stream_id), cap)
            for n, r in zip(n_words, rngs)]
    assert law.sample_paths(n_words, rngs, cap) == want
    # a cap below each walk's own length cuts it there
    for n, r, full in zip(n_words, rngs, want):
        if len(full) > 1:
            assert law.sample_paths([n], [r], len(full) - 1) == [full[:-1]]


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


@pytest.mark.parametrize("write, good, bad", [
    (write_gaze_corpus, [GazeRecord("s0", "r0", "aa bb", [0, 1])],
     [GazeRecord("s1", "r0", "cc dd", [1, 0]), GazeRecord("s2", "r0", "ee", None)]),
    (lambda path, insts: write_dataset(path, DatasetSpec("toy"), insts),
     [TextInstance("toy-1", "aa", None, 1)],
     [TextInstance("toy-2", "bb", None, 0), TextInstance("toy-3", "cc", None, "x")]),
])
def test_tsv_writer_failure_keeps_old_file(tmp_path, write, good, bad):
    """A writer that fails after some rows leaves the file it was to
    replace whole, and no temporary file beside it."""
    path = tmp_path / "d.tsv"
    write(path, good)
    old = path.read_bytes()
    with pytest.raises((TypeError, ValueError)):
        write(path, bad)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["d.tsv"]


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


def _sentence_per_stream(rng, pool, w_min, w_max):
    """A sentence from one stream: its length, then its words."""
    (n,) = _ints_per_stream(rng, w_min, w_max + 1, 1)
    return [pool[i] for i in _ints_per_stream(rng, 0, len(pool), n)]


def _suite_sets(suite):
    return [suite.gaze_train, suite.gaze_dev, suite.keyword_train, suite.keyword_dev,
            suite.keyword_test, suite.pairs_train, suite.pairs_dev, suite.pairs_test]


def _suite_per_stream(seed, n_gaze_train=400, n_gaze_dev=100, readers=2,
                      n_keyword=(2000, 500, 500), n_pairs=(1000, 300, 300), w_min=4, w_max=10):
    """The suite's sets with one generator per stream: each sentence, path
    (one draw per step), word position and marker drawn from its own
    stream in turn."""
    markov = MarkovGazeModel()
    root = RngState(seed, 0).substream("synthetic")
    pool = _word_pool(root.substream("pool"), 40)
    keyword = "zq" + pool[0][:2]
    markers = ["m" + w[:3] for w in pool[1:5]]

    def sentence(rng):
        return _sentence_per_stream(rng, pool, w_min, w_max)

    def pick(rng, high):
        return _ints_per_stream(rng, 0, high, 1)[0]

    def gaze(tag, n):
        srng = root.substream("gaze", tag)
        recs = []
        for s in range(n):
            words = sentence(srng.substream("text", s))
            for r in range(readers):
                path = _walk_per_step(markov, len(words), srng.substream("path", s, r))
                recs.append(GazeRecord(f"{tag}-{s}", f"r{r}", " ".join(words), path))
        return recs

    def labels(srng, n):
        return srng.substream("labels").shuffled([1] * (n // 2) + [0] * (n - n // 2))

    def keyword_set(tag, n):
        srng = root.substream("keyword", tag)
        out = []
        for i, lbl in enumerate(labels(srng, n)):
            words = sentence(srng.substream("text", i))
            if lbl == 1:
                words[pick(srng.substream("at", i), len(words))] = keyword
            out.append(TextInstance(f"kw-{tag}-{i}", " ".join(words), None, lbl))
        return out

    def pairs_set(tag, n):
        srng = root.substream("pairs", tag)
        out = []
        for i, lbl in enumerate(labels(srng, n)):
            w1 = sentence(srng.substream("t1", i))
            w2 = sentence(srng.substream("t2", i))
            m1 = markers[pick(srng.substream("m1", i), len(markers))]
            m2 = m1
            if lbl == 0:
                others = [m for m in markers if m != m1]
                m2 = others[pick(srng.substream("m2", i), len(others))]
            w1[pick(srng.substream("a1", i), len(w1))] = m1
            w2[pick(srng.substream("a2", i), len(w2))] = m2
            out.append(TextInstance(f"pr-{tag}-{i}", " ".join(w1), " ".join(w2), lbl))
        return out

    tags = ("train", "dev", "test")
    return ([gaze("train", n_gaze_train), gaze("dev", n_gaze_dev)]
            + [keyword_set(t, n) for t, n in zip(tags, n_keyword)]
            + [pairs_set(t, n) for t, n in zip(tags, n_pairs)])


@pytest.mark.parametrize("sizes", [
    dict(n_gaze_train=40, n_gaze_dev=10, n_keyword=(200, 60, 60), n_pairs=(80, 30, 30)),
    dict(n_gaze_train=150, n_gaze_dev=40, n_keyword=(150, 200, 300),
         n_pairs=(10, 10, 10), w_min=8, w_max=16, readers=3),
])
def test_suite_gaze_matches_per_step_walk(sizes):
    assert _suite_sets(make_synthetic_suite(42, **sizes)) == _suite_per_stream(42, **sizes)


_counts = st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))


@given(seed=st.integers(0, 2**64 - 1), n_gaze=st.tuples(st.integers(0, 6), st.integers(0, 3)),
       readers=st.integers(1, 3), n_keyword=_counts, n_pairs=_counts,
       w_min=st.integers(1, 5), w_extra=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
@example(seed=0, n_gaze=(0, 0), readers=1, n_keyword=(0, 0, 0), n_pairs=(0, 0, 0),
         w_min=1, w_extra=0)
@example(seed=2**63 + 5, n_gaze=(1, 1), readers=3, n_keyword=(1, 1, 3), n_pairs=(1, 5, 1),
         w_min=3, w_extra=0)
def test_suite_matches_one_generator_per_stream(seed, n_gaze, readers, n_keyword, n_pairs,
                                                w_min, w_extra):
    sizes = dict(n_gaze_train=n_gaze[0], n_gaze_dev=n_gaze[1], readers=readers,
                 n_keyword=n_keyword, n_pairs=n_pairs, w_min=w_min, w_max=w_min + w_extra)
    assert _suite_sets(make_synthetic_suite(seed, **sizes)) == _suite_per_stream(seed, **sizes)


# sha256 of each file `gazenlu make-synthetic --seed 9` writes (manifest.json
# aside, which holds a timestamp), as written with one generator per stream
MAKE_SYNTHETIC_SEED_9 = {
    "gaze_dev.tsv": "6cc03b49bf4c3cb68c944dc4be6d3b9d82280b456b017208da2a0fb610e9cc24",
    "gaze_train.tsv": "47a42120571fc370719557ae8ca9d796736b0383dba83ff7b9fe63803d5641a2",
    "keyword_dev.tsv": "4f1271fe01241249b20327efeee8587940847a578d885806169dfcbde74f26e1",
    "keyword_test.tsv": "a31a738cd151a88282c9cbc4e65a228631cc422922ffab89fb17a82cda832d23",
    "keyword_train.tsv": "ad352ac5a30ede2a58e4728da06071217d14e66896989739edbd1dfda9f8cff8",
    "pairs_dev.tsv": "61906d7d51560ee70b38d3863a5e88edd9ff9ed3c900b93ddbee1ccdc9f011fa",
    "pairs_test.tsv": "4838cf24287546d7054a0169855913d76e21676185f75bc5b9a1ece1cf8b913f",
    "pairs_train.tsv": "4f758d41aefcaaa21c49eecf4fc77cb2a73668d184c50d7639ccdb6674635d7e",
    "suite.json": "c4decdbaf7852566fb8032a8ffa8b35c269cf279c1ed28d8f3b78d5eb6d0c15f",
}


def test_make_synthetic_files_are_pinned(tmp_path, capsys):
    out = tmp_path / "suite"
    assert main(["make-synthetic", "--seed", "9", "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted([*MAKE_SYNTHETIC_SEED_9, "manifest.json"])
    for name, digest in MAKE_SYNTHETIC_SEED_9.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("w_min, w_max", [(0, 4), (-1, 4), (5, 4)])
def test_suite_rejects_word_counts_it_cannot_use(w_min, w_max):
    # the other counts are checked through `make-synthetic` in test_cli
    with pytest.raises(ValueError, match="w_min"):
        make_synthetic_suite(0, w_min=w_min, w_max=w_max)


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
