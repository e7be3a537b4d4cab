"""Corpora, splits, and synthetic data with known generating laws.

TSV everywhere: UTF-8, tab-delimited, no quoting, explicit headers.
The synthetic gaze corpus comes from a Markov saccade walk whose exact
per-step conditional distributions are retained, so held-out NLL can be
compared against the true conditional entropy rather than a guess.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .diffcore import RngState, atomic_write, first_uniforms, scaled_ints

METRICS = ("accuracy", "f1", "matthews", "spearman", "auc")
SINGLE, PAIR = "single", "pair"
CLASSES, REAL = "classes", "real"
# uniforms drawn per walking path at a time (a multiple of Philox's 4-value block)
PATH_CHUNK = 8


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    fields: str = SINGLE
    label_kind: str = CLASSES
    metric_id: str = "accuracy"
    n_classes: int = 2
    label_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.fields not in (SINGLE, PAIR):
            raise ValueError(f"fields must be single|pair, got {self.fields!r}")
        if self.label_kind not in (CLASSES, REAL):
            raise ValueError(f"label_kind must be classes|real, got {self.label_kind!r}")
        if self.metric_id not in METRICS:
            raise ValueError(f"metric_id must be one of {METRICS}, got {self.metric_id!r}")


@dataclass
class TextInstance:
    instance_id: str
    text1: str
    text2: str | None
    label: float


@dataclass
class GazeRecord:
    sentence_id: str
    reader_id: str
    text: str
    fixations: list[int]

    @property
    def n_words(self) -> int:
        return len(self.text.split())


@dataclass
class LowResourceSplit:
    K: int
    data_seed: int
    train_ids: list[int]
    dev_ids: list[int]


# -- TSV IO --------------------------------------------------------------

GAZE_HEADER = ["sentence_id", "reader_id", "text", "fixations"]


def _read_tsv(path, expected_header: list[str]):
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split("\t")
    if header != expected_header:
        raise ValueError(f"{path}:1: header {header} != expected {expected_header}")
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(expected_header):
            raise ValueError(
                f"{path}:{i}: {len(cells)} fields, expected {len(expected_header)}"
            )
        yield i, cells


def load_gaze_corpus(path) -> list[GazeRecord]:
    records = []
    for lineno, (sid, rid, text, fix) in _read_tsv(path, GAZE_HEADER):
        try:
            fixations = [int(x) for x in fix.split()]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer fixation in {fix!r}")
        rec = GazeRecord(sid, rid, text, fixations)
        if not fixations:
            raise ValueError(f"{path}:{lineno}: record {sid}/{rid} has no fixations")
        n = rec.n_words
        bad = [f for f in fixations if not 0 <= f < n]
        if bad:
            raise ValueError(
                f"{path}:{lineno}: record {sid}/{rid} fixation {bad[0]} out of range "
                f"for {n} words"
            )
        records.append(rec)
    return records


def write_gaze_corpus(path, records: list[GazeRecord]) -> None:
    with atomic_write(path) as f:
        f.write("\t".join(GAZE_HEADER) + "\n")
        for r in records:
            fix = " ".join(str(i) for i in r.fixations)
            f.write(f"{r.sentence_id}\t{r.reader_id}\t{r.text}\t{fix}\n")


def _dataset_header(spec: DatasetSpec) -> list[str]:
    if spec.fields == PAIR:
        return ["sentence1", "sentence2", "label"]
    return ["sentence1", "label"]


def load_dataset(path, spec: DatasetSpec) -> list[TextInstance]:
    out = []
    for lineno, cells in _read_tsv(path, _dataset_header(spec)):
        if spec.fields == PAIR:
            t1, t2, raw = cells
        else:
            (t1, raw), t2 = cells, None
        for name, text in (("sentence1", t1), ("sentence2", t2)):
            if text is not None and not text.split():
                raise ValueError(f"{path}:{lineno}: {name} is empty")
        if spec.label_kind == CLASSES:
            try:
                label = int(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: class label {raw!r} is not an integer")
            if not 0 <= label < spec.n_classes:
                raise ValueError(
                    f"{path}:{lineno}: class label {label} outside 0..{spec.n_classes - 1}"
                )
        else:
            try:
                label = float(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: regression label {raw!r} is not numeric")
            lo, hi = spec.label_range
            if not lo <= label <= hi:
                raise ValueError(f"{path}:{lineno}: label {label} outside [{lo}, {hi}]")
        out.append(TextInstance(f"{spec.name}-{lineno - 1}", t1, t2, label))
    return out


def write_dataset(path, spec: DatasetSpec, instances: list[TextInstance]) -> None:
    with atomic_write(path) as f:
        f.write("\t".join(_dataset_header(spec)) + "\n")
        for inst in instances:
            label = (
                str(int(inst.label)) if spec.label_kind == CLASSES else repr(float(inst.label))
            )
            if spec.fields == PAIR:
                f.write(f"{inst.text1}\t{inst.text2}\t{label}\n")
            else:
                f.write(f"{inst.text1}\t{label}\n")


# -- splits --------------------------------------------------------------


def kfold(n_instances: int, folds: int = 10, seed: int = 42) -> list[np.ndarray]:
    """Deterministic shuffled partition; fold sizes differ by at most 1."""
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if n_instances < folds:
        raise ValueError(f"{n_instances} instances cannot fill {folds} folds")
    order = RngState(seed, 0).substream("kfold").shuffled(list(range(n_instances)))
    base, extra = divmod(n_instances, folds)
    out = []
    at = 0
    for i in range(folds):
        size = base + (1 if i < extra else 0)
        out.append(np.array(order[at:at + size], dtype=np.int64))
        at += size
    return out


def low_resource_split(n_instances: int, K: int, data_seed: int) -> LowResourceSplit:
    """Shuffle once by data_seed; first K train, next up-to-1000 dev.

    The same seed at a larger K extends the train prefix, never reshuffles.
    """
    if K <= 0:
        raise ValueError(f"K must be positive, got {K}")
    if n_instances < K + 1:
        raise ValueError(f"need at least K+1={K + 1} instances, got {n_instances}")
    order = RngState(data_seed, 0).substream("lowres").shuffled(list(range(n_instances)))
    dev_n = min(1000, n_instances - K)
    return LowResourceSplit(
        K=K,
        data_seed=data_seed,
        train_ids=list(order[:K]),
        dev_ids=list(order[K:K + dev_n]),
    )


# -- synthetic gaze ------------------------------------------------------


@dataclass(frozen=True)
class MarkovGazeModel:
    """Saccade walk: +1 forward, -1 regression, +2 skip, from virtual -1.

    Moves landing outside the sentence lose their mass: at entry the
    remaining moves renormalize (a path must start), afterwards the lost
    mass becomes the STOP probability. The resulting per-step conditional
    distributions are exact, which makes corpus entropy computable.
    """

    p_fwd: float = 0.6
    p_reg: float = 0.25
    p_skip: float = 0.15

    MOVES = (1, -1, 2)

    def __post_init__(self):
        probs = (self.p_fwd, self.p_reg, self.p_skip)
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"move probabilities must be >= 0 and sum to 1, got {probs}")

    def _probs(self):
        return (self.p_fwd, self.p_reg, self.p_skip)

    def step_distribution(self, pos: int, n_words: int) -> tuple[np.ndarray, bool]:
        """Probabilities over (moves..., STOP); STOP impossible at entry."""
        p = np.zeros(4)
        for m, pm in zip(self.MOVES, self._probs()):
            if 0 <= pos + m < n_words:
                p[self.MOVES.index(m)] = pm
        if pos < 0:
            total = p.sum()
            if total == 0:
                raise ValueError(f"no valid entry move for {n_words} words")
            return p / total, True
        p[3] = 1.0 - p[:3].sum()
        return p, False

    def step_entropy(self, pos: int, n_words: int) -> float:
        p, _ = self.step_distribution(pos, n_words)
        return float(-sum(q * math.log(q) for q in p if q > 0))

    @functools.lru_cache(maxsize=64)
    def _step_cdfs(self, n_words: int) -> np.ndarray:
        """Cumulative step distributions, row ``pos + 1`` for each position."""
        cdfs = np.array([np.cumsum(self.step_distribution(pos, n_words)[0])
                         for pos in range(-1, n_words)])
        cdfs.setflags(write=False)
        return cdfs

    def sample_paths(self, n_words, rngs: list[RngState],
                     cap: int | None = None) -> list[list[int]]:
        """One walk per stream: path i reads ``n_words[i]`` words and draws
        from ``rngs[i]``, from the virtual start until STOP or ``cap``
        fixations (default ``8 * n_words[i]``).

        Step t of a path takes its move from the path's uniform t by
        inverse CDF: the right-side search of ``u * cdf[-1]``, clipped to
        STOP. All paths step together, and the uniforms come from
        ``first_uniforms`` in chunks, drawn again only for the paths still
        walking; these are the values of one draw per step, since a
        stream's draws come in sequence.
        """
        n = np.array(n_words, dtype=np.int64).reshape(-1)
        if len(rngs) != len(n):
            raise ValueError(f"{len(rngs)} streams for {len(n)} paths")
        if not n.size:
            return []
        if n.min() < 1:
            raise ValueError(f"a path needs at least 1 word, got n_words={n.min()}")
        caps = 8 * n if cap is None else np.full(len(n), cap, dtype=np.int64)
        # the CDF rows of every length in one table; a path at position pos
        # of its n words reads row starts[n] + pos + 1
        lengths = np.array(sorted(set(n.tolist())), dtype=np.int64)
        table = np.concatenate([self._step_cdfs(int(k)) for k in lengths])
        starts = np.cumsum(lengths + 1) - (lengths + 1)
        moves = np.array(self.MOVES)
        # step t's fixations in row t, so a step writes one row
        fixations = np.zeros((max(caps.max(), 0), len(n)), dtype=np.int32)
        n_fix = np.zeros(len(n), dtype=np.int64)
        live = np.flatnonzero(caps > 0)
        at = starts[np.searchsorted(lengths, n[live])]
        pos = np.full(len(live), -1)
        t = drawn = 0
        while live.size:
            if t == drawn:
                # uniforms t .. 2t-1 (at least PATH_CHUNK) of each walking path
                u = first_uniforms([rngs[i] for i in live], max(PATH_CHUNK, t), t)
                first, drawn = t, t + u.shape[1]
            cdf = table[at]
            k = (cdf <= (u[:, t - first] * cdf[:, 3])[:, None]).sum(1)
            go = np.flatnonzero(k < 3)
            step = moves[k[go]]
            live, u, pos, at = live[go], u[go], pos[go] + step, at[go] + step
            fixations[t, live] = pos
            t += 1
            n_fix[live] = t
            go = np.flatnonzero(caps[live] > t)
            live, u, pos, at = live[go], u[go], pos[go], at[go]
        return [f[:m].tolist() for f, m in zip(fixations.T, n_fix.tolist())]

    def path_entropy(self, path: list[int], n_words: int) -> float:
        """Sum of conditional entropies over the path's F+1 decisions."""
        total = 0.0
        pos = -1
        for f in path:
            total += self.step_entropy(pos, n_words)
            pos = f
        total += self.step_entropy(pos, n_words)
        return total

    def path_nll(self, path: list[int], n_words: int) -> float:
        """Exact negative log-probability of the full path incl. STOP."""
        total = 0.0
        pos = -1
        for f in path:
            p, _ = self.step_distribution(pos, n_words)
            move = f - pos
            if move not in self.MOVES:
                raise ValueError(f"transition {pos}->{f} impossible under the walk")
            total -= math.log(p[self.MOVES.index(move)])
            pos = f
        p, at_entry = self.step_distribution(pos, n_words)
        if at_entry:
            raise ValueError("empty path cannot stop")
        total -= math.log(p[3])
        return total

    def corpus_entropy(self, records: list[GazeRecord]) -> float:
        """Pooled mean conditional entropy per decision over a corpus."""
        total = 0.0
        steps = 0
        for r in records:
            total += self.path_entropy(r.fixations, r.n_words)
            steps += len(r.fixations) + 1
        return total / steps

    def corpus_nll(self, records: list[GazeRecord]) -> float:
        total = 0.0
        steps = 0
        for r in records:
            total += self.path_nll(r.fixations, r.n_words)
            steps += len(r.fixations) + 1
        return total / steps


# -- synthetic suite -----------------------------------------------------


@dataclass
class SyntheticSuite:
    markov: MarkovGazeModel
    gaze_train: list[GazeRecord]
    gaze_dev: list[GazeRecord]
    keyword_spec: DatasetSpec
    keyword_train: list[TextInstance]
    keyword_dev: list[TextInstance]
    keyword_test: list[TextInstance]
    pairs_spec: DatasetSpec
    pairs_train: list[TextInstance]
    pairs_dev: list[TextInstance]
    pairs_test: list[TextInstance]

    def vocab_lines(self) -> list[str]:
        lines = [r.text for r in self.gaze_train + self.gaze_dev]
        for inst in (
            self.keyword_train + self.keyword_dev + self.keyword_test
            + self.pairs_train + self.pairs_dev + self.pairs_test
        ):
            lines.append(inst.text1)
            if inst.text2 is not None:
                lines.append(inst.text2)
        return lines


def _word_pool(rng: RngState, count: int, length: int = 4) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    pool: list[str] = []
    seen = set()
    while len(pool) < count:
        w = "".join(letters[int(i)] for i in rng.integers(0, 26, (length,)))
        if w not in seen:
            seen.add(w)
            pool.append(w)
    return pool


def _sentences(streams: list[RngState], pool: list[str], w_min: int,
               w_max: int) -> list[list[str]]:
    """One sentence per stream: uniform 0 picks its length in
    ``[w_min, w_max]``, uniforms 1..n its words from ``pool``."""
    u = first_uniforms(streams, 1 + w_max)
    lengths = scaled_ints(u[:, 0], w_min, w_max + 1).tolist()
    words = scaled_ints(u[:, 1:], 0, len(pool)).tolist()
    return [[pool[i] for i in row[:n]] for row, n in zip(words, lengths)]


def _picks(u: np.ndarray, highs) -> list[int]:
    """Int i in ``[0, highs[i])`` from uniform ``u[i]``."""
    return scaled_ints(u, 0, np.array(highs, dtype=np.int64)).tolist()


def _labels(srng: RngState, n: int) -> list[int]:
    """A set's balanced labels, shuffled by its "labels" stream."""
    return srng.substream("labels").shuffled([1] * (n // 2) + [0] * (n - n // 2))


def _firsts(srng: RngState, name: str, ids) -> list[RngState]:
    """The streams ``(name, i)`` under ``srng``, one for each i in ``ids``."""
    return srng.substreams(name, tails=[(i,) for i in ids])


def _split(flat, groups) -> list:
    """``flat`` cut into consecutive pieces, one as long as each group."""
    ends = np.cumsum([len(g) for g in groups], dtype=np.int64).tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


def make_synthetic_suite(
    seed: int,
    markov: MarkovGazeModel | None = None,
    n_gaze_train: int = 400,
    n_gaze_dev: int = 100,
    readers: int = 2,
    n_keyword: tuple[int, int, int] = (2000, 500, 500),
    n_pairs: tuple[int, int, int] = (1000, 300, 300),
    w_min: int = 4,
    w_max: int = 10,
) -> SyntheticSuite:
    """The gaze corpus and the keyword and pairs tasks, from ``seed``.

    Every draw comes from its own stream under its set's stream: sentence
    s from ``("text", s)`` (a pair's from ``("t1", i)`` and ``("t2", i)``),
    reader r's path from ``("path", s, r)``, and each word position and
    marker from ``("at", i)``, ``("m1", i)``, ``("m2", i)``, ``("a1", i)``
    or ``("a2", i)``. The suite draws the sentences of all its sets in one
    ``first_uniforms`` call, their one-value picks in another and their
    paths in one ``sample_paths`` walk, each stream's values being those
    its own generator would give.
    """
    for name, counts in (("n_gaze_train", n_gaze_train), ("n_gaze_dev", n_gaze_dev),
                         ("n_keyword", n_keyword), ("n_pairs", n_pairs)):
        if np.min(counts) < 0:
            raise ValueError(f"{name} must be >= 0, got {counts}")
    if readers < 1:
        raise ValueError(f"readers must be >= 1, got {readers}")
    if not 1 <= w_min <= w_max:
        raise ValueError(f"need 1 <= w_min <= w_max, got w_min={w_min}, w_max={w_max}")
    markov = markov or MarkovGazeModel()
    root = RngState(seed, 0).substream("synthetic")
    pool = _word_pool(root.substream("pool"), 40)
    keyword = "zq" + pool[0][:2]
    markers = ["m" + w[:3] for w in pool[1:5]]
    others = {m: [o for o in markers if o != m] for m in markers}

    tags = ("train", "dev", "test")
    gaze_sets = [(root.substream("gaze", tag), tag, n)
                 for tag, n in (("train", n_gaze_train), ("dev", n_gaze_dev))]
    kw_sets = [(root.substream("keyword", tag), tag, n) for tag, n in zip(tags, n_keyword)]
    pr_sets = [(root.substream("pairs", tag), tag, n) for tag, n in zip(tags, n_pairs)]
    kw_labels = [_labels(srng, n) for srng, _, n in kw_sets]
    pr_labels = [_labels(srng, n) for srng, _, n in pr_sets]
    kw_pos = [[i for i, lbl in enumerate(labels) if lbl == 1] for labels in kw_labels]
    pr_neg = [[i for i, lbl in enumerate(labels) if lbl == 0] for labels in pr_labels]

    # each set's streams, the sets in the order gaze, keyword, pairs
    text_streams = ([_firsts(srng, "text", range(n)) for srng, _, n in gaze_sets + kw_sets]
                    + [_firsts(srng, "t1", range(n)) + _firsts(srng, "t2", range(n))
                       for srng, _, n in pr_sets])
    # one uniform from each positive's at stream; from each pair's m1, a1
    # and a2 streams and each negative's m2
    pick_streams = ([_firsts(srng, "at", pos) for (srng, _, _), pos in zip(kw_sets, kw_pos)]
                    + [_firsts(srng, "m1", range(n)) + _firsts(srng, "a1", range(n))
                       + _firsts(srng, "a2", range(n)) + _firsts(srng, "m2", neg)
                       for (srng, _, n), neg in zip(pr_sets, pr_neg)])
    texts = _split(_sentences(sum(text_streams, []), pool, w_min, w_max), text_streams)
    picks = _split(first_uniforms(sum(pick_streams, []), 1)[:, 0], pick_streams)
    readings = [[(s, r) for s in range(n) for r in range(readers)] for _, _, n in gaze_sets]
    path_streams = [srng.substreams("path", tails=reads)
                    for (srng, _, _), reads in zip(gaze_sets, readings)]
    paths = _split(markov.sample_paths(
        [len(words[s]) for words, reads in zip(texts, readings) for s, _ in reads],
        sum(path_streams, [])), path_streams)

    def gaze(tag: str, texts, reads, paths) -> list[GazeRecord]:
        return [GazeRecord(f"{tag}-{s}", f"r{r}", " ".join(texts[s]), path)
                for (s, r), path in zip(reads, paths)]

    def keyword_set(tag: str, texts, labels, positive, u) -> list[TextInstance]:
        for i, at in zip(positive, _picks(u, [len(texts[i]) for i in positive])):
            texts[i][at] = keyword
        return [TextInstance(f"kw-{tag}-{i}", " ".join(words), None, lbl)
                for i, (words, lbl) in enumerate(zip(texts, labels))]

    def pairs_set(tag: str, texts, labels, neg, u) -> list[TextInstance]:
        n = len(labels)
        w1s, w2s = texts[:n], texts[n:]
        m1s = [markers[k] for k in _picks(u[:n], [len(markers)] * n)]
        m2s = list(m1s)
        for i, k in zip(neg, _picks(u[3 * n:], [len(others[m1s[i]]) for i in neg])):
            m2s[i] = others[m1s[i]][k]
        for ws, ms, ats in ((w1s, m1s, u[n:2 * n]), (w2s, m2s, u[2 * n:3 * n])):
            for words, marker, at in zip(ws, ms, _picks(ats, [len(w) for w in ws])):
                words[at] = marker
        return [TextInstance(f"pr-{tag}-{i}", " ".join(w1), " ".join(w2), lbl)
                for i, (w1, w2, lbl) in enumerate(zip(w1s, w2s, labels))]

    gz = [gaze(tag, *args) for (_, tag, _), *args in zip(gaze_sets, texts, readings, paths)]
    kw = [keyword_set(tag, *args)
          for (_, tag, _), *args in zip(kw_sets, texts[2:5], kw_labels, kw_pos, picks)]
    pr = [pairs_set(tag, *args)
          for (_, tag, _), *args in zip(pr_sets, texts[5:], pr_labels, pr_neg, picks[3:])]
    kw_spec = DatasetSpec("keyword", SINGLE, CLASSES, "accuracy", 2)
    pr_spec = DatasetSpec("pairs", PAIR, CLASSES, "accuracy", 2)
    return SyntheticSuite(markov, *gz, kw_spec, *kw, pr_spec, *pr)
